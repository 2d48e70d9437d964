/**
 * @file
 * Tests for the litmus interchange format: write/parse round trips on
 * the named tests and the synthesized suites, plus parser diagnostics.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "litmus/canon.hh"
#include "litmus/format.hh"

namespace lts::litmus
{
namespace
{

LitmusTest
mpRelAcq()
{
    TestBuilder b;
    int t0 = b.newThread();
    b.write(t0, "x");
    int wf = b.write(t0, "y", MemOrder::Release);
    int t1 = b.newThread();
    int rf = b.read(t1, "y", MemOrder::Acquire);
    int rd = b.read(t1, "x");
    b.readsFrom(wf, rf);
    b.readsInitial(rd);
    return b.build("MP+rel+acq");
}

LitmusTest
powerishTest()
{
    TestBuilder b;
    int t0 = b.newThread();
    int r0 = b.read(t0, "x");
    b.fence(t0, MemOrder::AcqRel);
    int w0 = b.write(t0, "y");
    b.dataDepend(r0, w0);
    int t1 = b.newThread();
    int r1 = b.read(t1, "y");
    int w1 = b.write(t1, "x");
    b.addrDepend(r1, w1);
    b.readsFrom(w1, r0);
    b.readsFrom(w0, r1);
    return b.build("LB+deps+lwsync");
}

LitmusTest
rmwCoTest()
{
    TestBuilder b;
    int t0 = b.newThread();
    int r = b.read(t0, "x");
    int w = b.write(t0, "x");
    b.pairRmw(r, w);
    int t1 = b.newThread();
    int w2 = b.write(t1, "x");
    b.readsInitial(r);
    b.coOrder(w2, w); // remote store first in coherence
    return b.build("rmw+co");
}

TEST(FormatTest, WriteContainsExpectedSyntax)
{
    std::string s = writeLitmus(mpRelAcq());
    EXPECT_NE(s.find("LTS MP+rel+acq"), std::string::npos);
    EXPECT_NE(s.find("thread 0: St [m0] ; St.rel [m1]"), std::string::npos);
    EXPECT_NE(s.find("Ld.acq r0 = [m1]"), std::string::npos);
    EXPECT_NE(s.find("forbidden: rf 1 -> 2 ; init 3"), std::string::npos);
    EXPECT_NE(s.find("end"), std::string::npos);
}

TEST(FormatTest, RoundTripPreservesStructureAndOutcome)
{
    for (const LitmusTest &t : {mpRelAcq(), powerishTest(), rmwCoTest()}) {
        LitmusTest back = parseLitmus(writeLitmus(t));
        EXPECT_EQ(back.name, t.name);
        EXPECT_EQ(fullSerialize(back), fullSerialize(t)) << t.name;
    }
}

TEST(FormatTest, SuiteRoundTrip)
{
    std::vector<LitmusTest> suite = {mpRelAcq(), rmwCoTest()};
    std::ostringstream out;
    writeLitmusSuite(out, suite);
    std::istringstream in(out.str());
    auto back = parseLitmusSuite(in);
    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(fullSerialize(back[0]), fullSerialize(suite[0]));
    EXPECT_EQ(fullSerialize(back[1]), fullSerialize(suite[1]));
}

TEST(FormatTest, BoundedSuiteParseLeavesTheRestOfTheStream)
{
    // Two suites back to back, as service payloads carry them: a
    // bounded parse stops right after its last test's 'end' line.
    std::ostringstream out;
    writeLitmusSuite(out, {mpRelAcq(), rmwCoTest()});
    out << "trailer\n";
    writeLitmusSuite(out, {powerishTest()});
    std::istringstream in(out.str());

    EXPECT_TRUE(parseLitmusSuite(in, 0).empty());
    auto first = parseLitmusSuite(in, 2);
    ASSERT_EQ(first.size(), 2u);
    EXPECT_EQ(first[1].name, rmwCoTest().name);
    std::string line;
    while (std::getline(in, line) && line.empty()) {
    }
    EXPECT_EQ(line, "trailer");
    auto second = parseLitmusSuite(in, 5);
    ASSERT_EQ(second.size(), 1u);
    EXPECT_EQ(fullSerialize(second[0]), fullSerialize(powerishTest()));
}

TEST(FormatTest, ParsesHandWrittenText)
{
    std::string text = R"(
# the classic message-passing shape
LTS my-mp
thread 0: St [x] ; St.rel [flag]
thread 1: Ld.acq r0 = [flag] ; Ld r1 = [x]
forbidden: rf 1 -> 2 ; init 3
end
)";
    LitmusTest t = parseLitmus(text);
    EXPECT_EQ(t.name, "my-mp");
    EXPECT_EQ(t.size(), 4u);
    EXPECT_EQ(t.numThreads, 2);
    EXPECT_EQ(t.events[1].order, MemOrder::Release);
    EXPECT_EQ(t.events[2].order, MemOrder::Acquire);
    EXPECT_TRUE(t.hasForbidden);
    EXPECT_TRUE(t.forbidden.rf.test(1, 2));
    EXPECT_EQ(t.validate(), "");
}

TEST(FormatTest, ParserDiagnostics)
{
    EXPECT_THROW(parseLitmus("LTS a\nthread 0: Hm [x]\nend\n"),
                 std::runtime_error);
    EXPECT_THROW(parseLitmus("LTS a\nthread 1: St [x]\nend\n"),
                 std::runtime_error); // threads must start at 0
    EXPECT_THROW(parseLitmus("LTS a\nthread 0: St [x]\n"),
                 std::runtime_error); // missing end
    EXPECT_THROW(parseLitmus("thread 0: St [x]\nend\n"),
                 std::runtime_error); // content before LTS
    EXPECT_THROW(parseLitmus("LTS a\nthread 0: Ld [x]\nend\n"),
                 std::runtime_error); // load without '='
    EXPECT_THROW(parseLitmus("LTS a\nthread 0: St.zz [x]\nend\n"),
                 std::runtime_error); // bad annotation
    EXPECT_THROW(
        parseLitmus("LTS a\nthread 0: St [x]\nforbidden: zap 1\nend\n"),
        std::runtime_error); // unknown outcome directive
}

TEST(FormatTest, CoChainRoundTripsThroughImmediateEdges)
{
    TestBuilder b;
    int t0 = b.newThread();
    int w0 = b.write(t0, "x");
    int t1 = b.newThread();
    int w1 = b.write(t1, "x");
    int t2 = b.newThread();
    int w2 = b.write(t2, "x");
    b.coOrder(w2, w1);
    b.coOrder(w1, w0); // co: w2 < w1 < w0
    LitmusTest t = b.build("co-chain");
    LitmusTest back = parseLitmus(writeLitmus(t));
    EXPECT_EQ(back.forbidden.co, t.forbidden.co);
    EXPECT_TRUE(back.forbidden.co.test(w2, w0)); // transitivity restored
}

} // namespace
} // namespace lts::litmus
// Appended: scoped-format tests live in their own namespace block so the
// file's earlier anonymous namespace stays untouched.
namespace lts::litmus
{
namespace
{

TEST(FormatTest, ScopedRoundTrip)
{
    TestBuilder b;
    int t0 = b.newThread();
    b.write(t0, "x");
    int wf = b.write(t0, "y", MemOrder::Release);
    b.setScope(wf, Scope::WorkGroup);
    int t1 = b.newThread();
    int rf = b.read(t1, "y", MemOrder::Acquire);
    b.setScope(rf, Scope::System);
    b.read(t1, "x");
    b.setWorkgroup(t0, 0);
    b.setWorkgroup(t1, 0);
    b.readsFrom(wf, rf);
    LitmusTest t = b.build("scoped-mp");

    std::string text = writeLitmus(t);
    EXPECT_NE(text.find("St.rel@wg [m1]"), std::string::npos);
    EXPECT_NE(text.find("wg: 0 0"), std::string::npos);

    LitmusTest back = parseLitmus(text);
    EXPECT_EQ(fullSerialize(back), fullSerialize(t));
    EXPECT_EQ(back.events[1].scope, Scope::WorkGroup);
    EXPECT_TRUE(back.hasWorkgroups());
}

TEST(FormatTest, BadScopeRejected)
{
    EXPECT_THROW(parseLitmus("LTS a\nthread 0: St.rel@zz [x]\nend\n"),
                 std::runtime_error);
}

} // namespace
} // namespace lts::litmus
// Appended: interchange-bugfix round coverage — line-numbered
// diagnostics for every parser error path, and the distinction between
// "no forbidden outcome" and an explicitly-empty one.
namespace lts::litmus
{
namespace
{

/** Parse @p text, expecting failure; return the diagnostic message. */
std::string
parseError(const std::string &text)
{
    try {
        parseLitmus(text);
    } catch (const std::exception &e) {
        return e.what();
    }
    ADD_FAILURE() << "expected parse failure for: " << text;
    return "";
}

TEST(FormatTest, DiagnosticsNameLineAndTest)
{
    struct Case
    {
        const char *text;
        const char *line;  ///< expected "line N" fragment
        const char *why;   ///< expected reason fragment
    };
    const Case cases[] = {
        {"LTS a\nthread 0: Hm [x]\nend\n", "line 2", "unknown opcode"},
        {"LTS a\nthread 0: St.zz [x]\nend\n", "line 2", "bad annotation"},
        {"LTS a\nthread 0: St.rel@zz [x]\nend\n", "line 2", "bad scope"},
        {"LTS a\nthread 0: Ld [x]\nend\n", "line 2", "load without '='"},
        {"LTS a\nthread 0: St x\nend\n", "line 2", "missing [location]"},
        {"LTS a\nthread 0: St [x] ; ; St [x]\nend\n", "line 2",
         "empty instruction"},
        {"LTS a\nthread 1: St [x]\nend\n", "line 2",
         "threads must be declared densely"},
        {"LTS a\nthread 0 St [x]\nend\n", "line 2",
         "thread line without ':'"},
        {"LTS a\nthread 0: St [x]\nzap\nend\n", "line 3",
         "unrecognized line"},
        {"LTS a\nthread 0: St [x]\ndep addr 0 -> \nend\n", "line 3",
         "expected 'dep kind A -> B'"},
        {"LTS a\nthread 0: St [x]\ndep foo 0 -> 0\nend\n", "line 3",
         "unknown dependency kind"},
        {"LTS a\nthread 0: Ld r0 = [x] ; St [x]\nrmw 0\nend\n", "line 3",
         "expected 'rmw R W'"},
        {"LTS a\nthread 0: St [x]\nforbidden: zap 1\nend\n", "line 3",
         "unknown outcome directive"},
        {"LTS a\nthread 0: St [x]\nforbidden: co 9 < 0\nend\n", "line 1",
         "outside the test"},
        {"LTS a\nthread 0: St [x]\nforbidden: init q\nend\n", "line 3",
         "event id"},
        {"LTS a\nthread 0: St [x]\nwg: 0 1\nend\n", "line 3",
         "workgroup list names more threads"},
        {"LTS a\nthread 0: St [x]\nLTS b\nend\n", "line 3",
         "nested test"},
        {"thread 0: St [x]\nend\n", "line 1", "content outside a test"},
        {"LTS a\nthread 0: St [x]\n", "line 1", "missing 'end'"},
    };
    for (const auto &c : cases) {
        std::string msg = parseError(c.text);
        EXPECT_NE(msg.find(c.line), std::string::npos)
            << "in: " << c.text << "got: " << msg;
        EXPECT_NE(msg.find(c.why), std::string::npos)
            << "in: " << c.text << "got: " << msg;
        EXPECT_NE(msg.find("'a'") != std::string::npos ||
                      msg.find("test") != std::string::npos,
                  false)
            << "diagnostic should name the test: " << msg;
    }
}

TEST(FormatTest, EmptyForbiddenIsNotNoForbidden)
{
    // Same program text, differing only in the presence of an (empty)
    // forbidden: line. These are semantically different tests — one
    // forbids the all-initial execution, the other forbids nothing —
    // and must round-trip without collapsing into each other.
    std::string with_line = "LTS a\nthread 0: St [x]\nforbidden:\nend\n";
    std::string without = "LTS a\nthread 0: St [x]\nend\n";

    LitmusTest t1 = parseLitmus(with_line);
    LitmusTest t2 = parseLitmus(without);
    EXPECT_TRUE(t1.hasForbidden);
    EXPECT_FALSE(t2.hasForbidden);
    EXPECT_NE(fullSerialize(t1), fullSerialize(t2));

    LitmusTest r1 = parseLitmus(writeLitmus(t1));
    LitmusTest r2 = parseLitmus(writeLitmus(t2));
    EXPECT_TRUE(r1.hasForbidden);
    EXPECT_FALSE(r2.hasForbidden);
    EXPECT_EQ(fullSerialize(r1), fullSerialize(t1));
    EXPECT_EQ(fullSerialize(r2), fullSerialize(t2));
}

} // namespace
} // namespace lts::litmus
