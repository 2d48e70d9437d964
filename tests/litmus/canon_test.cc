/**
 * @file
 * Canonicalizer tests, including the Figure 9 symmetry example and the
 * Figure 14 WWC blind spot of the paper's algorithm.
 */

#include <gtest/gtest.h>

#include "litmus/canon.hh"
#include "litmus/print.hh"

namespace lts::litmus
{
namespace
{

/** The first test of Figure 9. */
LitmusTest
buildFig9a()
{
    TestBuilder b;
    int t0 = b.newThread();
    b.write(t0, "x");
    int w_y = b.write(t0, "y", MemOrder::Release);
    int t1 = b.newThread();
    int r_y = b.read(t1, "y", MemOrder::Acquire);
    int r_x = b.read(t1, "x");
    b.readsFrom(w_y, r_y);
    b.readsInitial(r_x);
    return b.build("fig9a");
}

/** The second test of Figure 9: threads and addresses swapped. */
LitmusTest
buildFig9b()
{
    TestBuilder b;
    int t0 = b.newThread();
    int r_x = b.read(t0, "x", MemOrder::Acquire);
    int r_y = b.read(t0, "y");
    int t1 = b.newThread();
    b.write(t1, "y");
    int w_x = b.write(t1, "x", MemOrder::Release);
    b.readsFrom(w_x, r_x);
    b.readsInitial(r_y);
    return b.build("fig9b");
}

TEST(CanonTest, Figure9SymmetricTestsMerge)
{
    LitmusTest a = buildFig9a();
    LitmusTest bb = buildFig9b();
    EXPECT_NE(staticSerialize(a), staticSerialize(bb));
    for (CanonMode mode : {CanonMode::Paper, CanonMode::Exact}) {
        EXPECT_EQ(canonicalHash(a, mode), canonicalHash(bb, mode))
            << "mode " << static_cast<int>(mode);
        EXPECT_EQ(staticSerialize(canonicalize(a, mode)),
                  staticSerialize(canonicalize(bb, mode)));
    }
}

TEST(CanonTest, CanonicalFormIsValidAndIdempotent)
{
    LitmusTest a = buildFig9a();
    for (CanonMode mode : {CanonMode::Paper, CanonMode::Exact}) {
        LitmusTest c = canonicalize(a, mode);
        EXPECT_EQ(c.validate(), "");
        LitmusTest cc = canonicalize(c, mode);
        EXPECT_EQ(staticSerialize(c), staticSerialize(cc));
    }
}

TEST(CanonTest, OutcomeIsRemappedWithTheTest)
{
    LitmusTest a = buildFig9a();
    LitmusTest b = buildFig9b();
    LitmusTest ca = canonicalize(a, CanonMode::Exact);
    LitmusTest cb = canonicalize(b, CanonMode::Exact);
    // Both canonical forms must still have a valid forbidden outcome with
    // the same observable shape (one read sees 1, the other sees 0).
    EXPECT_EQ(ca.validate(), "");
    EXPECT_EQ(cb.validate(), "");
    EXPECT_EQ(fullSerialize(ca), fullSerialize(cb));
}

/**
 * One WWC variant (Figure 14).
 *
 * WWC: Tw: St [x],2 ; Ta: Ld r0=[x]; St [y],1 ; Tb: Ld r1=[y]; St [x],1
 * with forbidden outcome r0=2, r1=1, [x]=2 (co: St[x],1 -> St[x],2).
 * Threads Ta and Tb have identical local load/store patterns; the two
 * variants differ only in which of them is declared first, which is the
 * tie the paper's thread-hash sort cannot break.
 */
LitmusTest
buildWwc(bool swap_readers)
{
    TestBuilder b;
    int t_first = b.newThread();
    int t_second = b.newThread();
    int tw = b.newThread();
    int ta = swap_readers ? t_second : t_first; // Ld x; St y
    int tb = swap_readers ? t_first : t_second; // Ld y; St x

    int w_x2 = b.write(tw, "x");
    int r_x = b.read(ta, "x");
    int w_y = b.write(ta, "y");
    int r_y = b.read(tb, "y");
    int w_x1 = b.write(tb, "x");
    b.dataDepend(r_x, w_y);
    b.dataDepend(r_y, w_x1);
    b.readsFrom(w_x2, r_x);
    b.readsFrom(w_y, r_y);
    b.coOrder(w_x1, w_x2);
    return b.build(swap_readers ? "WWC-b" : "WWC-a");
}

TEST(CanonTest, PaperModeMissesWwcSymmetry)
{
    // Threads 1 and 2 of WWC have identical local load/store patterns, so
    // the paper's thread-hash sort cannot distinguish the two variants —
    // the documented redundancy of Figure 14.
    LitmusTest a = buildWwc(false);
    LitmusTest b = buildWwc(true);
    EXPECT_NE(canonicalHash(a, CanonMode::Paper),
              canonicalHash(b, CanonMode::Paper));
}

TEST(CanonTest, ExactModeMergesWwcSymmetry)
{
    LitmusTest a = buildWwc(false);
    LitmusTest b = buildWwc(true);
    EXPECT_EQ(canonicalHash(a, CanonMode::Exact),
              canonicalHash(b, CanonMode::Exact));
}

TEST(CanonTest, DifferentTestsStayDifferent)
{
    LitmusTest mp = buildFig9a();
    LitmusTest wwc = buildWwc(false);
    for (CanonMode mode : {CanonMode::Paper, CanonMode::Exact}) {
        EXPECT_NE(canonicalHash(mp, mode), canonicalHash(wwc, mode));
    }
}

TEST(CanonTest, MemoryOrderIsPartOfIdentity)
{
    // MP with acquire/release differs from plain MP (Section 5.1: the
    // canonicalizer incorporates instruction features).
    TestBuilder b1;
    int t0 = b1.newThread();
    b1.write(t0, "x");
    int w = b1.write(t0, "y");
    int t1 = b1.newThread();
    int r = b1.read(t1, "y");
    b1.read(t1, "x");
    b1.readsFrom(w, r);
    LitmusTest plain = b1.build("mp-plain");

    LitmusTest rel_acq = buildFig9a();
    for (CanonMode mode : {CanonMode::Paper, CanonMode::Exact}) {
        EXPECT_NE(canonicalHash(plain, mode), canonicalHash(rel_acq, mode));
    }
}

TEST(CanonTest, DependenciesArePartOfIdentity)
{
    auto make = [](bool with_dep) {
        TestBuilder b;
        int t0 = b.newThread();
        int r = b.read(t0, "x");
        int w = b.write(t0, "y");
        if (with_dep)
            b.dataDepend(r, w);
        return b.build("t");
    };
    EXPECT_NE(canonicalHash(make(true), CanonMode::Exact),
              canonicalHash(make(false), CanonMode::Exact));
}

TEST(CanonTest, PermuteThreadsExplicit)
{
    LitmusTest a = buildFig9a();
    LitmusTest p = permuteThreads(a, {1, 0});
    EXPECT_EQ(p.validate(), "");
    // Thread 0 of the permuted test is the reader thread.
    EXPECT_TRUE(p.events[0].isRead());
    // Its first-read location is renamed to 0.
    EXPECT_EQ(p.events[0].loc, 0);
    // Round trip restores the original.
    LitmusTest back = permuteThreads(p, {1, 0});
    EXPECT_EQ(staticSerialize(back), staticSerialize(a));
}

TEST(CanonTest, ThreeThreadPermutationsAllMerge)
{
    // All 6 thread orders of WRC must map to one canonical form in exact
    // mode.
    auto wrc = [](const std::vector<int> &order) {
        TestBuilder b;
        std::vector<int> t = {b.newThread(), b.newThread(), b.newThread()};
        int w_x = b.write(t[order[0]], "x");
        int r_x = b.read(t[order[1]], "x");
        int w_y = b.write(t[order[1]], "y");
        int r_y = b.read(t[order[2]], "y");
        int r_x2 = b.read(t[order[2]], "x");
        b.dataDepend(r_x, w_y);
        b.addrDepend(r_y, r_x2);
        b.readsFrom(w_x, r_x);
        b.readsFrom(w_y, r_y);
        b.readsInitial(r_x2);
        return b.build("WRC");
    };
    std::vector<int> order = {0, 1, 2};
    uint64_t want = canonicalHash(wrc(order), CanonMode::Exact);
    int permutations = 0;
    do {
        EXPECT_EQ(canonicalHash(wrc(order), CanonMode::Exact), want);
        permutations++;
    } while (std::next_permutation(order.begin(), order.end()));
    EXPECT_EQ(permutations, 6);
}

/**
 * Twelve events over three threads: a fence, all four dependency kinds,
 * a scoped access, two threads sharing a workgroup, and a forbidden
 * outcome with rf and co edges.
 */
LitmusTest
buildKeyPinTest()
{
    TestBuilder b;
    int t0 = b.newThread();
    int t1 = b.newThread();
    int t2 = b.newThread();
    b.setWorkgroup(t0, 0);
    b.setWorkgroup(t1, 1);
    b.setWorkgroup(t2, 0);

    int r0x = b.read(t0, "x");
    int w0y = b.write(t0, "y");
    b.dataDepend(r0x, w0y);
    b.fence(t0, MemOrder::AcqRel);
    int w0z = b.write(t0, "z", MemOrder::Release);
    b.ctrlDepend(r0x, w0z);

    int r1y = b.read(t1, "y", MemOrder::Acquire);
    int r1z = b.read(t1, "z");
    b.addrDepend(r1y, r1z);
    int w1x = b.write(t1, "x");

    int r2x = b.read(t2, "x");
    int w2x = b.write(t2, "x");
    b.pairRmw(r2x, w2x);
    int w2y = b.write(t2, "y", MemOrder::SeqCst);
    b.setScope(w2y, Scope::WorkGroup);
    int r2y = b.read(t2, "y");
    int w2z = b.write(t2, "z");

    b.readsFrom(w1x, r0x);
    b.readsFrom(w0y, r1y);
    b.readsFrom(w2z, r1z);
    b.readsFrom(w1x, r2x);
    b.readsFrom(w0y, r2y);
    b.coOrder(w1x, w2x);
    b.coOrder(w0y, w2y);
    b.coOrder(w0z, w2z);
    return b.build("keypin");
}

// The serializations are the synthesizer's dedup keys and the suite
// digest's input (digest.hh): these strings must not change without a
// kSuiteDigestFormat bump.
TEST(CanonTest, SerializationsArePinned)
{
    LitmusTest t = buildKeyPinTest();
    ASSERT_EQ(t.validate(), "");
    ASSERT_EQ(t.size(), 12u);
    const std::string want_static =
        "3/3/0:0:0:0:3|0:1:1:0:3|0:2:-1:4:3|0:1:2:3:3|1:0:1:2:3|"
        "1:0:2:0:3|1:1:0:0:3|2:0:0:0:3|2:1:0:0:3|2:1:1:5:1|"
        "2:0:1:0:3|2:1:2:0:3|A4>5,;D0>1,;C0>3,;M7>8,;G0,1,0,;";
    EXPECT_EQ(staticSerialize(t), want_static);
    EXPECT_EQ(fullSerialize(t),
              want_static + "RF1>4,1>10,6>0,6>7,11>5,CO1>9,3>11,6>8,");
    EXPECT_EQ(fullSerialize(canonicalize(t, CanonMode::Exact)),
              "3/3/0:0:0:0:3|0:1:0:0:3|0:1:1:5:1|0:0:1:0:3|0:1:2:0:3|"
              "1:0:0:0:3|1:1:1:0:3|1:2:-1:4:3|1:1:2:3:3|2:0:1:2:3|"
              "2:0:2:0:3|2:1:0:0:3|A9>10,;D5>6,;C5>8,;M0>1,;G0,0,1,;"
              "RF4>10,6>3,6>9,11>0,11>5,CO6>2,8>4,11>1,");
    EXPECT_EQ(fullSerialize(canonicalize(t, CanonMode::Paper)),
              "3/3/0:0:0:0:3|0:1:1:0:3|0:2:-1:4:3|0:1:2:3:3|1:0:0:0:3|"
              "1:1:0:0:3|1:1:1:5:1|1:0:1:0:3|1:1:2:0:3|2:0:1:2:3|"
              "2:0:2:0:3|2:1:0:0:3|A9>10,;D0>1,;C0>3,;M4>5,;G0,0,1,;"
              "RF1>7,1>9,8>10,11>0,11>4,CO1>6,3>8,11>5,");
    EXPECT_EQ(canonicalHash(t, CanonMode::Exact), 983854764674531181ULL);
    EXPECT_EQ(canonicalHash(t, CanonMode::Paper), 2966167597468938070ULL);
}

} // namespace
} // namespace lts::litmus
