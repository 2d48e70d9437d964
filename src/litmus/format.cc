#include "litmus/format.hh"

#include <charconv>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "common/strings.hh"
#include "litmus/parse_util.hh"

namespace lts::litmus
{

namespace
{

/** Append the decimal form of @p v: the bytes std::to_string gives. */
template <typename Int>
void
appendInt(std::string &out, Int v)
{
    char buf[24];
    char *end = std::to_chars(buf, buf + sizeof buf, v).ptr;
    out.append(buf, end);
}

/** Append @p e's ".annotation" and "@scope" suffixes (none by default). */
void
appendSuffixes(std::string &out, const Event &e)
{
    std::string annot = toString(e.order);
    if (!annot.empty()) {
        out += '.';
        out += annot;
    }
    if (e.scope != Scope::System) {
        out += '@';
        out += toString(e.scope);
    }
}

/** Append "<a><sep><b>", e.g. "0 -> 1". */
void
appendEdge(std::string &out, size_t a, const char *sep, size_t b)
{
    appendInt(out, a);
    out += sep;
    appendInt(out, b);
}

void
appendLitmus(std::string &out, const LitmusTest &test)
{
    out += "LTS ";
    out += test.name.empty() ? "unnamed" : test.name;
    out += '\n';
    int reg = 0;
    for (int t = 0; t < test.numThreads; t++) {
        out += "thread ";
        appendInt(out, t);
        out += ':';
        bool first = true;
        for (const Event &slot : test.events) {
            if (slot.tid != t)
                continue;
            const Event &e = test.events[slot.id];
            out += first ? " " : " ; ";
            first = false;
            switch (e.type) {
              case EventType::Write:
                out += "St";
                appendSuffixes(out, e);
                out += " [m";
                appendInt(out, e.loc);
                out += ']';
                break;
              case EventType::Read:
                out += "Ld";
                appendSuffixes(out, e);
                out += " r";
                appendInt(out, reg++);
                out += " = [m";
                appendInt(out, e.loc);
                out += ']';
                break;
              case EventType::Fence:
                out += "Fence";
                appendSuffixes(out, e);
                break;
            }
        }
        out += '\n';
    }
    if (test.hasWorkgroups()) {
        out += "wg:";
        for (int t = 0; t < test.numThreads; t++) {
            out += ' ';
            appendInt(out, test.workgroupOf(t));
        }
        out += '\n';
    }
    const size_t n = test.size();
    for (size_t i = 0; i < n; i++) {
        for (size_t j = 0; j < n; j++) {
            if (test.addrDep.test(i, j)) {
                out += "dep addr ";
                appendEdge(out, i, " -> ", j);
                out += '\n';
            }
            if (test.dataDep.test(i, j)) {
                out += "dep data ";
                appendEdge(out, i, " -> ", j);
                out += '\n';
            }
            if (test.ctrlDep.test(i, j)) {
                out += "dep ctrl ";
                appendEdge(out, i, " -> ", j);
                out += '\n';
            }
            if (test.rmw.test(i, j)) {
                out += "rmw ";
                appendEdge(out, i, " ", j);
                out += '\n';
            }
        }
    }
    if (test.hasForbidden) {
        // The line is emitted even when no part constrains the outcome
        // (no reads, no location written twice): its *presence* is what
        // distinguishes an empty forbidden outcome from no outcome.
        out += "forbidden: ";
        bool first = true;
        auto part = [&](const char *directive) {
            if (!first)
                out += " ; ";
            first = false;
            out += directive;
        };
        for (size_t j = 0; j < n; j++) {
            if (!test.events[j].isRead())
                continue;
            bool sourced = false;
            for (size_t i = 0; i < n; i++) {
                if (test.forbidden.rf.test(i, j)) {
                    part("rf ");
                    appendEdge(out, i, " -> ", j);
                    sourced = true;
                }
            }
            if (!sourced) {
                part("init ");
                appendInt(out, j);
            }
        }
        // Emit the co order as immediate-successor constraints.
        for (size_t i = 0; i < n; i++) {
            for (size_t j = 0; j < n; j++) {
                if (!test.forbidden.co.test(i, j))
                    continue;
                bool immediate = true;
                for (size_t k = 0; k < n; k++) {
                    if (test.forbidden.co.test(i, k) &&
                        test.forbidden.co.test(k, j))
                        immediate = false;
                }
                if (immediate) {
                    part("co ");
                    appendEdge(out, i, " < ", j);
                }
            }
        }
        out += '\n';
    }
    out += "end\n";
}

} // namespace

std::string
writeLitmus(const LitmusTest &test)
{
    std::string out;
    appendLitmus(out, test);
    return out;
}

void
appendLitmusSuite(std::string &out, const std::vector<LitmusTest> &tests)
{
    for (const auto &t : tests) {
        appendLitmus(out, t);
        out += '\n';
    }
}

void
writeLitmusSuite(std::ostream &out, const std::vector<LitmusTest> &tests)
{
    std::string text;
    for (const auto &t : tests) {
        text.clear();
        appendLitmus(text, t);
        text += '\n';
        out << text;
    }
}

LitmusTest
parseLitmus(const std::string &text)
{
    TextCursor in(text);
    auto suite = parseLitmusSuite(in);
    if (suite.size() != 1)
        throw std::runtime_error("expected exactly one test, got " +
                                 std::to_string(suite.size()));
    return std::move(suite[0]);
}

namespace
{

/** Call @p fn on each non-empty piece of @p s split on @p sep. */
template <typename Fn>
void
forEachPiece(std::string_view s, char sep, Fn &&fn)
{
    while (!s.empty()) {
        size_t end = s.find(sep);
        std::string_view piece = s.substr(0, end);
        if (!piece.empty())
            fn(piece);
        if (end == std::string_view::npos)
            break;
        s.remove_prefix(end + 1);
    }
}

/**
 * Split @p s on @p sep, dropping empty pieces, as split() does: the
 * first @p cap pieces land in @p out, and the total count is returned.
 */
size_t
splitPieces(std::string_view s, char sep, std::string_view *out, size_t cap)
{
    size_t count = 0;
    forEachPiece(s, sep, [&](std::string_view piece) {
        if (count < cap)
            out[count] = piece;
        count++;
    });
    return count;
}

/** A line of the current test, applied only at the test's 'end'. */
struct HeldLine
{
    int number = 0;
    std::string_view text;
};

/**
 * One pass over the lines of a TextCursor. Every string it keeps is a
 * view into the cursor's text: the test name, the held dep/rmw/outcome
 * lines and the diagnostic context.
 */
class SuiteParser
{
  public:
    explicit SuiteParser(TextCursor &in)
        : in(in), firstLine(in.lineNumber())
    {}

    std::vector<LitmusTest> parse(size_t max_tests);

  private:
    int lineNo() const { return in.lineNumber() - firstLine; }
    HeldLine here(std::string_view text) const { return {lineNo(), text}; }

    /** Fail at the current line, quoting it as read. */
    [[noreturn]] void
    fail(const std::string &why) const
    {
        parseFail(ParseSite{lineNo(), context, raw}, why);
    }

    [[noreturn]] void
    failAt(const HeldLine &at, const std::string &why) const
    {
        parseFail(ParseSite{at.number, context, at.text}, why);
    }

    int
    eventId(const HeldLine &at, std::string_view s) const
    {
        return parseCount(ParseSite{at.number, context, at.text}, s,
                          "event id");
    }

    MemOrder annotation(std::string_view s) const;
    void instruction(int tid, std::string_view instr);
    std::pair<int, int> edge(const HeldLine &at, std::string_view body,
                             const char *sep) const;
    void finish(std::vector<LitmusTest> &out);

    TextCursor &in;
    const int firstLine;
    std::string_view raw;     ///< the current line as read
    std::string_view context; ///< name of the test being parsed

    bool inTest = false;
    HeldLine testStart;
    TestBuilder builder;
    std::vector<HeldLine> depLines, rmwLines;
    HeldLine forbiddenLine;
    bool forbiddenSeen = false;
};

MemOrder
SuiteParser::annotation(std::string_view s) const
{
    if (s.empty())
        return MemOrder::Plain;
    if (s == "cns")
        return MemOrder::Consume;
    if (s == "acq")
        return MemOrder::Acquire;
    if (s == "rel")
        return MemOrder::Release;
    if (s == "ar")
        return MemOrder::AcqRel;
    if (s == "sc")
        return MemOrder::SeqCst;
    fail("bad annotation '" + std::string(s) + "'");
}

/** Parse one instruction like "St.rel [m0]" or "Ld r0 = [m1]". */
void
SuiteParser::instruction(int tid, std::string_view instr)
{
    std::string_view s = trimView(instr);
    if (s.empty())
        fail("empty instruction");
    // Opcode (with optional .annotation and @scope).
    size_t sp = s.find(' ');
    std::string_view base = s.substr(0, sp);
    std::string_view rest = sp == std::string_view::npos
                                ? std::string_view()
                                : trimView(s.substr(sp));
    std::string_view scope_str;
    size_t at = base.find('@');
    if (at != std::string_view::npos) {
        scope_str = base.substr(at + 1);
        base = base.substr(0, at);
    }
    std::string_view annot;
    size_t dot = base.find('.');
    if (dot != std::string_view::npos) {
        annot = base.substr(dot + 1);
        base = base.substr(0, dot);
    }
    MemOrder order = annotation(annot);
    Scope scope = Scope::System;
    if (!scope_str.empty()) {
        if (scope_str == "wg")
            scope = Scope::WorkGroup;
        else if (scope_str == "dev")
            scope = Scope::Device;
        else if (scope_str == "wi")
            scope = Scope::WorkItem;
        else if (scope_str != "sys")
            fail("bad scope '" + std::string(scope_str) + "'");
    }

    auto location = [&](std::string_view piece) {
        size_t lb = piece.find('[');
        size_t rb = piece.find(']');
        if (lb == std::string_view::npos || rb == std::string_view::npos ||
            rb < lb)
            fail("missing [location]");
        return std::string(trimView(piece.substr(lb + 1, rb - lb - 1)));
    };

    int ev;
    if (base == "St") {
        ev = builder.write(tid, location(rest), order);
    } else if (base == "Ld") {
        // "rK = [loc]": the register name is ignored.
        size_t eq = rest.find('=');
        if (eq == std::string_view::npos)
            fail("load without '='");
        ev = builder.read(tid, location(rest.substr(eq + 1)), order);
    } else if (base == "Fence") {
        ev = builder.fence(tid, order);
    } else {
        fail("unknown opcode '" + std::string(base) + "'");
    }
    builder.setScope(ev, scope);
}

/** "A <sep> B" after a keyword, e.g. "0 -> 1". */
std::pair<int, int>
SuiteParser::edge(const HeldLine &at, std::string_view body,
                  const char *sep) const
{
    std::string_view pieces[3];
    if (splitPieces(body, ' ', pieces, 3) != 3 || pieces[1] != sep) {
        failAt(at, "expected 'A " + std::string(sep) +
                       " B' after the keyword");
    }
    return {eventId(at, pieces[0]), eventId(at, pieces[2])};
}

void
SuiteParser::finish(std::vector<LitmusTest> &out)
{
    // Threads were declared in order; builder events were added when
    // thread lines were parsed, so just apply deps/rmw/outcome.
    for (const HeldLine &d : depLines) {
        std::string_view pieces[5];
        if (splitPieces(d.text, ' ', pieces, 5) != 5)
            failAt(d, "expected 'dep kind A -> B'");
        // "dep kind A -> B": the edge is the last three pieces.
        auto [from, to] = edge(
            d, d.text.substr(pieces[2].data() - d.text.data()), "->");
        if (pieces[1] == "addr")
            builder.addrDepend(from, to);
        else if (pieces[1] == "data")
            builder.dataDepend(from, to);
        else if (pieces[1] == "ctrl")
            builder.ctrlDepend(from, to);
        else
            failAt(d, "unknown dependency kind '" + std::string(pieces[1]) +
                          "'");
    }
    for (const HeldLine &r : rmwLines) {
        std::string_view pieces[3];
        if (splitPieces(r.text, ' ', pieces, 3) != 3)
            failAt(r, "expected 'rmw R W'");
        builder.pairRmw(eventId(r, pieces[1]), eventId(r, pieces[2]));
    }
    if (forbiddenSeen) {
        // An empty directive list is still an outcome declaration: it
        // distinguishes "forbids the trivial execution" from "no
        // forbidden outcome" (which has no 'forbidden:' line at all).
        builder.markForbidden();
        forEachPiece(forbiddenLine.text, ';', [&](std::string_view raw_part) {
            std::string_view part = trimView(raw_part);
            if (part.empty())
                return;
            HeldLine at{forbiddenLine.number, part};
            if (startsWith(part, "rf ")) {
                auto [w, r] = edge(at, part.substr(3), "->");
                builder.readsFrom(w, r);
            } else if (startsWith(part, "init ")) {
                builder.readsInitial(eventId(at, trimView(part.substr(5))));
            } else if (startsWith(part, "co ")) {
                auto [a, b] = edge(at, part.substr(3), "<");
                builder.coOrder(a, b);
            } else {
                failAt(at, "unknown outcome directive");
            }
        });
    }
    try {
        out.push_back(builder.build(std::string(context)));
    } catch (const std::out_of_range &) {
        // Thrown by the builder's .at()-checked edge remapping.
        failAt(testStart, "an edge names an event id outside the test");
    } catch (const std::logic_error &e) {
        failAt(testStart, std::string("invalid test: ") + e.what());
    }
    builder.clear();
    depLines.clear();
    rmwLines.clear();
    forbiddenSeen = false;
    forbiddenLine = HeldLine{};
    inTest = false;
    context = std::string_view();
}

std::vector<LitmusTest>
SuiteParser::parse(size_t max_tests)
{
    std::vector<LitmusTest> out;
    while (out.size() < max_tests && in.next(raw)) {
        std::string_view s = trimView(raw);
        if (s.empty() || s[0] == '#')
            continue;
        if (startsWith(s, "LTS ")) {
            if (inTest)
                fail("nested test (missing 'end'?)");
            inTest = true;
            context = trimView(s.substr(4));
            testStart = here(s);
            continue;
        }
        if (!inTest)
            fail("content outside a test");
        if (startsWith(s, "thread ")) {
            size_t colon = s.find(':');
            if (colon == std::string_view::npos)
                fail("thread line without ':'");
            int declared =
                parseCount(ParseSite{lineNo(), context, s},
                           trimView(s.substr(7, colon - 7)), "thread id");
            int tid = builder.newThread();
            if (tid != declared)
                fail("threads must be declared densely in order");
            forEachPiece(s.substr(colon + 1), ';',
                         [&](std::string_view instr) {
                             instruction(tid, instr);
                         });
        } else if (startsWith(s, "wg:")) {
            int t = 0;
            forEachPiece(s.substr(3), ' ', [&](std::string_view label) {
                int wg = parseCount(ParseSite{lineNo(), context, s}, label,
                                    "workgroup label");
                try {
                    builder.setWorkgroup(t++, wg);
                } catch (const std::out_of_range &) {
                    fail("workgroup list names more threads than "
                         "declared");
                }
            });
        } else if (startsWith(s, "dep ")) {
            depLines.push_back(here(s));
        } else if (startsWith(s, "rmw ")) {
            rmwLines.push_back(here(s));
        } else if (startsWith(s, "forbidden:")) {
            forbiddenSeen = true;
            forbiddenLine = here(trimView(s.substr(10)));
        } else if (s == "end") {
            finish(out);
        } else {
            fail("unrecognized line");
        }
    }
    if (inTest)
        failAt(testStart, "unterminated test (missing 'end')");
    return out;
}

} // namespace

std::vector<LitmusTest>
parseLitmusSuite(TextCursor &in, size_t max_tests)
{
    return SuiteParser(in).parse(max_tests);
}

std::vector<LitmusTest>
parseLitmusSuite(std::istream &in, size_t max_tests)
{
    // Buffer exactly the lines the parse reads: up to the max_tests-th
    // 'end' line (every 'end' either closes a test or is an error), so
    // the rest of the stream stays unread.
    std::string text, line;
    size_t ends = 0;
    while (ends < max_tests && std::getline(in, line)) {
        text += line;
        text += '\n';
        if (trimView(line) == "end")
            ends++;
    }
    TextCursor cursor(text);
    return parseLitmusSuite(cursor, max_tests);
}

} // namespace lts::litmus
