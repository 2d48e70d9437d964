#include "litmus/format.hh"

#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "common/strings.hh"
#include "litmus/parse_util.hh"

namespace lts::litmus
{

namespace
{

std::string
annotSuffix(MemOrder order)
{
    std::string s = toString(order);
    return s.empty() ? "" : "." + s;
}

std::string
scopeSuffix(const Event &e)
{
    return e.scope == Scope::System ? "" : "@" + toString(e.scope);
}

std::string
locName(int loc)
{
    return "m" + std::to_string(loc);
}

} // namespace

std::string
writeLitmus(const LitmusTest &test)
{
    std::ostringstream out;
    out << "LTS " << (test.name.empty() ? "unnamed" : test.name) << "\n";
    int reg = 0;
    for (int t = 0; t < test.numThreads; t++) {
        out << "thread " << t << ":";
        bool first = true;
        for (int id : test.threadEvents(t)) {
            const Event &e = test.events[id];
            out << (first ? " " : " ; ");
            first = false;
            switch (e.type) {
              case EventType::Write:
                out << "St" << annotSuffix(e.order) << scopeSuffix(e) << " ["
                    << locName(e.loc) << "]";
                break;
              case EventType::Read:
                out << "Ld" << annotSuffix(e.order) << scopeSuffix(e) << " r"
                    << reg++ << " = [" << locName(e.loc) << "]";
                break;
              case EventType::Fence:
                out << "Fence" << annotSuffix(e.order) << scopeSuffix(e);
                break;
            }
        }
        out << "\n";
    }
    if (test.hasWorkgroups()) {
        out << "wg:";
        for (int t = 0; t < test.numThreads; t++)
            out << " " << test.workgroupOf(t);
        out << "\n";
    }
    for (size_t i = 0; i < test.size(); i++) {
        for (size_t j = 0; j < test.size(); j++) {
            if (test.addrDep.test(i, j))
                out << "dep addr " << i << " -> " << j << "\n";
            if (test.dataDep.test(i, j))
                out << "dep data " << i << " -> " << j << "\n";
            if (test.ctrlDep.test(i, j))
                out << "dep ctrl " << i << " -> " << j << "\n";
            if (test.rmw.test(i, j))
                out << "rmw " << i << " " << j << "\n";
        }
    }
    if (test.hasForbidden) {
        std::vector<std::string> parts;
        for (size_t j = 0; j < test.size(); j++) {
            if (!test.events[j].isRead())
                continue;
            bool sourced = false;
            for (size_t i = 0; i < test.size(); i++) {
                if (test.forbidden.rf.test(i, j)) {
                    parts.push_back("rf " + std::to_string(i) + " -> " +
                                    std::to_string(j));
                    sourced = true;
                }
            }
            if (!sourced)
                parts.push_back("init " + std::to_string(j));
        }
        // Emit the co order as immediate-successor constraints.
        for (size_t i = 0; i < test.size(); i++) {
            for (size_t j = 0; j < test.size(); j++) {
                if (!test.forbidden.co.test(i, j))
                    continue;
                bool immediate = true;
                for (size_t k = 0; k < test.size(); k++) {
                    if (test.forbidden.co.test(i, k) &&
                        test.forbidden.co.test(k, j))
                        immediate = false;
                }
                if (immediate) {
                    parts.push_back("co " + std::to_string(i) + " < " +
                                    std::to_string(j));
                }
            }
        }
        // The line is emitted even when no part constrains the outcome
        // (no reads, no location written twice): its *presence* is what
        // distinguishes an empty forbidden outcome from no outcome.
        out << "forbidden: " << join(parts, " ; ") << "\n";
    }
    out << "end\n";
    return out.str();
}

void
writeLitmusSuite(std::ostream &out, const std::vector<LitmusTest> &tests)
{
    for (const auto &t : tests)
        out << writeLitmus(t) << "\n";
}

LitmusTest
parseLitmus(const std::string &text)
{
    std::istringstream in(text);
    auto suite = parseLitmusSuite(in);
    if (suite.size() != 1)
        throw std::runtime_error("expected exactly one test, got " +
                                 std::to_string(suite.size()));
    return suite[0];
}

namespace
{

MemOrder
parseAnnot(const LineReader &reader, const std::string &s)
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
    reader.fail("bad annotation '" + s + "'");
}

/** Parse one instruction like "St.rel [m0]" or "Ld r0 = [m1]". */
void
parseInstruction(const LineReader &reader, TestBuilder &builder, int tid,
                 const std::string &instr)
{
    std::string s = trim(instr);
    if (s.empty())
        reader.fail("empty instruction");
    // Opcode (with optional .annotation and @scope).
    size_t sp = s.find(' ');
    std::string opcode = sp == std::string::npos ? s : s.substr(0, sp);
    std::string rest = sp == std::string::npos ? "" : trim(s.substr(sp));
    std::string base = opcode;
    std::string scope_str;
    size_t at = base.find('@');
    if (at != std::string::npos) {
        scope_str = base.substr(at + 1);
        base = base.substr(0, at);
    }
    std::string annot;
    size_t dot = base.find('.');
    if (dot != std::string::npos) {
        annot = base.substr(dot + 1);
        base = base.substr(0, dot);
    }
    MemOrder order = parseAnnot(reader, annot);
    Scope scope = Scope::System;
    if (!scope_str.empty()) {
        if (scope_str == "wg")
            scope = Scope::WorkGroup;
        else if (scope_str == "dev")
            scope = Scope::Device;
        else if (scope_str == "wi")
            scope = Scope::WorkItem;
        else if (scope_str != "sys")
            reader.fail("bad scope '" + scope_str + "'");
    }

    auto parseLoc = [&](const std::string &piece) {
        size_t lb = piece.find('[');
        size_t rb = piece.find(']');
        if (lb == std::string::npos || rb == std::string::npos || rb < lb)
            reader.fail("missing [location]");
        return trim(piece.substr(lb + 1, rb - lb - 1));
    };

    int ev;
    if (base == "St") {
        ev = builder.write(tid, parseLoc(rest), order);
    } else if (base == "Ld") {
        // "rK = [loc]": the register name is ignored.
        size_t eq = rest.find('=');
        if (eq == std::string::npos)
            reader.fail("load without '='");
        ev = builder.read(tid, parseLoc(rest.substr(eq + 1)), order);
    } else if (base == "Fence") {
        ev = builder.fence(tid, order);
    } else {
        reader.fail("unknown opcode '" + base + "'");
    }
    builder.setScope(ev, scope);
}

} // namespace

std::vector<LitmusTest>
parseLitmusSuite(std::istream &in, size_t max_tests)
{
    std::vector<LitmusTest> out;
    LineReader reader(in);
    std::string line;

    bool in_test = false;
    SourceLine test_start;
    std::string name;
    TestBuilder builder;
    std::vector<SourceLine> dep_lines, rmw_lines;
    SourceLine forbidden_line;
    bool forbidden_seen = false;

    auto finish = [&]() {
        // Threads were declared in order; builder events were added when
        // thread lines were parsed, so just apply deps/rmw/outcome.
        auto parseEdge = [&](const SourceLine &at, const std::string &body,
                             const char *sep) {
            auto pieces = split(body, ' ');
            // e.g. {"0", "->", "1"}
            if (pieces.size() != 3 || pieces[1] != sep) {
                reader.failAt(at, "expected 'A " + std::string(sep) +
                                      " B' after the keyword");
            }
            return std::make_pair(
                reader.parseInt(at, pieces[0], "event id"),
                reader.parseInt(at, pieces[2], "event id"));
        };
        for (const auto &d : dep_lines) {
            auto pieces = split(d.text, ' ');
            if (pieces.size() != 5)
                reader.failAt(d, "expected 'dep kind A -> B'");
            auto [from, to] = parseEdge(
                d, pieces[2] + " " + pieces[3] + " " + pieces[4], "->");
            if (pieces[1] == "addr")
                builder.addrDepend(from, to);
            else if (pieces[1] == "data")
                builder.dataDepend(from, to);
            else if (pieces[1] == "ctrl")
                builder.ctrlDepend(from, to);
            else
                reader.failAt(d, "unknown dependency kind '" + pieces[1] +
                                     "'");
        }
        for (const auto &r : rmw_lines) {
            auto pieces = split(r.text, ' ');
            if (pieces.size() != 3)
                reader.failAt(r, "expected 'rmw R W'");
            builder.pairRmw(reader.parseInt(r, pieces[1], "event id"),
                            reader.parseInt(r, pieces[2], "event id"));
        }
        if (forbidden_seen) {
            // An empty directive list is still an outcome declaration:
            // it distinguishes "forbids the trivial execution" from "no
            // forbidden outcome" (which has no 'forbidden:' line at all).
            builder.markForbidden();
            for (const auto &raw : split(forbidden_line.text, ';')) {
                std::string part = trim(raw);
                if (part.empty())
                    continue;
                SourceLine at{forbidden_line.number, part};
                if (startsWith(part, "rf ")) {
                    auto [w, r] = parseEdge(at, part.substr(3), "->");
                    builder.readsFrom(w, r);
                } else if (startsWith(part, "init ")) {
                    builder.readsInitial(
                        reader.parseInt(at, trim(part.substr(5)),
                                        "event id"));
                } else if (startsWith(part, "co ")) {
                    auto [a, b] = parseEdge(at, part.substr(3), "<");
                    builder.coOrder(a, b);
                } else {
                    reader.failAt(at, "unknown outcome directive");
                }
            }
        }
        try {
            out.push_back(builder.build(name));
        } catch (const std::out_of_range &) {
            // Thrown by the builder's .at()-checked edge remapping.
            reader.failAt(test_start,
                          "an edge names an event id outside the test");
        } catch (const std::logic_error &e) {
            reader.failAt(test_start, std::string("invalid test: ") +
                                          e.what());
        }
        builder = TestBuilder();
        dep_lines.clear();
        rmw_lines.clear();
        forbidden_seen = false;
        forbidden_line = SourceLine{};
        in_test = false;
        reader.clearContext();
    };

    while (out.size() < max_tests && reader.next(line)) {
        std::string s = trim(line);
        if (s.empty() || s[0] == '#')
            continue;
        if (startsWith(s, "LTS ")) {
            if (in_test)
                reader.fail("nested test (missing 'end'?)");
            in_test = true;
            name = trim(s.substr(4));
            test_start = reader.here(s);
            reader.setContext(name);
            continue;
        }
        if (!in_test)
            reader.fail("content outside a test");
        if (startsWith(s, "thread ")) {
            size_t colon = s.find(':');
            if (colon == std::string::npos)
                reader.fail("thread line without ':'");
            int declared = reader.parseInt(
                reader.here(s), trim(s.substr(7, colon - 7)), "thread id");
            int tid = builder.newThread();
            if (tid != declared)
                reader.fail("threads must be declared densely in order");
            for (const auto &instr : split(s.substr(colon + 1), ';'))
                parseInstruction(reader, builder, tid, instr);
        } else if (startsWith(s, "wg:")) {
            auto labels = split(s.substr(3), ' ');
            for (size_t t = 0; t < labels.size(); t++) {
                int wg = reader.parseInt(reader.here(s), labels[t],
                                         "workgroup label");
                try {
                    builder.setWorkgroup(static_cast<int>(t), wg);
                } catch (const std::out_of_range &) {
                    reader.fail("workgroup list names more threads than "
                                "declared");
                }
            }
        } else if (startsWith(s, "dep ")) {
            dep_lines.push_back(reader.here(s));
        } else if (startsWith(s, "rmw ")) {
            rmw_lines.push_back(reader.here(s));
        } else if (startsWith(s, "forbidden:")) {
            forbidden_seen = true;
            forbidden_line = reader.here(trim(s.substr(10)));
        } else if (s == "end") {
            finish();
        } else {
            reader.fail("unrecognized line");
        }
    }
    if (in_test) {
        reader.failAt(test_start,
                      "unterminated test (missing 'end')");
    }
    return out;
}

} // namespace lts::litmus
