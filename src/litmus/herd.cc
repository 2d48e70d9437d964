#include "litmus/herd.hh"

#include <algorithm>
#include <cctype>
#include <map>
#include <sstream>
#include <stdexcept>

#include "common/strings.hh"
#include "litmus/parse_util.hh"

namespace lts::litmus
{

namespace
{

// ---------------------------------------------------------------------------
// Shared vocabulary
// ---------------------------------------------------------------------------

const char *const kX86Regs[] = {"EAX", "EBX", "ECX", "EDX", "ESI", "EDI"};
constexpr size_t kNumX86Regs = sizeof(kX86Regs) / sizeof(kX86Regs[0]);

std::string
cOrderName(MemOrder order)
{
    switch (order) {
      case MemOrder::Plain: return "memory_order_relaxed";
      case MemOrder::Consume: return "memory_order_consume";
      case MemOrder::Acquire: return "memory_order_acquire";
      case MemOrder::Release: return "memory_order_release";
      case MemOrder::AcqRel: return "memory_order_acq_rel";
      case MemOrder::SeqCst: return "memory_order_seq_cst";
    }
    return "memory_order_seq_cst";
}

bool
cOrderFromName(const std::string &name, MemOrder &out)
{
    if (name == "memory_order_relaxed") out = MemOrder::Plain;
    else if (name == "memory_order_consume") out = MemOrder::Consume;
    else if (name == "memory_order_acquire") out = MemOrder::Acquire;
    else if (name == "memory_order_release") out = MemOrder::Release;
    else if (name == "memory_order_acq_rel") out = MemOrder::AcqRel;
    else if (name == "memory_order_seq_cst") out = MemOrder::SeqCst;
    else return false;
    return true;
}

/** Short order mnemonic for LTS-* metadata ("" would be ambiguous). */
std::string
shortOrderToken(MemOrder order)
{
    std::string s = toString(order);
    return s.empty() ? "pln" : s;
}

bool
shortOrderFromToken(const std::string &tok, MemOrder &out)
{
    if (tok == "pln") out = MemOrder::Plain;
    else if (tok == "cns") out = MemOrder::Consume;
    else if (tok == "acq") out = MemOrder::Acquire;
    else if (tok == "rel") out = MemOrder::Release;
    else if (tok == "ar") out = MemOrder::AcqRel;
    else if (tok == "sc") out = MemOrder::SeqCst;
    else return false;
    return true;
}

bool
scopeFromToken(const std::string &tok, Scope &out)
{
    if (tok == "wi") out = Scope::WorkItem;
    else if (tok == "wg") out = Scope::WorkGroup;
    else if (tok == "dev") out = Scope::Device;
    else if (tok == "sys") out = Scope::System;
    else return false;
    return true;
}

/**
 * Least order at least as strong as both halves of an RMW pair: the one
 * operation an atomic_exchange_explicit call performs carries a single
 * memory_order, so a split-order pair is emitted with the join (and the
 * exact halves travel in LTS-RmwOrders metadata).
 */
MemOrder
joinOrders(MemOrder a, MemOrder b)
{
    if (a == b)
        return a;
    auto has = [&](MemOrder o) { return a == o || b == o; };
    if (has(MemOrder::SeqCst))
        return MemOrder::SeqCst;
    if (has(MemOrder::AcqRel))
        return MemOrder::AcqRel;
    bool acq = has(MemOrder::Acquire);
    bool rel = has(MemOrder::Release);
    bool cns = has(MemOrder::Consume);
    if ((acq || cns) && rel)
        return MemOrder::AcqRel;
    if (acq)
        return MemOrder::Acquire;
    if (rel)
        return MemOrder::Release;
    if (cns)
        return MemOrder::Consume;
    return MemOrder::Plain;
}

/** The write paired with rmw read @p r, or -1. */
int
rmwPartner(const LitmusTest &test, size_t r)
{
    for (size_t j = 0; j < test.size(); j++) {
        if (test.rmw.test(r, j))
            return static_cast<int>(j);
    }
    return -1;
}

bool
isRmwWrite(const LitmusTest &test, size_t w)
{
    for (size_t i = 0; i < test.size(); i++) {
        if (test.rmw.test(i, w))
            return true;
    }
    return false;
}

bool
isRmwHalf(const LitmusTest &test, size_t e)
{
    return isRmwWrite(test, e) ||
           (test.events[e].isRead() && rmwPartner(test, e) >= 0);
}

/**
 * Deps whose target is half of an RMW pair collapse onto the single
 * exchange call in the surface syntax, so the exact edges must travel as
 * metadata.
 */
bool
hasAmbiguousDeps(const LitmusTest &test)
{
    BitMatrix deps = test.depMatrix();
    for (size_t i = 0; i < test.size(); i++) {
        for (size_t j = 0; j < test.size(); j++) {
            if (deps.test(i, j) && isRmwHalf(test, j))
                return true;
        }
    }
    return false;
}

/** Per-event register names: global r0, r1, ... over reads in id order. */
std::vector<std::string>
cRegNames(const LitmusTest &test)
{
    std::vector<std::string> names(test.size());
    int k = 0;
    for (size_t i = 0; i < test.size(); i++) {
        if (test.events[i].isRead())
            names[i] = "r" + std::to_string(k++);
    }
    return names;
}

std::vector<int>
writesPerLoc(const LitmusTest &test)
{
    std::vector<int> count(test.numLocs, 0);
    for (const auto &e : test.events) {
        if (e.isWrite())
            count[e.loc]++;
    }
    return count;
}

/**
 * The final-state condition: one register conjunct per read plus one
 * final-memory conjunct per multiply-written location. Together with the
 * co-position write values this pins rf and co exactly.
 */
std::string
conditionString(const LitmusTest &test, const std::vector<std::string> &regs)
{
    auto rv = test.registerValues(test.forbidden);
    auto fv = test.finalValues(test.forbidden);
    std::vector<std::string> conj;
    for (size_t i = 0; i < test.size(); i++) {
        if (!test.events[i].isRead())
            continue;
        conj.push_back(std::to_string(test.events[i].tid) + ":" + regs[i] +
                       "=" + std::to_string(rv[i]));
    }
    auto wcount = writesPerLoc(test);
    for (int loc = 0; loc < test.numLocs; loc++) {
        if (wcount[loc] >= 2)
            conj.push_back(herdLocName(loc) + "=" + std::to_string(fv[loc]));
    }
    if (conj.empty())
        conj.push_back("true");
    return "exists (" + join(conj, " /\\ ") + ")";
}

/** LTS-* metadata lines for relations the surface syntax cannot carry. */
void
emitMetadata(std::ostream &out, const LitmusTest &test)
{
    std::vector<std::string> scopes;
    for (size_t i = 0; i < test.size(); i++) {
        if (test.events[i].scope != Scope::System) {
            scopes.push_back(std::to_string(i) + ":" +
                             toString(test.events[i].scope));
        }
    }
    if (!scopes.empty())
        out << "LTS-Scopes=" << join(scopes, " ") << "\n";
    if (test.hasWorkgroups()) {
        out << "LTS-Wg=";
        for (int t = 0; t < test.numThreads; t++)
            out << (t ? " " : "") << test.workgroupOf(t);
        out << "\n";
    }
    std::vector<std::string> split_rmw;
    for (size_t i = 0; i < test.size(); i++) {
        if (!test.events[i].isRead())
            continue;
        int w = rmwPartner(test, i);
        if (w >= 0 && test.events[i].order != test.events[w].order) {
            split_rmw.push_back(std::to_string(i) + ":" +
                                shortOrderToken(test.events[i].order) + ":" +
                                shortOrderToken(test.events[w].order));
        }
    }
    if (!split_rmw.empty())
        out << "LTS-RmwOrders=" << join(split_rmw, " ") << "\n";
    if (hasAmbiguousDeps(test)) {
        std::vector<std::string> deps;
        auto add = [&](const BitMatrix &m, const char *kind) {
            for (size_t i = 0; i < test.size(); i++) {
                for (size_t j = 0; j < test.size(); j++) {
                    if (m.test(i, j)) {
                        deps.push_back(std::string(kind) + ":" +
                                       std::to_string(i) + ">" +
                                       std::to_string(j));
                    }
                }
            }
        };
        add(test.addrDep, "a");
        add(test.dataDep, "d");
        add(test.ctrlDep, "c");
        out << "LTS-Deps=" << join(deps, " ") << "\n";
    }
}

// ---------------------------------------------------------------------------
// X86 dialect emission
// ---------------------------------------------------------------------------

/**
 * True iff @p test is a program x86 mnemonics can spell: plain loads and
 * stores, SC fences, plain XCHG pairs, no deps/scopes/workgroups, and at
 * most six reads per thread (one general-purpose register each).
 */
bool
x86Expressible(const LitmusTest &test)
{
    if (test.hasWorkgroups() || test.depMatrix().any())
        return false;
    std::vector<int> reads_per_thread(test.numThreads, 0);
    for (size_t i = 0; i < test.size(); i++) {
        const Event &e = test.events[i];
        if (e.scope != Scope::System)
            return false;
        switch (e.type) {
          case EventType::Fence:
            if (e.order != MemOrder::SeqCst)
                return false;
            break;
          case EventType::Read:
          case EventType::Write:
            if (e.order != MemOrder::Plain)
                return false;
            if (e.isRead())
                reads_per_thread[e.tid]++;
            break;
        }
    }
    for (int n : reads_per_thread) {
        if (n > static_cast<int>(kNumX86Regs))
            return false;
    }
    return true;
}

std::string
writeX86(const LitmusTest &test)
{
    auto values = herdWriteValues(test);
    std::vector<std::string> regs(test.size());
    {
        std::vector<int> next(test.numThreads, 0);
        for (size_t i = 0; i < test.size(); i++) {
            if (test.events[i].isRead())
                regs[i] = kX86Regs[next[test.events[i].tid]++];
        }
    }

    std::vector<std::vector<std::string>> cols(test.numThreads);
    for (int t = 0; t < test.numThreads; t++) {
        for (int id : test.threadEvents(t)) {
            const Event &e = test.events[id];
            std::string loc = e.isMemory() ? herdLocName(e.loc) : "";
            switch (e.type) {
              case EventType::Fence:
                cols[t].push_back("MFENCE");
                break;
              case EventType::Write:
                if (isRmwWrite(test, id))
                    break; // emitted with its paired read
                cols[t].push_back("MOV [" + loc + "],$" +
                                  std::to_string(values[id]));
                break;
              case EventType::Read: {
                int w = rmwPartner(test, id);
                if (w >= 0) {
                    cols[t].push_back("MOV " + regs[id] + ",$" +
                                      std::to_string(values[w]));
                    cols[t].push_back("XCHG [" + loc + "]," + regs[id]);
                } else {
                    cols[t].push_back("MOV " + regs[id] + ",[" + loc + "]");
                }
                break;
              }
            }
        }
    }

    std::ostringstream out;
    out << "X86 " << (test.name.empty() ? "unnamed" : test.name) << "\n";
    emitMetadata(out, test); // expressibility keeps this empty in practice
    out << "{";
    for (int loc = 0; loc < test.numLocs; loc++)
        out << " " << herdLocName(loc) << "=0;";
    out << " }\n";

    size_t rows = 0;
    std::vector<size_t> width(test.numThreads);
    for (int t = 0; t < test.numThreads; t++) {
        width[t] = std::string("P" + std::to_string(t)).size();
        rows = std::max(rows, cols[t].size());
        for (const auto &cell : cols[t])
            width[t] = std::max(width[t], cell.size());
    }
    auto emitRow = [&](const std::vector<std::string> &cells) {
        std::string line;
        for (int t = 0; t < test.numThreads; t++) {
            line += " " + padRight(cells[t], width[t]);
            line += t + 1 < test.numThreads ? " |" : " ;";
        }
        out << line << "\n";
    };
    std::vector<std::string> cells(test.numThreads);
    for (int t = 0; t < test.numThreads; t++)
        cells[t] = "P" + std::to_string(t);
    emitRow(cells);
    for (size_t r = 0; r < rows; r++) {
        for (int t = 0; t < test.numThreads; t++)
            cells[t] = r < cols[t].size() ? cols[t][r] : "";
        emitRow(cells);
    }
    if (test.hasForbidden)
        out << conditionString(test, regs) << "\n";
    return out.str();
}

// ---------------------------------------------------------------------------
// C dialect emission
// ---------------------------------------------------------------------------

std::string
writeC(const LitmusTest &test)
{
    auto values = herdWriteValues(test);
    auto regs = cRegNames(test);

    // When any dependency targets an RMW half, the whole dep picture
    // moves to LTS-Deps metadata (which the parser takes as-is, ignoring
    // surface idioms), so emit none of the idioms: an exchange's own
    // address/value expressions cannot mention the register it defines.
    const bool surface_deps = !hasAmbiguousDeps(test);

    // Unique, sorted dependency sources feeding the listed targets.
    auto depSources = [&](const BitMatrix &m, std::vector<int> targets) {
        std::vector<int> out;
        if (!surface_deps)
            return out;
        for (size_t i = 0; i < test.size(); i++) {
            for (int j : targets) {
                if (m.test(i, j)) {
                    out.push_back(static_cast<int>(i));
                    break;
                }
            }
        }
        return out;
    };
    auto depSuffix = [&](const std::vector<int> &sources) {
        std::string s;
        for (int i : sources)
            s += " + (" + regs[i] + " ^ " + regs[i] + ")";
        return s;
    };
    auto guardPrefix = [&](const std::vector<int> &sources) {
        std::string s;
        for (int i : sources)
            s += "if (" + regs[i] + " >= 0) ";
        return s;
    };

    std::ostringstream out;
    out << "C " << (test.name.empty() ? "unnamed" : test.name) << "\n";
    emitMetadata(out, test);
    out << "{";
    for (int loc = 0; loc < test.numLocs; loc++)
        out << " " << herdLocName(loc) << "=0;";
    out << " }\n";

    std::string params;
    for (int loc = 0; loc < test.numLocs; loc++) {
        params += loc ? ", " : "";
        params += "atomic_int* " + herdLocName(loc);
    }

    for (int t = 0; t < test.numThreads; t++) {
        out << "\nP" << t << " (" << params << ") {\n";
        for (int id : test.threadEvents(t)) {
            const Event &e = test.events[id];
            if (e.isWrite() && isRmwWrite(test, id))
                continue; // emitted with its paired read
            std::string stmt;
            if (e.isFence()) {
                stmt = guardPrefix(depSources(test.ctrlDep, {id})) +
                       "atomic_thread_fence(" + cOrderName(e.order) + ");";
            } else if (e.isWrite()) {
                std::string addr = herdLocName(e.loc) +
                                   depSuffix(depSources(test.addrDep, {id}));
                std::string val = std::to_string(values[id]) +
                                  depSuffix(depSources(test.dataDep, {id}));
                stmt = guardPrefix(depSources(test.ctrlDep, {id})) +
                       "atomic_store_explicit(" + addr + ", " + val + ", " +
                       cOrderName(e.order) + ");";
            } else {
                int w = rmwPartner(test, id);
                std::vector<int> halves = w >= 0 ? std::vector<int>{id, w}
                                                 : std::vector<int>{id};
                std::string addr =
                    herdLocName(e.loc) +
                    depSuffix(depSources(test.addrDep, halves));
                std::string guards = guardPrefix(
                    depSources(test.ctrlDep, halves));
                std::string core;
                if (w >= 0) {
                    std::string val =
                        std::to_string(values[w]) +
                        depSuffix(depSources(test.dataDep, {w}));
                    core = regs[id] + " = atomic_exchange_explicit(" + addr +
                           ", " + val + ", " +
                           cOrderName(joinOrders(e.order,
                                                 test.events[w].order)) +
                           ");";
                } else {
                    core = regs[id] + " = atomic_load_explicit(" + addr +
                           ", " + cOrderName(e.order) + ");";
                }
                stmt = guards.empty()
                           ? "int " + core
                           : "int " + regs[id] + " = 0; " + guards + core;
            }
            out << "    " << stmt << "\n";
        }
        out << "}\n";
    }
    if (test.hasForbidden)
        out << "\n" << conditionString(test, regs) << "\n";
    return out.str();
}

} // namespace

std::string
herdLocName(int loc)
{
    static const char *const names[] = {"x", "y", "z", "w", "a", "b",
                                        "c", "d"};
    if (loc < static_cast<int>(sizeof(names) / sizeof(names[0])))
        return names[loc];
    return "v" + std::to_string(loc);
}

std::vector<int>
herdWriteValues(const LitmusTest &test)
{
    if (test.hasForbidden)
        return test.writeValues(test.forbidden);
    // No outcome to encode: any distinct-per-location scheme round-trips;
    // declaration order is the deterministic choice.
    std::vector<int> values(test.size(), -1);
    std::vector<int> next(test.numLocs, 1);
    for (size_t i = 0; i < test.size(); i++) {
        if (test.events[i].isWrite())
            values[i] = next[test.events[i].loc]++;
    }
    return values;
}

HerdDialect
herdDialectFor(const LitmusTest &test, const std::string &model_name)
{
    if (model_name == "tso" && x86Expressible(test))
        return HerdDialect::X86;
    return HerdDialect::C;
}

std::string
writeHerd(const LitmusTest &test, const HerdOptions &options)
{
    if (herdDialectFor(test, options.modelName) == HerdDialect::X86)
        return writeX86(test);
    return writeC(test);
}

std::string
sanitizeTestName(const std::string &name)
{
    std::string out;
    for (char ch : name) {
        if (std::isalnum(static_cast<unsigned char>(ch)) || ch == '-')
            out += ch;
        else if (!out.empty() && out.back() != '_')
            out += '_';
    }
    while (!out.empty() && out.back() == '_')
        out.pop_back();
    return out.empty() ? "test" : out;
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

namespace
{

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool
isIdentifier(const std::string &s)
{
    if (s.empty() || std::isdigit(static_cast<unsigned char>(s[0])))
        return false;
    for (char ch : s) {
        if (!std::isalnum(static_cast<unsigned char>(ch)) && ch != '_')
            return false;
    }
    return true;
}

/** Split at top-level (outside parentheses) occurrences of @p sep. */
std::vector<std::string>
splitTopLevel(const std::string &s, char sep)
{
    std::vector<std::string> out;
    int depth = 0;
    std::string cur;
    for (char ch : s) {
        if (ch == '(')
            depth++;
        else if (ch == ')')
            depth--;
        if (ch == sep && depth == 0) {
            out.push_back(cur);
            cur.clear();
        } else {
            cur += ch;
        }
    }
    out.push_back(cur);
    return out;
}

class HerdParser
{
  public:
    explicit HerdParser(std::istream &in) : reader(in) {}

    LitmusTest parse();

  private:
    struct PRead
    {
        int b; ///< builder event id
        int tid;
        std::string loc;
        std::string reg;
    };
    struct PWrite
    {
        int b;
        std::string loc;
        int value;
    };

    // --- phases
    SourceLine parseTitle(bool &is_c);
    void parseMetaAndInit(bool is_c);
    void parseX86Body();
    void parseCBody();
    void parseCStatement(int tid, const SourceLine &at);
    void parseCondition(const SourceLine &at, const std::string &text);
    LitmusTest assemble(const SourceLine &title, const std::string &name);

    // --- helpers
    bool nextContent(SourceLine &out);
    void pushBack(const SourceLine &line) { stash.push_back(line); }
    int lookupReg(const SourceLine &at, int tid, const std::string &reg);
    MemOrder orderArg(const SourceLine &at, const std::string &s);
    std::pair<std::string, std::vector<int>>
    addrArg(const SourceLine &at, int tid, const std::string &s);
    std::pair<int, std::vector<int>>
    valueArg(const SourceLine &at, int tid, const std::string &s);

    LineReader reader;
    std::vector<SourceLine> stash; ///< pushed-back lookahead lines
    TestBuilder builder;

    std::map<std::string, SourceLine> meta;
    std::vector<PRead> reads;
    std::vector<PWrite> writes;
    std::map<std::pair<int, std::string>, int> regReads;
    std::vector<std::pair<int, int>> surfAddr, surfData, surfCtrl;
    std::map<int, std::pair<MemOrder, MemOrder>> rmwOrderOverride;
    int numThreads = 0;
    int eventCount = 0; ///< builder events created so far

    bool cond_seen = false;
    SourceLine cond_line;
    std::map<std::pair<int, std::string>, int> regCond;
    std::map<std::string, int> finalCond;
};

bool
HerdParser::nextContent(SourceLine &out)
{
    while (true) {
        std::string line;
        if (!stash.empty()) {
            out = stash.back();
            stash.pop_back();
        } else if (reader.next(line)) {
            out = reader.here(line);
        } else {
            return false;
        }
        std::string s = trim(out.text);
        if (startsWith(s, "(*")) {
            // herd block comment; may span lines. Stashed lines never
            // open one, so draining the reader here is safe.
            while (s.find("*)") == std::string::npos) {
                if (!reader.next(line))
                    return false;
                s = line;
            }
            continue;
        }
        if (s.empty() || s[0] == '"')
            continue; // blank or doc string
        out.text = s;
        return true;
    }
}

SourceLine
HerdParser::parseTitle(bool &is_c)
{
    SourceLine title;
    if (!nextContent(title))
        reader.fail("empty litmus file");
    size_t sp = title.text.find(' ');
    std::string arch = sp == std::string::npos ? title.text
                                               : title.text.substr(0, sp);
    if (arch == "X86")
        is_c = false;
    else if (arch == "C")
        is_c = true;
    else
        reader.failAt(title, "unsupported architecture '" + arch + "'");
    return title;
}

void
HerdParser::parseMetaAndInit(bool is_c)
{
    // Metadata lines (Key=Value, ignored by herd7) up to the init block.
    SourceLine line;
    while (true) {
        if (!nextContent(line))
            reader.fail("missing init block '{ ... }'");
        if (line.text[0] == '{')
            break;
        size_t eq = line.text.find('=');
        if (eq == std::string::npos || line.text.find(' ') < eq) {
            reader.failAt(line,
                          "expected metadata or the init block '{ ... }'");
        }
        std::string key = line.text.substr(0, eq);
        if (startsWith(key, "LTS-")) {
            if (!is_c) {
                reader.failAt(line, "LTS-* metadata is only supported in "
                                    "the C dialect");
            }
            meta[key] = SourceLine{line.number, trim(line.text.substr(eq + 1))};
        }
        // Other generators' metadata (Generator=..., Hash=...) is skipped.
    }

    // Init block, possibly spanning lines: { x=0; y=0; }
    std::string body = line.text.substr(1);
    SourceLine at = line;
    while (body.find('}') == std::string::npos) {
        if (!nextContent(line))
            reader.failAt(at, "unterminated init block");
        body += " " + line.text;
    }
    size_t close = body.find('}');
    if (!trim(body.substr(close + 1)).empty())
        reader.failAt(at, "unexpected text after the init block");
    for (const auto &raw : split(body.substr(0, close), ';')) {
        std::string entry = trim(raw);
        if (entry.empty())
            continue;
        if (entry.find(':') != std::string::npos) {
            reader.failAt(at,
                          "register initialisation is not supported");
        }
        size_t e = entry.find('=');
        if (e == std::string::npos)
            reader.failAt(at, "init entry without '='");
        std::string lhs = trim(entry.substr(0, e));
        // Tolerate type prefixes ("atomic_int x") and brackets ("[x]").
        auto toks = split(lhs, ' ');
        std::string name = toks.empty() ? lhs : toks.back();
        if (!name.empty() && name.front() == '[' && name.back() == ']')
            name = trim(name.substr(1, name.size() - 2));
        if (!isIdentifier(name))
            reader.failAt(at, "bad location name '" + name + "'");
        int value = reader.parseInt(at, trim(entry.substr(e + 1)),
                                    "initial value");
        if (value != 0)
            reader.failAt(at, "nonzero initial values are not supported");
        builder.declareLoc(name);
    }
}

// --- X86 body -------------------------------------------------------------

void
HerdParser::parseX86Body()
{
    auto splitRow = [&](const SourceLine &at) {
        std::string s = at.text;
        if (!endsWith(s, ";"))
            reader.failAt(at, "instruction row must end with ';'");
        s = s.substr(0, s.size() - 1);
        std::vector<std::string> cells;
        for (const auto &c : split(s, '|', /*keep_empty=*/true))
            cells.push_back(trim(c));
        return cells;
    };

    SourceLine line;
    if (!nextContent(line))
        reader.fail("missing thread header row");
    auto headers = splitRow(line);
    for (size_t t = 0; t < headers.size(); t++) {
        if (headers[t] != "P" + std::to_string(t)) {
            reader.failAt(line, "bad thread header '" + headers[t] +
                                    "' (expected P" + std::to_string(t) +
                                    ")");
        }
        builder.newThread();
    }
    numThreads = static_cast<int>(headers.size());

    // MOV reg,$v setups awaiting their XCHG.
    std::map<std::pair<int, std::string>, std::pair<int, SourceLine>> setups;

    auto isImm = [](const std::string &s) {
        return !s.empty() && s[0] == '$';
    };
    auto isMem = [](const std::string &s) {
        return s.size() >= 2 && s.front() == '[' && s.back() == ']';
    };
    auto memLoc = [&](const SourceLine &at, const std::string &s) {
        std::string name = trim(s.substr(1, s.size() - 2));
        if (!isIdentifier(name))
            reader.failAt(at, "bad location '" + s + "'");
        return name;
    };

    while (nextContent(line)) {
        if (startsWith(line.text, "exists") ||
            startsWith(line.text, "~exists") ||
            startsWith(line.text, "forall") ||
            startsWith(line.text, "locations") ||
            startsWith(line.text, "filter")) {
            pushBack(line);
            break;
        }
        auto cells = splitRow(line);
        if (static_cast<int>(cells.size()) != numThreads) {
            reader.failAt(line, "row has " + std::to_string(cells.size()) +
                                    " columns, expected " +
                                    std::to_string(numThreads));
        }
        for (int t = 0; t < numThreads; t++) {
            const std::string &cell = cells[t];
            if (cell.empty())
                continue;
            size_t sp = cell.find(' ');
            std::string op = sp == std::string::npos ? cell
                                                     : cell.substr(0, sp);
            std::string rest =
                sp == std::string::npos ? "" : trim(cell.substr(sp));
            if (op == "MFENCE") {
                if (!rest.empty())
                    reader.failAt(line, "MFENCE takes no operands");
                builder.fence(t, MemOrder::SeqCst);
                eventCount++;
                continue;
            }
            auto ops = split(rest, ',');
            for (auto &o : ops)
                o = trim(o);
            if (op == "MOV") {
                if (ops.size() != 2)
                    reader.failAt(line, "MOV needs two operands");
                if (isMem(ops[0]) && isImm(ops[1])) {
                    std::string loc = memLoc(line, ops[0]);
                    int v = reader.parseInt(line, ops[1].substr(1),
                                            "store value");
                    int b = builder.write(t, loc, MemOrder::Plain);
                    eventCount++;
                    writes.push_back(PWrite{b, loc, v});
                } else if (!isMem(ops[0]) && isMem(ops[1])) {
                    std::string loc = memLoc(line, ops[1]);
                    int b = builder.read(t, loc, MemOrder::Plain);
                    eventCount++;
                    reads.push_back(PRead{b, t, loc, ops[0]});
                    regReads[{t, ops[0]}] = b;
                } else if (!isMem(ops[0]) && isImm(ops[1])) {
                    int v = reader.parseInt(line, ops[1].substr(1),
                                            "immediate");
                    auto key = std::make_pair(t, ops[0]);
                    if (setups.count(key)) {
                        reader.failAt(line, "register " + ops[0] +
                                                " set up twice before XCHG");
                    }
                    setups.emplace(key, std::make_pair(v, line));
                } else {
                    reader.failAt(line, "unsupported MOV form '" + cell +
                                            "'");
                }
            } else if (op == "XCHG") {
                if (ops.size() != 2 || !isMem(ops[0]) || isImm(ops[1]))
                    reader.failAt(line, "expected 'XCHG [loc],REG'");
                std::string loc = memLoc(line, ops[0]);
                auto key = std::make_pair(t, ops[1]);
                auto it = setups.find(key);
                if (it == setups.end()) {
                    reader.failAt(line, "XCHG without a preceding 'MOV " +
                                            ops[1] + ",$v' setup");
                }
                int v = it->second.first;
                setups.erase(it);
                int r = builder.read(t, loc, MemOrder::Plain);
                int w = builder.write(t, loc, MemOrder::Plain);
                eventCount += 2;
                builder.pairRmw(r, w);
                reads.push_back(PRead{r, t, loc, ops[1]});
                regReads[{t, ops[1]}] = r;
                writes.push_back(PWrite{w, loc, v});
            } else {
                reader.failAt(line, "unsupported instruction '" + op + "'");
            }
        }
    }
    if (!setups.empty()) {
        reader.failAt(setups.begin()->second.second,
                      "register setup without a following XCHG");
    }
}

// --- C body ---------------------------------------------------------------

int
HerdParser::lookupReg(const SourceLine &at, int tid, const std::string &reg)
{
    auto it = regReads.find({tid, reg});
    if (it == regReads.end()) {
        reader.failAt(at, "unknown register '" + reg +
                              "' in dependency expression");
    }
    return it->second;
}

MemOrder
HerdParser::orderArg(const SourceLine &at, const std::string &s)
{
    MemOrder order;
    if (!cOrderFromName(trim(s), order))
        reader.failAt(at, "bad memory order '" + trim(s) + "'");
    return order;
}

std::pair<std::string, std::vector<int>>
HerdParser::addrArg(const SourceLine &at, int tid, const std::string &s)
{
    auto pieces = splitTopLevel(s, '+');
    std::string loc = trim(pieces[0]);
    if (!isIdentifier(loc))
        reader.failAt(at, "bad address expression '" + trim(s) + "'");
    std::vector<int> dep_regs;
    for (size_t i = 1; i < pieces.size(); i++) {
        std::string p = trim(pieces[i]);
        if (p.size() < 2 || p.front() != '(' || p.back() != ')')
            reader.failAt(at, "bad dependency idiom '" + p + "'");
        auto halves = split(p.substr(1, p.size() - 2), '^');
        if (halves.size() != 2 || trim(halves[0]) != trim(halves[1]))
            reader.failAt(at, "bad dependency idiom '" + p + "'");
        dep_regs.push_back(lookupReg(at, tid, trim(halves[0])));
    }
    return {loc, dep_regs};
}

std::pair<int, std::vector<int>>
HerdParser::valueArg(const SourceLine &at, int tid, const std::string &s)
{
    auto pieces = splitTopLevel(s, '+');
    int value = reader.parseInt(at, trim(pieces[0]), "store value");
    std::vector<int> dep_regs;
    for (size_t i = 1; i < pieces.size(); i++) {
        std::string p = trim(pieces[i]);
        if (p.size() < 2 || p.front() != '(' || p.back() != ')')
            reader.failAt(at, "bad dependency idiom '" + p + "'");
        auto halves = split(p.substr(1, p.size() - 2), '^');
        if (halves.size() != 2 || trim(halves[0]) != trim(halves[1]))
            reader.failAt(at, "bad dependency idiom '" + p + "'");
        dep_regs.push_back(lookupReg(at, tid, trim(halves[0])));
    }
    return {value, dep_regs};
}

void
HerdParser::parseCStatement(int tid, const SourceLine &at)
{
    std::string s = at.text;

    // Optional guarded-read pre-declaration: "int rK = 0; ...".
    std::string predecl;
    if (startsWith(s, "int ")) {
        size_t semi = s.find(';');
        if (semi != std::string::npos && !trim(s.substr(semi + 1)).empty()) {
            auto toks = split(trim(s.substr(0, semi)), ' ');
            if (toks.size() == 4 && toks[0] == "int" && toks[2] == "=" &&
                toks[3] == "0" && isIdentifier(toks[1])) {
                predecl = toks[1];
                s = trim(s.substr(semi + 1));
            }
        }
    }

    // Control-dependency guards: "if (rK >= 0) ...".
    std::vector<std::string> guards;
    while (startsWith(s, "if ") || startsWith(s, "if(")) {
        size_t open = s.find('(');
        size_t close = s.find(')', open);
        if (close == std::string::npos)
            reader.failAt(at, "unterminated guard");
        auto toks = split(trim(s.substr(open + 1, close - open - 1)), ' ');
        if (toks.size() != 3 || toks[1] != ">=" || toks[2] != "0")
            reader.failAt(at, "unsupported guard (expected 'rK >= 0')");
        guards.push_back(toks[0]);
        s = trim(s.substr(close + 1));
    }

    if (s.empty() || s.back() != ';')
        reader.failAt(at, "statement must end with ';'");
    s = trim(s.substr(0, s.size() - 1));

    // Destructure an optional register assignment.
    std::string reg, rhs;
    if (!predecl.empty()) {
        size_t eq = s.find('=');
        if (eq == std::string::npos ||
            trim(s.substr(0, eq)) != predecl) {
            reader.failAt(at, "guarded statement must assign the "
                              "pre-declared register");
        }
        reg = predecl;
        rhs = trim(s.substr(eq + 1));
    } else if (startsWith(s, "int ")) {
        std::string rest = trim(s.substr(4));
        size_t eq = rest.find('=');
        if (eq == std::string::npos)
            reader.failAt(at, "declaration without '='");
        reg = trim(rest.substr(0, eq));
        if (!isIdentifier(reg))
            reader.failAt(at, "bad register name '" + reg + "'");
        rhs = trim(rest.substr(eq + 1));
    }

    auto ctrlInto = [&](int target) {
        for (const auto &g : guards)
            surfCtrl.emplace_back(lookupReg(at, tid, g), target);
    };

    if (!reg.empty()) {
        if (regReads.count({tid, reg}))
            reader.failAt(at, "register '" + reg + "' redeclared");
        // Plain dereference form: "int rK = *x".
        if (startsWith(rhs, "*")) {
            std::string loc = trim(rhs.substr(1));
            if (!isIdentifier(loc))
                reader.failAt(at, "bad dereference '" + rhs + "'");
            int b = builder.read(tid, loc, MemOrder::Plain);
            eventCount++;
            reads.push_back(PRead{b, tid, loc, reg});
            regReads[{tid, reg}] = b;
            ctrlInto(b);
            return;
        }
        size_t open = rhs.find('(');
        if (open == std::string::npos || rhs.back() != ')')
            reader.failAt(at, "unsupported expression '" + rhs + "'");
        std::string fn = trim(rhs.substr(0, open));
        auto args = splitTopLevel(
            rhs.substr(open + 1, rhs.size() - open - 2), ',');
        if (fn == "atomic_load_explicit" || fn == "atomic_load") {
            bool expl = fn == "atomic_load_explicit";
            if (args.size() != (expl ? 2u : 1u))
                reader.failAt(at, fn + " takes " +
                                      (expl ? "two arguments"
                                            : "one argument"));
            auto [loc, addr_regs] = addrArg(at, tid, args[0]);
            MemOrder mo = expl ? orderArg(at, args[1]) : MemOrder::SeqCst;
            int b = builder.read(tid, loc, mo);
            eventCount++;
            reads.push_back(PRead{b, tid, loc, reg});
            regReads[{tid, reg}] = b;
            for (int src : addr_regs)
                surfAddr.emplace_back(src, b);
            ctrlInto(b);
        } else if (fn == "atomic_exchange_explicit" ||
                   fn == "atomic_exchange") {
            bool expl = fn == "atomic_exchange_explicit";
            if (args.size() != (expl ? 3u : 2u))
                reader.failAt(at, fn + " takes " +
                                      (expl ? "three" : "two") +
                                      std::string(" arguments"));
            auto [loc, addr_regs] = addrArg(at, tid, args[0]);
            auto [value, data_regs] = valueArg(at, tid, args[1]);
            MemOrder mo = expl ? orderArg(at, args[2]) : MemOrder::SeqCst;
            // A split-order pair was exported with the joined order on
            // the call and the exact halves in LTS-RmwOrders, keyed by
            // the read's event id; builder ids equal final ids here
            // (threads parse in order), and the read about to be
            // created gets the next builder id.
            MemOrder ro = mo, wo = mo;
            auto it = rmwOrderOverride.find(eventCount);
            if (it != rmwOrderOverride.end()) {
                ro = it->second.first;
                wo = it->second.second;
            }
            int r = builder.read(tid, loc, ro);
            int w = builder.write(tid, loc, wo);
            eventCount += 2;
            builder.pairRmw(r, w);
            reads.push_back(PRead{r, tid, loc, reg});
            regReads[{tid, reg}] = r;
            writes.push_back(PWrite{w, loc, value});
            for (int src : addr_regs)
                surfAddr.emplace_back(src, r);
            for (int src : data_regs)
                surfData.emplace_back(src, w);
            ctrlInto(r);
            ctrlInto(w);
        } else {
            reader.failAt(at, "unsupported call '" + fn + "'");
        }
        return;
    }

    // Statement forms (no register produced).
    if (startsWith(s, "*")) {
        size_t eq = s.find('=');
        if (eq == std::string::npos)
            reader.failAt(at, "unsupported statement '" + s + "'");
        std::string loc = trim(s.substr(1, eq - 1));
        if (!isIdentifier(loc))
            reader.failAt(at, "bad dereference '*" + loc + "'");
        auto [value, data_regs] = valueArg(at, tid, s.substr(eq + 1));
        int b = builder.write(tid, loc, MemOrder::Plain);
        eventCount++;
        writes.push_back(PWrite{b, loc, value});
        for (int src : data_regs)
            surfData.emplace_back(src, b);
        ctrlInto(b);
        return;
    }
    size_t open = s.find('(');
    if (open == std::string::npos || s.back() != ')')
        reader.failAt(at, "unsupported statement '" + s + "'");
    std::string fn = trim(s.substr(0, open));
    auto args = splitTopLevel(s.substr(open + 1, s.size() - open - 2), ',');
    if (fn == "atomic_store_explicit" || fn == "atomic_store") {
        bool expl = fn == "atomic_store_explicit";
        if (args.size() != (expl ? 3u : 2u)) {
            reader.failAt(at, fn + " takes " + (expl ? "three" : "two") +
                                  std::string(" arguments"));
        }
        auto [loc, addr_regs] = addrArg(at, tid, args[0]);
        auto [value, data_regs] = valueArg(at, tid, args[1]);
        MemOrder mo = expl ? orderArg(at, args[2]) : MemOrder::SeqCst;
        int b = builder.write(tid, loc, mo);
        eventCount++;
        writes.push_back(PWrite{b, loc, value});
        for (int src : addr_regs)
            surfAddr.emplace_back(src, b);
        for (int src : data_regs)
            surfData.emplace_back(src, b);
        ctrlInto(b);
    } else if (fn == "atomic_thread_fence") {
        if (args.size() != 1)
            reader.failAt(at, "atomic_thread_fence takes one argument");
        int b = builder.fence(tid, orderArg(at, args[0]));
        eventCount++;
        ctrlInto(b);
    } else {
        reader.failAt(at, "unsupported statement '" + fn + "'");
    }
}

void
HerdParser::parseCBody()
{
    SourceLine line;
    while (nextContent(line)) {
        if (!startsWith(line.text, "P")) {
            pushBack(line);
            break;
        }
        size_t open = line.text.find('(');
        if (open == std::string::npos) {
            pushBack(line);
            break;
        }
        std::string pnum = trim(line.text.substr(1, open - 1));
        int declared = reader.parseInt(line, pnum, "thread id");
        int tid = builder.newThread();
        numThreads++;
        if (tid != declared) {
            reader.failAt(line, "threads must be declared densely in "
                                "order");
        }
        size_t close = line.text.find(')', open);
        if (close == std::string::npos ||
            trim(line.text.substr(close + 1)) != "{") {
            reader.failAt(line,
                          "expected 'P" + pnum + " (params) {'");
        }
        // Parameter list carries no information beyond the init block.
        while (true) {
            SourceLine stmt;
            if (!nextContent(stmt))
                reader.failAt(line, "unterminated thread body");
            if (stmt.text == "}")
                break;
            parseCStatement(tid, stmt);
        }
    }
}

// --- condition ------------------------------------------------------------

void
HerdParser::parseCondition(const SourceLine &at, const std::string &text)
{
    std::string c = trim(text);
    if (startsWith(c, "forall"))
        reader.failAt(at, "forall conditions are not supported");
    if (startsWith(c, "~exists"))
        c = trim(c.substr(7));
    else if (startsWith(c, "exists"))
        c = trim(c.substr(6));
    else
        reader.failAt(at, "expected an 'exists' or '~exists' condition");

    auto stripOuterParens = [](std::string s) {
        s = trim(s);
        while (s.size() >= 2 && s.front() == '(' && s.back() == ')') {
            int depth = 0;
            bool wraps = true;
            for (size_t i = 0; i + 1 < s.size(); i++) {
                depth += s[i] == '(' ? 1 : s[i] == ')' ? -1 : 0;
                if (depth == 0) {
                    wraps = false;
                    break;
                }
            }
            if (!wraps)
                break;
            s = trim(s.substr(1, s.size() - 2));
        }
        return s;
    };
    c = stripOuterParens(c);
    cond_seen = true;
    cond_line = at;
    if (c == "true")
        return;
    if (c.find("\\/") != std::string::npos)
        reader.failAt(at, "disjunctive conditions are not supported");

    // Split on top-level /\ connectives.
    std::vector<std::string> conjuncts;
    {
        int depth = 0;
        std::string cur;
        for (size_t i = 0; i < c.size(); i++) {
            if (c[i] == '(')
                depth++;
            else if (c[i] == ')')
                depth--;
            if (depth == 0 && c[i] == '/' && i + 1 < c.size() &&
                c[i + 1] == '\\') {
                conjuncts.push_back(cur);
                cur.clear();
                i++;
            } else {
                cur += c[i];
            }
        }
        conjuncts.push_back(cur);
    }

    for (const auto &raw : conjuncts) {
        std::string part = stripOuterParens(raw);
        if (part == "true")
            continue;
        size_t eq = part.find('=');
        if (eq == std::string::npos)
            reader.failAt(at, "bad condition conjunct '" + part + "'");
        std::string lhs = trim(part.substr(0, eq));
        int value = reader.parseInt(at, trim(part.substr(eq + 1)),
                                    "condition value");
        size_t colon = lhs.find(':');
        if (colon != std::string::npos) {
            int tid = reader.parseInt(at, trim(lhs.substr(0, colon)),
                                      "thread id");
            std::string reg = trim(lhs.substr(colon + 1));
            auto key = std::make_pair(tid, reg);
            auto it = regCond.find(key);
            if (it != regCond.end() && it->second != value) {
                reader.failAt(at, "contradictory values for " + lhs);
            }
            regCond[key] = value;
        } else {
            if (!lhs.empty() && lhs.front() == '[' && lhs.back() == ']')
                lhs = trim(lhs.substr(1, lhs.size() - 2));
            if (!isIdentifier(lhs))
                reader.failAt(at, "bad condition conjunct '" + part + "'");
            auto it = finalCond.find(lhs);
            if (it != finalCond.end() && it->second != value)
                reader.failAt(at, "contradictory values for " + lhs);
            finalCond[lhs] = value;
        }
    }
}

// --- assembly -------------------------------------------------------------

LitmusTest
HerdParser::assemble(const SourceLine &title, const std::string &name)
{
    // Workgroups.
    if (auto it = meta.find("LTS-Wg"); it != meta.end()) {
        auto labels = split(it->second.text, ' ');
        for (size_t t = 0; t < labels.size(); t++) {
            int wg = reader.parseInt(it->second, labels[t],
                                     "workgroup label");
            try {
                builder.setWorkgroup(static_cast<int>(t), wg);
            } catch (const std::out_of_range &) {
                reader.failAt(it->second, "workgroup list names more "
                                          "threads than declared");
            }
        }
    }
    // Scopes (event ids in these entries are final ids; the C dialect's
    // thread-major parse makes builder ids coincide with them).
    if (auto it = meta.find("LTS-Scopes"); it != meta.end()) {
        for (const auto &entry : split(it->second.text, ' ')) {
            size_t colon = entry.find(':');
            if (colon == std::string::npos)
                reader.failAt(it->second, "bad scope entry '" + entry + "'");
            int ev = reader.parseInt(it->second, entry.substr(0, colon),
                                     "event id");
            Scope scope;
            if (!scopeFromToken(entry.substr(colon + 1), scope))
                reader.failAt(it->second, "bad scope entry '" + entry + "'");
            try {
                builder.setScope(ev, scope);
            } catch (const std::out_of_range &) {
                reader.failAt(it->second,
                              "scope entry names an unknown event");
            }
        }
    }
    // Dependencies: authoritative metadata replaces the surface idioms
    // when present (deps onto RMW halves are ambiguous in the surface).
    if (auto it = meta.find("LTS-Deps"); it != meta.end()) {
        for (const auto &entry : split(it->second.text, ' ')) {
            size_t colon = entry.find(':');
            size_t gt = entry.find('>');
            if (colon != 1 || gt == std::string::npos || gt < colon)
                reader.failAt(it->second, "bad dep entry '" + entry + "'");
            int from = reader.parseInt(
                it->second, entry.substr(2, gt - 2), "event id");
            int to = reader.parseInt(it->second, entry.substr(gt + 1),
                                     "event id");
            switch (entry[0]) {
              case 'a': builder.addrDepend(from, to); break;
              case 'd': builder.dataDepend(from, to); break;
              case 'c': builder.ctrlDepend(from, to); break;
              default:
                reader.failAt(it->second, "bad dep entry '" + entry + "'");
            }
        }
    } else {
        for (auto [a, b] : surfAddr)
            builder.addrDepend(a, b);
        for (auto [a, b] : surfData)
            builder.dataDepend(a, b);
        for (auto [a, b] : surfCtrl)
            builder.ctrlDepend(a, b);
    }

    if (cond_seen) {
        builder.markForbidden();
        // rf: register values name the sourcing write (by stored value).
        for (const auto &pr : reads) {
            auto it = regCond.find({pr.tid, pr.reg});
            if (it == regCond.end())
                continue; // unmentioned reads observe the initial value
            int value = it->second;
            regCond.erase(it);
            if (value == 0) {
                builder.readsInitial(pr.b);
                continue;
            }
            const PWrite *source = nullptr;
            for (const auto &pw : writes) {
                if (pw.loc == pr.loc && pw.value == value) {
                    if (source) {
                        reader.failAt(cond_line,
                                      "writes to '" + pr.loc +
                                          "' store duplicate values; the "
                                          "condition is ambiguous");
                    }
                    source = &pw;
                }
            }
            if (!source) {
                reader.failAt(cond_line,
                              "condition value " + std::to_string(value) +
                                  " has no matching write to '" + pr.loc +
                                  "'");
            }
            builder.readsFrom(source->b, pr.b);
        }
        for (const auto &[key, value] : regCond) {
            reader.failAt(cond_line,
                          "condition names unknown register '" +
                              std::to_string(key.first) + ":" + key.second +
                              "'");
        }
        // co: ascending stored values, with the location's final value
        // (when the condition pins one) moved last.
        std::map<std::string, std::vector<const PWrite *>> by_loc;
        for (const auto &pw : writes)
            by_loc[pw.loc].push_back(&pw);
        for (auto &[loc, group] : by_loc) {
            std::sort(group.begin(), group.end(),
                      [](const PWrite *a, const PWrite *b) {
                          return a->value < b->value;
                      });
            for (size_t i = 0; i + 1 < group.size(); i++) {
                if (group[i]->value == group[i + 1]->value) {
                    reader.failAt(cond_line,
                                  "writes to '" + loc +
                                      "' store duplicate values; "
                                      "coherence is ambiguous");
                }
            }
            if (auto it = finalCond.find(loc); it != finalCond.end()) {
                int value = it->second;
                finalCond.erase(it);
                auto match = std::find_if(
                    group.begin(), group.end(),
                    [&](const PWrite *w) { return w->value == value; });
                if (match == group.end()) {
                    reader.failAt(cond_line,
                                  "final value " + std::to_string(value) +
                                      " has no matching write to '" + loc +
                                      "'");
                }
                std::rotate(match, match + 1, group.end());
            }
            for (size_t i = 0; i + 1 < group.size(); i++)
                builder.coOrder(group[i]->b, group[i + 1]->b);
        }
        for (const auto &[loc, value] : finalCond) {
            if (value != 0) {
                reader.failAt(cond_line,
                              "final value for location '" + loc +
                                  "' which is never written");
            }
        }
    }

    try {
        return builder.build(name.empty() ? "unnamed" : name);
    } catch (const std::out_of_range &) {
        // Thrown by the builder's .at()-checked edge remapping.
        reader.failAt(title, "an edge names an event id outside the test");
    } catch (const std::logic_error &e) {
        reader.failAt(title, std::string("invalid test: ") + e.what());
    }
}

LitmusTest
HerdParser::parse()
{
    bool is_c = false;
    SourceLine title = parseTitle(is_c);
    std::string name;
    {
        size_t sp = title.text.find(' ');
        name = sp == std::string::npos ? "" : trim(title.text.substr(sp));
    }
    reader.setContext(name);
    parseMetaAndInit(is_c);

    // RMW order overrides must be known before events are created.
    if (auto it = meta.find("LTS-RmwOrders"); it != meta.end()) {
        for (const auto &entry : split(it->second.text, ' ')) {
            auto parts = split(entry, ':');
            MemOrder ro, wo;
            if (parts.size() != 3 || !shortOrderFromToken(parts[1], ro) ||
                !shortOrderFromToken(parts[2], wo)) {
                reader.failAt(it->second,
                              "bad rmw order entry '" + entry + "'");
            }
            rmwOrderOverride[reader.parseInt(it->second, parts[0],
                                             "event id")] = {ro, wo};
        }
    }

    if (is_c)
        parseCBody();
    else
        parseX86Body();
    if (numThreads == 0)
        reader.fail("test has no threads");

    // Trailer: skip herd auxiliaries, then the condition (if any).
    SourceLine line;
    while (nextContent(line)) {
        if (startsWith(line.text, "locations") ||
            startsWith(line.text, "filter")) {
            continue;
        }
        if (startsWith(line.text, "exists") ||
            startsWith(line.text, "~exists") ||
            startsWith(line.text, "forall")) {
            // Conditions may span lines; everything to EOF belongs to it.
            std::string text = line.text;
            SourceLine extra;
            while (nextContent(extra))
                text += " " + extra.text;
            parseCondition(line, text);
            break;
        }
        reader.failAt(line, "unexpected line after the program body");
    }
    return assemble(title, name);
}

} // namespace

LitmusTest
parseHerd(std::istream &in)
{
    HerdParser parser(in);
    return parser.parse();
}

LitmusTest
parseHerd(const std::string &text)
{
    std::istringstream in(text);
    return parseHerd(in);
}

} // namespace lts::litmus
