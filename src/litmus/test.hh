/**
 * @file
 * Litmus test intermediate representation.
 *
 * A LitmusTest is the *static* part of a test in the paper's terminology
 * (Section 4.2): events, program order (implied by event index within each
 * thread), locations, dependencies, and RMW pairing. An Outcome is the
 * *dynamic* part of one execution: the rf and co relations, from which the
 * observable register and final-memory values derive. A test paired with a
 * forbidden Outcome is one entry of a litmus test suite.
 */

#ifndef LTS_LITMUS_TEST_HH
#define LTS_LITMUS_TEST_HH

#include <string>
#include <vector>

#include "common/bitset.hh"
#include "litmus/event.hh"

namespace lts::litmus
{

/**
 * The dynamic relations of one execution: who reads from whom (rf) and
 * the per-location store order (co). Reads with no rf edge read the
 * implicit initial value (0). The "observable outcome" of the paper is a
 * function of these: register values from rf, final memory from co.
 */
struct Outcome
{
    BitMatrix rf; ///< Write -> Read
    BitMatrix co; ///< Write -> Write, same location, irreflexive + total

    Outcome() = default;
    explicit Outcome(size_t n) : rf(n), co(n) {}

    bool
    operator==(const Outcome &other) const
    {
        return rf == other.rf && co == other.co;
    }
};

/** One litmus test: static structure plus an optional forbidden outcome. */
class LitmusTest
{
  public:
    std::string name;
    std::vector<Event> events;
    int numThreads = 0;
    int numLocs = 0;

    /**
     * Workgroup of each thread, for scoped models (OpenCL/HSA-style,
     * Section 3.2's DS relaxation). Empty means ungrouped: every thread
     * forms its own workgroup, which is also the canonical form when no
     * two threads share one.
     */
    std::vector<int> threadWg;

    /** Workgroup of thread @p tid under the convention above. */
    int
    workgroupOf(int tid) const
    {
        return threadWg.empty() ? tid : threadWg[tid];
    }

    /** True iff some two threads share a workgroup. */
    bool
    hasWorkgroups() const
    {
        for (int a = 0; a < numThreads; a++) {
            for (int b = a + 1; b < numThreads; b++) {
                if (workgroupOf(a) == workgroupOf(b))
                    return true;
            }
        }
        return false;
    }

    // Dependencies: from a Read to a po-later event of the same thread.
    BitMatrix addrDep;
    BitMatrix dataDep;
    BitMatrix ctrlDep;

    // RMW pairing: Read -> immediately po-following Write, same location.
    BitMatrix rmw;

    /** The synthesized/specified forbidden outcome, if any. */
    Outcome forbidden;
    bool hasForbidden = false;

    size_t size() const { return events.size(); }

    /** Events of one thread, in program order. */
    std::vector<int> threadEvents(int tid) const;

    /** Program order as an explicit relation (i before j, same thread). */
    BitMatrix poMatrix() const;

    /** Same-location relation over memory events (reflexive on them). */
    BitMatrix sameLocMatrix() const;

    /** Same-workgroup relation over events (reflexive equivalence). */
    BitMatrix sameWgMatrix() const;

    /** Union of the three dependency relations. */
    BitMatrix depMatrix() const;

    /**
     * Check structural sanity: thread ids dense and events grouped by
     * thread, locations dense, deps/rmw well-shaped. Returns an empty
     * string when valid, else a diagnostic.
     */
    std::string validate() const;

    /**
     * The register values a given outcome produces: for each read, the
     * value observed (0 = initial; k = the k-th co-ordered write to that
     * location, 1-based). Indexed by event id; non-reads get -1.
     */
    std::vector<int> registerValues(const Outcome &outcome) const;

    /**
     * Final memory value per location under an outcome (0 when no write).
     */
    std::vector<int> finalValues(const Outcome &outcome) const;

    /**
     * Values written by each write event: 1 + its position in co among
     * the writes to the same location. Indexed by event id; -1 otherwise.
     */
    std::vector<int> writeValues(const Outcome &outcome) const;
};

/**
 * Fluent builder for hand-written catalog tests.
 *
 * @code
 *   TestBuilder b;
 *   int t0 = b.newThread();
 *   b.write(t0, "data");
 *   b.write(t0, "flag", MemOrder::Release);
 *   int t1 = b.newThread();
 *   int ld_flag = b.read(t1, "flag", MemOrder::Acquire);
 *   int ld_data = b.read(t1, "data");
 *   LitmusTest mp = b.build("MP+rel+acq");
 * @endcode
 */
class TestBuilder
{
  public:
    /** Start a new thread; subsequent events go to it by thread id. */
    int newThread();

    /**
     * Pre-register a location name so it gets the next dense id even if
     * its first access comes later. Parsers that see a declaration
     * section (the herd init block) use this to preserve the exporting
     * test's location numbering; repeated registration is a no-op.
     */
    int declareLoc(const std::string &loc);

    /** Append a read; returns the event id. */
    int read(int tid, const std::string &loc,
             MemOrder order = MemOrder::Plain);

    /** Append a write; returns the event id. */
    int write(int tid, const std::string &loc,
              MemOrder order = MemOrder::Plain);

    /** Append a fence; returns the event id. */
    int fence(int tid, MemOrder order = MemOrder::SeqCst);

    /** Put thread @p tid into workgroup @p wg (scoped models). */
    void setWorkgroup(int tid, int wg);

    /** Set the scope annotation of event @p ev (scoped models). */
    void setScope(int ev, Scope scope);

    /** Declare an address dependency from read @p from to event @p to. */
    void addrDepend(int from, int to);

    /** Declare a data dependency from read @p from to write @p to. */
    void dataDepend(int from, int to);

    /** Declare a control dependency from read @p from to event @p to. */
    void ctrlDepend(int from, int to);

    /** Pair read @p r and write @p w as an atomic RMW. */
    void pairRmw(int r, int w);

    // --- forbidden outcome specification ------------------------------

    /** Read @p r observes write @p w in the forbidden outcome. */
    void readsFrom(int w, int r);

    /** Read @p r observes the initial value (explicit, optional). */
    void readsInitial(int r);

    /** @p earlier precedes @p later in coherence order. */
    void coOrder(int earlier, int later);

    /**
     * Declare that the test carries a forbidden outcome even if no rf,
     * init, or co constraint was recorded — the outcome of a test whose
     * reads all have explicit edges elsewhere may be entirely empty
     * (e.g. writes to distinct locations only). Without this mark such a
     * test would round-trip to "no outcome", which is a different thing:
     * an empty outcome forbids the unique trivial execution, no outcome
     * forbids nothing.
     */
    void markForbidden();

    /** Forget everything added so far, keeping the storage, so one
     *  builder can assemble a run of tests. */
    void clear();

    /**
     * Assemble the test. Events are renumbered so each thread's events
     * are contiguous; co is transitively closed; for locations whose
     * writes were left unordered, the per-thread/declaration order is
     * completed deterministically.
     */
    LitmusTest build(const std::string &name);

  private:
    struct PendingEvent
    {
        int tid;
        EventType type;
        int loc;
        MemOrder order;
        Scope scope = Scope::System;
    };

    int locId(const std::string &loc);

    std::vector<PendingEvent> pending;
    std::vector<std::string> locNames;
    std::vector<int> workgroups; ///< per thread; -1 = own group
    int threads = 0;
    std::vector<std::pair<int, int>> addrDeps, dataDeps, ctrlDeps, rmws;
    std::vector<std::pair<int, int>> rfEdges, coEdges;
    std::vector<int> initialReads;
    bool forceForbidden = false;
};

} // namespace lts::litmus

#endif // LTS_LITMUS_TEST_HH
