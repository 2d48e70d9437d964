/**
 * @file
 * The memory-model definition framework.
 *
 * A Model packages what the paper expresses in Alloy: a vocabulary of
 * relation variables (the "sig" fields), well-formedness facts, a list of
 * named axioms (the predicates suites are generated for), and the set of
 * instruction relaxations that apply to the model (Table 2). Axioms are
 * functions of an Env so they can be instantiated with perturbed
 * relations; relaxations provide both an applicability condition and the
 * environment perturbation (Figure 6).
 */

#ifndef LTS_MM_MODEL_HH
#define LTS_MM_MODEL_HH

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "mm/env.hh"
#include "rel/formula.hh"
#include "rel/instance.hh"
#include "rel/symmetry.hh"

namespace lts::mm
{

class Model;

/**
 * One well-formedness fact with a stable diagnostic label (e.g.
 * "po.transitive", "rf.same-location"). The analyzer (src/analysis)
 * reports findings against these labels and probes facts individually
 * through the solver's retractable layers.
 */
struct NamedFact
{
    std::string label;
    rel::FormulaPtr formula;
};

/** One named axiom of a model (e.g. "sc_per_loc", "causality"). */
struct Axiom
{
    std::string name;

    /** The axiom as a formula over the given environment. */
    std::function<rel::FormulaPtr(const Model &, const Env &, size_t n)> pred;

    /**
     * Variant used when checking *relaxed* executions, for models whose
     * auxiliary relations make the Figure 5c under-approximation unsound
     * (the SCC "sc" workaround of Figure 19). Defaults to pred.
     */
    std::function<rel::FormulaPtr(const Model &, const Env &, size_t n)>
        relaxedPred;
};

/** The instruction-relaxation families of Section 3.2. */
enum class RTag
{
    RI,   ///< remove instruction
    DMO,  ///< demote memory order
    DF,   ///< demote fence
    DRMW, ///< decompose atomic read-modify-write
    RD,   ///< remove dependency
    DS,   ///< demote scope
};

/** Printable name of a relaxation family. */
std::string toString(RTag tag);

/**
 * One concrete instruction relaxation (e.g. "DMO(acq->rlx)"): an
 * applicability condition and an environment perturbation, both
 * parameterized by the targeted event (as a singleton constant set).
 */
struct Relaxation
{
    RTag tag;
    std::string name;

    /** Does this relaxation apply to event @p ev (singleton set)? */
    std::function<rel::FormulaPtr(const Env &, const rel::ExprPtr &ev,
                                  size_t n)>
        applies;

    /** The perturbed environment when applied to event @p ev. */
    std::function<Env(const Env &, const rel::ExprPtr &ev, size_t n)> perturb;

    // Structural metadata for DMO/DF demotions, used by the sound
    // (Figure 5b) engine to apply the relaxation to a litmus test
    // directly. Empty for RI/RD/DRMW, whose effect is tag-determined.
    std::optional<std::string> demoteFrom;    ///< annotation set removed
    std::optional<std::string> demoteTo;      ///< annotation set added
    std::string demoteCarrier;                ///< kR, kW or kF
};

/** Feature switches controlling the vocabulary and well-formedness. */
struct ModelFeatures
{
    bool fences = true;       ///< F events exist
    bool deps = false;        ///< addr/data/ctrl dependency relations
    bool rmw = true;          ///< atomic read-modify-write pairing
    bool acqRelAccess = false;///< ACQ on reads / REL on writes
    bool scAccess = false;    ///< SCA annotation on accesses (C/C++)
    bool acqRelFence = false; ///< AR fences (lwsync / FenceAcqRel / C11)
    bool scFence = false;     ///< SCA fences (sync / FenceSC / C11 sc)
    bool scOrder = false;     ///< explicit sc total-order relation (SCC)
    bool scopes = false;      ///< workgroup/system scopes + DS (OpenCL/HSA)
};

/**
 * A complete memory-model definition. Build with the factories in
 * mm/models.hh; the registry (mm/registry.hh) lists them by name.
 */
class Model
{
  public:
    Model(std::string name, ModelFeatures features);

    const std::string &name() const { return modelName; }
    const ModelFeatures &features() const { return feats; }
    const rel::Vocabulary &vocab() const { return vocabulary; }
    const Env &base() const { return baseEnv; }

    const std::vector<Axiom> &axioms() const { return axiomList; }
    const std::vector<Relaxation> &relaxations() const { return relaxList; }

    /** Find an axiom by name (throws if absent). */
    const Axiom &axiom(const std::string &name) const;

    /**
     * Mutable access to an axiom by name (throws if absent), for edit
     * and perturbation tooling: the service layer's shard-invalidation
     * tests swap an axiom's predicate in place and assert that only
     * that axiom's cache shards re-synthesize. digest() reflects the
     * edit on its next call.
     */
    Axiom &axiomMut(const std::string &name);

    void
    addAxiom(Axiom axiom)
    {
        digestMemo.clear();
        axiomList.push_back(std::move(axiom));
    }

    void
    addRelaxation(Relaxation r)
    {
        digestMemo.clear();
        relaxList.push_back(std::move(r));
    }

    /** Extra well-formedness facts specific to this model. */
    void
    addExtraFact(
        std::function<rel::FormulaPtr(const Model &, const Env &, size_t)> f)
    {
        addExtraFact("extra", std::move(f));
    }

    /** Labeled variant: @p label identifies the fact in lint findings. */
    void
    addExtraFact(
        std::string label,
        std::function<rel::FormulaPtr(const Model &, const Env &, size_t)> f)
    {
        digestMemo.clear();
        extraFacts.push_back({std::move(label), std::move(f)});
    }

    /**
     * Well-formedness of an instance as a litmus-test execution: type
     * partition, program-order shape (including the contiguous-thread
     * symmetry breaking), location equivalence, rf/co sanity,
     * dependency/rmw shape, annotation carriers, plus model extras.
     */
    rel::FormulaPtr wellFormed(size_t n) const;

    /**
     * The same well-formedness constraints as individually labeled facts,
     * in the order wellFormed conjoins them. This is the unit the static
     * analyzer types, probes, and reports against.
     */
    std::vector<NamedFact> wellFormedFacts(size_t n) const;

    /**
     * Only the model-specific extra facts (the tail of wellFormedFacts),
     * instantiated at size @p n. The dead-definition analysis treats
     * these as uses of a relation, unlike the generic facts, which
     * mention every declared relation by construction.
     */
    std::vector<NamedFact> extraWellFormedFacts(size_t n) const;

    /** Conjunction of every axiom over @p env. */
    rel::FormulaPtr allAxioms(const Env &env, size_t n) const;

    /** Conjunction of every axiom's relaxed variant over @p env. */
    rel::FormulaPtr allAxiomsRelaxed(const Env &env, size_t n) const;

    /**
     * The symmetry-breaking prescription for this model's encoding at
     * universe size @p n (see rel/symmetry.hh). Kodkod's partition
     * detection (Torlak & Jackson, TACAS'07) would find nothing here —
     * the po.index-order fact mentions the indexLt constant, which
     * distinguishes every atom — so the spec is built from what the
     * well-formedness facts guarantee instead: the only residual
     * symmetry is permuting whole thread blocks (within a workgroup,
     * for scoped models). It contains
     *
     *  - conditional lex-leader generators swapping two equally sized
     *    complete thread blocks, guarded by the po cells that make the
     *    ranges complete blocks (and by swg for scoped models, since
     *    only same-workgroup blocks are interchangeable);
     *  - forbidden patterns excluding a complete block immediately
     *    followed by a strictly larger same-workgroup block, so block
     *    sizes are non-increasing (thread-count/size profiles are
     *    canonical, not just locally lex-minimal).
     *
     * The lex vector covers the static relations except po and swg,
     * which are invariant under every guarded generator. Returns an
     * empty spec when no symmetry exists at this size.
     */
    rel::SymmetrySpec symmetrySpec(size_t n) const;

    /**
     * Stable canonical digest of the model *definition*: a 16-hex-digit
     * hash over the name, feature switches, vocabulary, well-formedness
     * facts, every axiom's (plain and relaxed) predicate, and every
     * relaxation's applicability and perturbation effect, each rendered
     * at small probe sizes. Two processes — today's and a restarted
     * one — compute the same digest for the same definition, so it is
     * usable as a persistent cache key (the suite store and ltsd key on
     * it); any semantic edit to the model changes it. A format-version
     * tag is folded in, so digest changes across format revisions too.
     */
    std::string digest() const;

    /** The relation-variable ids forming a test's *static* part. */
    std::vector<int> staticVarIds() const;

    /** The relation-variable ids of the dynamic (outcome) part. */
    std::vector<int> dynamicVarIds() const;

  private:
    std::string modelName;
    ModelFeatures feats;
    rel::Vocabulary vocabulary;
    Env baseEnv;
    struct ExtraFact
    {
        std::string label;
        std::function<rel::FormulaPtr(const Model &, const Env &, size_t)> fn;
    };

    std::vector<Axiom> axiomList;
    std::vector<Relaxation> relaxList;
    std::vector<ExtraFact> extraFacts;

    /// digest() memoization; cleared by every mutator (axiomMut,
    /// addAxiom, addRelaxation, addExtraFact) so edits re-hash. axiomMut
    /// additionally disables memoization for good: the reference it
    /// returns lets callers mutate predicates at any later point, where
    /// a repopulated memo would silently go stale.
    mutable std::string digestMemo;
    bool digestMemoDisabled = false;
};

// --- generic relaxation builders (Figure 6 made reusable) -------------------

/** Remove Instruction: mask the event out of every relation. */
Relaxation makeRI();

/** Remove Dependency: drop dependencies originating at the event. */
Relaxation makeRD();

/** Decompose RMW: drop rmw pairing originating at the event. */
Relaxation makeDRMW();

/**
 * Demote an annotation: remove the event from @p from_set (optionally
 * adding it to @p to_set), applicable when the event carries the
 * annotation and lies in the carrier set named by @p carrier (one of
 * kR/kW/kF). Used for both DMO and DF.
 */
Relaxation makeDemote(RTag tag, const std::string &name,
                      const std::string &from_set,
                      std::optional<std::string> to_set,
                      const std::string &carrier);

} // namespace lts::mm

#endif // LTS_MM_MODEL_HH
