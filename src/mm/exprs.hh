/**
 * @file
 * Shared derived-relation helpers used by every memory model.
 *
 * These are the standard definitions of Section 2.2 of the paper: po_loc,
 * from-reads (fr), internal/external splits (rfi/rfe, coe, fre), and the
 * communication union com. They are written against an Env so the same
 * definition serves both the base and the perturbed instantiations.
 */

#ifndef LTS_MM_EXPRS_HH
#define LTS_MM_EXPRS_HH

#include "common/bitset.hh"
#include "mm/env.hh"
#include "rel/expr.hh"
#include "rel/formula.hh"

namespace lts::mm
{

// Canonical relation names. Unary type sets:
inline const std::string kR = "R";          ///< reads
inline const std::string kW = "W";          ///< writes
inline const std::string kF = "F";          ///< fences
inline const std::string kAcq = "ACQ";      ///< acquire annotation
inline const std::string kRel = "REL";      ///< release annotation
inline const std::string kAcqRel = "AR";    ///< acq_rel / lwsync-class
inline const std::string kSc = "SCA";       ///< seq_cst / sync-class
// Binary relations:
inline const std::string kPo = "po";        ///< program order (transitive)
inline const std::string kSloc = "sloc";    ///< same location (equivalence)
inline const std::string kRf = "rf";        ///< reads-from
inline const std::string kCo = "co";        ///< coherence (transitive)
inline const std::string kAddr = "addr";    ///< address dependency
inline const std::string kData = "data";    ///< data dependency
inline const std::string kCtrl = "ctrl";    ///< control dependency
inline const std::string kRmw = "rmw";      ///< atomic read/write pairing
inline const std::string kScOrd = "sc";     ///< SC-fence total order (SCC)
// Scoped models (OpenCL/HSA-style):
inline const std::string kScopeWg = "SWG";  ///< workgroup-scoped sync ops
inline const std::string kScopeSys = "SSYS";///< system-scoped sync ops
inline const std::string kSameWg = "swg";   ///< same-workgroup equivalence

/** Singleton constant set {atom} in a universe of @p n. */
rel::ExprPtr singleton(size_t atom, size_t n);

/** Constant strict less-than relation over atom indices. */
rel::ExprPtr indexLt(size_t n);

/** Formula: the pair (i, j) is in relation @p r. */
rel::FormulaPtr cellIn(const rel::ExprPtr &r, size_t i, size_t j, size_t n);

/** All memory events: R + W. */
rel::ExprPtr mem(const Env &env);

/** Program order restricted to the same location (po_loc). */
rel::ExprPtr poLoc(const Env &env);

/** Same-thread relation (po in either direction). */
rel::ExprPtr sameThread(const Env &env);

/**
 * From-reads (a.k.a. reads-before), in the initial-write-aware form of
 * the paper's Figure 4: fr = (R <: sloc :> W) - ~rf.*~co.
 */
rel::ExprPtr fr(const Env &env);

/** Communication: rf + co + fr. */
rel::ExprPtr com(const Env &env);

/** External (inter-thread) restriction of @p r. */
rel::ExprPtr external(const Env &env, const rel::ExprPtr &r);

/** Internal (intra-thread) restriction of @p r. */
rel::ExprPtr internal(const Env &env, const rel::ExprPtr &r);

rel::ExprPtr rfe(const Env &env);
rel::ExprPtr rfi(const Env &env);
rel::ExprPtr coe(const Env &env);
rel::ExprPtr fre(const Env &env);

/**
 * Fence-ordering relation for a fence set @p fence_set:
 * events po-before a fence of that set to events po-after it
 * ((po :> fset).po, Figure 4).
 */
rel::ExprPtr fenceOrder(const Env &env, const rel::ExprPtr &fence_set);

} // namespace lts::mm

#endif // LTS_MM_EXPRS_HH
