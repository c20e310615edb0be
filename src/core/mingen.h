#ifndef QIMAP_CORE_MINGEN_H_
#define QIMAP_CORE_MINGEN_H_

#include <cstdint>
#include <vector>

#include "base/status.h"
#include "dependency/schema_mapping.h"
#include "relational/atom.h"

namespace qimap {

class Budget;  // base/budget.h

/// Per-run statistics of the MinGen search (same convention as
/// ChaseStats; totals are mirrored into the `mingen.*` metrics).
struct MinGenStats {
  /// Candidate conjunctions that survived dedup and dominance pruning and
  /// were examined (the budget checked against
  /// MinGenOptions::max_candidates).
  size_t candidates = 0;
  /// Candidates dropped by the near-canonical dedup key.
  size_t dedup_pruned = 0;
  /// Candidates dropped as strict supersets of a found generator.
  size_t dominated_pruned = 0;
  /// Generator decisions made: candidates containing every x, each
  /// decided as IsGenerator would decide it (see delta_skipped).
  size_t generator_tests = 0;
  /// Minimal generators returned.
  size_t generators = 0;
  /// Generator decisions taken without any chase or psi search: the new
  /// atom completes no lhs match of the mapping, so the candidate's
  /// chase equals its parent's and so does the decision.
  size_t delta_skipped = 0;
  /// Parent candidates whose canonical instance was chased; every other
  /// generator decision fires only its delta triggers on top of one.
  size_t parent_chases = 0;
  /// When the provenance journal is enabled: the journal event id of each
  /// returned minimal generator, parallel to the result vector. Callers
  /// (QuasiInverse) attribute their emitted rules to these events.
  std::vector<uint64_t> generator_event_ids;
  /// True when a budget limit ended the search early (see
  /// ChaseStats::partial).
  bool partial = false;

  /// Adds another run's statistics into this one: counters add, event ids
  /// append, `partial` ORs (how QuasiInverse totals its searches).
  void Accumulate(const MinGenStats& run);
};

/// Options for the MinGen search.
struct MinGenOptions {
  /// Bound on the number of conjuncts of a generator. 0 means the
  /// Lemma 4.4 bound `s1 * s2` (max lhs size of Sigma times the number of
  /// atoms in psi).
  size_t max_atoms = 0;
  /// Budget on the number of candidate conjunctions examined (see
  /// MinGenStats::candidates); exceeding it yields ResourceExhausted.
  size_t max_candidates = 1u << 22;
  /// Deduplicate search candidates by a near-canonical key (up to renaming
  /// of fresh variables). Always correct to disable — the output is
  /// deduplicated regardless — but the search revisits permuted copies;
  /// exposed as an ablation knob for the benchmarks.
  bool dedup_candidates = true;
  /// Optional out-param: filled with this run's search statistics.
  MinGenStats* stats = nullptr;
  /// Shared resource governor (see ChaseOptions::budget); also handed to
  /// the parent chases, and charged for the nulls and facts the delta
  /// firings add, so one budget bounds the whole search.
  Budget* budget = nullptr;
  /// Best-effort partial result on a budget trip: the (unminimized)
  /// generators found so far. See ChaseOptions::partial_out.
  std::vector<Conjunction>* partial_out = nullptr;
};

/// Decides whether `beta` (a conjunction of source atoms over variables
/// `x ∪ z`) is a generator of `exists y psi(x, y)` with respect to the
/// mapping's tgds (Definition 4.2): the tgd `beta -> exists y psi` must be
/// a logical consequence of Sigma, which holds iff chasing the canonical
/// instance `I_beta` with Sigma yields at least `I_psi(x, y')` for some
/// substitution `y'` for `y` (with the `x` frozen).
/// `budget`, when non-null, governs the inner chase of `I_beta`.
Result<bool> IsGenerator(const SchemaMapping& m, const Conjunction& beta,
                         const Conjunction& psi,
                         const std::vector<Value>& x,
                         Budget* budget = nullptr);

/// True iff `small` is a sub-conjunction of `big` up to a (bijective)
/// renaming of the variables not in `x`: some injective renaming of
/// small's fresh variables into big's fresh variables sends every conjunct
/// of `small` to a conjunct of `big`.
bool IsSubConjunctionUpToRenaming(const Conjunction& small,
                                  const Conjunction& big,
                                  const std::vector<Value>& x);

/// The paper's algorithm MinGen (Section 4): returns all minimal
/// generators of `exists y psi(x, y)` with respect to the mapping, up to
/// renaming of the fresh variables. `x` lists the shared variables (which
/// every generator must contain); the remaining variables of `psi` are the
/// existential `y`. Fresh generator variables are reported as `#z1, #z2,
/// ...` in first-occurrence order.
///
/// The level-order search decides each candidate exactly as IsGenerator
/// would, but incrementally: a candidate is its parent plus one atom, so
/// each frontier parent is chased at most once and a child only fires the
/// lhs matches that use its new atom on top of that chase (or, with no
/// such match, inherits the parent's decision). IsGenerator remains the
/// from-scratch oracle.
Result<std::vector<Conjunction>> MinGen(const SchemaMapping& m,
                                        const Conjunction& psi,
                                        const std::vector<Value>& x,
                                        const MinGenOptions& options = {});

}  // namespace qimap

#endif  // QIMAP_CORE_MINGEN_H_
