#ifndef QIMAP_CHASE_MATCH_PLAN_H_
#define QIMAP_CHASE_MATCH_PLAN_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "base/value.h"
#include "obs/profiler.h"
#include "relational/atom.h"
#include "relational/homomorphism.h"
#include "relational/instance.h"
#include "relational/schema.h"

namespace qimap {

/// Compiled per-dependency match plans (ROADMAP #3, following the
/// *Laconic schema mappings* direction: compile the mapping itself into
/// executable queries).
///
/// The interpretive `Matcher` re-derives a join order per search, mutates
/// a `std::map` Assignment per candidate row, and re-probes posting lists
/// it already probed while ordering. A `MatchPlan` hoists all of that to
/// compile time: the body is compiled once per (body, options, bound-key
/// set, index-statistics epoch) into an ordered step sequence with a
/// *static* per-atom access-path decision — point-lookup vs posting-probe
/// vs scan — and bound-variable propagation resolved into a flat register
/// frame (dense variable slots). Executing a plan touches no maps until a
/// match is actually emitted.
///
/// Determinism contract: plan *content* is a pure function of the body,
/// the options' movability/side-condition bits, the partial assignment's
/// key set, and the instance's index statistics (row counts, per-column
/// distinct counts, literal posting lengths). The partial assignment's
/// *values* never influence compilation, so every search sharing a cache
/// key executes the same plan regardless of which thread compiled it
/// first — `hom.*`, `chase.index.*`, and `chase.plan.*` counters stay
/// byte-identical at every thread count, like the rest of the engine.
///
/// The compiler's greedy ordering deliberately replicates the interpretive
/// `OrderAtoms` heuristic (fewest unbound arguments, then smallest
/// statistics extent, zero-extent atoms first) so that with an empty
/// partial assignment both paths enumerate homomorphisms in the same
/// order — the SO chase allocates nulls in emission order and stays
/// byte-identical with plans on or off.

/// How a compiled step locates candidate rows. Decided statically at
/// compile time from which argument positions are determined when the
/// step runs.
enum class PlanStepMode : uint8_t {
  /// Every argument is determined before the step runs: one full-tuple
  /// slot-table probe, no candidate loop.
  kPointLookup = 0,
  /// At least one argument is determined: probe each determined column's
  /// posting list and let the smallest drive the candidate loop.
  kProbe = 1,
  /// No argument is determined (or the atom has arity 0): full columnar
  /// scan of the relation.
  kScan = 2,
};

/// Stable lowercase name for dumps ("point_lookup", "probe", "scan").
const char* PlanStepModeName(PlanStepMode mode);

/// Where a step argument's comparison value comes from at execution time.
enum class PlanArgKind : uint8_t {
  kLiteral = 0,  ///< fixed value (constant, or frozen null/variable)
  kCheck = 1,    ///< register holding an earlier binding: compare
  kBind = 2,     ///< first occurrence of a variable: write the cell
};

struct PlanArg {
  PlanArgKind kind = PlanArgKind::kLiteral;
  uint16_t reg = 0;  ///< register slot (kCheck / kBind)
  Value literal;     ///< fixed value (kLiteral)
};

/// Side conditions compiled onto a kBind argument so they reject eagerly,
/// mirroring the interpretive matcher's `BindOk`. Conditions whose other
/// side is not yet determined at bind time are left to the final check.
struct PlanBindChecks {
  bool must_be_constant = false;
  std::vector<Value> neq_literals;  ///< `x != c` partners fixed at compile
  std::vector<uint16_t> neq_regs;   ///< `x != y` partners bound earlier
};

struct PlanStep {
  RelationId relation = 0;
  PlanStepMode mode = PlanStepMode::kScan;
  std::vector<PlanArg> args;  ///< one per column, in column order
  /// Determined columns (kProbe): each is probed and the smallest posting
  /// list drives the loop, exactly like the interpretive matcher, so both
  /// paths visit the same candidate rows in the same ascending-row order.
  std::vector<uint16_t> probe_cols;
  /// Parallel to `args` when the search carries side conditions; empty
  /// otherwise. Consulted only for kBind arguments.
  std::vector<PlanBindChecks> bind_checks;
};

/// One compiled body. Immutable after compilation; shared across threads
/// via shared_ptr from the plan cache.
struct MatchPlan {
  std::vector<PlanStep> steps;  ///< in execution order
  /// perm[step] = the atom's original position in the body as written;
  /// used to map per-step telemetry back before profiler attribution.
  std::vector<size_t> perm;
  /// Register slot -> the movable value it holds, in slot order. Slots
  /// are dense, assigned at first occurrence in execution order.
  std::vector<Value> reg_vars;
  /// Slots preloaded from the partial assignment before step 0.
  std::vector<uint16_t> preload_regs;
  /// True when the plan's shape does not depend on index statistics
  /// (single-atom bodies, and bodies where every atom is fully determined
  /// up front). Stats-free plans never go stale and skip the per-search
  /// statistics digest entirely.
  bool stats_free = false;
  /// MatchPlanStatsDigest of the instance the plan was compiled against
  /// (0 when stats_free). A cached plan is reused only while the digest
  /// still matches — "compiled once per instance epoch".
  uint64_t stats_digest = 0;

  /// Human-readable dump (one line per step) for `analyze --plan`.
  std::string ToText(const Schema& schema) const;
  /// JSON dump (object) validated by `telemetry_check --plan`; format in
  /// docs/observability.md.
  std::string ToJson(const Schema& schema) const;
};

/// Hash of every statistic the compiler consults for `body` against
/// `instance`: per-atom row counts, per-column distinct counts, and exact
/// posting lengths of literal (non-movable) arguments. Two instances with
/// equal digests compile to identical plans.
uint64_t MatchPlanStatsDigest(const Conjunction& body,
                              const Instance& instance,
                              const HomSearchOptions& options);

/// Compiles `body` for searches that extend assignments whose key set
/// equals `partial`'s key set. Only the keys of `partial` are read.
MatchPlan CompileMatchPlan(const Conjunction& body, const Instance& instance,
                           const Assignment& partial,
                           const HomSearchOptions& options);

/// Returns the cached plan for (body, options, partial key set) if its
/// statistics digest is still current, else compiles (and caches) a fresh
/// one. Increments chase.plan.compiles / chase.plan.cache_hits.
std::shared_ptr<const MatchPlan> GetOrCompileMatchPlan(
    const Conjunction& body, const Instance& instance,
    const Assignment& partial, const HomSearchOptions& options);

/// Counts one compilation a caller made itself with CompileMatchPlan (the
/// chase compiles each dependency's plans once per run, bypassing the
/// cache) in chase.plan.compiles.
void CountPlanCompile();

/// Drops every cached plan (tests and bench windows). Thread-compatible
/// with concurrent GetOrCompileMatchPlan calls; in-flight executions keep
/// their shared_ptr.
void ClearMatchPlanCache();

/// What a PlanSink decides about one candidate match.
enum class MatchAction : uint8_t {
  kReject = 0,    ///< not a match after all (a side condition failed)
  kContinue = 1,  ///< a match; keep searching
  kStop = 2,      ///< a match; end the search
};

/// Receives the matches of a PlanMatcher search.
class PlanSink {
 public:
  /// `regs` holds one value per plan register (MatchPlan::reg_vars order).
  virtual MatchAction OnMatch(const Value* regs) = 0;

 protected:
  ~PlanSink() = default;
};

/// Work counters of plan searches, summed by the caller and mirrored into
/// the hom.* / chase.index.* registry counters by FlushPlanCounts — the
/// same counters the interpretive matcher reports per search.
struct PlanCounts {
  uint64_t searches = 0;
  uint64_t matches = 0;
  uint64_t backtracks = 0;
  uint64_t index_lookups = 0;
  uint64_t index_hits = 0;
  uint64_t index_rows = 0;
  uint64_t scan_rows = 0;
  uint64_t point_lookups = 0;
};

/// Adds `counts` to the hom.* / chase.index.* registry counters.
void FlushPlanCounts(const PlanCounts& counts);

/// Runs one compiled plan against one instance, search after search, with
/// no per-search allocation: the register frame, the point-lookup probe
/// buffer and the per-step counters live as long as the matcher. The
/// chase builds one per dependency and thread and calls Run once per
/// trigger. Not thread-safe; threads share the immutable MatchPlan and
/// each runs its own matcher. The plan and instance must outlive it.
class PlanMatcher {
 public:
  PlanMatcher(const MatchPlan& plan, const Instance& instance);

  /// One search. `preload[i]` is the value of register
  /// `plan.preload_regs[i]`. Each candidate match goes to `sink`; a null
  /// sink accepts the first match and stops. Returns the number of
  /// matches, adds the search's work to `*counts` (searches += 1), and,
  /// when a profiler search scope is active, reports the per-atom work.
  size_t Run(const Value* preload, PlanSink* sink, PlanCounts* counts);

 private:
  void Step(size_t s);
  bool UnifyRow(const PlanStep& step, uint32_t row);
  bool BindOk(const PlanBindChecks& checks, const Value& cell) const;

  const MatchPlan& plan_;
  const Instance& inst_;
  PlanSink* sink_ = nullptr;
  std::vector<Value> regs_;
  Tuple probe_;
  std::vector<obs::ProfileAtomCounters> step_counts_;
  size_t index_hits_ = 0;
  size_t point_lookups_ = 0;
  size_t count_ = 0;
  bool stop_ = false;
};

/// Plan-executing equivalent of ForEachHomomorphism: compiles (or fetches)
/// the plan and runs it. Flushes the same hom.* / chase.index.* counters
/// as the interpretive matcher plus chase.plan.*, and attributes per-atom
/// profiler telemetry through the plan's perm. Called by
/// ForEachHomomorphism when HomSearchOptions::use_compiled_plan is on;
/// callers normally go through ForEachHomomorphism.
size_t ForEachPlanMatch(const Conjunction& body, const Instance& target,
                        const Assignment& partial,
                        const HomSearchOptions& options,
                        const std::function<bool(const Assignment&)>& fn);

}  // namespace qimap

#endif  // QIMAP_CHASE_MATCH_PLAN_H_
