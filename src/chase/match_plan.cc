#include "chase/match_plan.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <mutex>
#include <set>
#include <unordered_map>
#include <utility>

#include "obs/metrics.h"
#include "obs/profiler.h"

namespace qimap {

namespace {

// FNV-1a style mixing for the statistics digest and cache keys.
inline uint64_t Mix(uint64_t h, uint64_t x) {
  h ^= x + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return h;
}

// Sentinel mixed in for movable (non-literal) argument positions so the
// digest distinguishes "no literal here" from "literal with posting 0".
constexpr uint64_t kMovableSentinel = 0xA5A5A5A5A5A5A5A5ULL;

// Expected posting-list length for a column probed with a value that is
// only known at run time: rows / distinct, rounded up. Mirrors the
// interpretive OrderAtoms estimate exactly.
size_t DistinctEstimate(const Instance& inst, RelationId rel, uint32_t col,
                        size_t rows) {
  uint32_t distinct = inst.ColumnDistinct(rel, col);
  return distinct > 0 ? (rows + distinct - 1) / distinct : rows;
}

// Greedy join order over `body`: at each step pick the atom with the
// fewest unbound movable arguments, breaking ties by the smaller
// statistics extent, then by the lower original index — the interpretive
// OrderAtoms heuristic, including its zero-extent short-circuit (an atom
// whose extent is provably 0 is picked immediately so the empty search
// prunes in O(1)). The one deliberate divergence: arguments bound by the
// partial assignment are costed by rows/distinct instead of their exact
// posting length, because plan compilation never reads partial *values*
// (they vary per search under one cached plan).
std::vector<size_t> GreedyOrder(const Conjunction& body,
                                const Instance& inst,
                                const std::set<Value>& keyset,
                                const HomSearchOptions& options) {
  std::vector<bool> used(body.size(), false);
  std::set<Value> bound = keyset;
  std::vector<size_t> order;
  order.reserve(body.size());
  for (size_t step = 0; step < body.size(); ++step) {
    size_t best = body.size();
    size_t best_unbound = SIZE_MAX;
    size_t best_extent = SIZE_MAX;
    for (size_t i = 0; i < body.size(); ++i) {
      if (used[i]) continue;
      size_t unbound = 0;
      for (const Value& v : body[i].args) {
        if (IsMovableValue(v, options) && bound.count(v) == 0) ++unbound;
      }
      const size_t rows = inst.NumRows(body[i].relation);
      size_t extent = rows;
      for (size_t a = 0; a < body[i].args.size(); ++a) {
        const Value& arg = body[i].args[a];
        size_t estimate = SIZE_MAX;
        if (!IsMovableValue(arg, options)) {
          const std::vector<uint32_t>* ids = inst.RowsWith(
              body[i].relation, static_cast<uint32_t>(a), arg);
          estimate = ids != nullptr ? ids->size() : 0;
        } else if (bound.count(arg) > 0) {
          estimate =
              DistinctEstimate(inst, body[i].relation,
                               static_cast<uint32_t>(a), rows);
        }
        extent = std::min(extent, estimate);
      }
      if (extent == 0) {
        // Provably empty: any candidate loop here visits nothing, so the
        // whole search is empty. Front-load it and stop scanning.
        best = i;
        break;
      }
      if (unbound < best_unbound ||
          (unbound == best_unbound && extent < best_extent)) {
        best = i;
        best_unbound = unbound;
        best_extent = extent;
      }
    }
    used[best] = true;
    order.push_back(best);
    for (const Value& v : body[best].args) {
      if (IsMovableValue(v, options)) bound.insert(v);
    }
  }
  return order;
}

// True when every argument of every atom is determined before any step
// runs (a literal, or a key of the partial assignment). Such bodies
// compile to a pure point-lookup chain in written order: no statistic can
// change the plan, so it is stats-free and cache hits never re-digest.
bool FullyDetermined(const Conjunction& body, const std::set<Value>& keyset,
                     const HomSearchOptions& options) {
  for (const Atom& atom : body) {
    for (const Value& arg : atom.args) {
      if (IsMovableValue(arg, options) && keyset.count(arg) == 0) {
        return false;
      }
    }
  }
  return true;
}

// ---------------------------------------------------------------------
// Plan cache.
//
// One slot per structural key (body content + movability/side-condition
// bits + partial key set). The slot holds the latest compiled plan; a
// non-stats-free plan is revalidated against the current statistics
// digest on every hit and recompiled in place when the instance has
// moved on ("compiled once per instance epoch"). Single-slot-per-key
// keeps memory bounded by the number of distinct bodies, not epochs.
//
// A lock-free thread-local front cache serves stats-free plans (the
// satisfaction-search hot path: ground rhs bodies) without touching the
// mutex. Front-cache entries are immutable shared_ptrs and stats-free
// plans are instance-independent, so they can never go stale; a global
// version bump on ClearMatchPlanCache invalidates them anyway so tests
// observe deterministic compile counts.
//
// Both layers additionally key their validity on the metrics reset
// generation: the chase.plan.* counters land in the canonical ledger
// record, whose contract is "byte-identical for identical work since the
// last obs::ResetMetrics()". A cache outliving the counter window would
// make the second identical run report compiles=0 where the first
// reported N — history-dependent telemetry. Clearing on generation
// change makes the counters a pure function of the window; production
// processes never reset, so they keep full cross-run reuse.
// ---------------------------------------------------------------------

struct CacheEntry {
  std::shared_ptr<const MatchPlan> plan;
};

struct PlanCache {
  std::mutex mu;
  uint64_t reset_generation = 0;
  std::unordered_map<std::string, CacheEntry> slots;
};

PlanCache& GlobalCache() {
  static PlanCache* cache = new PlanCache();
  return *cache;
}

std::atomic<uint64_t> g_cache_version{1};

// Structural keys realistically number in the dozens (distinct dependency
// bodies); this cap only guards pathological generators. Clearing is
// all-or-nothing so reuse stays deterministic.
constexpr size_t kMaxCacheSlots = 4096;

void AppendU32(std::string* out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

void AppendValue(std::string* out, const Value& v) {
  out->push_back(static_cast<char>(v.kind()));
  AppendU32(out, v.id());
}

// Serializes everything that determines plan *shape* other than the
// statistics digest: body atoms, movability bits, side conditions, and
// the partial assignment's key set.
std::string StructuralKey(const Conjunction& body, const Assignment& partial,
                          const HomSearchOptions& options) {
  std::string key;
  key.reserve(body.size() * 16 + partial.size() * 5 + 8);
  key.push_back(options.map_nulls ? 'n' : '-');
  key.push_back(options.map_variables ? 'v' : '-');
  for (const Atom& atom : body) {
    key.push_back('A');
    AppendU32(&key, atom.relation);
    for (const Value& arg : atom.args) AppendValue(&key, arg);
  }
  key.push_back('P');
  for (const auto& [k, unused] : partial) AppendValue(&key, k);
  if (!options.must_be_constant.empty()) {
    key.push_back('C');
    for (const Value& v : options.must_be_constant) AppendValue(&key, v);
  }
  if (!options.inequalities.empty()) {
    key.push_back('I');
    for (const auto& [a, b] : options.inequalities) {
      AppendValue(&key, a);
      AppendValue(&key, b);
    }
  }
  return key;
}

}  // namespace

const char* PlanStepModeName(PlanStepMode mode) {
  switch (mode) {
    case PlanStepMode::kPointLookup:
      return "point_lookup";
    case PlanStepMode::kProbe:
      return "probe";
    case PlanStepMode::kScan:
      return "scan";
  }
  return "unknown";
}

uint64_t MatchPlanStatsDigest(const Conjunction& body,
                              const Instance& instance,
                              const HomSearchOptions& options) {
  uint64_t h = 0x243F6A8885A308D3ULL;
  for (const Atom& atom : body) {
    h = Mix(h, atom.relation);
    h = Mix(h, instance.NumRows(atom.relation));
    for (size_t a = 0; a < atom.args.size(); ++a) {
      h = Mix(h, instance.ColumnDistinct(atom.relation,
                                         static_cast<uint32_t>(a)));
      if (!IsMovableValue(atom.args[a], options)) {
        const std::vector<uint32_t>* ids = instance.RowsWith(
            atom.relation, static_cast<uint32_t>(a), atom.args[a]);
        h = Mix(h, ids != nullptr ? ids->size() : 0);
      } else {
        h = Mix(h, kMovableSentinel);
      }
    }
  }
  return h != 0 ? h : 1;  // 0 is reserved for "stats-free"
}

MatchPlan CompileMatchPlan(const Conjunction& body, const Instance& instance,
                           const Assignment& partial,
                           const HomSearchOptions& options) {
  MatchPlan plan;
  std::set<Value> keyset;
  for (const auto& [k, unused] : partial) keyset.insert(k);

  const bool fully_determined = FullyDetermined(body, keyset, options);
  if (body.size() <= 1 || fully_determined) {
    plan.stats_free = true;
    plan.perm.resize(body.size());
    for (size_t i = 0; i < body.size(); ++i) plan.perm[i] = i;
  } else {
    plan.perm = GreedyOrder(body, instance, keyset, options);
    plan.stats_digest = MatchPlanStatsDigest(body, instance, options);
  }

  const bool has_conditions =
      !options.must_be_constant.empty() || !options.inequalities.empty();

  // First pass: assign dense register slots at first occurrence in
  // execution order and resolve every argument's kind.
  std::unordered_map<Value, uint16_t, ValueHash> reg_of;
  plan.steps.reserve(body.size());
  for (size_t s = 0; s < plan.perm.size(); ++s) {
    const Atom& atom = body[plan.perm[s]];
    PlanStep step;
    step.relation = atom.relation;
    step.args.reserve(atom.args.size());
    for (const Value& arg : atom.args) {
      PlanArg pa;
      if (!IsMovableValue(arg, options)) {
        pa.kind = PlanArgKind::kLiteral;
        pa.literal = arg;
      } else {
        auto it = reg_of.find(arg);
        if (it == reg_of.end()) {
          uint16_t reg = static_cast<uint16_t>(plan.reg_vars.size());
          reg_of.emplace(arg, reg);
          plan.reg_vars.push_back(arg);
          if (keyset.count(arg) > 0) {
            plan.preload_regs.push_back(reg);
            pa.kind = PlanArgKind::kCheck;
          } else {
            pa.kind = PlanArgKind::kBind;
          }
          pa.reg = reg;
        } else {
          pa.kind = PlanArgKind::kCheck;  // bound at its first occurrence
          pa.reg = it->second;
        }
      }
      step.args.push_back(std::move(pa));
    }
    plan.steps.push_back(std::move(step));
  }

  // Second pass: decide each step's access mode from which arguments are
  // determined *before* the step runs (literals, preloaded registers, and
  // registers bound by earlier steps — not same-step binds), and compile
  // the eager side-condition checks onto kBind arguments.
  std::vector<bool> bound_before(plan.reg_vars.size(), false);
  for (uint16_t r : plan.preload_regs) bound_before[r] = true;
  for (PlanStep& step : plan.steps) {
    for (size_t i = 0; i < step.args.size(); ++i) {
      const PlanArg& arg = step.args[i];
      if (arg.kind == PlanArgKind::kLiteral ||
          (arg.kind == PlanArgKind::kCheck && bound_before[arg.reg])) {
        step.probe_cols.push_back(static_cast<uint16_t>(i));
      }
    }
    if (!step.args.empty() && step.probe_cols.size() == step.args.size()) {
      step.mode = PlanStepMode::kPointLookup;
      step.probe_cols.clear();
    } else if (!step.probe_cols.empty()) {
      step.mode = PlanStepMode::kProbe;
    } else {
      step.mode = PlanStepMode::kScan;
    }
    if (has_conditions) {
      step.bind_checks.resize(step.args.size());
      for (size_t i = 0; i < step.args.size(); ++i) {
        if (step.args[i].kind != PlanArgKind::kBind) continue;
        const Value& var = plan.reg_vars[step.args[i].reg];
        PlanBindChecks& checks = step.bind_checks[i];
        for (const Value& v : options.must_be_constant) {
          if (v == var) checks.must_be_constant = true;
        }
        for (const auto& [a, b] : options.inequalities) {
          const Value* other = nullptr;
          if (a == var) {
            other = &b;
          } else if (b == var) {
            other = &a;
          } else {
            continue;
          }
          if (!IsMovableValue(*other, options)) {
            checks.neq_literals.push_back(*other);
          } else {
            auto it = reg_of.find(*other);
            if (it != reg_of.end() && bound_before[it->second]) {
              checks.neq_regs.push_back(it->second);
            }
            // Partner bound later (or absent): the final check covers it.
          }
        }
      }
    }
    // Binds of this step become visible to later steps.
    for (const PlanArg& arg : step.args) {
      if (arg.kind == PlanArgKind::kBind) bound_before[arg.reg] = true;
    }
  }
  return plan;
}

void CountPlanCompile() {
  static const obs::MetricId kCompiles =
      obs::RegisterCounter("chase.plan.compiles");
  obs::CounterAdd(kCompiles);
}

std::shared_ptr<const MatchPlan> GetOrCompileMatchPlan(
    const Conjunction& body, const Instance& instance,
    const Assignment& partial, const HomSearchOptions& options) {
  static const obs::MetricId kCacheHits =
      obs::RegisterCounter("chase.plan.cache_hits");

  std::string key = StructuralKey(body, partial, options);

  // Lock-free front cache for stats-free plans (instance-independent, so
  // never stale). Invalidated wholesale when the global cache version
  // moves.
  struct FrontCache {
    uint64_t version = 0;
    uint64_t reset_generation = 0;
    std::unordered_map<std::string, std::shared_ptr<const MatchPlan>> slots;
  };
  thread_local FrontCache front;
  const uint64_t version = g_cache_version.load(std::memory_order_acquire);
  const uint64_t reset_gen = obs::MetricsResetGeneration();
  if (front.version != version || front.reset_generation != reset_gen) {
    front.version = version;
    front.reset_generation = reset_gen;
    front.slots.clear();
  }
  if (auto it = front.slots.find(key); it != front.slots.end()) {
    obs::CounterAdd(kCacheHits);
    return it->second;
  }

  PlanCache& cache = GlobalCache();
  std::unique_lock<std::mutex> lock(cache.mu);
  if (cache.reset_generation != reset_gen) {
    cache.reset_generation = reset_gen;
    cache.slots.clear();
    g_cache_version.fetch_add(1, std::memory_order_acq_rel);
  }
  auto it = cache.slots.find(key);
  if (it != cache.slots.end()) {
    const std::shared_ptr<const MatchPlan>& cached = it->second.plan;
    if (cached->stats_free) {
      obs::CounterAdd(kCacheHits);
      front.slots.emplace(key, cached);
      return cached;
    }
    if (cached->stats_digest ==
        MatchPlanStatsDigest(body, instance, options)) {
      obs::CounterAdd(kCacheHits);
      return cached;
    }
    // The instance's statistics moved on: recompile in place.
    auto plan = std::make_shared<const MatchPlan>(
        CompileMatchPlan(body, instance, partial, options));
    it->second.plan = plan;
    CountPlanCompile();
    return plan;
  }
  if (cache.slots.size() >= kMaxCacheSlots) {
    cache.slots.clear();
    g_cache_version.fetch_add(1, std::memory_order_acq_rel);
  }
  auto plan = std::make_shared<const MatchPlan>(
      CompileMatchPlan(body, instance, partial, options));
  auto inserted = cache.slots.emplace(key, CacheEntry{plan});
  if (plan->stats_free) front.slots.emplace(key, plan);
  (void)inserted;
  CountPlanCompile();
  return plan;
}

void ClearMatchPlanCache() {
  PlanCache& cache = GlobalCache();
  std::lock_guard<std::mutex> lock(cache.mu);
  cache.slots.clear();
  g_cache_version.fetch_add(1, std::memory_order_acq_rel);
}

void FlushPlanCounts(const PlanCounts& counts) {
  static const obs::MetricId kSearches =
      obs::RegisterCounter("hom.searches");
  static const obs::MetricId kMatches = obs::RegisterCounter("hom.matches");
  static const obs::MetricId kBacktracks =
      obs::RegisterCounter("hom.backtracks");
  static const obs::MetricId kIndexLookups =
      obs::RegisterCounter("chase.index.lookups");
  static const obs::MetricId kIndexHits =
      obs::RegisterCounter("chase.index.hits");
  static const obs::MetricId kIndexRows =
      obs::RegisterCounter("chase.index.rows");
  static const obs::MetricId kScanRows =
      obs::RegisterCounter("chase.index.scan_rows");
  static const obs::MetricId kPointLookups =
      obs::RegisterCounter("chase.index.point_lookups");
  obs::CounterAdd(kSearches, counts.searches);
  obs::CounterAdd(kMatches, counts.matches);
  obs::CounterAdd(kBacktracks, counts.backtracks);
  obs::CounterAdd(kIndexLookups, counts.index_lookups);
  obs::CounterAdd(kIndexHits, counts.index_hits);
  obs::CounterAdd(kIndexRows, counts.index_rows);
  obs::CounterAdd(kScanRows, counts.scan_rows);
  obs::CounterAdd(kPointLookups, counts.point_lookups);
}

// ---------------------------------------------------------------------
// Plan execution: a recursive matcher over the flat register frame. No
// map is touched; failed candidates leave registers dirty by design (a
// register is only read by steps that run strictly after the step that
// bound it succeeded).
// ---------------------------------------------------------------------

PlanMatcher::PlanMatcher(const MatchPlan& plan, const Instance& instance)
    : plan_(plan),
      inst_(instance),
      regs_(plan.reg_vars.size()),
      step_counts_(plan.steps.size()) {}

size_t PlanMatcher::Run(const Value* preload, PlanSink* sink,
                        PlanCounts* counts) {
  for (size_t i = 0; i < plan_.preload_regs.size(); ++i) {
    regs_[plan_.preload_regs[i]] = preload[i];
  }
  std::fill(step_counts_.begin(), step_counts_.end(),
            obs::ProfileAtomCounters{});
  sink_ = sink;
  index_hits_ = 0;
  point_lookups_ = 0;
  count_ = 0;
  stop_ = false;
  Step(0);
  uint64_t backtracks = 0;
  ++counts->searches;
  counts->matches += count_;
  for (const obs::ProfileAtomCounters& c : step_counts_) {
    backtracks += c.unify_fails;
    counts->index_lookups += c.probes;
    counts->index_rows += c.probe_rows;
    counts->scan_rows += c.scan_rows;
  }
  counts->backtracks += backtracks;
  counts->index_hits += index_hits_;
  counts->point_lookups += point_lookups_;
  if (obs::ProfileSearchActive()) {
    // Map per-step telemetry back to the body's positions as written.
    std::vector<obs::ProfileAtomCounters> atoms(plan_.perm.size());
    for (size_t s = 0; s < plan_.perm.size(); ++s) {
      atoms[plan_.perm[s]] = step_counts_[s];
    }
    obs::ProfileRecordSearch(count_, backtracks, atoms);
  }
  return count_;
}

void PlanMatcher::Step(size_t s) {
  if (stop_) return;
  if (s == plan_.steps.size()) {
    const MatchAction action =
        sink_ != nullptr ? sink_->OnMatch(regs_.data()) : MatchAction::kStop;
    if (action == MatchAction::kReject) return;
    ++count_;
    if (action == MatchAction::kStop) stop_ = true;
    return;
  }
  const PlanStep& step = plan_.steps[s];
  switch (step.mode) {
    case PlanStepMode::kPointLookup: {
      ++point_lookups_;
      ++step_counts_[s].probes;
      probe_.clear();
      for (const PlanArg& arg : step.args) {
        probe_.push_back(arg.kind == PlanArgKind::kLiteral ? arg.literal
                                                           : regs_[arg.reg]);
      }
      if (!inst_.ContainsFact(step.relation, probe_)) return;
      ++index_hits_;
      ++step_counts_[s].probe_rows;
      Step(s + 1);
      return;
    }
    case PlanStepMode::kProbe: {
      const std::vector<uint32_t>* candidates = nullptr;
      for (uint16_t col : step.probe_cols) {
        ++step_counts_[s].probes;
        const PlanArg& arg = step.args[col];
        const std::vector<uint32_t>* ids = inst_.RowsWith(
            step.relation, col,
            arg.kind == PlanArgKind::kLiteral ? arg.literal : regs_[arg.reg]);
        if (ids == nullptr) return;  // no row carries this column value
        ++index_hits_;
        if (candidates == nullptr || ids->size() < candidates->size()) {
          candidates = ids;
        }
      }
      for (uint32_t row : *candidates) {
        ++step_counts_[s].probe_rows;
        if (UnifyRow(step, row)) {
          Step(s + 1);
        } else {
          ++step_counts_[s].unify_fails;
        }
        if (stop_) return;
      }
      return;
    }
    case PlanStepMode::kScan: {
      const uint32_t rows = inst_.NumRows(step.relation);
      for (uint32_t row = 0; row < rows; ++row) {
        ++step_counts_[s].scan_rows;
        if (UnifyRow(step, row)) {
          Step(s + 1);
        } else {
          ++step_counts_[s].unify_fails;
        }
        if (stop_) return;
      }
      return;
    }
  }
}

bool PlanMatcher::UnifyRow(const PlanStep& step, uint32_t row) {
  const bool checked = !step.bind_checks.empty();
  for (size_t i = 0; i < step.args.size(); ++i) {
    const PlanArg& arg = step.args[i];
    const Value& cell = inst_.at(step.relation, row, static_cast<uint32_t>(i));
    switch (arg.kind) {
      case PlanArgKind::kLiteral:
        if (cell != arg.literal) return false;
        break;
      case PlanArgKind::kCheck:
        if (cell != regs_[arg.reg]) return false;
        break;
      case PlanArgKind::kBind:
        if (checked && !BindOk(step.bind_checks[i], cell)) return false;
        regs_[arg.reg] = cell;
        break;
    }
  }
  return true;
}

// Eager side-condition rejection at bind time; mirrors the interpretive
// BindOk so both paths reject the same candidates.
bool PlanMatcher::BindOk(const PlanBindChecks& checks,
                         const Value& cell) const {
  if (checks.must_be_constant && !cell.IsConstant()) return false;
  for (const Value& other : checks.neq_literals) {
    if (cell == other) return false;
  }
  for (uint16_t r : checks.neq_regs) {
    if (cell == regs_[r]) return false;
  }
  return true;
}

size_t ForEachPlanMatch(const Conjunction& body, const Instance& target,
                        const Assignment& partial,
                        const HomSearchOptions& options,
                        const std::function<bool(const Assignment&)>& fn) {
  std::shared_ptr<const MatchPlan> plan =
      GetOrCompileMatchPlan(body, target, partial, options);
  std::vector<Value> preload;
  preload.reserve(plan->preload_regs.size());
  for (uint16_t r : plan->preload_regs) {
    auto it = partial.find(plan->reg_vars[r]);
    if (it == partial.end()) return 0;  // key-set mismatch: cannot match
    preload.push_back(it->second);
  }
  // Emits the full assignment: the partial plus every register, after a
  // final re-check of every side condition (covers partners that were
  // unbound at bind time and conditions over non-movable values), exactly
  // like the interpretive FinalCheck.
  class AssignmentSink final : public PlanSink {
   public:
    AssignmentSink(const MatchPlan& plan, const Assignment& partial,
                   const HomSearchOptions& options,
                   const std::function<bool(const Assignment&)>& fn)
        : plan_(plan), partial_(partial), options_(options), fn_(fn) {}

    MatchAction OnMatch(const Value* regs) override {
      Assignment out = partial_;
      for (size_t r = 0; r < plan_.reg_vars.size(); ++r) {
        out.emplace(plan_.reg_vars[r], regs[r]);  // preloads already present
      }
      for (const Value& v : options_.must_be_constant) {
        if (!Resolve(out, v).IsConstant()) return MatchAction::kReject;
      }
      for (const auto& [a, b] : options_.inequalities) {
        if (Resolve(out, a) == Resolve(out, b)) return MatchAction::kReject;
      }
      return fn_(out) ? MatchAction::kContinue : MatchAction::kStop;
    }

   private:
    const MatchPlan& plan_;
    const Assignment& partial_;
    const HomSearchOptions& options_;
    const std::function<bool(const Assignment&)>& fn_;
  };
  AssignmentSink sink(*plan, partial, options, fn);
  PlanMatcher matcher(*plan, target);
  PlanCounts counts;
  size_t count = matcher.Run(preload.data(), &sink, &counts);
  FlushPlanCounts(counts);
  return count;
}

std::string MatchPlan::ToText(const Schema& schema) const {
  std::string out;
  for (size_t s = 0; s < steps.size(); ++s) {
    const PlanStep& step = steps[s];
    out += "  step " + std::to_string(s) + ": atom " +
           std::to_string(perm[s]) + " " +
           std::string(schema.relation(step.relation).name) + "/" +
           std::to_string(step.args.size()) + " " +
           PlanStepModeName(step.mode);
    if (step.mode == PlanStepMode::kProbe) {
      out += " cols[";
      for (size_t i = 0; i < step.probe_cols.size(); ++i) {
        if (i > 0) out += ",";
        out += std::to_string(step.probe_cols[i]);
      }
      out += "]";
    }
    std::string binds;
    std::string checks;
    for (size_t i = 0; i < step.args.size(); ++i) {
      const PlanArg& arg = step.args[i];
      if (arg.kind == PlanArgKind::kBind) {
        if (!binds.empty()) binds += ",";
        binds += reg_vars[arg.reg].ToString() + "=r" +
                 std::to_string(arg.reg);
      } else if (arg.kind == PlanArgKind::kCheck) {
        if (!checks.empty()) checks += ",";
        checks += "r" + std::to_string(arg.reg);
      }
    }
    if (!binds.empty()) out += " bind{" + binds + "}";
    if (!checks.empty()) out += " check{" + checks + "}";
    out += "\n";
  }
  out += "  registers " + std::to_string(reg_vars.size()) +
         (stats_free ? ", stats-free" : "") + "\n";
  return out;
}

std::string MatchPlan::ToJson(const Schema& schema) const {
  auto quote = [](const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    out += "\"";
    return out;
  };
  std::string out = "{\"registers\":[";
  for (size_t r = 0; r < reg_vars.size(); ++r) {
    if (r > 0) out += ",";
    out += quote(reg_vars[r].ToString());
  }
  out += "],\"stats_free\":";
  out += stats_free ? "true" : "false";
  out += ",\"order\":[";
  for (size_t s = 0; s < perm.size(); ++s) {
    if (s > 0) out += ",";
    out += std::to_string(perm[s]);
  }
  out += "],\"steps\":[";
  for (size_t s = 0; s < steps.size(); ++s) {
    const PlanStep& step = steps[s];
    if (s > 0) out += ",";
    out += "{\"atom\":" + std::to_string(perm[s]);
    out += ",\"relation\":" +
           quote(std::string(schema.relation(step.relation).name));
    out += ",\"mode\":" + quote(PlanStepModeName(step.mode));
    out += ",\"probe_cols\":[";
    for (size_t i = 0; i < step.probe_cols.size(); ++i) {
      if (i > 0) out += ",";
      out += std::to_string(step.probe_cols[i]);
    }
    out += "],\"args\":[";
    for (size_t i = 0; i < step.args.size(); ++i) {
      const PlanArg& arg = step.args[i];
      if (i > 0) out += ",";
      switch (arg.kind) {
        case PlanArgKind::kLiteral:
          out += "{\"literal\":" + quote(arg.literal.ToString()) + "}";
          break;
        case PlanArgKind::kCheck:
          out += "{\"check\":" + std::to_string(arg.reg) + "}";
          break;
        case PlanArgKind::kBind:
          out += "{\"bind\":" + std::to_string(arg.reg) + "}";
          break;
      }
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

}  // namespace qimap
