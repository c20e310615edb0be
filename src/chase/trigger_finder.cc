#include "chase/trigger_finder.h"

#include <algorithm>
#include <numeric>
#include <set>

#include "chase/match_plan.h"
#include "obs/metrics.h"
#include "obs/profiler.h"

namespace qimap {
namespace {

// Unifies one body atom against one stored row (read straight from the
// column store) into a partial assignment: movable arguments (per the
// matcher's own predicate) bind consistently, everything else must match
// literally. False when the row cannot be this atom's image.
bool UnifyAtomRow(const Atom& atom, const Instance& inst, uint32_t row,
                  const HomSearchOptions& options, Assignment* partial) {
  for (size_t i = 0; i < atom.args.size(); ++i) {
    const Value& arg = atom.args[i];
    const Value& val =
        inst.at(atom.relation, row, static_cast<uint32_t>(i));
    if (IsMovableValue(arg, options)) {
      auto [it, inserted] = partial->emplace(arg, val);
      if (!inserted && !(it->second == val)) return false;
    } else if (!(arg == val)) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::vector<Assignment> FindTriggers(const Conjunction& body,
                                     const Instance& inst,
                                     const HomSearchOptions& options) {
  std::vector<Assignment> matches =
      FindAllHomomorphisms(body, inst, {}, options);
  // Assignment is an ordered map, so the lexicographic vector sort is a
  // canonical order on (variable, value) binding lists.
  std::sort(matches.begin(), matches.end());
  return matches;
}

std::vector<Assignment> FindDeltaTriggers(
    const Conjunction& body, const Instance& inst,
    const std::vector<uint32_t>& epoch, const HomSearchOptions& options) {
  // std::set iterates in the same lexicographic order std::sort produces,
  // so the result is canonically sorted for free while deduplicating
  // matches reachable from several (atom, delta fact) seeds.
  std::set<Assignment> found;
  for (const Atom& atom : body) {
    const uint32_t num_rows = inst.NumRows(atom.relation);
    uint32_t start =
        atom.relation < epoch.size() ? epoch[atom.relation] : 0;
    for (uint32_t row = start; row < num_rows; ++row) {
      Assignment partial;
      if (!UnifyAtomRow(atom, inst, row, options, &partial)) continue;
      for (Assignment& h :
           FindAllHomomorphisms(body, inst, partial, options)) {
        found.insert(std::move(h));
      }
    }
  }
  return std::vector<Assignment>(found.begin(), found.end());
}

namespace {

// The fan-out shared by both batch collectors: runs `collect(i)` (which
// returns body i's batch size) for every body over `pool`, under the
// budget and profiler contract FindTriggerBatches documents.
template <typename Collect>
Status CollectBatches(size_t num_bodies, ThreadPool& pool, Budget* budget,
                      const std::vector<uint32_t>* profile_deps,
                      const Collect& collect) {
  std::vector<Status> statuses(num_bodies);
  CountParallelFanout(pool, num_bodies);
  const Cancellation* cancel =
      budget != nullptr ? budget->cancellation() : nullptr;
  pool.ParallelFor(
      num_bodies,
      [&](size_t i) {
        if (budget != nullptr) {
          statuses[i] = budget->OnPoolTask("trigger collection");
          if (!statuses[i].ok()) return;
        }
        uint32_t dep = profile_deps != nullptr ? (*profile_deps)[i]
                                               : obs::kProfileNoDep;
        obs::ProfiledDepScope scope(dep, obs::ProfilePhase::kCollect);
        obs::ProfileRecordTriggers(dep, collect(i));
      },
      cancel);
  if (budget != nullptr) {
    // Lowest failing index wins so the reported error does not depend on
    // thread timing. A cancelled ParallelFor leaves later slots OK but
    // empty; the trailing Check() turns that into the budget's verdict.
    for (const Status& status : statuses) {
      QIMAP_RETURN_IF_ERROR(status);
    }
    QIMAP_RETURN_IF_ERROR(budget->Check("trigger collection"));
    for (size_t i = 0; i < num_bodies; ++i) {
      QIMAP_RETURN_IF_ERROR(budget->OnTriggerBatch("trigger collection"));
    }
  }
  return Status::OK();
}

// Writes each compiled-plan match's slot values into a new row.
class RowSink final : public PlanSink {
 public:
  RowSink(const MatchPlan& plan, const std::vector<Value>& slots,
          TriggerRows* rows)
      : rows_(rows) {
    slot_regs_.reserve(slots.size());
    for (const Value& slot : slots) {
      auto it = std::find(plan.reg_vars.begin(), plan.reg_vars.end(), slot);
      slot_regs_.push_back(static_cast<uint16_t>(it - plan.reg_vars.begin()));
    }
  }

  MatchAction OnMatch(const Value* regs) override {
    Value* row = rows_->Append();
    for (size_t j = 0; j < slot_regs_.size(); ++j) row[j] = regs[slot_regs_[j]];
    return MatchAction::kContinue;
  }

 private:
  TriggerRows* rows_;
  std::vector<uint16_t> slot_regs_;  // slot j -> its plan register
};

}  // namespace

Result<std::vector<std::vector<Assignment>>> FindTriggerBatches(
    const std::vector<const Conjunction*>& bodies,
    const std::vector<HomSearchOptions>& options, const Instance& inst,
    ThreadPool& pool, Budget* budget,
    const std::vector<uint32_t>* profile_deps) {
  std::vector<std::vector<Assignment>> batches(bodies.size());
  QIMAP_RETURN_IF_ERROR(CollectBatches(
      bodies.size(), pool, budget, profile_deps, [&](size_t i) {
        batches[i] = FindTriggers(
            *bodies[i], inst, options.size() == 1 ? options[0] : options[i]);
        return batches[i].size();
      }));
  return batches;
}

std::vector<Value> TriggerSlots(const Conjunction& body,
                                const HomSearchOptions& options) {
  std::vector<Value> slots;
  for (const Atom& atom : body) {
    for (const Value& arg : atom.args) {
      if (IsMovableValue(arg, options)) slots.push_back(arg);
    }
  }
  std::sort(slots.begin(), slots.end());
  slots.erase(std::unique(slots.begin(), slots.end()), slots.end());
  return slots;
}

void EncodeTriggerRow(const std::vector<Value>& slots, const Assignment& h,
                      Value* row) {
  for (size_t j = 0; j < slots.size(); ++j) row[j] = Resolve(h, slots[j]);
}

Assignment DecodeTriggerRow(const std::vector<Value>& slots,
                            const Value* row) {
  Assignment h;
  for (size_t j = 0; j < slots.size(); ++j) {
    h.emplace_hint(h.end(), slots[j], row[j]);
  }
  return h;
}

Value* TriggerRows::Append() {
  cells_.resize(cells_.size() + width_);
  ++size_;
  return cells_.data() + cells_.size() - width_;
}

bool TriggerRowLess(const Value* a, const Value* b, size_t width) {
  for (size_t j = 0; j < width; ++j) {
    if (a[j] != b[j]) return a[j] < b[j];
  }
  return false;
}

void TriggerRows::Sort() {
  if (width_ == 0 || size_ < 2) return;  // width-0 rows are all equal
  std::vector<uint32_t> order(size_);
  std::iota(order.begin(), order.end(), 0u);
  const Value* cells = cells_.data();
  const size_t width = width_;
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return TriggerRowLess(cells + a * width, cells + b * width, width);
  });
  std::vector<Value> sorted;
  sorted.reserve(cells_.size());
  for (uint32_t i : order) {
    sorted.insert(sorted.end(), cells + i * width, cells + (i + 1) * width);
  }
  cells_ = std::move(sorted);
}

TriggerRows FindTriggerRows(const Conjunction& body,
                            const std::vector<Value>& slots,
                            const Instance& inst,
                            const HomSearchOptions& options) {
  TriggerRows rows(slots.size());
  if (options.use_index && options.use_compiled_plan && !body.empty()) {
    const MatchPlan plan = CompileMatchPlan(body, inst, {}, options);
    CountPlanCompile();
    RowSink sink(plan, slots, &rows);
    PlanMatcher matcher(plan, inst);
    PlanCounts counts;
    matcher.Run(nullptr, &sink, &counts);
    FlushPlanCounts(counts);
    rows.Sort();
    return rows;
  }
  for (const Assignment& h : FindTriggers(body, inst, options)) {
    EncodeTriggerRow(slots, h, rows.Append());
  }
  return rows;
}

Result<std::vector<TriggerRows>> FindTriggerRowBatches(
    const std::vector<const Conjunction*>& bodies,
    const std::vector<std::vector<Value>>& slots,
    const HomSearchOptions& options, const Instance& inst, ThreadPool& pool,
    Budget* budget, const std::vector<uint32_t>* delta_epoch,
    const std::vector<uint32_t>* profile_deps) {
  std::vector<TriggerRows> batches(bodies.size());
  QIMAP_RETURN_IF_ERROR(CollectBatches(
      bodies.size(), pool, budget, profile_deps, [&](size_t i) {
        if (delta_epoch == nullptr) {
          batches[i] = FindTriggerRows(*bodies[i], slots[i], inst, options);
        } else {
          batches[i] = TriggerRows(slots[i].size());
          for (const Assignment& h :
               FindDeltaTriggers(*bodies[i], inst, *delta_epoch, options)) {
            EncodeTriggerRow(slots[i], h, batches[i].Append());
          }
        }
        return batches[i].size();
      }));
  return batches;
}

void CountParallelFanout(const ThreadPool& pool, size_t tasks) {
  if (pool.num_threads() < 2 || tasks < 2) return;
  static const obs::MetricId kBatches =
      obs::RegisterCounter("chase.parallel.batches");
  static const obs::MetricId kTasks =
      obs::RegisterCounter("chase.parallel.tasks");
  obs::CounterAdd(kBatches);
  obs::CounterAdd(kTasks, tasks);
}

}  // namespace qimap
