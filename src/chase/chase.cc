#include "chase/chase.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>

#include "base/budget.h"
#include "base/thread_pool.h"
#include "chase/chase_checkpoint.h"
#include "chase/match_plan.h"
#include "chase/trigger_finder.h"
#include "obs/budget_obs.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "relational/cost_model.h"
#include "relational/homomorphism.h"
#include "relational/instance_core.h"

namespace qimap {
namespace {

const char* VariantName(ChaseVariant variant) {
  switch (variant) {
    case ChaseVariant::kStandard:
      return "standard chase";
    case ChaseVariant::kOblivious:
      return "oblivious chase";
    case ChaseVariant::kCore:
      return "core chase";
  }
  return "chase";
}

const char* VariantSpanName(ChaseVariant variant) {
  switch (variant) {
    case ChaseVariant::kStandard:
      return "chase/standard";
    case ChaseVariant::kOblivious:
      return "chase/oblivious";
    case ChaseVariant::kCore:
      return "chase/core";
  }
  return "chase/unknown";
}

// Mirrors one run's totals into the process-wide metrics registry.
void FlushChaseMetrics(const ChaseStats& st) {
  static const obs::MetricId kRuns = obs::RegisterCounter("chase.runs");
  static const obs::MetricId kSteps = obs::RegisterCounter("chase.steps");
  static const obs::MetricId kFired =
      obs::RegisterCounter("chase.triggers_fired");
  static const obs::MetricId kHits =
      obs::RegisterCounter("chase.satisfaction_hits");
  static const obs::MetricId kNulls =
      obs::RegisterCounter("chase.nulls_minted");
  static const obs::MetricId kFacts =
      obs::RegisterCounter("chase.facts_added");
  obs::CounterAdd(kRuns);
  obs::CounterAdd(kSteps, st.steps);
  obs::CounterAdd(kFired, st.triggers_fired);
  obs::CounterAdd(kHits, st.satisfaction_hits);
  obs::CounterAdd(kNulls, st.nulls_minted);
  obs::CounterAdd(kFacts, st.facts_added);
  if (st.resumed) {
    static const obs::MetricId kDeltaRuns =
        obs::RegisterCounter("chase.delta.runs");
    static const obs::MetricId kDeltaFacts =
        obs::RegisterCounter("chase.delta.facts");
    static const obs::MetricId kDeltaTriggers =
        obs::RegisterCounter("chase.delta.triggers");
    static const obs::MetricId kReplayed =
        obs::RegisterCounter("chase.delta.replayed");
    static const obs::MetricId kChecksSkipped =
        obs::RegisterCounter("chase.delta.checks_skipped");
    obs::CounterAdd(kDeltaRuns);
    obs::CounterAdd(kDeltaFacts, st.delta_facts);
    obs::CounterAdd(kDeltaTriggers, st.delta_triggers);
    obs::CounterAdd(kReplayed, st.replayed_triggers);
    obs::CounterAdd(kChecksSkipped, st.checks_skipped);
  }
}

// How one entry of the merged firing sequence was resolved in the
// recorded run: freshly found over the delta, or replayed from a
// checkpoint record.
enum class Provenance : uint8_t { kNew, kOldFired, kOldSkipped };

struct MergedTrigger {
  const Value* row;  // one value per slot of the dependency
  Provenance prov;
};

// True iff some rhs atom of `tgd` writes into a relation that a fresh
// (delta) trigger has already fired into during this resume.
bool TouchesRhs(const Tgd& tgd, const std::vector<bool>& touched) {
  for (const Atom& atom : tgd.rhs) {
    if (touched[atom.relation]) return true;
  }
  return false;
}

// One dependency's standard-chase satisfaction test within one run. On
// the indexed compiled path the rhs is compiled with CompileMatchPlan at
// the dependency's first test of the run, against the target as the
// fire loop has built it so far, with the trigger slots as the bound
// key set; every test then preloads the frontier registers straight
// from the trigger row and runs the plan. Otherwise each test decodes
// the row and runs the interpretive or full-scan matcher (the oracles).
class SatisfactionCheck {
 public:
  SatisfactionCheck(const Tgd& tgd, const std::vector<Value>& slots,
                    const Instance& target, const HomSearchOptions& options)
      : tgd_(tgd), slots_(slots), target_(target), options_(options) {}
  SatisfactionCheck(const SatisfactionCheck&) = delete;
  SatisfactionCheck& operator=(const SatisfactionCheck&) = delete;

  // True iff some extension of the trigger maps the rhs into the target.
  bool Satisfied(const Value* row, PlanCounts* counts) {
    if (!options_.use_index || !options_.use_compiled_plan ||
        tgd_.rhs.empty()) {
      return FindHomomorphism(tgd_.rhs, target_,
                              DecodeTriggerRow(slots_, row), options_)
          .has_value();
    }
    if (plan_ == nullptr) Compile();
    for (size_t i = 0; i < preload_slots_.size(); ++i) {
      preload_[i] = row[preload_slots_[i]];
    }
    return matcher_->Run(preload_.data(), nullptr, counts) > 0;
  }

 private:
  void Compile() {
    Assignment keys;
    for (const Value& v : slots_) keys.emplace_hint(keys.end(), v, v);
    plan_ = std::make_unique<const MatchPlan>(
        CompileMatchPlan(tgd_.rhs, target_, keys, options_));
    CountPlanCompile();
    for (uint16_t r : plan_->preload_regs) {
      preload_slots_.push_back(static_cast<uint32_t>(
          std::lower_bound(slots_.begin(), slots_.end(),
                           plan_->reg_vars[r]) -
          slots_.begin()));
    }
    preload_.resize(preload_slots_.size());
    matcher_ = std::make_unique<PlanMatcher>(*plan_, target_);
  }

  const Tgd& tgd_;
  const std::vector<Value>& slots_;
  const Instance& target_;
  const HomSearchOptions& options_;
  std::unique_ptr<const MatchPlan> plan_;
  std::unique_ptr<PlanMatcher> matcher_;
  std::vector<uint32_t> preload_slots_;  // preload i -> its trigger slot
  std::vector<Value> preload_;
};

}  // namespace

JournalFireObserver::JournalFireObserver(obs::JournalRun& journal,
                                         const std::string& dep_text,
                                         size_t dep_index,
                                         const Assignment& h,
                                         const Schema& target_schema)
    : journal_(journal),
      dep_text_(dep_text),
      dep_index_(static_cast<int32_t>(dep_index)),
      trigger_text_(AssignmentToString(h)),
      target_schema_(target_schema) {}

void JournalFireObserver::OnNull(const Value& y, const Value& fresh) {
  null_ids_.push_back(journal_.RecordNull(fresh.ToString(), y.ToString(),
                                          dep_text_, dep_index_));
}

void JournalFireObserver::OnFact(const Atom& fact) {
  journal_.RecordDerivedFact(AtomToString(fact, target_schema_), dep_text_,
                             dep_index_, trigger_text_, parent_ids,
                             null_ids_);
}

FireProgram::FireProgram(const Tgd& tgd, const std::vector<Value>& slots)
    : existentials_(tgd.ExistentialVariables()) {
  atoms_.reserve(tgd.rhs.size());
  for (const Atom& atom : tgd.rhs) {
    AtomTemplate tmpl{atom.relation, {}};
    tmpl.args.reserve(atom.args.size());
    for (const Value& arg : atom.args) {
      ArgTemplate at{ArgTemplate::kLiteral, 0, arg};
      auto slot = std::lower_bound(slots.begin(), slots.end(), arg);
      auto ex = std::find(existentials_.begin(), existentials_.end(), arg);
      if (slot != slots.end() && *slot == arg) {
        at.kind = ArgTemplate::kSlot;
        at.index = static_cast<uint32_t>(slot - slots.begin());
      } else if (ex != existentials_.end()) {
        at.kind = ArgTemplate::kExistential;
        at.index = static_cast<uint32_t>(ex - existentials_.begin());
      }
      tmpl.args.push_back(at);
    }
    atoms_.push_back(std::move(tmpl));
  }
}

Status FireProgram::Fire(const Value* row, Instance* target,
                         uint32_t* next_null, RunBudget* guard,
                         FireObserver* observer, FireCounts* counts) const {
  FireCounts local_counts;
  FireCounts& fc = counts != nullptr ? *counts : local_counts;
  // Thread-local scratch keeps Fire const and allocation-free across
  // calls; chases running on different threads never share it.
  thread_local std::vector<Value> nulls;
  thread_local Tuple tuple;
  nulls.clear();
  for (const Value& y : existentials_) {
    Value fresh = Value::MakeNull((*next_null)++);
    nulls.push_back(fresh);
    ++fc.nulls;
    if (observer != nullptr) observer->OnNull(y, fresh);
  }
  if (guard != nullptr && !existentials_.empty()) {
    QIMAP_RETURN_IF_ERROR(guard->ChargeNulls(existentials_.size()));
  }
  fc.instantiated = true;
  for (const AtomTemplate& atom : atoms_) {
    if (guard != nullptr) {
      QIMAP_RETURN_IF_ERROR(guard->ChargeMemory(
          ApproxFactBytes(atom.args.size(), sizeof(Value))));
    }
    tuple.clear();
    for (const ArgTemplate& arg : atom.args) {
      switch (arg.kind) {
        case ArgTemplate::kSlot:
          tuple.push_back(row[arg.index]);
          break;
        case ArgTemplate::kExistential:
          tuple.push_back(nulls[arg.index]);
          break;
        case ArgTemplate::kLiteral:
          tuple.push_back(arg.literal);
          break;
      }
    }
    Status status = target->AddFact(atom.relation, tuple);
    ++fc.facts;
    if (observer != nullptr) observer->OnFact(Atom{atom.relation, tuple});
    QIMAP_RETURN_IF_ERROR(status);
  }
  return Status::OK();
}

Result<Instance> ChaseWithTgds(const Instance& source_inst,
                               const std::vector<Tgd>& tgds,
                               SchemaPtr target_schema,
                               const ChaseOptions& options,
                               ChaseStats* stats) {
  static const obs::MetricId kLatency =
      obs::RegisterHistogram("chase.latency_us");
  obs::ScopedLatency latency(kLatency);
  QIMAP_TRACE_SPAN(VariantSpanName(options.variant));
  obs::JournalRun journal(VariantSpanName(options.variant));

  Instance target_inst(std::move(target_schema));
  uint32_t null_base = options.first_null_label != 0
                           ? options.first_null_label
                           : source_inst.MaxNullLabel() + 1;
  uint32_t next_null = null_base;
  RunBudget guard(VariantName(options.variant), options.max_steps,
                  options.budget);
  ChaseStats local_stats;
  ChaseStats& st = stats != nullptr ? *stats : local_stats;
  st = ChaseStats{};
  Status overflow = Status::OK();

  // Heartbeats: sampled from `st` on the serial fire loop only, so every
  // snapshot is a deterministic function of the input. The initial total
  // is the CostModel product bound; trigger collection refines it to the
  // exact merged-batch count below.
  obs::ProgressRun progress(
      VariantSpanName(options.variant),
      [&st]() {
        obs::ProgressSample sample;
        sample.facts = st.facts_added;
        sample.nulls = st.nulls_minted;
        sample.fired = st.triggers_fired;
        sample.skipped = st.satisfaction_hits;
        return sample;
      },
      options.budget);
  if (obs::Progress::Enabled()) {
    progress.SetTotalEstimate(
        EstimateChaseSteps(CostModel::FromInstance(source_inst), tgds));
  }

  // Incremental resume: a checkpoint matches when it was cut from a
  // prefix of this source instance (proved by the prefix fingerprint —
  // storage is insert-only, so "the prefix is unchanged" means "the
  // instance only grew"), under the same dependencies and variant. A
  // non-matching checkpoint is simply re-recorded below.
  ChaseCheckpoint* ckpt = options.incremental;
  const bool record = ckpt != nullptr;
  uint64_t dep_fp = 0;
  bool resume = false;
  if (record) {
    dep_fp = DependencyFingerprint(tgds, *source_inst.schema(),
                                   *target_inst.schema());
    resume = ckpt->valid && ckpt->variant == options.variant &&
             ckpt->dependency_fingerprint == dep_fp &&
             ckpt->triggers.size() == tgds.size() &&
             source_inst.IsValidEpoch(ckpt->source_epoch) &&
             source_inst.PrefixFingerprint(ckpt->source_epoch) ==
                 ckpt->source_fingerprint;
  }

  // Provenance: register the input facts and pre-render the dependencies
  // once; the per-fire records below then only resolve parent ids.
  std::vector<std::string> dep_texts;
  if (journal.active()) {
    for (const Fact& fact : source_inst.Facts()) {
      journal.RecordBaseFact(FactToString(*source_inst.schema(), fact));
    }
    for (const Tgd& tgd : tgds) {
      dep_texts.push_back(
          TgdToString(tgd, *source_inst.schema(), *target_inst.schema()));
    }
  }

  // Profiling: register every dependency here, on the serial setup path,
  // so ids are deterministic regardless of thread count. Registration is
  // keyed by (pipeline, rendered text), so repeated chases of the same
  // mapping (e.g. MinGen's generator tests) aggregate into one entry.
  std::vector<uint32_t> prof_deps;
  const bool profiled = obs::Profiler::Enabled();
  if (profiled) {
    prof_deps.reserve(tgds.size());
    for (const Tgd& tgd : tgds) {
      prof_deps.push_back(obs::Profiler::RegisterDep(
          VariantSpanName(options.variant),
          TgdToString(tgd, *source_inst.schema(), *target_inst.schema()),
          static_cast<uint32_t>(tgd.lhs.size())));
    }
  }

  // s-t tgds read only the source, so one pass over all (tgd, match) pairs
  // reaches a terminal chase state: no new lhs matches can ever appear.
  //
  // Phase 1 — collect every dependency's sorted trigger batch. Collection
  // is side-effect-free (it reads only the fixed source instance), so the
  // per-dependency fan-out is safe to parallelize; the canonical sort
  // makes phase 2 independent of collection order. A resume collects
  // semi-naively: only matches touching at least one delta fact.
  //
  // Triggers travel as rows (chase/trigger_finder.h): each dependency's
  // lhs movable values get fixed slots in Value order, and each rhs is
  // compiled once into a FireProgram over those slots. Assignments are
  // built only where a consumer needs one: the journal, the checkpoint
  // records, and the oracle matchers.
  ThreadPool pool(ResolveThreadCount(options.num_threads));
  HomSearchOptions search_options;
  search_options.use_index = options.use_index;
  search_options.use_compiled_plan = options.use_compiled_plan;
  std::vector<const Conjunction*> bodies;
  std::vector<std::vector<Value>> slots;
  std::vector<FireProgram> fire_programs;
  bodies.reserve(tgds.size());
  slots.reserve(tgds.size());
  fire_programs.reserve(tgds.size());
  for (const Tgd& tgd : tgds) {
    bodies.push_back(&tgd.lhs);
    slots.push_back(TriggerSlots(tgd.lhs, search_options));
    fire_programs.emplace_back(tgd, slots.back());
  }
  std::vector<TriggerRows> batches(tgds.size());
  {
    Result<std::vector<TriggerRows>> collected = FindTriggerRowBatches(
        bodies, slots, search_options, source_inst, pool, options.budget,
        resume ? &ckpt->source_epoch : nullptr,
        profiled ? &prof_deps : nullptr);
    if (collected.ok()) {
      batches = std::move(collected).value();
    } else {
      overflow = collected.status();  // firing is skipped below
    }
  }

  // The merged firing sequence per dependency. The full chase fires the
  // canonically sorted batch; on resume, the recorded triggers (sorted)
  // and the semi-naive delta triggers (sorted, disjoint from the
  // records) merge into exactly that sequence, so replay walks the same
  // positions a full re-chase would.
  std::vector<std::vector<MergedTrigger>> merged(tgds.size());
  std::vector<TriggerRows> old_rows(resume ? tgds.size() : 0);
  for (size_t d = 0; d < tgds.size() && overflow.ok(); ++d) {
    const TriggerRows& fresh = batches[d];
    if (!resume) {
      merged[d].reserve(fresh.size());
      for (size_t j = 0; j < fresh.size(); ++j) {
        merged[d].push_back({fresh.row(j), Provenance::kNew});
      }
      continue;
    }
    const std::vector<ChaseCheckpoint::TriggerRecord>& olds =
        ckpt->triggers[d];
    old_rows[d] = TriggerRows(slots[d].size());
    for (const ChaseCheckpoint::TriggerRecord& record : olds) {
      EncodeTriggerRow(slots[d], record.trigger, old_rows[d].Append());
    }
    st.replayed_triggers += olds.size();
    st.delta_triggers += fresh.size();
    merged[d].reserve(olds.size() + fresh.size());
    const size_t width = slots[d].size();
    size_t i = 0;
    size_t j = 0;
    while (i < olds.size() || j < fresh.size()) {
      if (j >= fresh.size() ||
          (i < olds.size() &&
           TriggerRowLess(old_rows[d].row(i), fresh.row(j), width))) {
        merged[d].push_back({old_rows[d].row(i),
                             olds[i].fired ? Provenance::kOldFired
                                           : Provenance::kOldSkipped});
        ++i;
      } else {
        merged[d].push_back({fresh.row(j), Provenance::kNew});
        ++j;
      }
    }
  }
  if (resume) {
    st.resumed = true;
    st.delta_facts = source_inst.NumFactsSince(ckpt->source_epoch);
  }
  if (obs::Progress::Enabled() && overflow.ok()) {
    uint64_t exact_total = 0;
    for (const std::vector<MergedTrigger>& m : merged) {
      exact_total += m.size();
    }
    progress.SetTotalEstimate(exact_total);
  }

  // Append-only fast path: when every delta trigger sorts after every
  // recorded trigger, no recorded outcome can change and no recorded
  // null label can shift, so the stored result *is* the replayed prefix
  // — extend it in place instead of rebuilding it. Journaled runs replay
  // (the journal must carry every fire) and governed runs replay (memory
  // and null charges must be faithful).
  bool fast = resume && overflow.ok() && !journal.active() &&
              options.budget == nullptr && options.partial_out == nullptr &&
              ckpt->result.has_value() && ckpt->null_base == null_base;
  if (fast) {
    bool seen_new = false;
    for (size_t d = 0; d < tgds.size() && fast; ++d) {
      for (const MergedTrigger& mt : merged[d]) {
        if (mt.prov == Provenance::kNew) {
          seen_new = true;
        } else if (seen_new) {
          fast = false;
          break;
        }
      }
    }
  }
  if (fast) {
    target_inst = std::move(*ckpt->result);
    ckpt->result.reset();
    next_null = ckpt->next_null;
    st.triggers_fired = ckpt->totals.triggers_fired;
    st.satisfaction_hits = ckpt->totals.satisfaction_hits;
    st.nulls_minted = ckpt->totals.nulls_minted;
    st.facts_added = ckpt->totals.facts_added;
  }

  // hom.* / chase.index.* work of the compiled satisfaction searches,
  // mirrored into the registry once at the end of the run.
  PlanCounts search_counts;

  // Phase 2 — fire serially in (dependency, canonical match) order. The
  // satisfaction check reads the growing target instance, and fresh-null
  // labels and journal records depend on firing order, so this phase
  // stays single-threaded by design.
  //
  // Replay discipline (slow resume): a recorded SKIP stays a skip — the
  // target only gains facts relative to the recorded run (up to an
  // injective relabeling of minted nulls, which preserves witnesses), so
  // the recorded witness still witnesses. A recorded FIRE needs a real
  // satisfaction search only when a delta trigger has already fired into
  // one of its rhs relations (`touched`); otherwise any new witness
  // would need a fact that does not exist, and the fire replays without
  // searching. The first recorded fire that flips to a skip ends the
  // shortcut regime (`diverged`): the state now differs from the
  // recorded run by *missing* facts, so every later trigger gets a real
  // search — which is exactly what a full re-chase does.
  std::vector<std::vector<ChaseCheckpoint::TriggerRecord>> out_records;
  if (record) out_records.resize(tgds.size());
  if (fast) {
    // Every recorded outcome survives verbatim on the fast path, so the
    // re-recorded prefix is the old record list itself: recycle the
    // checkpoint's vectors instead of decoding one std::map-backed
    // Assignment per replayed trigger.
    for (size_t d = 0; d < tgds.size(); ++d) {
      out_records[d] = std::move(ckpt->triggers[d]);
    }
  }
  std::vector<bool> touched(target_inst.schema()->size(), false);
  bool diverged = false;
  for (size_t dep_index = 0;
       dep_index < tgds.size() && overflow.ok(); ++dep_index) {
    const Tgd& tgd = tgds[dep_index];
    const std::vector<Value>& dep_slots = slots[dep_index];
    // Fire-phase attribution: satisfaction searches and firing time land
    // on this dependency's rhs totals (never its per-atom body rows).
    const uint32_t prof_dep =
        profiled ? prof_deps[dep_index] : obs::kProfileNoDep;
    obs::ProfiledDepScope prof_scope(prof_dep, obs::ProfilePhase::kFire);
    SatisfactionCheck check(tgd, dep_slots, target_inst, search_options);
    for (const MergedTrigger& mt : merged[dep_index]) {
      const Value* row = mt.row;
      Status tick = guard.Tick();
      if (!tick.ok()) {
        overflow = std::move(tick);
        break;
      }
      progress.Step();
      if (fast && mt.prov != Provenance::kNew) {
        // The stored result already contains this trigger's effect, and
        // `out_records` already holds its recycled record.
        if (options.variant != ChaseVariant::kOblivious) {
          ++st.checks_skipped;
        }
        continue;
      }
      // Standard-chase applicability: skip when some extension of h
      // already maps the rhs into the target instance. The oblivious
      // variant fires unconditionally; replayed triggers resolve from
      // their recorded outcome when the replay discipline allows.
      bool fire = true;
      if (options.variant != ChaseVariant::kOblivious) {
        if (mt.prov == Provenance::kOldSkipped && !diverged) {
          fire = false;
          ++st.checks_skipped;
        } else if (mt.prov == Provenance::kOldFired && !diverged &&
                   !TouchesRhs(tgd, touched)) {
          fire = true;
          ++st.checks_skipped;
        } else {
          fire = !check.Satisfied(row, &search_counts);
        }
        if (!fire) {
          ++st.satisfaction_hits;
          obs::ProfileRecordSkip(prof_dep);
          if (mt.prov == Provenance::kOldFired) diverged = true;
          if (record) {
            out_records[dep_index].push_back(
                {DecodeTriggerRow(dep_slots, row), false});
          }
          continue;
        }
      }
      // Fire: instantiate the rhs, using fresh nulls for the existential
      // variables.
      ++st.triggers_fired;
      std::optional<JournalFireObserver> journal_observer;
      if (journal.active()) {
        const Assignment h = DecodeTriggerRow(dep_slots, row);
        journal_observer.emplace(journal, dep_texts[dep_index], dep_index, h,
                                 *target_inst.schema());
        for (const Atom& atom : ApplyAssignmentToConjunction(tgd.lhs, h)) {
          journal_observer->parent_ids.push_back(journal.RecordBaseFact(
              AtomToString(atom, *source_inst.schema())));
        }
      }
      FireCounts fired;
      overflow = fire_programs[dep_index].Fire(
          row, &target_inst, &next_null, &guard,
          journal_observer.has_value() ? &*journal_observer : nullptr,
          &fired);
      st.nulls_minted += fired.nulls;
      st.facts_added += fired.facts;
      if (!fired.instantiated) break;  // the null charge was refused
      if (mt.prov == Provenance::kNew || diverged) {
        for (const Atom& atom : tgd.rhs) touched[atom.relation] = true;
      }
      obs::ProfileRecordFire(prof_dep, fired.nulls, fired.facts);
      if (record) {
        out_records[dep_index].push_back(
            {DecodeTriggerRow(dep_slots, row), true});
      }
      if (!overflow.ok()) break;
    }
  }
  st.steps = guard.steps();
  st.partial = !overflow.ok() && guard.exhausted();
  FlushPlanCounts(search_counts);
  FlushChaseMetrics(st);
  if (!overflow.ok()) {
    if (record) ckpt->valid = false;
    if (st.partial) {
      // Budget trip: journal the limit, mirror it into budget.*, and hand
      // back the instance built so far as a best-effort partial result.
      obs::ReportBudgetTrip(journal, guard, overflow,
                            options.partial_out != nullptr);
      if (options.partial_out != nullptr) {
        *options.partial_out = std::move(target_inst);
      }
    }
    return overflow;
  }
  if (record) {
    ckpt->valid = true;
    ckpt->variant = options.variant;
    ckpt->source_epoch = source_inst.RowCounts();
    ckpt->source_fingerprint = source_inst.Fingerprint();
    ckpt->dependency_fingerprint = dep_fp;
    ckpt->null_base = null_base;
    ckpt->next_null = next_null;
    ckpt->triggers = std::move(out_records);
    ckpt->totals = st;
    ckpt->result = target_inst;  // pre-core; the core is recomputed below
  }
  if (options.variant == ChaseVariant::kCore) {
    QIMAP_TRACE_SPAN("chase/core_minimize");
    return ComputeCore(target_inst);
  }
  return target_inst;
}

Result<Instance> Chase(const Instance& source_inst, const SchemaMapping& m,
                       const ChaseOptions& options, ChaseStats* stats) {
  return ChaseWithTgds(source_inst, m.tgds, m.target, options, stats);
}

Instance MustChase(const Instance& source_inst, const SchemaMapping& m,
                   const ChaseOptions& options) {
  Result<Instance> result = Chase(source_inst, m, options);
  if (!result.ok()) {
    std::fprintf(stderr, "MustChase: %s\n",
                 result.status().ToString().c_str());
    std::abort();
  }
  return std::move(result).value();
}

uint64_t EstimateChaseSteps(const CostModel& model,
                            const std::vector<Tgd>& tgds) {
  constexpr uint64_t kMax = ~uint64_t{0};
  uint64_t total = 0;
  for (const Tgd& tgd : tgds) {
    uint64_t product = 1;
    for (const Atom& atom : tgd.lhs) {
      uint64_t rows = atom.relation < model.relations.size()
                          ? model.relations[atom.relation].rows
                          : 0;
      if (rows == 0) {
        product = 0;
        break;
      }
      if (product > kMax / rows) {
        product = kMax;
        break;
      }
      product *= rows;
    }
    if (total > kMax - product) return kMax;
    total += product;
  }
  return total;
}

}  // namespace qimap
