// Differential test of the disjunctive chase's resumable step search
// against a reference that rescans every (dependency, match) pair from the
// first one at every tree node and copies the parent's instance into every
// child. The engine resumes each node's search at the pair after the one
// its parent fired and moves the parent's instance into the last child.
// The two must agree byte for byte on the leaves, on every
// DisjunctiveChaseStats field, on the provenance journal, and — when a
// max_steps, max_leaves or memory limit trips — on the status and the
// partial leaves, at every thread count.

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "base/budget.h"
#include "base/rng.h"
#include "chase/chase.h"
#include "chase/disjunctive_chase.h"
#include "chase/trigger_finder.h"
#include "core/lav_quasi_inverse.h"
#include "core/quasi_inverse.h"
#include "obs/budget_obs.h"
#include "obs/journal.h"
#include "relational/hom_cache.h"
#include "relational/homomorphism.h"
#include "workload/paper_catalog.h"
#include "workload/scenario_gen.h"

namespace qimap {
namespace {

// ---------------------------------------------------------------------------
// Reference disjunctive chase (Definitions 6.2-6.4): serial, breadth-first,
// the first applicable (dependency, match) pair searched from (0, 0) at
// every node on the full-scan matcher.

Result<std::vector<Instance>> ReferenceDisjunctiveChase(
    const Instance& target_inst, const ReverseMapping& m,
    const DisjunctiveChaseOptions& options, DisjunctiveChaseStats* st) {
  obs::JournalRun journal("chase/disjunctive");
  uint32_t next_null = options.first_null_label != 0
                           ? options.first_null_label
                           : target_inst.MaxNullLabel() + 1;
  *st = DisjunctiveChaseStats{};
  RunBudget guard("disjunctive chase", options.max_steps, options.budget);
  std::vector<Instance> leaves;
  auto finish = [&](Status status) -> Status {
    st->steps = guard.steps();
    return status;
  };
  auto trip = [&](Status status) -> Status {
    st->partial = true;
    obs::ReportBudgetTrip(journal, guard, status,
                          options.partial_out != nullptr);
    if (options.partial_out != nullptr) *options.partial_out = leaves;
    return finish(status);
  };

  std::vector<std::string> dep_texts;
  if (journal.active()) {
    for (const Fact& fact : target_inst.Facts()) {
      journal.RecordBaseFact(FactToString(*m.from, fact));
    }
    for (const DisjunctiveTgd& dep : m.deps) {
      dep_texts.push_back(DisjunctiveTgdToString(dep, *m.from, *m.to));
    }
  }
  std::vector<std::vector<Assignment>> dep_matches;
  for (const DisjunctiveTgd& dep : m.deps) {
    HomSearchOptions lhs_options;
    lhs_options.use_index = false;
    lhs_options.must_be_constant = dep.constant_vars;
    lhs_options.inequalities = dep.inequalities;
    dep_matches.push_back(FindTriggers(dep.lhs, target_inst, lhs_options));
  }
  HomSearchOptions rhs_options;
  rhs_options.use_index = false;

  std::set<Instance> seen_leaves;
  uint64_t next_node = 2;
  std::vector<Instance> wave;
  wave.emplace_back(m.to);
  ++st->nodes;
  while (!wave.empty()) {
    Status level = guard.Check();
    if (!level.ok()) return trip(level);
    std::vector<Instance> next_wave;
    for (const Instance& current : wave) {
      std::optional<size_t> step_dep;
      const Assignment* step_match = nullptr;
      for (size_t d = 0; d < m.deps.size() && !step_dep; ++d) {
        for (const Assignment& h : dep_matches[d]) {
          bool satisfied = false;
          for (const Conjunction& disjunct : m.deps[d].disjuncts) {
            if (FindHomomorphism(disjunct, current, h, rhs_options)) {
              satisfied = true;
              break;
            }
          }
          if (!satisfied) {
            step_dep = d;
            step_match = &h;
            break;
          }
        }
      }
      if (!step_dep) {
        bool fresh =
            !options.dedup_leaves || seen_leaves.insert(current).second;
        if (fresh && options.dedup_equivalent_leaves) {
          for (const Instance& leaf : leaves) {
            if (HomomorphicallyEquivalent(leaf, current)) {
              fresh = false;
              break;
            }
          }
        }
        if (!fresh) {
          ++st->dedup_dropped;
          continue;
        }
        leaves.push_back(current);
        ++st->leaves;
        if (leaves.size() > options.max_leaves) {
          st->partial = true;
          if (options.partial_out != nullptr) *options.partial_out = leaves;
          return finish(Status::ResourceExhausted(
              "disjunctive chase exceeded max_leaves (" +
              std::to_string(options.max_leaves) + " leaves)"));
        }
        continue;
      }
      Status tick = guard.Tick();
      if (!tick.ok()) return trip(tick);
      const size_t d = *step_dep;
      const DisjunctiveTgd& dep = m.deps[d];
      std::vector<uint64_t> parent_ids;
      if (journal.active()) {
        for (const Atom& atom :
             ApplyAssignmentToConjunction(dep.lhs, *step_match)) {
          parent_ids.push_back(
              journal.RecordBaseFact(AtomToString(atom, *m.from)));
        }
      }
      for (size_t i = 0; i < dep.disjuncts.size(); ++i) {
        Status charge = guard.ChargeMemory(
            (current.NumFacts() + 1) * ApproxFactBytes(2, sizeof(Value)));
        if (!charge.ok()) return trip(charge);
        Instance child = current;
        uint64_t child_node = next_node++;
        std::vector<uint64_t> null_ids;
        size_t fresh_nulls = 0;
        Assignment extended = *step_match;
        for (const Value& y : dep.ExistentialVariablesOf(i)) {
          Value fresh = Value::MakeNull(next_null++);
          extended.emplace(y, fresh);
          ++st->nulls_minted;
          ++fresh_nulls;
          if (journal.active()) {
            null_ids.push_back(journal.RecordNull(
                fresh.ToString(), y.ToString(), dep_texts[d],
                static_cast<int32_t>(d), child_node));
          }
        }
        if (fresh_nulls > 0) {
          Status nulls = guard.ChargeNulls(fresh_nulls);
          if (!nulls.ok()) return trip(nulls);
        }
        for (const Atom& atom :
             ApplyAssignmentToConjunction(dep.disjuncts[i], extended)) {
          Status added = child.AddFact(atom.relation, atom.args);
          if (!added.ok()) return finish(added);
          if (journal.active()) {
            journal.RecordDerivedFact(
                AtomToString(atom, *m.to), dep_texts[d],
                static_cast<int32_t>(d), AssignmentToString(*step_match),
                parent_ids, null_ids, static_cast<int32_t>(i), child_node);
          }
        }
        next_wave.push_back(std::move(child));
        ++st->nodes;
        ++st->branches;
      }
    }
    wave = std::move(next_wave);
  }
  finish(Status::OK());
  return leaves;
}

// ---------------------------------------------------------------------------
// Harness.

// Everything one run produces that the two implementations must share.
struct RunRecord {
  std::string status;
  std::vector<std::string> leaves;
  std::vector<std::string> partial;
  DisjunctiveChaseStats stats;
  std::string journal;
};

// The buffered journal as JSONL with event ids and the run id rebased to
// the run's own numbering (both are process-wide counters).
std::string RebasedJournal() {
  std::vector<obs::JournalEvent> events = obs::Journal::Events();
  if (events.empty()) return "";
  const uint64_t base = events.front().id - 1;
  const uint64_t run = events.front().run;
  std::string out;
  for (obs::JournalEvent& event : events) {
    event.id -= base;
    event.run -= run - 1;
    for (uint64_t& p : event.parents) p -= base;
    for (uint64_t& n : event.nulls) n -= base;
    out += event.ToJson();
    out += '\n';
  }
  return out;
}

// Optional limits applied to both runs; a fresh shared budget is built
// per run so the two start from the same counts.
struct Limits {
  size_t max_steps = 1u << 20;
  size_t max_leaves = 1u << 14;
  size_t max_memory_bytes = 0;  // 0: no shared budget
};

template <typename ChaseFn>
RunRecord Record(const Instance& u, const ReverseMapping& rev,
                 DisjunctiveChaseOptions options, const Limits& limits,
                 ChaseFn chase) {
  options.max_steps = limits.max_steps;
  options.max_leaves = limits.max_leaves;
  std::optional<Budget> budget;
  if (limits.max_memory_bytes != 0) {
    BudgetSpec spec;
    spec.max_memory_bytes = limits.max_memory_bytes;
    budget.emplace(spec);
    options.budget = &*budget;
  }
  std::vector<Instance> partial;
  options.partial_out = &partial;
  obs::Journal::Clear();
  obs::Journal::Enable();
  RunRecord record;
  Result<std::vector<Instance>> leaves = chase(u, rev, options, &record.stats);
  obs::Journal::Disable();
  record.journal = RebasedJournal();
  obs::Journal::Clear();
  record.status = leaves.status().ToString();
  if (leaves.ok()) {
    for (const Instance& leaf : *leaves) {
      record.leaves.push_back(leaf.ToString());
    }
  }
  for (const Instance& leaf : partial) {
    record.partial.push_back(leaf.ToString());
  }
  return record;
}

void ExpectSameRecord(const RunRecord& ref, const RunRecord& got) {
  EXPECT_EQ(ref.status, got.status);
  EXPECT_EQ(ref.leaves, got.leaves);
  EXPECT_EQ(ref.partial, got.partial);
  EXPECT_EQ(ref.stats.steps, got.stats.steps);
  EXPECT_EQ(ref.stats.nodes, got.stats.nodes);
  EXPECT_EQ(ref.stats.leaves, got.stats.leaves);
  EXPECT_EQ(ref.stats.branches, got.stats.branches);
  EXPECT_EQ(ref.stats.dedup_dropped, got.stats.dedup_dropped);
  EXPECT_EQ(ref.stats.nulls_minted, got.stats.nulls_minted);
  EXPECT_EQ(ref.stats.partial, got.stats.partial);
  EXPECT_EQ(ref.journal, got.journal);
}

// Runs the reference and the engine (at 1 and 4 threads) on `u` and
// expects identical records; returns the reference record.
RunRecord ExpectSameChase(const Instance& u, const ReverseMapping& rev,
                          const Limits& limits = {},
                          bool dedup_equivalent = false) {
  DisjunctiveChaseOptions options;
  options.dedup_equivalent_leaves = dedup_equivalent;
  RunRecord ref = Record(u, rev, options, limits, ReferenceDisjunctiveChase);
  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    options.num_threads = threads;
    HomCacheClear();
    RunRecord got = Record(
        u, rev, options, limits,
        [](const Instance& target, const ReverseMapping& m,
           const DisjunctiveChaseOptions& o, DisjunctiveChaseStats* st) {
          return DisjunctiveChase(target, m, o, st);
        });
    ExpectSameRecord(ref, got);
  }
  return ref;
}

// Re-runs `u` with max_steps and max_leaves set to about half of what the
// full run used, so both limits trip mid-tree, and expects the engine to
// trip at the same step with the same partial leaves.
void ExpectSameTrips(const Instance& u, const ReverseMapping& rev,
                     const RunRecord& full) {
  if (full.stats.steps >= 2) {
    Limits limits;
    limits.max_steps = full.stats.steps / 2;
    SCOPED_TRACE("max_steps " + std::to_string(limits.max_steps));
    RunRecord ref = ExpectSameChase(u, rev, limits);
    EXPECT_TRUE(ref.stats.partial);
  }
  if (full.stats.leaves >= 2) {
    Limits limits;
    limits.max_leaves = full.stats.leaves / 2;
    SCOPED_TRACE("max_leaves " + std::to_string(limits.max_leaves));
    RunRecord ref = ExpectSameChase(u, rev, limits);
    EXPECT_TRUE(ref.stats.partial);
  }
}

// Ground instances instantiating the lhs of the mapping's own tgds with
// constants over a small domain, so the chase (and the disjunctive chase
// of its result) has work to do.
Instance SampleGround(const SchemaMapping& m, uint64_t seed,
                      size_t triggers, size_t domain) {
  Rng rng(seed);
  Instance source(m.source);
  for (size_t t = 0; t < triggers; ++t) {
    const Tgd& tgd = m.tgds[rng.Uniform(m.tgds.size())];
    Assignment assignment;
    for (const Value& v : VariablesOf(tgd.lhs)) {
      assignment.emplace(v, Value::MakeConstant(
                                "c" + std::to_string(rng.Uniform(domain))));
    }
    for (const Atom& atom :
         ApplyAssignmentToConjunction(tgd.lhs, assignment)) {
      EXPECT_TRUE(source.AddFact(atom.relation, atom.args).ok());
    }
  }
  return source;
}

SchemaMapping LavShape(uint64_t shape_seed) {
  ScenarioConfig config;
  config.family = ScenarioFamily::kLav;
  config.topology = BodyTopology::kChain;
  config.num_tgds = 4;
  config.body_atoms = 1;
  return GenerateScenario(config, shape_seed, 0).mapping;
}

class DisjunctiveChaseDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Journal::Disable();
    obs::Journal::Clear();
    obs::Journal::SetCapacity(1u << 20);
  }
  void TearDown() override {
    obs::Journal::Disable();
    obs::Journal::Clear();
    obs::Journal::SetCapacity(1u << 16);
  }
};

// ---------------------------------------------------------------------------
// The ten catalog mappings, each with its QuasiInverse output.

class DisjunctiveChaseDifferentialCatalogTest
    : public DisjunctiveChaseDifferentialTest,
      public ::testing::WithParamInterface<size_t> {};

TEST_P(DisjunctiveChaseDifferentialCatalogTest, MatchesReference) {
  auto mappings = catalog::AllMappings();
  ASSERT_LT(GetParam(), mappings.size());
  const auto& [name, m] = mappings[GetParam()];
  SCOPED_TRACE(name);
  Result<ReverseMapping> rev = QuasiInverse(m);
  ASSERT_TRUE(rev.ok()) << rev.status();
  size_t stepped = 0;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Instance u = MustChase(SampleGround(m, seed, 4, 3), m);
    RunRecord full = ExpectSameChase(u, *rev);
    ExpectSameChase(u, *rev, {}, /*dedup_equivalent=*/true);
    ExpectSameTrips(u, *rev, full);
    stepped += full.stats.steps;
  }
  EXPECT_GT(stepped, 0u);
}

INSTANTIATE_TEST_SUITE_P(Catalog, DisjunctiveChaseDifferentialCatalogTest,
                         ::testing::Range<size_t>(0, 10));

// ---------------------------------------------------------------------------
// Generated LAV shape 5 with its disjunctive QuasiInverse output: trees of
// up to a few hundred leaves, where dedup and branching both matter.

TEST_F(DisjunctiveChaseDifferentialTest, LavShapeFiveQuasiInverse) {
  SchemaMapping m = LavShape(5);
  ReverseMapping rev = MustQuasiInverse(m);
  size_t branching = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Instance u = MustChase(SampleGround(m, seed, 6, 4), m);
    RunRecord full = ExpectSameChase(u, rev);
    ExpectSameTrips(u, rev, full);
    if (full.stats.leaves > 1) ++branching;
  }
  EXPECT_GT(branching, 0u);
}

// LavQuasiInverse on LAV shape 5: one disjunct per dependency, so every
// step has a single child that takes its parent's instance over.
TEST_F(DisjunctiveChaseDifferentialTest, LavShapeFiveLavQuasiInverse) {
  SchemaMapping m = LavShape(5);
  ReverseMapping rev = MustLavQuasiInverse(m);
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Instance u = MustChase(SampleGround(m, seed, 120, 40), m);
    RunRecord full = ExpectSameChase(u, rev);
    EXPECT_GT(full.stats.steps, 50u);
    ExpectSameTrips(u, rev, full);
  }
}

// A shared memory budget trips at the same child: the last child is moved
// rather than copied but charged the same.
TEST_F(DisjunctiveChaseDifferentialTest, MemoryTripLandsAtTheSameChild) {
  SchemaMapping m = LavShape(5);
  ReverseMapping rev = MustQuasiInverse(m);
  Instance u = MustChase(SampleGround(m, 2, 6, 4), m);
  for (size_t bytes : {size_t{2000}, size_t{20000}, size_t{200000}}) {
    SCOPED_TRACE("max_memory_bytes " + std::to_string(bytes));
    Limits limits;
    limits.max_memory_bytes = bytes;
    ExpectSameChase(u, rev, limits);
  }
}

}  // namespace
}  // namespace qimap
