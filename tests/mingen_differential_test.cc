// Differential test of the incremental MinGen search against a reference
// implementation of the plain algorithm: the same level-order search, but
// with rendered-string dedup keys and one from-scratch public IsGenerator
// call (canonical instance, full chase, frozen-x psi search) per tested
// candidate. The two must agree on the generator lists byte for byte, on
// the search statistics, and on where the candidate cap trips.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "base/budget.h"
#include "core/mingen.h"
#include "core/quasi_inverse.h"
#include "core/sigma_star.h"
#include "dependency/schema_mapping.h"
#include "workload/paper_catalog.h"
#include "workload/scenario_gen.h"

namespace qimap {
namespace {

// ---------------------------------------------------------------------------
// Reference MinGen.

Value RefFreshZ(size_t index) {
  return Value::MakeVariable("#z" + std::to_string(index + 1));
}

std::string RefCanonicalKey(Conjunction conj, const std::set<Value>& x_set) {
  for (int round = 0; round < 2; ++round) {
    std::sort(conj.begin(), conj.end());
    std::map<Value, Value> rename;
    size_t next = 0;
    for (Atom& atom : conj) {
      for (Value& v : atom.args) {
        if (!v.IsVariable() || x_set.count(v) > 0) continue;
        auto it = rename.find(v);
        if (it == rename.end()) {
          it = rename.emplace(v, RefFreshZ(next++)).first;
        }
        v = it->second;
      }
    }
  }
  std::sort(conj.begin(), conj.end());
  std::string key;
  for (const Atom& atom : conj) {
    key += std::to_string(atom.relation);
    key += '(';
    for (const Value& v : atom.args) {
      key += v.ToString();
      key += ',';
    }
    key += ')';
  }
  return key;
}

void RefFill(RelationId relation, uint32_t arity,
             const std::vector<Value>& x, size_t z_avail,
             std::vector<Value>* args, std::vector<Atom>* out) {
  if (args->size() == arity) {
    out->push_back(Atom{relation, *args});
    return;
  }
  for (const Value& v : x) {
    args->push_back(v);
    RefFill(relation, arity, x, z_avail, args, out);
    args->pop_back();
  }
  for (size_t i = 0; i < z_avail; ++i) {
    args->push_back(RefFreshZ(i));
    RefFill(relation, arity, x, z_avail, args, out);
    args->pop_back();
  }
  args->push_back(RefFreshZ(z_avail));
  RefFill(relation, arity, x, z_avail + 1, args, out);
  args->pop_back();
}

size_t RefCountFreshZ(const Conjunction& conj, const std::set<Value>& x_set) {
  std::set<Value> fresh;
  for (const Atom& atom : conj) {
    for (const Value& v : atom.args) {
      if (v.IsVariable() && x_set.count(v) == 0) fresh.insert(v);
    }
  }
  return fresh.size();
}

struct ReferenceRun {
  Status status = Status::OK();
  /// Minimal generators on success; the unminimized generators found so
  /// far when the candidate cap trips.
  std::vector<Conjunction> generators;
  MinGenStats stats;
};

ReferenceRun ReferenceMinGen(const SchemaMapping& m, const Conjunction& psi,
                             const std::vector<Value>& x,
                             size_t max_candidates) {
  ReferenceRun run;
  MinGenStats& st = run.stats;
  size_t s1 = 0;
  for (const Tgd& tgd : m.tgds) s1 = std::max(s1, tgd.lhs.size());
  const size_t max_atoms = s1 * psi.size();
  const std::set<Value> x_set(x.begin(), x.end());
  RunBudget guard("MinGen", max_candidates, nullptr,
                  "(raise MinGenOptions::max_candidates)");

  std::vector<Conjunction> generators;
  std::vector<Conjunction> frontier = {Conjunction{}};
  std::set<std::string> seen;
  for (size_t size = 1; size <= max_atoms && !frontier.empty(); ++size) {
    std::vector<Conjunction> next_frontier;
    for (const Conjunction& current : frontier) {
      std::vector<Atom> extensions;
      const size_t used_z = RefCountFreshZ(current, x_set);
      for (RelationId r = 0; r < m.source->size(); ++r) {
        std::vector<Value> args;
        RefFill(r, m.source->relation(r).arity, x, used_z, &args,
                &extensions);
      }
      for (const Atom& atom : extensions) {
        if (std::find(current.begin(), current.end(), atom) !=
            current.end()) {
          continue;
        }
        Conjunction child = current;
        child.push_back(atom);
        if (!seen.insert(RefCanonicalKey(child, x_set)).second) {
          ++st.dedup_pruned;
          continue;
        }
        bool dominated = false;
        for (const Conjunction& g : generators) {
          if (IsSubConjunctionUpToRenaming(g, child, x)) {
            dominated = true;
            break;
          }
        }
        if (dominated) {
          ++st.dominated_pruned;
          continue;
        }
        Status tick = guard.Tick();
        if (!tick.ok()) {
          run.status = tick;
          run.generators = std::move(generators);
          st.partial = true;
          return run;
        }
        ++st.candidates;
        bool is_generator = false;
        const std::set<Value> vars = VariableSetOf(child);
        if (std::all_of(x.begin(), x.end(),
                        [&](const Value& v) { return vars.count(v) > 0; })) {
          ++st.generator_tests;
          Result<bool> tested = IsGenerator(m, child, psi, x);
          if (!tested.ok()) {
            run.status = tested.status();
            return run;
          }
          is_generator = *tested;
        }
        if (is_generator) {
          generators.push_back(std::move(child));
        } else if (size < max_atoms) {
          next_frontier.push_back(std::move(child));
        }
      }
    }
    frontier = std::move(next_frontier);
  }
  for (const Conjunction& g : generators) {
    bool drop = false;
    for (const Conjunction& kept : run.generators) {
      if (IsSubConjunctionUpToRenaming(kept, g, x)) {
        drop = true;
        break;
      }
    }
    if (!drop) run.generators.push_back(g);
  }
  st.generators = run.generators.size();
  return run;
}

// ---------------------------------------------------------------------------
// Comparison.

std::vector<std::string> Render(const std::vector<Conjunction>& conjs,
                                const Schema& schema) {
  std::vector<std::string> out;
  for (const Conjunction& c : conjs) {
    out.push_back(ConjunctionToString(c, schema));
  }
  return out;
}

// Runs MinGen and the reference on one search and compares everything.
// Returns true iff the candidate cap tripped (in both).
bool ExpectSameSearch(const SchemaMapping& m, const Conjunction& psi,
                      const std::vector<Value>& x, size_t max_candidates) {
  ReferenceRun ref = ReferenceMinGen(m, psi, x, max_candidates);

  MinGenStats stats;
  std::vector<Conjunction> partial;
  MinGenOptions options;
  options.max_candidates = max_candidates;
  options.stats = &stats;
  options.partial_out = &partial;
  Result<std::vector<Conjunction>> got = MinGen(m, psi, x, options);

  EXPECT_EQ(got.ok(), ref.status.ok());
  if (got.ok() && ref.status.ok()) {
    EXPECT_EQ(Render(*got, *m.source), Render(ref.generators, *m.source));
  } else if (!got.ok() && !ref.status.ok()) {
    EXPECT_EQ(got.status().code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(got.status().ToString(), ref.status.ToString());
    EXPECT_EQ(Render(partial, *m.source), Render(ref.generators, *m.source));
  } else {
    ADD_FAILURE() << "MinGen: "
                  << (got.ok() ? "ok" : got.status().ToString())
                  << "; reference: " << ref.status.ToString();
  }
  EXPECT_EQ(stats.candidates, ref.stats.candidates);
  EXPECT_EQ(stats.dedup_pruned, ref.stats.dedup_pruned);
  EXPECT_EQ(stats.dominated_pruned, ref.stats.dominated_pruned);
  EXPECT_EQ(stats.generator_tests, ref.stats.generator_tests);
  EXPECT_EQ(stats.generators, ref.stats.generators);
  EXPECT_EQ(stats.partial, ref.stats.partial);
  EXPECT_LE(stats.delta_skipped, stats.generator_tests);
  return !ref.status.ok();
}

// Compares every sigma-star member's search; returns how many tripped.
size_t ExpectSameSearches(const SchemaMapping& m, size_t max_candidates) {
  size_t tripped = 0;
  std::vector<Tgd> sigma_star = SigmaStar(m);
  for (size_t i = 0; i < sigma_star.size(); ++i) {
    const Tgd& sigma = sigma_star[i];
    SCOPED_TRACE("sigma* member " + std::to_string(i) + ": " +
                 TgdToString(sigma, *m.source, *m.target));
    if (ExpectSameSearch(m, sigma.rhs, sigma.FrontierVariables(),
                         max_candidates)) {
      ++tripped;
    }
  }
  return tripped;
}

constexpr size_t kDefaultCap = MinGenOptions{}.max_candidates;

// ---------------------------------------------------------------------------
// The paper catalog: every sigma-star member of every mapping.

class MinGenDifferentialCatalogTest : public ::testing::TestWithParam<size_t> {
};

TEST_P(MinGenDifferentialCatalogTest, MatchesReference) {
  auto mappings = catalog::AllMappings();
  ASSERT_LT(GetParam(), mappings.size());
  const auto& [name, m] = mappings[GetParam()];
  SCOPED_TRACE(name);
  EXPECT_EQ(ExpectSameSearches(m, kDefaultCap), 0u);
}

INSTANTIATE_TEST_SUITE_P(Catalog, MinGenDifferentialCatalogTest,
                         ::testing::Range<size_t>(0, 10));

// ---------------------------------------------------------------------------
// Generated LAV and GAV shapes (chain bodies, three tgds, two body atoms).

SchemaMapping Shape(ScenarioFamily family, uint64_t seed, size_t num_tgds,
                    size_t body_atoms) {
  ScenarioConfig config;
  config.family = family;
  config.topology = BodyTopology::kChain;
  config.num_tgds = num_tgds;
  config.body_atoms = body_atoms;
  return GenerateScenario(config, seed, 0).mapping;
}

class MinGenDifferentialShapeTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(MinGenDifferentialShapeTest, LavMatchesReference) {
  EXPECT_EQ(ExpectSameSearches(Shape(ScenarioFamily::kLav, GetParam(), 3, 2),
                               kDefaultCap),
            0u);
}

TEST_P(MinGenDifferentialShapeTest, GavMatchesReference) {
  EXPECT_EQ(ExpectSameSearches(Shape(ScenarioFamily::kGav, GetParam(), 3, 2),
                               kDefaultCap),
            0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinGenDifferentialShapeTest,
                         ::testing::Range<uint64_t>(1, 13));

// ---------------------------------------------------------------------------
// Small full and mixed shapes under reduced candidate caps: the cap trips
// on some searches, and must trip at the same candidate with the same
// partial generator list. A cap of 2 also stops the search above the
// Lemma 4.4 depth.

TEST(MinGenDifferentialTest, FullAndMixedShapesUnderCandidateCap) {
  size_t searches_tripped = 0;
  for (size_t cap : {size_t{2}, size_t{300}}) {
    for (ScenarioFamily family :
         {ScenarioFamily::kFull, ScenarioFamily::kMixed}) {
      for (uint64_t seed = 1; seed <= 6; ++seed) {
        SCOPED_TRACE(std::string(ScenarioFamilyName(family)) + " seed " +
                     std::to_string(seed) + " cap " + std::to_string(cap));
        searches_tripped +=
            ExpectSameSearches(Shape(family, seed, 2, 2), cap);
      }
    }
  }
  // The cap must actually bite somewhere, or the trip path goes untested.
  EXPECT_GT(searches_tripped, 0u);
}

// ---------------------------------------------------------------------------
// QuasiInverse reports the totals over every sigma-star member's search,
// not just the last one.

TEST(MinGenDifferentialTest, QuasiInverseTotalsEverySearch) {
  SchemaMapping m = catalog::Decomposition();
  std::vector<Tgd> sigma_star = SigmaStar(m);
  ASSERT_GT(sigma_star.size(), 1u);
  MinGenStats expected;
  for (const Tgd& sigma : sigma_star) {
    MinGenStats member;
    MinGenOptions options;
    options.stats = &member;
    ASSERT_TRUE(MinGen(m, sigma.rhs, sigma.FrontierVariables(), options).ok());
    expected.Accumulate(member);
  }

  MinGenStats totals;
  totals.candidates = 12345;  // stale counts from an earlier run are reset
  QuasiInverseOptions options;
  options.mingen.stats = &totals;
  ASSERT_TRUE(QuasiInverse(m, options).ok());
  EXPECT_EQ(totals.candidates, expected.candidates);
  EXPECT_EQ(totals.dedup_pruned, expected.dedup_pruned);
  EXPECT_EQ(totals.dominated_pruned, expected.dominated_pruned);
  EXPECT_EQ(totals.generator_tests, expected.generator_tests);
  EXPECT_EQ(totals.generators, expected.generators);
  EXPECT_EQ(totals.delta_skipped, expected.delta_skipped);
  EXPECT_EQ(totals.parent_chases, expected.parent_chases);
  EXPECT_FALSE(totals.partial);
}

}  // namespace
}  // namespace qimap
