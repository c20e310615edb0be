// Differential test of the block-wise instance homomorphism test against
// the plain one: a single search whose body is every fact of `from`, run
// on the interpretive matcher. `ExistsInstanceHomomorphism` checks each
// fact without movable values by one lookup and searches each fact block
// (facts connected through shared nulls, plus variables when they move)
// on its own; the two must agree on every instance pair.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/rng.h"
#include "relational/homomorphism.h"
#include "relational/instance.h"
#include "relational/schema.h"

namespace qimap {
namespace {

SchemaPtr TestSchema() { return MakeSchema("R/2, S/3, T/1"); }

// The reference: every fact of `from` in one body, one search.
bool ReferenceExists(const Instance& from, const Instance& to,
                     bool map_variables) {
  Conjunction body;
  for (const Fact& fact : from.Facts()) {
    body.push_back(Atom{fact.relation, fact.tuple});
  }
  HomSearchOptions options;
  options.map_nulls = true;
  options.map_variables = map_variables;
  options.use_compiled_plan = false;
  return FindHomomorphism(body, to, {}, options).has_value();
}

// Asserts that both tests agree on `from -> to` under both settings of
// `map_variables`, and returns the block-wise answer for `map_variables`.
bool ExpectAgree(const Instance& from, const Instance& to,
                 bool map_variables = true) {
  for (bool mv : {true, false}) {
    EXPECT_EQ(ExistsInstanceHomomorphism(from, to, mv),
              ReferenceExists(from, to, mv))
        << "map_variables=" << mv << "\n  from = {" << from.ToString()
        << "}\n  to   = {" << to.ToString() << "}";
  }
  return ExistsInstanceHomomorphism(from, to, map_variables);
}

Instance Parse(const SchemaPtr& schema, const char* text) {
  return MustParseInstance(schema, text);
}

// A random value: constants a..d, nulls _N1.._N<nulls>, variables x, y.
Value RandomValue(Rng& rng, uint32_t nulls) {
  switch (rng.Uniform(3)) {
    case 0:
      return Value::MakeConstant(std::string(1, 'a' + rng.Uniform(4)));
    case 1:
      return Value::MakeNull(1 + static_cast<uint32_t>(rng.Uniform(nulls)));
    default:
      return Value::MakeVariable(rng.Chance(1, 2) ? "x" : "y");
  }
}

Instance RandomInstance(const SchemaPtr& schema, Rng& rng, size_t facts,
                        uint32_t nulls) {
  Instance out(schema);
  for (size_t f = 0; f < facts; ++f) {
    RelationId rel = static_cast<RelationId>(rng.Uniform(schema->size()));
    Tuple tuple;
    for (uint32_t a = 0; a < schema->relation(rel).arity; ++a) {
      tuple.push_back(RandomValue(rng, nulls));
    }
    EXPECT_TRUE(out.AddFact(rel, tuple).ok());
  }
  return out;
}

// A target that usually admits a homomorphism: the image of `from` under
// a random null renaming (onto constants or other nulls), plus noise.
Instance RandomImage(const Instance& from, Rng& rng, uint32_t nulls) {
  Assignment h;
  for (uint32_t n = 1; n <= nulls; ++n) {
    h.emplace(Value::MakeNull(n), RandomValue(rng, nulls));
  }
  Instance out = ApplyAssignmentToInstance(from, h);
  Instance noise = RandomInstance(from.schema(), rng, rng.Uniform(3), nulls);
  out.UnionWith(noise);
  return out;
}

TEST(InstanceHomDifferentialTest, SeededRandomPairs) {
  SchemaPtr schema = TestSchema();
  size_t exists = 0, absent = 0;
  for (uint64_t seed = 1; seed <= 1500; ++seed) {
    Rng rng(seed);
    uint32_t nulls = 1 + static_cast<uint32_t>(rng.Uniform(6));
    Instance from =
        RandomInstance(schema, rng, 1 + rng.Uniform(7), nulls);
    Instance to = rng.Chance(2, 3)
                      ? RandomImage(from, rng, nulls)
                      : RandomInstance(schema, rng, 1 + rng.Uniform(9),
                                       nulls);
    SCOPED_TRACE("seed " + std::to_string(seed));
    (ExpectAgree(from, to) ? exists : absent) += 1;
    ExpectAgree(to, from);
  }
  // Both answers must be well represented for the sweep to mean anything.
  EXPECT_GT(exists, 300u);
  EXPECT_GT(absent, 300u);
}

TEST(InstanceHomDifferentialTest, NullsSharedAcrossRelations) {
  SchemaPtr schema = TestSchema();
  Instance from = Parse(schema, "R(_N1,a), S(_N1,_N2,b), T(_N2)");
  EXPECT_TRUE(ExpectAgree(from, Parse(schema, "R(c,a), S(c,d,b), T(d)")));
  // Each fact maps alone, but not with _N1 and _N2 shared.
  EXPECT_FALSE(ExpectAgree(
      from, Parse(schema, "R(c,a), S(e,d,b), S(c,e,b), T(d)")));
}

TEST(InstanceHomDifferentialTest, GroundFactMissingFromTarget) {
  SchemaPtr schema = TestSchema();
  Instance from = Parse(schema, "R(a,b), R(_N1,c)");
  EXPECT_FALSE(ExpectAgree(from, Parse(schema, "R(d,c)")));
  EXPECT_TRUE(ExpectAgree(from, Parse(schema, "R(a,b), R(d,c)")));
  EXPECT_FALSE(ExpectAgree(Parse(schema, "T(a)"), Parse(schema, "T(_N1)")));
}

TEST(InstanceHomDifferentialTest, FrozenVariables) {
  SchemaPtr schema = TestSchema();
  const Value x = Value::MakeVariable("x");
  const Value y = Value::MakeVariable("y");
  const Value a = Value::MakeConstant("a");
  Instance from(schema);
  ASSERT_TRUE(from.AddFact(0, {x, Value::MakeNull(1)}).ok());
  ASSERT_TRUE(from.AddFact(2, {x}).ok());
  Instance same_x(schema);
  ASSERT_TRUE(same_x.AddFact(0, {x, a}).ok());
  ASSERT_TRUE(same_x.AddFact(2, {x}).ok());
  Instance other_var(schema);
  ASSERT_TRUE(other_var.AddFact(0, {y, a}).ok());
  ASSERT_TRUE(other_var.AddFact(2, {y}).ok());
  EXPECT_TRUE(ExpectAgree(from, same_x, /*map_variables=*/false));
  EXPECT_FALSE(ExpectAgree(from, other_var, /*map_variables=*/false));
  EXPECT_TRUE(ExpectAgree(from, other_var, /*map_variables=*/true));
  // A frozen variable does not join facts into one block: T(x) alone is
  // checked by lookup.
  Instance missing(schema);
  ASSERT_TRUE(missing.AddFact(0, {x, a}).ok());
  EXPECT_FALSE(ExpectAgree(from, missing, /*map_variables=*/false));
}

TEST(InstanceHomDifferentialTest, EmptyFrom) {
  SchemaPtr schema = TestSchema();
  Instance empty(schema);
  EXPECT_TRUE(ExpectAgree(empty, empty));
  EXPECT_TRUE(ExpectAgree(empty, Parse(schema, "R(a,_N1)")));
  EXPECT_FALSE(ExpectAgree(Parse(schema, "R(a,_N1)"), empty));
}

TEST(InstanceHomDifferentialTest, OneBlockSpanningEveryFact) {
  SchemaPtr schema = TestSchema();
  // A null path of length 6 folds onto a 2-cycle but not onto a path of
  // length 5 (the target has no longer path and no cycle).
  Instance path = Parse(
      schema,
      "R(_N1,_N2), R(_N2,_N3), R(_N3,_N4), R(_N4,_N5), R(_N5,_N6), "
      "R(_N6,_N7)");
  EXPECT_TRUE(ExpectAgree(path, Parse(schema, "R(a,b), R(b,a)")));
  EXPECT_FALSE(ExpectAgree(
      path, Parse(schema, "R(a,b), R(b,c), R(c,d), R(d,e), R(e,f)")));
  Instance anchored = Parse(schema, "R(a,_N1), R(_N1,_N2), R(_N2,b)");
  EXPECT_TRUE(ExpectAgree(anchored, Parse(schema, "R(a,c), R(c,c), R(c,b)")));
  EXPECT_FALSE(ExpectAgree(anchored, Parse(schema, "R(a,c), R(c,b)")));
}

TEST(InstanceHomDifferentialTest, ConstantOnlyInstances) {
  SchemaPtr schema = TestSchema();
  Instance small = Parse(schema, "R(a,b), S(a,b,c), T(d)");
  Instance big = Parse(schema, "R(a,b), S(a,b,c), T(d), T(a)");
  EXPECT_TRUE(ExpectAgree(small, big));
  EXPECT_FALSE(ExpectAgree(big, small));
  EXPECT_TRUE(ExpectAgree(small, small));
}

}  // namespace
}  // namespace qimap
