#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "base/rng.h"
#include "base/value.h"
#include "relational/instance.h"
#include "relational/schema.h"

// Posting-list invariants of the columnar store: after any insert
// sequence (duplicates included), for every column of every relation the
// per-column posting lists must exactly partition the row-id set, the
// incremental stats (`NumRows`, `ColumnDistinct`) must match brute-force
// recounts over the columns, and `RowsWith(col, value)` must agree with a
// linear scan — including when the same interned id appears in several
// columns, or as a constant, a null and a variable (same numeric id,
// different kind).
//
// The index is open-addressed and keyed by the value's 64-bit code: a
// column scans a dense code array up to 8 distinct values, then promotes
// to a hash table that doubles at 3/4 load. The targeted tests below walk
// that promotion boundary and several rehashes, and check that copying
// an instance (as MinGen does) yields an index whose later inserts leave
// the original untouched.

namespace qimap {
namespace {

// Brute-force oracle: row ids per (column, value), rebuilt from at().
using ColumnIndex = std::map<Value, std::vector<uint32_t>>;

ColumnIndex ScanColumn(const Instance& inst, RelationId r, uint32_t col) {
  ColumnIndex index;
  for (uint32_t row = 0; row < inst.NumRows(r); ++row) {
    index[inst.at(r, row, col)].push_back(row);
  }
  return index;
}

// Values sharing `value`'s numeric id under every other kind, plus a
// null label no test uses.
std::vector<Value> KindTwins(const Value& value) {
  std::vector<Value> twins = {Value::MakeNull(value.id() + 1000000)};
  if (!value.IsNull()) twins.push_back(Value::MakeNull(value.id()));
  return twins;
}

void CheckAllInvariants(const Instance& inst) {
  const Schema& schema = *inst.schema();
  for (RelationId r = 0; r < schema.size(); ++r) {
    const uint32_t rows = inst.NumRows(r);
    for (uint32_t col = 0; col < schema.relation(r).arity; ++col) {
      ColumnIndex oracle = ScanColumn(inst, r, col);
      SCOPED_TRACE(schema.relation(r).name + " column " +
                   std::to_string(col));

      // Stats match brute-force recounts.
      EXPECT_EQ(inst.ColumnDistinct(r, col), oracle.size());

      // RowsWith agrees with the linear scan for every present value...
      std::set<uint32_t> covered;
      for (const auto& [value, expect_rows] : oracle) {
        const std::vector<uint32_t>* posting = inst.RowsWith(r, col, value);
        ASSERT_NE(posting, nullptr) << "missing posting for " +
                                           value.ToString();
        EXPECT_EQ(*posting, expect_rows) << "posting for " +
                                                value.ToString();
        for (uint32_t row : *posting) {
          EXPECT_TRUE(covered.insert(row).second)
              << "row " << row << " in two posting lists";
        }
      }
      // ...and the lists exactly partition the row set.
      EXPECT_EQ(covered.size(), rows);

      // Absent values (including kind-flipped twins of present ids, and
      // ids never seen) have no posting list.
      for (const auto& [value, expect_rows] : oracle) {
        for (Value twin : KindTwins(value)) {
          if (oracle.find(twin) == oracle.end()) {
            EXPECT_EQ(inst.RowsWith(r, col, twin), nullptr)
                << "phantom posting for " + twin.ToString();
          }
        }
      }
    }
  }
}

TEST(PostingListTest, RandomizedInsertSequencesKeepEveryInvariant) {
  SchemaPtr schema = MakeSchema("A/1, B/2, C/3, D/4");
  // A small shared value pool forces repeated values per column (long
  // posting lists), duplicate full tuples (dedup), and the same interned
  // id in many columns at once.
  std::vector<Value> pool;
  for (const char* name : {"a", "b", "c", "d", "e"}) {
    pool.push_back(Value::MakeConstant(name));
  }
  for (uint32_t label = 1; label <= 3; ++label) {
    pool.push_back(Value::MakeNull(label));
  }

  for (uint64_t seed = 1; seed <= 25; ++seed) {
    Rng rng(seed * 131071 + 9);
    Instance inst(schema);
    const size_t inserts = 40 + rng.Uniform(120);
    for (size_t i = 0; i < inserts; ++i) {
      RelationId r = static_cast<RelationId>(rng.Uniform(schema->size()));
      Tuple tuple;
      for (uint32_t c = 0; c < schema->relation(r).arity; ++c) {
        tuple.push_back(pool[rng.Uniform(pool.size())]);
      }
      ASSERT_TRUE(inst.AddFact(r, std::move(tuple)).ok());
      // Check mid-sequence occasionally so growth/rehash points are
      // covered, and always at the end.
      if (i % 37 == 0) CheckAllInvariants(inst);
    }
    CheckAllInvariants(inst);
  }
}

// The same numeric id must index separately per (column, kind): constant
// "x" (some interned id k) and null _N<k> are different values, and a
// value appearing in column 0 must not leak into column 1's postings.
TEST(PostingListTest, InternedIdCollisionsStaySeparate) {
  SchemaPtr schema = MakeSchema("P/2");
  Instance inst(schema);
  Value a = Value::MakeConstant("a");
  Value b = Value::MakeConstant("b");
  Value null_a = Value::MakeNull(a.id());  // same numeric id, null kind
  ASSERT_TRUE(inst.AddFact("P", {a, a}).ok());
  ASSERT_TRUE(inst.AddFact("P", {a, b}).ok());
  ASSERT_TRUE(inst.AddFact("P", {b, a}).ok());
  ASSERT_TRUE(inst.AddFact("P", {null_a, a}).ok());

  // Column 0: a -> {0,1}, b -> {2}, _N<a.id> -> {3}.
  const std::vector<uint32_t>* col0_a = inst.RowsWith(0, 0, a);
  ASSERT_NE(col0_a, nullptr);
  EXPECT_EQ(*col0_a, (std::vector<uint32_t>{0, 1}));
  const std::vector<uint32_t>* col0_null = inst.RowsWith(0, 0, null_a);
  ASSERT_NE(col0_null, nullptr);
  EXPECT_EQ(*col0_null, (std::vector<uint32_t>{3}));

  // Column 1: a -> {0,2,3}; the null with a's id never appears there.
  const std::vector<uint32_t>* col1_a = inst.RowsWith(0, 1, a);
  ASSERT_NE(col1_a, nullptr);
  EXPECT_EQ(*col1_a, (std::vector<uint32_t>{0, 2, 3}));
  EXPECT_EQ(inst.RowsWith(0, 1, null_a), nullptr);

  EXPECT_EQ(inst.ColumnDistinct(0, 0), 3u);
  EXPECT_EQ(inst.ColumnDistinct(0, 1), 2u);
  CheckAllInvariants(inst);
}

// Duplicate adds must not grow any posting list or stat.
TEST(PostingListTest, DuplicateInsertsLeaveIndexesUntouched) {
  SchemaPtr schema = MakeSchema("P/3");
  Instance inst(schema);
  Tuple t = {Value::MakeConstant("a"), Value::MakeConstant("b"),
             Value::MakeConstant("a")};
  ASSERT_TRUE(inst.AddFact("P", t).ok());
  uint64_t fingerprint = inst.Fingerprint();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(inst.AddFact("P", t).ok());
  }
  EXPECT_EQ(inst.NumRows(0), 1u);
  EXPECT_EQ(inst.Fingerprint(), fingerprint);
  const std::vector<uint32_t>* rows =
      inst.RowsWith(0, 2, Value::MakeConstant("a"));
  ASSERT_NE(rows, nullptr);
  EXPECT_EQ(*rows, (std::vector<uint32_t>{0}));
  CheckAllInvariants(inst);
}

// RowsWithFirst is the column-0 shorthand the delta/trigger paths use.
TEST(PostingListTest, RowsWithFirstDelegatesToColumnZero) {
  SchemaPtr schema = MakeSchema("P/2");
  Instance inst(schema);
  Value a = Value::MakeConstant("a");
  Value b = Value::MakeConstant("b");
  ASSERT_TRUE(inst.AddFact("P", {a, b}).ok());
  ASSERT_TRUE(inst.AddFact("P", {b, a}).ok());
  EXPECT_EQ(inst.RowsWithFirst(0, a), inst.RowsWith(0, 0, a));
  EXPECT_EQ(inst.RowsWithFirst(0, b), inst.RowsWith(0, 0, b));
  EXPECT_EQ(inst.RowsWithFirst(0, Value::MakeConstant("zz")), nullptr);
}

// Every present (column, value) lookup as a value-keyed map, for
// comparing an instance's index before and after another one changes.
std::map<std::pair<uint32_t, Value>, std::vector<uint32_t>> Postings(
    const Instance& inst, RelationId r) {
  std::map<std::pair<uint32_t, Value>, std::vector<uint32_t>> out;
  for (uint32_t col = 0; col < inst.schema()->relation(r).arity; ++col) {
    for (const auto& [value, rows] : ScanColumn(inst, r, col)) {
      const std::vector<uint32_t>* posting = inst.RowsWith(r, col, value);
      out[{col, value}] = posting != nullptr ? *posting
                                             : std::vector<uint32_t>{};
    }
  }
  return out;
}

// Walks a column across the dense-scan limit: every distinct count from
// 1 to 12 is checked, lookups of values not yet inserted miss on both
// sides of the promotion, and rows keep arriving for values first seen
// before it.
TEST(PostingListTest, DenseToTablePromotionBoundary) {
  SchemaPtr schema = MakeSchema("P/2");
  Instance inst(schema);
  std::vector<Value> values;
  for (int i = 0; i < 12; ++i) {
    values.push_back(Value::MakeConstant("promo" + std::to_string(i)));
  }
  const Value other = Value::MakeConstant("promo_other");
  for (size_t n = 0; n < values.size(); ++n) {
    ASSERT_TRUE(inst.AddFact(0, {values[n], other}).ok());
    // An earlier value gains a second row as well.
    ASSERT_TRUE(inst.AddFact(0, {values[n / 2], values[n]}).ok());
    EXPECT_EQ(inst.ColumnDistinct(0, 0), n + 1);
    for (size_t k = n + 1; k < values.size(); ++k) {
      EXPECT_EQ(inst.RowsWith(0, 0, values[k]), nullptr)
          << "after " << n + 1 << " values, " << values[k].ToString();
    }
    CheckAllInvariants(inst);
  }
}

// Thousands of distinct values in one column force the table through
// several doublings (16 -> 32 -> ... slots); the invariants are checked
// on both sides of every growth point and at the end.
TEST(PostingListTest, GrowthAcrossSeveralRehashes) {
  SchemaPtr schema = MakeSchema("P/2");
  Instance inst(schema);
  const std::vector<Value> small = {Value::MakeConstant("g0"),
                                    Value::MakeConstant("g1"),
                                    Value::MakeNull(7)};
  std::set<size_t> checkpoints;
  for (size_t capacity = 16; capacity <= 4096; capacity *= 2) {
    checkpoints.insert(capacity * 3 / 4);
    checkpoints.insert(capacity * 3 / 4 + 1);
  }
  for (size_t i = 1; i <= 3500; ++i) {
    // Column 0 is all-distinct (alternating kinds); column 1 stays dense.
    Value v = i % 2 == 0 ? Value::MakeNull(static_cast<uint32_t>(i))
                         : Value::MakeConstant("grow" + std::to_string(i));
    ASSERT_TRUE(inst.AddFact(0, {v, small[i % small.size()]}).ok());
    if (checkpoints.count(i) > 0) CheckAllInvariants(inst);
  }
  EXPECT_EQ(inst.ColumnDistinct(0, 0), 3500u);
  EXPECT_EQ(inst.ColumnDistinct(0, 1), small.size());
  CheckAllInvariants(inst);
}

// A copy owns its index: inserting into the copy — new values that
// promote a dense column, rows for existing values, values that grow a
// table — changes nothing the original reports, and vice versa.
TEST(PostingListTest, CopyThenInsertIsIndependent) {
  SchemaPtr schema = MakeSchema("P/2");
  Instance original(schema);
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(original
                    .AddFact(0, {Value::MakeConstant("c" + std::to_string(i)),
                                 Value::MakeConstant(i % 2 ? "odd" : "even")})
                    .ok());
  }
  const auto before = Postings(original, 0);
  Instance copy = original;
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(copy.AddFact(0, {Value::MakeConstant("c" + std::to_string(i)),
                                 Value::MakeConstant("k" + std::to_string(i))})
                    .ok());
  }
  EXPECT_EQ(Postings(original, 0), before);
  EXPECT_EQ(original.ColumnDistinct(0, 1), 2u);
  EXPECT_EQ(copy.ColumnDistinct(0, 1), 42u);
  EXPECT_EQ(copy.ColumnDistinct(0, 0), 40u);
  CheckAllInvariants(original);
  CheckAllInvariants(copy);
  // The other direction: the original grows, the copy stays put.
  const auto copy_before = Postings(copy, 0);
  ASSERT_TRUE(original
                  .AddFact(0, {Value::MakeConstant("c0"),
                               Value::MakeConstant("only_original")})
                  .ok());
  EXPECT_EQ(Postings(copy, 0), copy_before);
  EXPECT_EQ(copy.RowsWith(0, 1, Value::MakeConstant("only_original")),
            nullptr);
  CheckAllInvariants(original);
}

// A constant, a null and a variable with one numeric id are three values:
// each keeps its own list, in a dense column and in a promoted one.
TEST(PostingListTest, KindsSharingAnIdIndexSeparately) {
  // Constants and variables are interned separately, each with dense
  // ids: intern fresh names on the lagging side until the ids meet.
  Value constant = Value::MakeConstant("kind_twin_c0");
  Value variable = Value::MakeVariable("kind_twin_v0");
  for (int i = 1; constant.id() != variable.id(); ++i) {
    if (constant.id() < variable.id()) {
      constant = Value::MakeConstant("kind_twin_c" + std::to_string(i));
    } else {
      variable = Value::MakeVariable("kind_twin_v" + std::to_string(i));
    }
  }
  const Value null = Value::MakeNull(constant.id());
  SchemaPtr schema = MakeSchema("P/1");
  for (size_t filler : {size_t{0}, size_t{20}}) {
    SCOPED_TRACE(filler == 0 ? "dense column" : "promoted column");
    Instance inst(schema);
    for (size_t i = 0; i < filler; ++i) {
      ASSERT_TRUE(
          inst.AddFact(0, {Value::MakeConstant("f" + std::to_string(i))})
              .ok());
    }
    ASSERT_TRUE(inst.AddFact(0, {null}).ok());
    ASSERT_TRUE(inst.AddFact(0, {constant}).ok());
    EXPECT_EQ(inst.RowsWith(0, 0, variable), nullptr);
    ASSERT_TRUE(inst.AddFact(0, {variable}).ok());
    const uint32_t base = static_cast<uint32_t>(filler);
    for (const auto& [value, row] :
         {std::pair{null, base}, std::pair{constant, base + 1},
          std::pair{variable, base + 2}}) {
      const std::vector<uint32_t>* posting = inst.RowsWith(0, 0, value);
      ASSERT_NE(posting, nullptr) << value.ToString();
      EXPECT_EQ(*posting, std::vector<uint32_t>{row}) << value.ToString();
    }
    EXPECT_EQ(inst.ColumnDistinct(0, 0), filler + 3);
    CheckAllInvariants(inst);
  }
}

}  // namespace
}  // namespace qimap
