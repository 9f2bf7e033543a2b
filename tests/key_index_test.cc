// Point lookups on the master key index (FlatKeyIndex) over a small fixed
// relation: single and composite keys, cross-schema tuple probes and key
// counts. The randomized differential and pool-bridged cases live in
// flat_key_index_test.cc.
#include "relational/flat_key_index.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace certfix {
namespace {

SchemaPtr S() {
  return Schema::Make("R", std::vector<std::string>{"a", "b", "c"});
}

Relation MakeRel() {
  Relation rel(S());
  EXPECT_TRUE(rel.AppendStrings({"x", "1", "p"}).ok());
  EXPECT_TRUE(rel.AppendStrings({"x", "2", "q"}).ok());
  EXPECT_TRUE(rel.AppendStrings({"y", "1", "r"}).ok());
  return rel;
}

void ExpectSameRows(const RowSpan& got, const std::vector<size_t>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    // Element-wise: postings are ascending row positions.
    EXPECT_EQ(got[i], want[i]);
  }
}

TEST(KeyIndexTest, SingleAttrLookup) {
  Relation rel = MakeRel();
  FlatKeyIndex idx(rel, {0});
  ExpectSameRows(idx.Lookup({Value::Str("x")}), {0, 1});
  ExpectSameRows(idx.Lookup({Value::Str("y")}), {2});
  EXPECT_TRUE(idx.Lookup({Value::Str("zz")}).empty());
}

TEST(KeyIndexTest, CompositeKey) {
  Relation rel = MakeRel();
  FlatKeyIndex idx(rel, {0, 1});
  ExpectSameRows(idx.Lookup({Value::Str("x"), Value::Str("1")}), {0});
  EXPECT_TRUE(idx.Lookup({Value::Str("y"), Value::Str("2")}).empty());
}

TEST(KeyIndexTest, LookupTupleCrossSchema) {
  Relation rel = MakeRel();
  FlatKeyIndex idx(rel, {0});
  // A probing tuple over a different schema whose attr 2 holds "y".
  SchemaPtr probe_schema =
      Schema::Make("Q", std::vector<std::string>{"u", "v", "w"});
  Tuple probe =
      std::move(Tuple::FromStrings(probe_schema, {"a", "b", "y"})).ValueOrDie();
  ExpectSameRows(idx.LookupTuple(probe, {2}), {2});
}

TEST(KeyIndexTest, NumKeys) {
  Relation rel = MakeRel();
  EXPECT_EQ(FlatKeyIndex(rel, {0}).num_keys(), 2u);
  EXPECT_EQ(FlatKeyIndex(rel, {0, 1}).num_keys(), 3u);
}

TEST(KeyIndexTest, NullValuesIndexed) {
  Relation rel(S());
  ASSERT_TRUE(rel.AppendStrings({"", "1", "p"}).ok());
  FlatKeyIndex idx(rel, {0});
  EXPECT_EQ(idx.Lookup({Value()}).size(), 1u);
}

TEST(KeyIndexTest, EmptyRelation) {
  Relation rel(S());
  FlatKeyIndex idx(rel, {0});
  EXPECT_TRUE(idx.Lookup({Value::Str("x")}).empty());
  EXPECT_EQ(idx.num_keys(), 0u);
}

}  // namespace
}  // namespace certfix
