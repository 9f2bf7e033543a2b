#include "rules/editing_rule.h"

#include <gtest/gtest.h>

#include "rules/rule_set.h"
#include "test_util.h"

namespace certfix {
namespace {

using testing_fixtures::A;
using testing_fixtures::SupplierMaster;
using testing_fixtures::SupplierMasterSchema;
using testing_fixtures::SupplierRules;
using testing_fixtures::SupplierSchema;
using testing_fixtures::T1;

class RuleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    r_ = SupplierSchema();
    rm_ = SupplierMasterSchema();
    dm_ = SupplierMaster(rm_);
  }
  SchemaPtr r_;
  SchemaPtr rm_;
  Relation dm_;
};

TEST_F(RuleTest, MakeByNameResolvesAttrs) {
  Result<EditingRule> rule = EditingRule::MakeByName(
      "phi1", r_, rm_, {"zip"}, {"zip"}, "AC", "AC", PatternTuple(r_));
  ASSERT_TRUE(rule.ok());
  EXPECT_EQ(rule->lhs(), std::vector<AttrId>{A(r_, "zip")});
  EXPECT_EQ(rule->rhs(), A(r_, "AC"));
  EXPECT_EQ(rule->rhsm(), A(rm_, "AC"));
}

TEST_F(RuleTest, RejectsArityMismatch) {
  Result<EditingRule> rule = EditingRule::MakeByName(
      "bad", r_, rm_, {"zip", "AC"}, {"zip"}, "str", "str", PatternTuple(r_));
  EXPECT_FALSE(rule.ok());
}

TEST_F(RuleTest, RejectsRhsInLhs) {
  // Definition: B must be in R \ X.
  Result<EditingRule> rule = EditingRule::MakeByName(
      "bad", r_, rm_, {"zip"}, {"zip"}, "zip", "zip", PatternTuple(r_));
  EXPECT_FALSE(rule.ok());
}

TEST_F(RuleTest, RejectsDuplicateLhsAttr) {
  Result<EditingRule> rule = EditingRule::MakeByName(
      "bad", r_, rm_, {"zip", "zip"}, {"zip", "zip"}, "AC", "AC",
      PatternTuple(r_));
  EXPECT_FALSE(rule.ok());
}

TEST_F(RuleTest, AllowsRepeatedMasterAttr) {
  // The paper's Thm 12 reduction repeats B1 on the master side; only the
  // R-side list must be distinct.
  Result<EditingRule> rule = EditingRule::MakeByName(
      "ok", r_, rm_, {"zip", "AC"}, {"zip", "zip"}, "str", "str",
      PatternTuple(r_));
  EXPECT_TRUE(rule.ok());
}

TEST_F(RuleTest, RejectsUnknownAttr) {
  Result<EditingRule> rule = EditingRule::MakeByName(
      "bad", r_, rm_, {"nope"}, {"zip"}, "AC", "AC", PatternTuple(r_));
  EXPECT_FALSE(rule.ok());
}

TEST_F(RuleTest, AppliesToSemantics) {
  // phi1 = ((zip, zip) -> (AC, AC)): applies to t1 with s1 (zip agrees).
  RuleSet rules = SupplierRules(r_, rm_);
  const EditingRule& phi1 = rules.at(0);
  Tuple t1 = T1(r_);
  EXPECT_TRUE(phi1.AppliesTo(t1, dm_.at(0)));   // s1: zip EH7 4AH
  EXPECT_FALSE(phi1.AppliesTo(t1, dm_.at(1)));  // s2: zip NW1 6XE
}

TEST_F(RuleTest, PatternGatesApplication) {
  // phi4 requires type = 2; t1 has type 2 and phn = s1[Mphn].
  RuleSet rules = SupplierRules(r_, rm_);
  const EditingRule& phi4 = rules.at(3);
  Tuple t1 = T1(r_);
  EXPECT_TRUE(phi4.AppliesTo(t1, dm_.at(0)));
  t1.Set(A(r_, "type"), Value::Str("1"));
  EXPECT_FALSE(phi4.AppliesTo(t1, dm_.at(0)));
}

TEST_F(RuleTest, NegatedPatternGatesApplication) {
  // phi6 requires AC != 0800.
  RuleSet rules = SupplierRules(r_, rm_);
  const EditingRule& phi6 = rules.at(5);
  Tuple t = T1(r_);
  t.Set(A(r_, "type"), Value::Str("1"));
  t.Set(A(r_, "AC"), Value::Str("131"));
  t.Set(A(r_, "phn"), Value::Str("6884563"));
  EXPECT_TRUE(phi6.AppliesTo(t, dm_.at(0)));
  t.Set(A(r_, "AC"), Value::Str("0800"));
  EXPECT_FALSE(phi6.AppliesTo(t, dm_.at(0)));
}

TEST_F(RuleTest, ApplyUpdatesRhsOnly) {
  // Example 4: applying (phi1, s1) to t1 changes AC from 020 to 131.
  RuleSet rules = SupplierRules(r_, rm_);
  Tuple t1 = T1(r_);
  Tuple fixed = rules.at(0).TryApply(t1, dm_.at(0));
  EXPECT_EQ(fixed.at(A(r_, "AC")).as_string(), "131");
  // Everything else unchanged.
  size_t diffs = t1.DiffCount(fixed);
  EXPECT_EQ(diffs, 1u);
}

TEST_F(RuleTest, TryApplyNoopWhenInapplicable) {
  RuleSet rules = SupplierRules(r_, rm_);
  Tuple t1 = T1(r_);
  Tuple out = rules.at(0).TryApply(t1, dm_.at(1));  // zip mismatch
  EXPECT_EQ(out, t1);
}

TEST_F(RuleTest, CrossAttributeMap) {
  // A rule mapping phn to the master's Mphn (different attribute name):
  // phi4's lhsm is Mphn while lhs is phn.
  RuleSet rules = SupplierRules(r_, rm_);
  const EditingRule& phi4 = rules.at(3);
  EXPECT_EQ(phi4.lhs()[0], A(r_, "phn"));
  EXPECT_EQ(phi4.lhsm()[0], A(rm_, "Mphn"));
  Result<AttrId> m = phi4.MasterAttrFor(A(r_, "phn"));
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(*m, A(rm_, "Mphn"));
  EXPECT_FALSE(phi4.MasterAttrFor(A(r_, "zip")).ok());
}

TEST_F(RuleTest, NormalizedDropsWildcardCells) {
  PatternTuple tp(r_);
  tp.SetConst(A(r_, "type"), Value::Str("1"));
  tp.SetWildcard(A(r_, "city"));
  Result<EditingRule> rule = EditingRule::MakeByName(
      "n", r_, rm_, {"zip"}, {"zip"}, "AC", "AC", std::move(tp));
  ASSERT_TRUE(rule.ok());
  EditingRule norm = rule->Normalized();
  EXPECT_EQ(norm.pattern().size(), 1u);
  // Premise set shrinks accordingly but stays equivalent for matching.
  EXPECT_FALSE(norm.premise_set().Contains(A(r_, "city")));
  EXPECT_TRUE(rule->premise_set().Contains(A(r_, "city")));
}

TEST_F(RuleTest, PremiseSetIsLhsUnionPattern) {
  RuleSet rules = SupplierRules(r_, rm_);
  const EditingRule& phi6 = rules.at(5);
  AttrSet expected = testing_fixtures::Attrs(r_, {"AC", "phn", "type"});
  EXPECT_EQ(phi6.premise_set(), expected);
}

TEST_F(RuleTest, DirectnessClassification) {
  RuleSet rules = SupplierRules(r_, rm_);
  // phi1: no pattern -> direct. phi4: pattern on type (not in X) -> not.
  EXPECT_TRUE(rules.at(0).IsDirect());
  EXPECT_FALSE(rules.at(3).IsDirect());
  // phi6: pattern on {type, AC}, X = {AC, phn}: type not in X -> not.
  EXPECT_FALSE(rules.at(5).IsDirect());
  EXPECT_FALSE(rules.AllDirect());
}

TEST_F(RuleTest, RuleSetAggregates) {
  RuleSet rules = SupplierRules(r_, rm_);
  EXPECT_EQ(rules.size(), 9u);
  AttrSet lhs = rules.LhsUnion();
  EXPECT_TRUE(lhs.Contains(A(r_, "zip")));
  EXPECT_TRUE(lhs.Contains(A(r_, "phn")));
  EXPECT_TRUE(lhs.Contains(A(r_, "AC")));
  AttrSet rhs = rules.RhsUnion();
  EXPECT_TRUE(rhs.Contains(A(r_, "fn")));
  EXPECT_FALSE(rhs.Contains(A(r_, "item")));
  // item is mentioned nowhere in Sigma0.
  EXPECT_FALSE(rules.MentionedAttrs().Contains(A(r_, "item")));
}

TEST_F(RuleTest, RuleSetClosureChainsRules) {
  RuleSet rules = SupplierRules(r_, rm_);
  // zip fires phi1..phi3 (AC, str, city); AC alone enables nothing more
  // without phn/type.
  AttrSet zip;
  zip.Add(A(r_, "zip"));
  AttrSet want = zip;
  for (const char* a : {"AC", "str", "city"}) want.Add(A(r_, a));
  EXPECT_EQ(rules.Closure(zip), want);
  // {type, AC, phn} fires phi6..phi8 (str, city, zip); type=2 rules
  // phi4/phi5 have phn and type in their premise too (fn, ln).
  AttrSet z;
  for (const char* a : {"type", "AC", "phn"}) z.Add(A(r_, a));
  AttrSet closure = rules.Closure(z);
  for (const char* a : {"zip", "str", "city", "fn", "ln"}) {
    EXPECT_TRUE(closure.Contains(A(r_, a))) << a;
  }
  EXPECT_FALSE(closure.Contains(A(r_, "item")));
  // Nothing fires from the empty set; the full schema is a fixpoint.
  EXPECT_TRUE(rules.Closure(AttrSet{}).Empty());
  EXPECT_EQ(rules.Closure(r_->AllAttrs()), r_->AllAttrs());
}

TEST_F(RuleTest, RuleSetRulesReadingMasterAttrs) {
  RuleSet rules = SupplierRules(r_, rm_);
  // Master-side zip is read by phi1..phi3 (Xm) and phi8 (Bm).
  AttrSet zip;
  zip.Add(A(rm_, "zip"));
  EXPECT_EQ(rules.RulesReadingMasterAttrs(zip),
            (std::vector<size_t>{0, 1, 2, 7}));
  // DOB and gender feed no rule: a master delta there invalidates nothing.
  AttrSet irrelevant;
  irrelevant.Add(A(rm_, "DOB"));
  irrelevant.Add(A(rm_, "gender"));
  EXPECT_TRUE(rules.RulesReadingMasterAttrs(irrelevant).empty());
}

TEST_F(RuleTest, PatternConstants) {
  RuleSet rules = SupplierRules(r_, rm_);
  std::vector<Value> constants = rules.PatternConstants();
  bool has_0800 = false;
  bool has_2 = false;
  for (const Value& v : constants) {
    if (v == Value::Str("0800")) has_0800 = true;
    if (v == Value::Str("2")) has_2 = true;
  }
  EXPECT_TRUE(has_0800);
  EXPECT_TRUE(has_2);
}

TEST_F(RuleTest, RuleSetRejectsForeignSchema) {
  RuleSet rules(r_, rm_);
  SchemaPtr other = Schema::Make("Other", std::vector<std::string>{"x", "y"});
  Result<EditingRule> rule = EditingRule::MakeByName(
      "o", other, other, {"x"}, {"x"}, "y", "y", PatternTuple(other));
  ASSERT_TRUE(rule.ok());
  EXPECT_FALSE(rules.Add(std::move(rule).ValueOrDie()).ok());
}

}  // namespace
}  // namespace certfix
