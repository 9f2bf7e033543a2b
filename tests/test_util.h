/// \file test_util.h
/// \brief Shared fixtures: the paper's running supplier example (Fig. 1,
/// Examples 1-15) and small helpers used across the test suite.

#ifndef CERTFIX_TESTS_TEST_UTIL_H_
#define CERTFIX_TESTS_TEST_UTIL_H_

#include <cassert>
#include <string>
#include <vector>

#include "core/repair_tuple.h"
#include "relational/relation.h"
#include "rules/rule_parser.h"
#include "rules/rule_set.h"

namespace certfix {
namespace testing_fixtures {

/// The supplier schema R of Fig. 1a.
inline SchemaPtr SupplierSchema() {
  return Schema::Make("Supplier",
                      std::vector<std::string>{"fn", "ln", "AC", "phn",
                                               "type", "str", "city", "zip",
                                               "item"});
}

/// The master schema Rm of Fig. 1b.
inline SchemaPtr SupplierMasterSchema() {
  return Schema::Make("Master",
                      std::vector<std::string>{"FN", "LN", "AC", "Hphn",
                                               "Mphn", "str", "city", "zip",
                                               "DOB", "gender"});
}

/// The master relation Dm of Fig. 1b (s1, s2).
inline Relation SupplierMaster(const SchemaPtr& rm) {
  Relation dm(rm);
  Status st = dm.AppendStrings({"Robert", "Brady", "131", "6884563",
                                "079172485", "51 Elm Row", "Edi",
                                "EH7 4AH", "11/11/55", "M"});
  assert(st.ok());
  st = dm.AppendStrings({"Mark", "Smith", "020", "6884563", "075568485",
                         "20 Baker St.", "Lnd", "NW1 6XE", "25/12/67",
                         "M"});
  assert(st.ok());
  (void)st;
  return dm;
}

/// Sigma0 = {phi1..phi9} of Example 11.
inline RuleSet SupplierRules(const SchemaPtr& r, const SchemaPtr& rm) {
  const char* text = R"(
    rule phi1: (zip | zip) -> (AC | AC)
    rule phi2: (zip | zip) -> (str | str)
    rule phi3: (zip | zip) -> (city | city)
    rule phi4: (phn | Mphn) -> (fn | FN) when type=2
    rule phi5: (phn | Mphn) -> (ln | LN) when type=2
    rule phi6: (AC, phn | AC, Hphn) -> (str | str) when type=1, AC!=0800
    rule phi7: (AC, phn | AC, Hphn) -> (city | city) when type=1, AC!=0800
    rule phi8: (AC, phn | AC, Hphn) -> (zip | zip) when type=1, AC!=0800
    rule phi9: (AC | AC) -> (city | city) when AC=0800
  )";
  Result<RuleSet> rules = ParseRules(text, r, rm);
  assert(rules.ok());
  return std::move(rules).ValueOrDie();
}

/// Input tuples t1..t4 of Fig. 1a. t2's missing str/zip are nulls.
inline Tuple T1(const SchemaPtr& r) {
  Result<Tuple> t = Tuple::FromStrings(
      r, {"Bob", "Brady", "020", "079172485", "2", "501 Elm St.", "Edi",
          "EH7 4AH", "CDs"});
  assert(t.ok());
  return std::move(t).ValueOrDie();
}
inline Tuple T1Truth(const SchemaPtr& r) {
  Result<Tuple> t = Tuple::FromStrings(
      r, {"Robert", "Brady", "131", "079172485", "2", "51 Elm Row", "Edi",
          "EH7 4AH", "CDs"});
  assert(t.ok());
  return std::move(t).ValueOrDie();
}
inline Tuple T2(const SchemaPtr& r) {
  Result<Tuple> t = Tuple::FromStrings(
      r, {"Mark", "Smith", "020", "6884563", "1", "", "Edi", "", "Books"});
  assert(t.ok());
  return std::move(t).ValueOrDie();
}
/// t3: AC and zip inconsistent (AC 020 belongs to s2, zip EH7 4AH to s1).
inline Tuple T3(const SchemaPtr& r) {
  Result<Tuple> t = Tuple::FromStrings(
      r, {"Mark", "Smith", "020", "6884563", "1", "20 Baker St.", "Lnd",
          "EH7 4AH", "DVDs"});
  assert(t.ok());
  return std::move(t).ValueOrDie();
}
/// t4: no rule/master combination applies.
inline Tuple T4(const SchemaPtr& r) {
  Result<Tuple> t = Tuple::FromStrings(
      r, {"Eva", "Jones", "0131", "9999999", "1", "5 Oak Ln", "Gla",
          "G1 1AA", "Pens"});
  assert(t.ok());
  return std::move(t).ValueOrDie();
}

/// AttrSet from attribute names.
inline AttrSet Attrs(const SchemaPtr& schema,
                     const std::vector<std::string>& names) {
  AttrSet s;
  for (const auto& n : names) {
    Result<AttrId> id = schema->IndexOf(n);
    assert(id.ok());
    s.Add(*id);
  }
  return s;
}

/// Attr id by name (asserting existence).
inline AttrId A(const SchemaPtr& schema, const std::string& name) {
  Result<AttrId> id = schema->IndexOf(name);
  assert(id.ok());
  return *id;
}

/// Brute-force index oracle: the rows of `rel` whose projection on
/// `attrs` equals `key` (positionally), ascending.
inline std::vector<size_t> BruteForceRows(const Relation& rel,
                                          const std::vector<AttrId>& attrs,
                                          const std::vector<Value>& key) {
  std::vector<size_t> rows;
  for (size_t i = 0; i < rel.size(); ++i) {
    bool match = true;
    for (size_t k = 0; k < attrs.size() && match; ++k) {
      match = rel.Cell(i, attrs[k]) == key[k];
    }
    if (match) rows.push_back(i);
  }
  return rows;
}

/// Memo-free end-to-end repair oracle: RepairOneTuple row by row, with no
/// memo, no shards and no ShardRepairer; a conflicting row keeps its
/// input. The engines must match its CSV bytes.
inline Relation ReferenceRepair(const Saturator& sat, const Relation& data,
                                AttrSet trusted) {
  Relation out(data.schema());
  const AttrSet all = data.schema()->AllAttrs();
  for (size_t i = 0; i < data.size(); ++i) {
    Tuple row = data.at(i);
    TupleRepair repair = RepairOneTuple(sat, row, trusted, all);
    Status st = out.Append(repair.report.conflicting() ? row : repair.fixed);
    assert(st.ok());
    (void)st;
  }
  return out;
}

}  // namespace testing_fixtures
}  // namespace certfix

#endif  // CERTFIX_TESTS_TEST_UTIL_H_
