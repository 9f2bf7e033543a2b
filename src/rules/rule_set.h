/// \file rule_set.h
/// \brief A set Sigma of editing rules over a fixed (R, Rm) pair.

#ifndef CERTFIX_RULES_RULE_SET_H_
#define CERTFIX_RULES_RULE_SET_H_

#include <string>
#include <vector>

#include "rules/editing_rule.h"

namespace certfix {

/// \brief Sigma: the rules plus aggregate attribute-set views
/// (lhs(Sigma), rhs(Sigma), ... per Sect. 2 Notations (2)).
class RuleSet {
 public:
  RuleSet() = default;
  RuleSet(SchemaPtr r, SchemaPtr rm) : r_(std::move(r)), rm_(std::move(rm)) {}

  Status Add(EditingRule rule);

  const SchemaPtr& r_schema() const { return r_; }
  const SchemaPtr& rm_schema() const { return rm_; }
  size_t size() const { return rules_.size(); }
  bool empty() const { return rules_.empty(); }
  const EditingRule& at(size_t i) const { return rules_[i]; }
  const std::vector<EditingRule>& rules() const { return rules_; }

  /// Union of lhs(phi) over phi in Sigma.
  AttrSet LhsUnion() const;
  /// Union of rhs(phi).
  AttrSet RhsUnion() const;
  /// Union of lhsp(phi).
  AttrSet PatternUnion() const;
  /// All R attributes mentioned anywhere in Sigma (Z_Sigma of Prop 15).
  AttrSet MentionedAttrs() const;

  /// Schema-level forward closure of `z` under Sigma: repeatedly adds
  /// rhs(phi) for every rule whose premises lie in the closure (master
  /// data ignored).
  AttrSet Closure(AttrSet z) const;

  /// Rules whose master side (Xm or Bm) reads any attribute in
  /// `master_attrs`, ascending. A master-data delta touching only
  /// attributes outside every rule's (Xm, Bm) cannot change any probe
  /// answer, so an empty result means the delta invalidates nothing
  /// (incremental engine, src/incremental/).
  std::vector<size_t> RulesReadingMasterAttrs(const AttrSet& master_attrs) const;

  /// Constants appearing in rule patterns.
  std::vector<Value> PatternConstants() const;

  /// Normalizes every rule (drops wildcard pattern cells).
  RuleSet Normalized() const;

  /// True if every rule is direct (Xp subset of X).
  bool AllDirect() const;

  std::string ToString() const;

  std::vector<EditingRule>::const_iterator begin() const {
    return rules_.begin();
  }
  std::vector<EditingRule>::const_iterator end() const {
    return rules_.end();
  }

 private:
  SchemaPtr r_;
  SchemaPtr rm_;
  std::vector<EditingRule> rules_;
};

}  // namespace certfix

#endif  // CERTFIX_RULES_RULE_SET_H_
