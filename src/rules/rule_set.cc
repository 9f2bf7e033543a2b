#include "rules/rule_set.h"

#include <set>

namespace certfix {

Status RuleSet::Add(EditingRule rule) {
  if (r_ == nullptr) {
    r_ = rule.r_schema();
    rm_ = rule.rm_schema();
  } else if (!rule.r_schema()->Equals(*r_) || !rule.rm_schema()->Equals(*rm_)) {
    return Status::InvalidArgument("rule " + rule.name() +
                                   " is over different schemas");
  }
  rules_.push_back(std::move(rule));
  return Status::OK();
}

AttrSet RuleSet::LhsUnion() const {
  AttrSet s;
  for (const auto& r : rules_) s = s.Union(r.lhs_set());
  return s;
}

AttrSet RuleSet::RhsUnion() const {
  AttrSet s;
  for (const auto& r : rules_) s.Add(r.rhs());
  return s;
}

AttrSet RuleSet::PatternUnion() const {
  AttrSet s;
  for (const auto& r : rules_) s = s.Union(r.pattern_set());
  return s;
}

AttrSet RuleSet::MentionedAttrs() const {
  AttrSet s = LhsUnion().Union(RhsUnion()).Union(PatternUnion());
  return s;
}

AttrSet RuleSet::Closure(AttrSet z) const {
  bool changed = true;
  while (changed) {
    changed = false;
    for (const EditingRule& rule : rules_) {
      if (z.Contains(rule.rhs())) continue;
      if (rule.premise_set().SubsetOf(z)) {
        z.Add(rule.rhs());
        changed = true;
      }
    }
  }
  return z;
}

std::vector<size_t> RuleSet::RulesReadingMasterAttrs(
    const AttrSet& master_attrs) const {
  std::vector<size_t> out;
  for (size_t i = 0; i < rules_.size(); ++i) {
    const EditingRule& rule = rules_[i];
    AttrSet reads = AttrSet::FromVector(rule.lhsm());
    reads.Add(rule.rhsm());
    if (reads.Intersects(master_attrs)) out.push_back(i);
  }
  return out;
}

std::vector<Value> RuleSet::PatternConstants() const {
  std::set<Value> seen;
  for (const auto& r : rules_) {
    for (const auto& [attr, pv] : r.pattern().cells()) {
      (void)attr;
      if (!pv.is_wildcard()) seen.insert(pv.value());
    }
  }
  return std::vector<Value>(seen.begin(), seen.end());
}

RuleSet RuleSet::Normalized() const {
  RuleSet out(r_, rm_);
  for (const auto& r : rules_) {
    Status st = out.Add(r.Normalized());
    (void)st;  // cannot fail: schemas are unchanged
  }
  return out;
}

bool RuleSet::AllDirect() const {
  for (const auto& r : rules_) {
    if (!r.IsDirect()) return false;
  }
  return true;
}

std::string RuleSet::ToString() const {
  std::string out;
  for (const auto& r : rules_) {
    out += r.ToString();
    out += "\n";
  }
  return out;
}

}  // namespace certfix
