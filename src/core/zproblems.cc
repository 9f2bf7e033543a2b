#include "core/zproblems.h"

#include <algorithm>
#include <functional>

namespace certfix {

AttrSet ZProblems::ForcedAttrs() const {
  const RuleSet& rules = sat_->rules();
  AttrSet all = rules.r_schema()->AllAttrs();
  AttrSet mentioned = rules.MentionedAttrs();
  AttrSet rhs = rules.RhsUnion();
  // Attributes no rule can ever fix must be validated by the user.
  return all.Minus(mentioned).Union(all.Intersect(mentioned).Minus(rhs));
}

Status ZProblems::ForEachCandidate(
    const std::vector<AttrId>& z, const ZOptions& opts,
    const std::function<bool(const PatternTuple&)>& fn) const {
  const RuleSet& rules = sat_->rules();
  const SchemaPtr& schema = rules.r_schema();
  AttrSet mentioned = rules.MentionedAttrs();
  std::set<Value> dom = ActiveDomain(rules, sat_->master());

  // Cell alternatives per Z attribute: wildcard for unmentioned attributes
  // (normalization (1) of Sect. 4.2); constants from dom plus one fresh
  // "variable" value, optionally negated, for mentioned ones (Prop 8).
  std::vector<AttrId> enum_attrs;
  std::vector<std::vector<PatternValue>> alts;
  size_t total = 1;
  size_t fresh_ordinal = 0;
  for (AttrId a : z) {
    if (!mentioned.Contains(a)) continue;  // stays wildcard
    std::vector<PatternValue> cell;
    for (const Value& v : dom) {
      cell.push_back(PatternValue::Const(v));
      if (opts.use_negations) cell.push_back(PatternValue::NegConst(v));
    }
    Value fresh = FreshValue(schema->attr_type(a), fresh_ordinal++, dom);
    cell.push_back(PatternValue::Const(fresh));
    if (cell.empty()) cell.push_back(PatternValue::Wildcard());
    if (total > opts.max_patterns / cell.size() + 1) {
      return Status::OutOfRange("Z-problem enumeration exceeds budget of " +
                                std::to_string(opts.max_patterns));
    }
    total *= cell.size();
    enum_attrs.push_back(a);
    alts.push_back(std::move(cell));
  }
  if (total > opts.max_patterns) {
    return Status::OutOfRange("Z-problem enumeration exceeds budget of " +
                              std::to_string(opts.max_patterns));
  }

  std::vector<size_t> pos(enum_attrs.size(), 0);
  while (true) {
    PatternTuple tc(schema);
    for (AttrId a : z) tc.SetWildcard(a);
    for (size_t i = 0; i < enum_attrs.size(); ++i) {
      tc.Set(enum_attrs[i], alts[i][pos[i]]);
    }
    if (!fn(tc)) return Status::OK();
    size_t i = 0;
    for (; i < pos.size(); ++i) {
      if (++pos[i] < alts[i].size()) break;
      pos[i] = 0;
    }
    if (i == pos.size()) break;
    if (pos.empty()) break;
  }
  return Status::OK();
}

Result<std::optional<PatternTuple>> ZProblems::Validate(
    const std::vector<AttrId>& z, const ZOptions& opts) const {
  // Quick necessary condition: the schema-level closure must cover R.
  if (sat_->rules().Closure(AttrSet::FromVector(z)) !=
      sat_->rules().r_schema()->AllAttrs()) {
    return std::optional<PatternTuple>();
  }
  CoverageChecker coverage(*sat_);
  std::optional<PatternTuple> found;
  Status pending = Status::OK();
  Status st = ForEachCandidate(z, opts, [&](const PatternTuple& tc) {
    Region region = Region::Of(sat_->rules().r_schema(), z);
    Status add = region.AddRow(tc);
    if (!add.ok()) return true;  // skip malformed candidate
    Result<bool> ok = coverage.IsCertainRegion(region, opts.max_instances);
    if (!ok.ok()) {
      pending = ok.status();
      return false;
    }
    if (*ok) {
      found = tc;
      return false;
    }
    return true;
  });
  CERTFIX_RETURN_NOT_OK(st);
  CERTFIX_RETURN_NOT_OK(pending);
  return found;
}

Result<size_t> ZProblems::Count(const std::vector<AttrId>& z,
                                const ZOptions& opts) const {
  if (sat_->rules().Closure(AttrSet::FromVector(z)) !=
      sat_->rules().r_schema()->AllAttrs()) {
    return static_cast<size_t>(0);
  }
  CoverageChecker coverage(*sat_);
  size_t count = 0;
  Status pending = Status::OK();
  Status st = ForEachCandidate(z, opts, [&](const PatternTuple& tc) {
    Region region = Region::Of(sat_->rules().r_schema(), z);
    Status add = region.AddRow(tc);
    if (!add.ok()) return true;
    Result<bool> ok = coverage.IsCertainRegion(region, opts.max_instances);
    if (!ok.ok()) {
      pending = ok.status();
      return false;
    }
    if (*ok) ++count;
    return true;
  });
  CERTFIX_RETURN_NOT_OK(st);
  CERTFIX_RETURN_NOT_OK(pending);
  return count;
}

Result<std::optional<std::vector<AttrId>>> ZProblems::MinimumExact(
    size_t k, const ZOptions& opts) const {
  const SchemaPtr& schema = sat_->rules().r_schema();
  AttrSet forced = ForcedAttrs();
  AttrSet optional_set = schema->AllAttrs().Minus(forced);
  std::vector<AttrId> optional = optional_set.ToVector();
  size_t base = static_cast<size_t>(forced.Count());
  if (base > k) return std::optional<std::vector<AttrId>>();
  if (optional.size() > 20) {
    return Status::OutOfRange("too many optional attributes for exact search");
  }
  // Enumerate optional subsets by increasing size.
  for (size_t extra = 0; base + extra <= k && extra <= optional.size();
       ++extra) {
    std::vector<bool> mask(optional.size(), false);
    std::fill(mask.end() - static_cast<long>(extra), mask.end(), true);
    do {
      std::vector<AttrId> z = forced.ToVector();
      for (size_t i = 0; i < optional.size(); ++i) {
        if (mask[i]) z.push_back(optional[i]);
      }
      std::sort(z.begin(), z.end());
      CERTFIX_ASSIGN_OR_RETURN(std::optional<PatternTuple> tc,
                               Validate(z, opts));
      if (tc.has_value()) return std::optional<std::vector<AttrId>>(z);
    } while (std::next_permutation(mask.begin(), mask.end()));
  }
  return std::optional<std::vector<AttrId>>();
}

std::vector<AttrId> ZProblems::MinimumGreedy() const {
  const SchemaPtr& schema = sat_->rules().r_schema();
  AttrSet all = schema->AllAttrs();
  AttrSet z = ForcedAttrs();
  // Greedy: add the attribute whose addition grows the closure most.
  while (sat_->rules().Closure(z) != all) {
    AttrId best = AttrSet::kMaxAttrs;
    int best_gain = -1;
    for (AttrId a = 0; a < schema->num_attrs(); ++a) {
      if (z.Contains(a)) continue;
      AttrSet z2 = z;
      z2.Add(a);
      int gain = sat_->rules().Closure(z2).Count();
      if (gain > best_gain) {
        best_gain = gain;
        best = a;
      }
    }
    if (best == AttrSet::kMaxAttrs) break;
    z.Add(best);
  }
  // Local minimization: drop redundant attributes (keep forced ones).
  AttrSet forced = ForcedAttrs();
  for (AttrId a : z.ToVector()) {
    if (forced.Contains(a)) continue;
    AttrSet z2 = z;
    z2.Remove(a);
    if (sat_->rules().Closure(z2) == all) z = z2;
  }
  return z.ToVector();
}

}  // namespace certfix
