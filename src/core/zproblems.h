/// \file zproblems.h
/// \brief The Z-validating, Z-counting, and Z-minimum problems (Sect. 4.2).
///
/// All three are intractable in general (NP-complete / #P-complete /
/// log-inapproximable; Thms 6, 9, 12, 17) but PTIME for a fixed Sigma
/// (Props 8, 11, 15). The exact solvers here enumerate candidate pattern
/// tuples over the active domain exactly as those proofs do, bounded by an
/// explicit budget; the greedy Z-minimum heuristic serves large rule sets.

#ifndef CERTFIX_CORE_ZPROBLEMS_H_
#define CERTFIX_CORE_ZPROBLEMS_H_

#include <optional>

#include "core/coverage.h"
#include "core/saturation.h"
#include "util/result.h"

namespace certfix {

/// \brief Options bounding the exact enumerations.
struct ZOptions {
  size_t max_patterns = 200000;    ///< candidate pattern tuples inspected
  size_t max_instances = 100000;   ///< per-pattern instantiation bound
  bool use_negations = true;       ///< enumerate `c̄` cells too (Prop 8)
};

/// \brief Solvers for the certain-region derivation problems.
class ZProblems {
 public:
  explicit ZProblems(const Saturator& sat) : sat_(&sat) {}

  /// Z-validating: is there a non-empty Tc making (Z, Tc) certain? If yes,
  /// returns one witness pattern tuple.
  Result<std::optional<PatternTuple>> Validate(const std::vector<AttrId>& z,
                                               const ZOptions& opts = {}) const;

  /// Z-counting: the number of distinct pattern tuples tc (normalized per
  /// Sect. 4.2: wildcards outside Sigma, constants from dom plus one
  /// variable) such that (Z, {tc}) is a certain region.
  Result<size_t> Count(const std::vector<AttrId>& z,
                       const ZOptions& opts = {}) const;

  /// Z-minimum, exact: smallest |Z| <= k admitting a certain region, found
  /// by subset enumeration over the rule-mentioned attributes (unmentioned
  /// attributes are always forced into Z). Returns the Z list, or nullopt.
  Result<std::optional<std::vector<AttrId>>> MinimumExact(
      size_t k, const ZOptions& opts = {}) const;

  /// Z-minimum, greedy heuristic (set-cover style; cf. Thm 17's
  /// inapproximability — no quality guarantee). Always returns a Z whose
  /// schema-level closure covers R; the caller validates certainty.
  std::vector<AttrId> MinimumGreedy() const;

  /// Attributes that must belong to every certain-region Z: those not
  /// mentioned in Sigma plus those never appearing as any rule's rhs.
  AttrSet ForcedAttrs() const;

 private:
  // Enumerates candidate patterns over Z; invokes fn(tc) per candidate and
  // stops early when fn returns false.
  Status ForEachCandidate(
      const std::vector<AttrId>& z, const ZOptions& opts,
      const std::function<bool(const PatternTuple&)>& fn) const;

  const Saturator* sat_;
};

}  // namespace certfix

#endif  // CERTFIX_CORE_ZPROBLEMS_H_
