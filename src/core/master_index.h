/// \file master_index.h
/// \brief Per-rule hash indexes into the master relation.

#ifndef CERTFIX_CORE_MASTER_INDEX_H_
#define CERTFIX_CORE_MASTER_INDEX_H_

#include <map>
#include <memory>
#include <vector>

#include "relational/flat_key_index.h"
#include "rules/rule_set.h"

namespace certfix {

/// \brief Indexes Dm so that, for each rule phi and input tuple t, the
/// master tuples tm with tm[Xm] = t[X] are found in constant time
/// (the hash tables of Sect. 5.1's complexity analysis).
///
/// Two structures per distinct key, both on flat open-addressing tables
/// (relational/flat_key_index.h):
///  * a row index (key -> master row positions), shared by rules with the
///    same Xm list;
///  * a value summary (key -> distinct tm[Bm] values with one
///    representative row), shared by rules with the same (Xm, Bm). The
///    saturation engine consumes summaries, so a key matching thousands of
///    master rows costs O(#distinct values), not O(#rows).
///
/// The sharing constructor reuses the structures of an existing index for
/// a refined rule set (e.g. Sigma_t[Z], whose rules keep their Xm/Bm),
/// avoiding any O(|Dm|) work per Suggest call.
///
/// Thread safety: all index structures are built in the constructor and
/// never mutated afterwards; Candidates / RhsValues are pure lookups, so
/// a fully constructed MasterIndex is safe for concurrent read-only use
/// (the parallel BatchRepair shards share one instance). A PoolBridge
/// passed to the probe calls is per-thread state owned by the caller.
class MasterIndex {
 public:
  /// One distinct rhs value tm[Bm] with its master-pool id and a
  /// representative master row carrying it. The id lets the saturation
  /// engine compare proposals as integers.
  struct RhsValue {
    Value value;
    ValueId id = kNullValueId;
    size_t row = 0;
  };
  using RhsSummary = std::vector<RhsValue>;

  MasterIndex(const RuleSet& rules, const Relation& dm);
  /// Shares row indexes and value summaries with `share_from` (must be
  /// built over the same Dm); only genuinely new
  /// (Xm, Bm) combinations are built fresh.
  MasterIndex(const RuleSet& rules, const Relation& dm,
              const MasterIndex& share_from);

  /// Master-row positions applicable to rule `rule_idx` given t's current
  /// values on lhs(phi) (pattern matching on t is the caller's concern).
  /// `bridge`, when given, must translate t's pool into the master pool.
  /// The span views index-owned storage and stays valid while the index
  /// lives.
  RowSpan Candidates(size_t rule_idx, const Tuple& t,
                     PoolBridge* bridge = nullptr) const;

  /// Distinct values tm[Bm] over the candidate rows, each with one
  /// representative row. Size > 1 means conflicting master proposals.
  const RhsSummary& RhsValues(size_t rule_idx, const Tuple& t,
                              PoolBridge* bridge = nullptr) const;

  /// Issues software prefetches for the value-summary buckets the given
  /// rules would probe on `t` — the staging half of the batched-probe
  /// pipeline. Callers pass the rules whose
  /// premises the trusted set already validates (round 1 of every
  /// saturation; see Saturator::FirstRoundProbeRules).
  void PrefetchRhsProbes(const Tuple& t, const std::vector<size_t>& rule_idxs,
                         PoolBridge* bridge = nullptr) const;

  const Relation& master() const { return *dm_; }
  /// The master relation's value pool (bridge targets point here).
  const PoolPtr& pool() const { return dm_->pool(); }
  size_t num_rules() const { return rule_to_index_.size(); }

 private:
  struct ValueIndex {
    // key (master-pool ids) -> distinct (value, id, representative row).
    FlatIdTable table;                  // key -> summaries slot
    std::vector<RhsSummary> summaries;  // payload target
    RhsSummary all_rows_summary;        // for empty-X rules
  };

  void Build(const RuleSet& rules, const MasterIndex* share_from);
  static std::shared_ptr<ValueIndex> BuildValueIndex(
      const Relation& dm, const std::vector<AttrId>& xm, AttrId bm);

  const Relation* dm_;
  std::vector<std::shared_ptr<FlatKeyIndex>> indexes_;
  std::vector<std::shared_ptr<ValueIndex>> value_indexes_;
  std::map<std::vector<AttrId>, int> key_ids_;
  std::map<std::pair<std::vector<AttrId>, AttrId>, int> value_ids_;
  std::vector<int> rule_to_index_;        // -1 for empty-X rules
  std::vector<int> rule_to_value_;        // always >= 0
  std::vector<std::vector<AttrId>> probe_;  // per-rule X list
  std::vector<size_t> all_rows_;            // used by empty-X rules
  static const RhsSummary kEmptySummary;
};

}  // namespace certfix

#endif  // CERTFIX_CORE_MASTER_INDEX_H_
