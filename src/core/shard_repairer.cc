#include "core/shard_repairer.h"

namespace certfix {

namespace {
/// Rows staged per probe block: enough independent probes in flight to
/// cover DRAM latency, small enough to stay within L1 and the prefetch
/// queues.
constexpr size_t kProbeBlock = 32;
}  // namespace

std::vector<Value> ShardRepairer::Outcome::OwnedCells() const {
  const Tuple& emit = repair.report.conflicting() ? *row : repair.fixed;
  std::vector<Value> cells;
  cells.reserve(emit.size());
  for (size_t a = 0; a < emit.size(); ++a) {
    cells.push_back(emit.at(static_cast<AttrId>(a)));
  }
  return cells;
}

ShardRepairer::ShardRepairer(const Saturator& sat, AttrSet trusted,
                             bool use_memo, PoolPtr pool)
    : sat_(&sat),
      trusted_(trusted),
      all_(sat.rules().r_schema()->AllAttrs()),
      pool_(pool != nullptr ? std::move(pool)
                            : std::make_shared<ValuePool>()),
      bridge_(pool_.get(), sat.index().pool().get()),
      first_round_(sat.FirstRoundProbeRules(trusted)) {
  if (use_memo) memo_ = std::make_unique<RepairMemo>(sat.rules(), trusted);
  staged_.reserve(kProbeBlock);
}

size_t ShardRepairer::block_rows() { return kProbeBlock; }

void ShardRepairer::Rebind(const Saturator& sat) {
  sat_ = &sat;
  bridge_ = PoolBridge(pool_.get(), sat.index().pool().get());
  first_round_ = sat.FirstRoundProbeRules(trusted_);
}

bool ShardRepairer::RecycleIfOver(size_t budget) {
  if (pool_->size() <= budget) return false;
  pool_ = std::make_shared<ValuePool>();
  bridge_ = PoolBridge(pool_.get(), sat_->index().pool().get());
  if (memo_ != nullptr) memo_->Clear();  // keyed on the old pool's ids
  return true;
}

void ShardRepairer::StageRow(Tuple row) {
  if (memo_ != nullptr) memo_->Prefetch(row);
  sat_->index().PrefetchRhsProbes(row, first_round_, &bridge_);
  staged_.push_back(std::move(row));
}

void ShardRepairer::Resolve(size_t j, bool log_probes, Outcome* out) {
  out->row = &staged_[j];
  out->probes.Clear();
  const uint64_t hits_before = memo_hits();
  out->repair = RepairOneTuple(*sat_, staged_[j], trusted_, all_, &bridge_,
                               log_probes ? &out->probes : nullptr,
                               memo_.get());
  if (memo_ != nullptr) out->memo = memo_->hits() > hits_before ? 1 : 0;
}

Tuple ShardRepairer::MakeRow(std::vector<Value>& cells) const {
  Tuple row(sat_->rules().r_schema(), pool_);
  for (size_t a = 0; a < cells.size(); ++a) {
    row.Set(static_cast<AttrId>(a), std::move(cells[a]));
  }
  return row;
}

}  // namespace certfix
