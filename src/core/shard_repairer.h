/// \file shard_repairer.h
/// \brief One shard's repair context, shared by the batch, stream and
/// delta engines: a shard-local ValuePool, its PoolBridge into the
/// master pool, a RepairMemo, and the software-pipelined loop
/// that stages a block of rows (prefetching memo and round-1 master
/// buckets) before resolving them in order with RepairOneTuple. The
/// engines differ only in where rows come from and where outcomes go.
///
/// Thread safety: none, and no threads — one per shard worker (or batch
/// row range); the Saturator is read-only.

#ifndef CERTFIX_CORE_SHARD_REPAIRER_H_
#define CERTFIX_CORE_SHARD_REPAIRER_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/repair_memo.h"

namespace certfix {

class ShardRepairer {
 public:
  /// One repaired row, handed to the resolve callback in stage order.
  struct Outcome {
    size_t index = 0;            ///< the row's position in the Run
    const Tuple* row = nullptr;  ///< staged input row (shard pool)
    TupleRepair repair;
    ProbeLog probes;             ///< filled only when the Run logs probes
    bool memo_hit = false;       ///< replayed from the memo

    /// The fix (the input on conflict) as owned values, free of the pool.
    std::vector<Value> OwnedCells() const;
  };

  /// Interns rows into `pool` (a fresh one when null), with a RepairMemo
  /// keyed on it.
  ShardRepairer(const Saturator& sat, AttrSet trusted, PoolPtr pool = nullptr);

  /// Rows per probe block: the batch size to hand Run.
  static size_t block_rows();

  /// Rebinds to a rebuilt Saturator (same rules and Z, new master): the
  /// pool and memo survive, the bridge and first-round rules are rebuilt.
  /// Flushing stale memo entries is the caller's job.
  void Rebind(const Saturator& sat);

  /// Once the pool holds more than `budget` values, swaps in an empty
  /// pool (new bridge, cleared memo); true if it did. Between Runs only —
  /// a reset mid-Run would mix pools within one staged block — so the
  /// budget may overshoot by one batch of values.
  bool RecycleIfOver(size_t budget);

  /// Repairs `n` rows in probe blocks: stage(i) returns row i built in
  /// the shard pool, then resolve(Outcome&) sees the outcomes in
  /// order 0..n-1. `log_probes` fills Outcome::probes with each repair's
  /// master-probe dependency set.
  template <typename StageFn, typename ResolveFn>
  void Run(size_t n, bool log_probes, StageFn&& stage, ResolveFn&& resolve) {
    const size_t block = block_rows();
    Outcome out;
    for (size_t base = 0; base < n; base += block) {
      const size_t m = std::min(block, n - base);
      staged_.clear();
      for (size_t j = 0; j < m; ++j) StageRow(stage(base + j));
      for (size_t j = 0; j < m; ++j) {
        Resolve(j, log_probes, &out);
        out.index = base + j;
        resolve(out);
      }
    }
    staged_.clear();
  }

  /// A row of `cells` (moved from) interned into the shard pool.
  Tuple MakeRow(std::vector<Value>& cells) const;

  RepairMemo* memo() { return &memo_; }
  uint64_t memo_hits() const { return memo_.hits(); }
  uint64_t memo_misses() const { return memo_.misses(); }

 private:
  /// Stage half: keeps `row` and prefetches its memo bucket and round-1
  /// master buckets.
  void StageRow(Tuple row);
  /// Resolve half: repairs staged row `j` into `*out`.
  void Resolve(size_t j, bool log_probes, Outcome* out);

  const Saturator* sat_;
  AttrSet trusted_;
  AttrSet all_;
  PoolPtr pool_;
  PoolBridge bridge_;
  RepairMemo memo_;
  std::vector<size_t> first_round_;  ///< rules round 1 probes from Z
  std::vector<Tuple> staged_;        ///< the block in flight, reused
};

}  // namespace certfix

#endif  // CERTFIX_CORE_SHARD_REPAIRER_H_
