#include "core/batch_repair.h"

#include <memory>

#include "analysis/analyzer.h"
#include "core/shard_repairer.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "util/thread_pool.h"

namespace certfix {

void BatchRepair::RepairRange(const Relation& data, AttrSet trusted,
                              size_t begin, size_t end,
                              const PoolPtr& local_pool,
                              ShardResult* out) const {
  CERTFIX_SPAN("batch.shard_repair");
  // One repairer for the whole range: every row's cells live in the same
  // pool (the shard-local one, or the input's on the sequential path), so
  // each distinct value is hashed into master-pool id space once.
  ShardRepairer repairer(*sat_, trusted, options_.use_memo,
                         local_pool != nullptr ? local_pool : data.pool());
  repairer.Run(
      end - begin, /*log_probes=*/false,
      [&](size_t j) {
        return local_pool != nullptr
                   ? data.at(begin + j).RebasedTo(local_pool)
                   : data.at(begin + j);
      },
      [&](ShardRepairer::Outcome& o) {
        const size_t i = begin + o.index;
        const FixReport& report = o.repair.report;
        switch (report.kind) {
          case FixClass::kConflicting:
            ++out->conflicting;
            out->conflict_rows.push_back(i);
            return;
          case FixClass::kFullyCovered:
            ++out->fully_covered;
            break;
          case FixClass::kPartial:
            ++out->partial;
            break;
          case FixClass::kUntouched:
            ++out->untouched;
            break;
        }
        out->cells_changed += report.cells_changed;
        if (report.cells_changed > 0) {
          out->changed.emplace_back(i, std::move(o.repair.fixed));
        }
      });
  out->memo_hits = repairer.memo_hits();
  out->memo_misses = repairer.memo_misses();
}

BatchRepairResult BatchRepair::Repair(const Relation& data,
                                      AttrSet trusted) const {
  BatchRepairResult result;
  result.repaired = data;

  size_t threads = options_.num_threads == 0 ? DefaultParallelism()
                                             : options_.num_threads;
  // Partition -> repair-shard -> deterministic merge. Shards are
  // contiguous row ranges; each worker interns into its own local pool
  // and fills its own ShardResult slot, so no pool is written
  // concurrently. Merging in shard order makes the output, counters, and
  // conflict_rows independent of scheduling. One thread is the original
  // sequential loop: one inline chunk, no rebase (rows keep interning
  // into the input pool).
  const size_t chunk_size = threads > 1 ? options_.chunk_size : 0;
  std::vector<ShardResult> shards(NumChunks(data.size(), threads, chunk_size));
  ParallelFor(data.size(), threads, chunk_size,
              [&](size_t chunk, size_t begin, size_t end) {
                PoolPtr local =
                    threads > 1 ? std::make_shared<ValuePool>() : nullptr;
                RepairRange(data, trusted, begin, end, local, &shards[chunk]);
              });
  CERTFIX_SPAN("batch.merge");
  for (ShardResult& s : shards) {
    result.tuples_fully_covered += s.fully_covered;
    result.tuples_partial += s.partial;
    result.tuples_untouched += s.untouched;
    result.tuples_conflicting += s.conflicting;
    result.cells_changed += s.cells_changed;
    result.memo_hits += s.memo_hits;
    result.memo_misses += s.memo_misses;
    result.conflict_rows.insert(result.conflict_rows.end(),
                                s.conflict_rows.begin(),
                                s.conflict_rows.end());
    // SetRow re-interns only cells that differ, so shard-local ids merge
    // into the output pool at cost proportional to the repair size.
    for (const auto& [row, fixed] : s.changed) {
      result.repaired.SetRow(row, fixed);
    }
  }
  // Fold run totals into the registry so `--metrics-json` mirrors the
  // result struct without threading a handle through the shard workers.
  telemetry::Registry* reg = telemetry::Registry::Global();
  reg->GetCounter("batch.rows")->Add(data.size());
  reg->GetCounter("batch.fully_covered")->Add(result.tuples_fully_covered);
  reg->GetCounter("batch.partial")->Add(result.tuples_partial);
  reg->GetCounter("batch.untouched")->Add(result.tuples_untouched);
  reg->GetCounter("batch.conflicting")->Add(result.tuples_conflicting);
  reg->GetCounter("batch.cells_changed")->Add(result.cells_changed);
  reg->GetCounter("batch.memo_hits")->Add(result.memo_hits);
  reg->GetCounter("batch.memo_misses")->Add(result.memo_misses);
  return result;
}

Result<BatchRepairResult> BatchRepair::RepairChecked(const Relation& data,
                                                     AttrSet trusted) const {
  CERTFIX_RETURN_IF_ERROR(
      GateRuleset(*sat_, trusted, options_.analyze_first, "BatchRepair"));
  return Repair(data, trusted);
}

}  // namespace certfix
