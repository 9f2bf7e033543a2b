/// \file stream_repair.h
/// \brief Streaming point-of-entry repair engine: the paper's
/// data-monitoring reading of certain fixes (Sect. 1: correct tuples "at
/// the point of data entry", before errors propagate), as an online
/// subsystem over the batch machinery.
///
/// Tuples ride the shard runtime (stream/shard_runtime.h), routed by a
/// hash of their trusted cells t[Z]; each shard worker repairs its batch
/// through a ShardRepairer (core/shard_repairer.h), and completion emits
/// records to the StreamSink in input order. The output is therefore
/// byte-identical at any shard count, and identical to BatchRepair over
/// the same rows (both run RepairOneTuple). Push blocks while the
/// runtime's in-flight window is full, and each shard's ValuePool is
/// recycled past `pool_recycle_values`, so memory stays bounded.
///
/// Single-writer pool contract (value_pool.h): the master pool is shared
/// read-only; each shard interns into its own pool; records cross the
/// merge boundary as owned Values, never as pool-backed tuples.
///
/// Threading contract for callers: Push/PushStrings may be called from
/// multiple producer threads, but Finish must not run concurrently with
/// any Push. Sinks are called serialized, in order (sink.h).

#ifndef CERTFIX_STREAM_STREAM_REPAIR_H_
#define CERTFIX_STREAM_STREAM_REPAIR_H_

#include <cstdint>
#include <vector>

#include "analysis/analyze_mode.h"
#include "core/shard_repairer.h"
#include "stream/shard_runtime.h"
#include "stream/sink.h"
#include "stream/stream_metrics.h"
#include "util/status.h"

namespace certfix {

/// \brief Execution knobs for the streaming engine.
struct StreamOptions {
  /// Shard-worker count. 0 = one per hardware thread. Capped like
  /// ParallelFor at max(16, 2x hardware) — the cap never changes output,
  /// only routing.
  size_t num_shards = 1;
  /// Slots per shard ring; also sizes the in-flight window
  /// (num_shards * queue_capacity). At least 1.
  size_t queue_capacity = 256;
  /// Recycle a shard's ValuePool once it holds more than this many
  /// interned values. 0 recycles after every tuple (pathological but
  /// legal); the default keeps a shard's dictionary around a few MB on
  /// string-heavy streams.
  size_t pool_recycle_values = 1u << 16;
  /// Ruleset analysis at construction (analysis/analyzer.h): warn logs
  /// every diagnostic and proceeds; strict refuses the session — no
  /// workers are spawned, Push returns false, PushStrings and Finish
  /// surface the Inconsistent status with the conflict witness.
  AnalyzeMode analyze_first = AnalyzeMode::kOff;
  /// Per-shard repair memoization (core/repair_memo.h): repeated
  /// relevant projections — the hot paths of skewed streams — replay
  /// their recorded outcome instead of re-saturating. Output-invisible;
  /// hit/miss tallies surface in StreamSnapshot.
  bool use_memo = true;
};

/// \brief Long-lived online repair engine.
///
/// Construction spawns the shard workers; tuples flow as soon as they are
/// pushed; Finish() drains the pipeline and returns the final counters.
class StreamRepairEngine {
 public:
  /// `sat` and `sink` must outlive the engine. Every streamed tuple
  /// trusts its cells on `trusted` (the master-key attributes, e.g.
  /// verified ids — also the routing key).
  StreamRepairEngine(const Saturator& sat, AttrSet trusted,
                     StreamSink* sink, StreamOptions options = {});
  /// Finishes the stream if the caller did not (worker errors are
  /// swallowed here; call Finish() to observe them).
  ~StreamRepairEngine();

  StreamRepairEngine(const StreamRepairEngine&) = delete;
  StreamRepairEngine& operator=(const StreamRepairEngine&) = delete;

  /// Enqueues one tuple (cells copied out; `t`'s pool is not retained).
  /// Blocks while the engine is at capacity. Returns false — tuple not
  /// accepted — after Finish() or after a worker failed.
  bool Push(const Tuple& t);

  /// Parses `fields` against the schema (same typing as CSV loading) and
  /// pushes the resulting tuple. InvalidArgument on arity mismatch;
  /// Internal when the engine no longer accepts tuples.
  Status PushStrings(const std::vector<std::string>& fields);

  /// Closes ingress, drains every ring, joins the workers, and returns
  /// the final counters. Rethrows the first worker exception, if any.
  /// Idempotent; must not race with Push.
  StreamSnapshot Finish();

  /// Live counters (exact only after Finish; see stream_metrics.h).
  const StreamMetrics& metrics() const { return metrics_; }

  /// The analyze_first verdict from construction. OK unless the options
  /// asked for strict analysis and the ruleset was rejected, in which
  /// case the engine accepts no tuples and this carries the witness.
  const Status& precheck_status() const { return precheck_status_; }

  size_t num_shards() const { return runtime_.num_shards(); }
  const SchemaPtr& schema() const { return schema_; }

 private:
  /// One queued unit of work: the admission seq plus owned cell values.
  struct Item {
    uint64_t seq = 0;
    std::vector<Value> values;
  };

  bool PushItem(Item item);
  void RepairBatch(ShardRepairer& repairer, std::vector<Item>& batch);
  void Emit(const StreamRecord& record);

  SchemaPtr schema_;
  AttrSet trusted_;
  std::vector<AttrId> trusted_attrs_;   ///< routing key, ascending
  StreamSink* sink_;
  StreamOptions options_;
  StreamMetrics metrics_;
  Status precheck_status_;              ///< strict analyze_first verdict
  bool finished_ = false;

  std::vector<ShardRepairer> repairers_;  ///< one per shard
  ShardRuntime<Item, StreamRecord> runtime_;
};

}  // namespace certfix

#endif  // CERTFIX_STREAM_STREAM_REPAIR_H_
