#include "stream/stream_repair.h"

#include <stdexcept>

#include "analysis/analyzer.h"
#include "telemetry/trace.h"

namespace certfix {

StreamRepairEngine::StreamRepairEngine(const Saturator& sat, AttrSet trusted,
                                       StreamSink* sink,
                                       StreamOptions options)
    : schema_(sat.rules().r_schema()),
      trusted_(trusted),
      trusted_attrs_(trusted.ToVector()),
      sink_(sink),
      options_(options),
      runtime_(options.num_shards, options.queue_capacity,
               ShardRepairer::block_rows()) {
  // The analyze_first gate runs before any worker exists: a strict
  // rejection leaves the engine inert (no rings, no threads) with the
  // verdict in precheck_status_ — Push refuses, Finish rethrows.
  precheck_status_ = GateRuleset(sat, trusted_, options_.analyze_first,
                                 "StreamRepairEngine");
  if (!precheck_status_.ok()) {
    runtime_.Fail(std::make_exception_ptr(
        std::runtime_error(precheck_status_.ToString())));
    return;
  }
  runtime_.Start([this](size_t shard, std::vector<Item>& batch) {
    RepairBatch(repairers_[shard], batch);
  });
  // Workers reach repairers_ only with a popped job, and no job can be
  // pushed before this constructor returns.
  repairers_.reserve(runtime_.num_shards());
  for (size_t s = 0; s < runtime_.num_shards(); ++s) {
    repairers_.emplace_back(sat, trusted_);
  }
}

StreamRepairEngine::~StreamRepairEngine() {
  try {
    Finish();
  } catch (...) {
    // Worker errors surface from an explicit Finish(); a destructor has
    // nowhere to report them.
  }
}

bool StreamRepairEngine::PushItem(Item item) {
  CERTFIX_SPAN("stream.ingest");
  // FNV-1a over the master-key (trusted) cell hashes: tuples of one
  // entity land on one shard, keeping any future per-entity shard state
  // coherent. Routing never affects output — completion orders by seq —
  // so any hash is semantically safe here. An empty trusted set
  // degenerates to round-robin.
  auto route = [this](const Item& it) -> size_t {
    if (trusted_attrs_.empty()) return it.seq;
    size_t h = 1469598103934665603ULL;
    for (AttrId a : trusted_attrs_) {
      h ^= it.values[a].Hash();
      h *= 1099511628211ULL;
    }
    return h;
  };
  if (!runtime_.Push(std::move(item), route)) return false;
  metrics_.CountIn();
  return true;
}

bool StreamRepairEngine::Push(const Tuple& t) {
  Item item;
  item.values.reserve(schema_->num_attrs());
  for (size_t a = 0; a < schema_->num_attrs(); ++a) {
    item.values.push_back(t.at(static_cast<AttrId>(a)));
  }
  return PushItem(std::move(item));
}

Status StreamRepairEngine::PushStrings(
    const std::vector<std::string>& fields) {
  if (fields.size() != schema_->num_attrs()) {
    return Status::InvalidArgument(
        "field count " + std::to_string(fields.size()) +
        " does not match schema arity " +
        std::to_string(schema_->num_attrs()));
  }
  Item item;
  item.values.reserve(fields.size());
  for (size_t a = 0; a < fields.size(); ++a) {
    item.values.push_back(
        Value::Parse(fields[a], schema_->attr_type(static_cast<AttrId>(a))));
  }
  if (!PushItem(std::move(item))) {
    if (!precheck_status_.ok()) return precheck_status_;
    return Status::Internal("stream engine is finished or failed");
  }
  return Status::OK();
}

void StreamRepairEngine::RepairBatch(ShardRepairer& repairer,
                                     std::vector<Item>& batch) {
  CERTFIX_SPAN("stream.shard_repair");
  if (repairer.RecycleIfOver(options_.pool_recycle_values)) {
    metrics_.CountPoolRecycle();
  }
  repairer.Run(
      batch.size(), /*log_probes=*/false,
      [&](size_t i) { return repairer.MakeRow(batch[i].values); },
      [&](ShardRepairer::Outcome& o) {
        StreamRecord record{batch[o.index].seq, o.OwnedCells(),
                            o.repair.report};
        CERTFIX_SPAN("stream.merge");
        runtime_.Complete(std::move(record),
                          [this](StreamRecord& r) { Emit(r); });
      });
}

void StreamRepairEngine::Emit(const StreamRecord& r) {
  {
    CERTFIX_SPAN("stream.sink");
    sink_->Emit(r);
  }
  metrics_.CountOut();
  metrics_.CountCellsChanged(r.report.cells_changed);
  metrics_.CountClass(r.report.kind);
}

StreamSnapshot StreamRepairEngine::Finish() {
  if (!finished_) {
    runtime_.Close();
    metrics_.AddBackpressureWaits(runtime_.backpressure_waits());
    metrics_.NoteReorderDepth(runtime_.max_reorder());
    for (const ShardRepairer& r : repairers_) {
      metrics_.AddMemoCounts(r.memo_hits(), r.memo_misses());
    }
    finished_ = true;
  }
  if (std::exception_ptr error = runtime_.TakeError()) {
    std::rethrow_exception(error);
  }
  return metrics_.Snapshot();
}

}  // namespace certfix
