/// \file stream_metrics.h
/// \brief Monitoring counters of the streaming repair engine, backed by
/// the process-wide telemetry registry (telemetry/metrics.h).
///
/// Increments go straight to the registry's striped `stream.*` counters;
/// Snapshot() reads them relative to construction
/// (telemetry::BaselineCounters), so an instance reports exactly what
/// happened on *its* engine, exact once Finish() joins every worker.
/// max_reorder is a high-water mark, where subtraction is meaningless:
/// the instance keeps its own MaxGauge and mirrors it into the registry's
/// monotone `stream.max_reorder`.

#ifndef CERTFIX_STREAM_STREAM_METRICS_H_
#define CERTFIX_STREAM_STREAM_METRICS_H_

#include <array>
#include <cstddef>
#include <cstdint>

#include "core/repair_tuple.h"
#include "telemetry/metrics.h"

namespace certfix {

/// \brief Point-in-time copy of the stream counters (plain integers).
struct StreamSnapshot {
  uint64_t tuples_in = 0;       ///< tuples accepted by Push
  uint64_t tuples_out = 0;      ///< tuples emitted to the sink
  uint64_t fully_covered = 0;   ///< certain fix reached (covered = R)
  uint64_t partial = 0;         ///< some but not all attrs covered
  uint64_t untouched = 0;       ///< nothing beyond Z derivable
  uint64_t conflicting = 0;     ///< unique-fix check failed
  uint64_t cells_changed = 0;   ///< total attributes rewritten
  uint64_t backpressure_waits = 0;  ///< Push calls that blocked on a
                                    ///< full ring or in-flight window
  uint64_t pool_recycles = 0;   ///< shard pools reset (bounded memory)
  uint64_t max_reorder = 0;     ///< high-water mark of the merge buffer
  uint64_t memo_hits = 0;       ///< repairs replayed from a shard memo
  uint64_t memo_misses = 0;     ///< repairs computed (and memoized)
};

/// \brief Live engine counters; copyable only via Snapshot(). Binds to
/// the registry that is Global() at construction — construct the
/// engine inside any ScopedRegistry it should report to.
class StreamMetrics {
 public:
  StreamMetrics()
      : tuples_in_(Bind("stream.tuples_in", &StreamSnapshot::tuples_in)),
        tuples_out_(Bind("stream.tuples_out", &StreamSnapshot::tuples_out)),
        by_class_{Bind("stream.fully_covered", &StreamSnapshot::fully_covered),
                  Bind("stream.partial", &StreamSnapshot::partial),
                  Bind("stream.untouched", &StreamSnapshot::untouched),
                  Bind("stream.conflicting", &StreamSnapshot::conflicting)},
        cells_changed_(
            Bind("stream.cells_changed", &StreamSnapshot::cells_changed)),
        backpressure_waits_(Bind("stream.backpressure_waits",
                                 &StreamSnapshot::backpressure_waits)),
        pool_recycles_(
            Bind("stream.pool_recycles", &StreamSnapshot::pool_recycles)),
        memo_hits_(Bind("stream.memo_hits", &StreamSnapshot::memo_hits)),
        memo_misses_(
            Bind("stream.memo_misses", &StreamSnapshot::memo_misses)),
        max_reorder_global_(telemetry::Registry::Global()->GetMaxGauge(
            "stream.max_reorder")) {}

  void CountIn() { tuples_in_->Increment(); }
  void CountOut() { tuples_out_->Increment(); }
  /// Tallies one emitted tuple under its repair class.
  void CountClass(FixClass kind) {
    by_class_[static_cast<size_t>(kind)]->Increment();
  }
  void CountCellsChanged(uint64_t n) { cells_changed_->Add(n); }
  /// Folds in the shard runtime's window and ring waits (once the stream
  /// finishes).
  void AddBackpressureWaits(uint64_t n) { backpressure_waits_->Add(n); }
  void CountPoolRecycle() { pool_recycles_->Increment(); }
  /// Folds in a shard memo's hit/miss tallies (added once the stream
  /// finishes, so totals are exact after Finish).
  void AddMemoCounts(uint64_t hits, uint64_t misses) {
    memo_hits_->Add(hits);
    memo_misses_->Add(misses);
  }
  void NoteReorderDepth(uint64_t depth) {
    max_reorder_.Note(depth);
    max_reorder_global_->Note(depth);
  }

  StreamSnapshot Snapshot() const {
    StreamSnapshot s;
    baseline_.Fill(&s);
    s.max_reorder = max_reorder_.Value();
    return s;
  }

 private:
  telemetry::Counter* Bind(const char* name, uint64_t StreamSnapshot::*field) {
    return baseline_.BindCounter(name, field);
  }

  telemetry::BaselineCounters<StreamSnapshot> baseline_;
  telemetry::Counter* tuples_in_;
  telemetry::Counter* tuples_out_;
  std::array<telemetry::Counter*, 4> by_class_;  ///< indexed by FixClass
  telemetry::Counter* cells_changed_;
  telemetry::Counter* backpressure_waits_;
  telemetry::Counter* pool_recycles_;
  telemetry::Counter* memo_hits_;
  telemetry::Counter* memo_misses_;
  telemetry::MaxGauge* max_reorder_global_;
  telemetry::MaxGauge max_reorder_;  ///< this engine's own high-water mark
};

}  // namespace certfix

#endif  // CERTFIX_STREAM_STREAM_METRICS_H_
