/// \file spans.h
/// \brief Benchmark-side span recorder for the traced run.
///
/// The benchmark wraps each call it makes into a layer's public function
/// in a Span. Spans nest on the calling thread: a span's self time is its
/// duration minus the time its child spans cover, and each layer's self
/// time is summed as spans close, so per-layer totals stay exact even
/// though the trace file keeps only the first kMaxPerName spans of each
/// name (per-row calls would otherwise make it hundreds of MB). The root
/// span of a pass belongs to Layer::kBench; its self time is the wall
/// time no layer span covers. Oracle checks and bookkeeping run under
/// Layer::kCheck spans so they count toward neither.
///
/// Only the benchmark's own thread records spans (the product's worker
/// threads are not instrumented here). When the recorder is disabled a
/// Span costs one branch.

#ifndef CFXBENCH_SPANS_H_
#define CFXBENCH_SPANS_H_

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace cfxbench {

/// Layers, named after the product's source modules.
enum class Layer : uint8_t {
  kBench,        ///< benchmark code between layer calls (unattributed)
  kRelational,   ///< CSV parse/write, value interning
  kRules,        ///< rule DSL parse
  kCore,         ///< master index, unique-fix check, memo, batch repair
  kStream,       ///< stream admission, queue hop, ordered merge, sink
  kIncremental,  ///< delta engine and durable session
  kStorage,      ///< WAL, columnar snapshots, recovery scan
  kCheck,        ///< the benchmark's own oracles and bookkeeping
};
inline constexpr size_t kNumLayers = 8;

const char* LayerName(Layer layer);

class SpanRecorder {
 public:
  /// Spans of one name kept for the trace file; later ones still count
  /// toward the per-layer totals but are not written out.
  static constexpr uint32_t kMaxPerName = 2000;

  /// Clears everything and starts recording spans tagged with `run_id`.
  void Enable(std::string run_id);
  void Disable() { enabled_ = false; }
  bool enabled() const { return enabled_; }

  void Open(Layer layer, const char* name);
  void Close();

  /// Self time per layer, in seconds, over all closed spans.
  double self_seconds(Layer layer) const {
    return self_ns_[static_cast<size_t>(layer)] * 1e-9;
  }
  uint64_t spans(Layer layer) const {
    return count_[static_cast<size_t>(layer)];
  }
  uint64_t dropped() const { return dropped_; }

  /// Chrome trace-event JSON ("X" complete events; args carry the layer,
  /// the parent span id and the run id). Opens in Perfetto.
  std::string ChromeJson() const;

 private:
  struct Event {
    const char* name;
    Layer layer;
    uint64_t start_ns;
    uint64_t dur_ns;
    int64_t parent;  ///< index into events_, -1 for a root or unkept
  };
  struct Frame {
    Layer layer;
    const char* name;
    uint64_t start_ns;
    uint64_t child_ns;
    int64_t event;  ///< reserved slot in events_, -1 when not kept
  };

  bool enabled_ = false;
  std::string run_id_;
  uint64_t origin_ns_ = 0;
  std::vector<Frame> stack_;
  std::vector<Event> events_;
  std::unordered_map<const char*, uint32_t> kept_per_name_;
  std::array<uint64_t, kNumLayers> self_ns_{};
  std::array<uint64_t, kNumLayers> count_{};
  uint64_t dropped_ = 0;
};

/// The process's recorder (the benchmark is single-threaded on its side).
SpanRecorder& Recorder();

/// RAII span around one call into a layer.
class Span {
 public:
  Span(Layer layer, const char* name) : on_(Recorder().enabled()) {
    if (on_) Recorder().Open(layer, name);
  }
  ~Span() {
    if (on_) Recorder().Close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool on_;
};

}  // namespace cfxbench

#endif  // CFXBENCH_SPANS_H_
