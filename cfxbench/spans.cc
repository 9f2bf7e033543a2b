#include "spans.h"

#include <chrono>
#include <cstdio>
#include <sstream>

namespace cfxbench {
namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kBench: return "bench";
    case Layer::kRelational: return "relational";
    case Layer::kRules: return "rules";
    case Layer::kCore: return "core";
    case Layer::kStream: return "stream";
    case Layer::kIncremental: return "incremental";
    case Layer::kStorage: return "storage";
    case Layer::kCheck: return "check";
  }
  return "?";
}

SpanRecorder& Recorder() {
  static SpanRecorder recorder;
  return recorder;
}

void SpanRecorder::Enable(std::string run_id) {
  run_id_ = std::move(run_id);
  stack_.clear();
  events_.clear();
  kept_per_name_.clear();
  self_ns_.fill(0);
  count_.fill(0);
  dropped_ = 0;
  origin_ns_ = NowNs();
  enabled_ = true;
}

void SpanRecorder::Open(Layer layer, const char* name) {
  int64_t slot = -1;
  if (++kept_per_name_[name] <= kMaxPerName) {
    slot = static_cast<int64_t>(events_.size());
    int64_t parent = stack_.empty() ? -1 : stack_.back().event;
    events_.push_back(Event{name, layer, 0, 0, parent});
  } else {
    ++dropped_;
  }
  stack_.push_back(Frame{layer, name, NowNs(), 0, slot});
}

void SpanRecorder::Close() {
  const uint64_t end = NowNs();
  Frame frame = stack_.back();
  stack_.pop_back();
  const uint64_t dur = end - frame.start_ns;
  const uint64_t self = dur > frame.child_ns ? dur - frame.child_ns : 0;
  self_ns_[static_cast<size_t>(frame.layer)] += self;
  ++count_[static_cast<size_t>(frame.layer)];
  if (!stack_.empty()) stack_.back().child_ns += dur;
  if (frame.event >= 0) {
    Event& e = events_[static_cast<size_t>(frame.event)];
    e.start_ns = frame.start_ns - origin_ns_;
    e.dur_ns = dur;
  }
}

std::string SpanRecorder::ChromeJson() const {
  std::ostringstream out;
  out << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
  char buf[64];
  for (size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\": \"" << e.name
        << "\", \"cat\": \"" << LayerName(e.layer) << "\", \"ph\": \"X\"";
    std::snprintf(buf, sizeof(buf), ", \"ts\": %.3f, \"dur\": %.3f",
                  e.start_ns / 1e3, e.dur_ns / 1e3);
    out << buf << ", \"pid\": 1, \"tid\": 1, \"args\": {\"id\": " << i
        << ", \"parent\": " << e.parent << ", \"run\": \"" << run_id_
        << "\"}}";
  }
  out << "\n]}\n";
  return out.str();
}

}  // namespace cfxbench
