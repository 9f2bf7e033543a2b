/// \file main.cc
/// \brief End-to-end benchmark of the three CerFix engines on one seeded
/// workload: batch repair from CSV bytes to CSV bytes, streaming repair
/// from a CSV producer, and a durable delta session with recovery.
///
/// Usage (normally through run.py, which builds this binary first):
///
///   cfxbench --workload batch-cold --seed 1 --seconds 10 --trace 0
///            [--workloads-dir cfxbench/workloads] [--out-dir DIR]
///            [--scale F] [--git-sha SHA]
///
/// Every workload runs the same pipeline (set-up, batch, stream, durable)
/// over its own scenario shape, so every end-to-end metric is measured on
/// every workload and each optimisation has a workload that exercises it
/// and one that bypasses it (README.md has the table). --trace 0 prints
/// the end-to-end metrics, measured with tracing off. --trace 1 runs the
/// pipeline untraced, then again with benchmark-side spans around every
/// call into a product layer, adds the per-layer probes, writes the spans
/// as Chrome trace-event JSON and prints the per-layer metrics.
///
/// Each output is checked against an oracle; a divergence prints
/// "correct": false and exits 1. Set-up or product errors exit 2 without
/// a result line.

#include <malloc.h>
#include <sys/resource.h>
#include <sys/statfs.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/batch_repair.h"
#include "core/master_index.h"
#include "core/repair_memo.h"
#include "core/repair_tuple.h"
#include "incremental/delta_repair.h"
#include "incremental/durable_session.h"
#include "relational/csv.h"
#include "relational/csv_stream.h"
#include "rules/rule_parser.h"
#include "spans.h"
#include "storage/columnar.h"
#include "storage/wal.h"
#include "stream/delta_source.h"
#include "stream/sink.h"
#include "stream/stream_repair.h"
#include "workload.h"

namespace cfxbench {
namespace {

namespace fs = std::filesystem;
using certfix::AttrSet;
using certfix::Delta;
using certfix::Relation;
using certfix::Result;
using certfix::Status;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Small utilities.

/// A product call failed where the workload guarantees success.
struct BenchError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

void Must(const Status& st, const char* what) {
  if (!st.ok()) throw BenchError(std::string(what) + ": " + st.ToString());
}

template <typename T>
T Must(Result<T> r, const char* what) {
  if (!r.ok()) {
    throw BenchError(std::string(what) + ": " + r.status().ToString());
  }
  return std::move(r).ValueOrDie();
}

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median with interpolation between the middle pair (Python's
/// statistics.median).
double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
  return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
}

std::string CsvBytes(const Relation& rel) {
  std::ostringstream out;
  Must(certfix::WriteCsv(rel, out), "WriteCsv");
  return out.str();
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

uint64_t FileBytes(const std::string& path) { return fs::file_size(path); }

/// Peak RSS since the last ResetPeakRss(), in MiB (VmHWM).
double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;
}

/// Returns freed heap to the kernel and resets VmHWM to the resulting
/// RSS, so the next PeakRssMiB() covers what runs in between on top of
/// the live data, not on top of whatever earlier iterations left cached.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

std::string FsName(const std::string& dir) {
  struct statfs st {};
  if (statfs(dir.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%lx",
                static_cast<unsigned long>(st.f_type));
  return buf;
}

/// Cumulative (steal, total) jiffies of all CPUs, from /proc/stat.
std::pair<uint64_t, uint64_t> CpuStealJiffies() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  uint64_t field = 0, total = 0, steal = 0;
  for (int i = 0; i < 10 && stat >> field; ++i) {
    total += field;
    if (i == 7) steal = field;
  }
  return {steal, total};
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t b = line.find_first_not_of(' ', colon + 1);
        return b == std::string::npos ? "" : line.substr(b);
      }
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------------------
// Measurements of one pass over the pipeline.

/// Exact, seed-determined counts; two runs of one seed must agree.
struct Counts {
  uint64_t fully_covered = 0, partial = 0, untouched = 0, conflicting = 0;
  uint64_t cells_changed = 0;
  uint64_t batch_memo_hits = 0, batch_memo_misses = 0;
  uint64_t stream_memo_hits = 0, stream_memo_misses = 0;
  uint64_t stream_pool_recycles = 0;
  uint64_t delta_repairs = 0, invalidations = 0, master_rebuilds = 0;
  uint64_t durable_conflicting = 0, durable_rows = 0;
  uint64_t session_bytes = 0, wal_tail_bytes = 0;

  std::string Json() const {
    std::ostringstream o;
    o << "{\"fully_covered\": " << fully_covered << ", \"partial\": "
      << partial << ", \"untouched\": " << untouched
      << ", \"conflicting\": " << conflicting
      << ", \"cells_changed\": " << cells_changed
      << ", \"batch_memo_hits\": " << batch_memo_hits
      << ", \"batch_memo_misses\": " << batch_memo_misses
      << ", \"stream_memo_hits\": " << stream_memo_hits
      << ", \"stream_memo_misses\": " << stream_memo_misses
      << ", \"stream_pool_recycles\": " << stream_pool_recycles
      << ", \"delta_repairs\": " << delta_repairs
      << ", \"invalidations\": " << invalidations
      << ", \"master_rebuilds\": " << master_rebuilds
      << ", \"durable_conflicting\": " << durable_conflicting
      << ", \"durable_rows\": " << durable_rows
      << ", \"session_bytes\": " << session_bytes
      << ", \"wal_tail_bytes\": " << wal_tail_bytes << "}";
    return o.str();
  }
};

struct PassResult {
  double wall_s = 0;   ///< pass wall time less check_s
  double check_s = 0;  ///< oracles, bookkeeping, durable log generation
  std::vector<double> setup_engine_s;   ///< ReadCsv + ParseRules + index
  std::vector<double> setup_durable_s;  ///< ReadCsv + ParseRules + Create
  std::vector<double> batch_rows_per_s;
  std::vector<double> stream_rows_per_s;
  std::vector<double> deltas_per_s;     ///< first Apply to final Flush
  // I/U/D Apply-latency percentiles of each durable iteration (over 1k
  // samples each, so 10+ beyond p99); the metrics are their medians, so a
  // burst of outside load spoils a few iterations rather than the pooled
  // tail. A log holds only a few dozen master deltas, so their latencies
  // are pooled over the pass to keep 10+ samples beyond p90.
  std::vector<double> ack_p50_us, ack_p99_us;
  uint64_t ack_samples = 0;
  std::vector<double> master_ack_ms;
  std::vector<double> recover_s;
  std::vector<double> bytes_per_user_byte;
  // Per-layer timings (meaningful in the traced pass).
  std::vector<double> rules_parse_s, index_build_s, repair_s, csv_write_s;
  std::vector<double> producer_parse_s, push_s, finish_s, flush_s;
  double csv_parse_s = 0;
  uint64_t csv_parse_bytes = 0;
  uint64_t backpressure_waits = 0;
  std::vector<double> snapshot_read_mb_per_s, wal_scan_s, recover_rest_s;
  /// Peak RSS of each iteration, per phase.
  std::vector<double> peak_rss_mb[3];
  /// Phases in the order they ran (kBatch / kStream / kDurable).
  std::vector<int> sequence;
  size_t iters[3] = {0, 0, 0};
  Counts counts;
};

enum Phase { kBatch = 0, kStream = 1, kDurable = 2 };

/// Share of a pass's time each phase gets.
constexpr double kPhaseShare[3] = {0.2, 0.2, 0.6};

/// Iteration plan: interleave whole phase iterations until `seconds` are
/// spent, or replay another pass's `sequence` exactly.
struct Plan {
  double seconds = 0;
  std::vector<int> replay;
};

constexpr size_t kSetupReps = 9;
/// Recoveries of each durable iteration's closed session.
constexpr size_t kRecoverReps = 2;

// Parallelism of every workload: the load comes from one process with at
// most four product threads (the stream and delta engines' shards run
// beside the benchmark's producer or caller thread). The durable session
// runs two shards beside its caller, so a core stays free: beside a
// busy-loop process (1% master deltas, fsync per append), two shards lost
// 9% of deltas.per_s where three lost 27%.
constexpr size_t kBatchThreads = 4;
constexpr size_t kStreamShards = 3;
constexpr size_t kDeltaShards = 2;

/// Times the benchmark's own checking and bookkeeping into `*total`, so
/// a pass can leave it out of its wall time, and records it as a kCheck
/// span in the traced pass so it stays out of every layer's share.
class CheckTimer {
 public:
  explicit CheckTimer(double* total)
      : total_(total), span_(Layer::kCheck, "check"), t0_(Clock::now()) {}
  ~CheckTimer() { *total_ += Since(t0_); }
  CheckTimer(const CheckTimer&) = delete;
  CheckTimer& operator=(const CheckTimer&) = delete;

 private:
  double* total_;
  Span span_;
  Clock::time_point t0_;
};

struct Engine {
  Relation master;
  certfix::RuleSet rules;
  std::unique_ptr<certfix::MasterIndex> index;
  std::unique_ptr<certfix::Saturator> sat;
};

class Bench {
 public:
  Bench(WorkloadFile file, Inputs inputs, std::string out_dir)
      : file_(std::move(file)), in_(std::move(inputs)),
        out_dir_(std::move(out_dir)) {}

  PassResult RunPass(const Plan& plan);

  // Per-layer probes (traced run only).
  void ProbeRepairLatency(std::vector<double>* miss_us,
                          std::vector<double>* hit_ns);
  void ProbeOpenLoop(double rate, std::vector<double>* lat_us,
                     std::vector<double>* lag_us);
  void ProbeDeltaApply(std::vector<double> per_kind_us[4],
                       double* repairs_per_delta,
                       double* invalidated_per_master, double* rebuilds);
  void ProbeWal(std::vector<double>* append_us, std::vector<double>* sync_us,
                double* bytes_per_delta);
  void ProbeSnapshotWrite(double* mb_per_s, double* bytes_per_csv_byte);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const { return divergences_.empty(); }
  const std::vector<std::string>& divergences() const { return divergences_; }

  /// The k-th durable log with its oracle bytes: from-scratch BatchRepair
  /// over the final state ApplyDeltaLog derives from the same log (the
  /// bench_scenarios oracle). Generated on first use, outside any timing.
  /// Log 0 (warm-up and probes) stays cached; any other log replaces the
  /// one before it, so memory does not grow with a run's iterations.
  struct OracleLog {
    size_t k = 0;
    DurableLog log;
    std::string want;
  };
  const OracleLog& Log(size_t k);

 private:
  std::unique_ptr<Engine> SetUp(PassResult* r);
  /// ReadCsv over generated bytes; `what` names the input in errors.
  Relation ReadRelation(const std::string& csv, const char* what) const {
    std::istringstream in(csv);
    return Must(certfix::ReadCsv(in_.schema, in), what);
  }
  certfix::RuleSet ReadRules() const {
    return Must(certfix::ParseRules(in_.rules_dsl, in_.schema, in_.schema),
                "ParseRules");
  }
  void BatchIteration(const Engine& e, PassResult* r);
  void StreamIteration(const Engine& e, PassResult* r);
  void DurableIteration(PassResult* r, size_t k);
  void Diverged(const std::string& what) {
    if (divergences_.size() < 16) divergences_.push_back(what);
  }

  WorkloadFile file_;
  Inputs in_;
  std::string out_dir_;
  std::string batch_want_;    ///< first batch output; later ones must match
  std::unique_ptr<OracleLog> log0_, last_log_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> divergences_;
};

certfix::DurableOptions DurableOpts(const BenchSizes& sizes) {
  certfix::DurableOptions opts;
  opts.engine.num_shards = kDeltaShards;
  opts.snapshot_every = sizes.snapshot_every;
  // Each delta is appended to the WAL before it is applied, but not
  // fsync'd: on a shared virtual disk the fsync latency follows the other
  // tenants' load (input-ack p50 rose 40-80% in runs where the hypervisor
  // took 5-11% of the CPU, while the batch and stream rates lost 7-10%),
  // so the acks would measure the disk rather than the program. The
  // storage.wal_sync_us probe times the fsync on its own; snapshots and
  // the manifest are still fsync'd.
  opts.sync_every_append = false;
  return opts;
}

const Bench::OracleLog& Bench::Log(size_t k) {
  std::unique_ptr<OracleLog>& slot = k == 0 ? log0_ : last_log_;
  if (!slot || slot->k != k) {
    auto entry = std::make_unique<OracleLog>();
    entry->k = k;
    entry->log = Must(GenerateDurableLog(file_, k), "generate log");
    const certfix::Scenario& sc = entry->log.scenario;
    std::vector<std::vector<std::string>> input_rows =
        certfix::RenderRows(sc.initial);
    std::vector<std::vector<std::string>> master_rows =
        certfix::RenderRows(sc.master);
    Must(certfix::ApplyDeltaLog(sc.deltas, &input_rows, &master_rows),
         "ApplyDeltaLog");
    Relation final_input =
        Must(certfix::RelationFromRows(sc.schema, input_rows), "final input");
    Relation final_master = Must(
        certfix::RelationFromRows(sc.schema, master_rows), "final master");
    certfix::MasterIndex index(sc.rules, final_master);
    certfix::Saturator sat(sc.rules, final_master, index);
    certfix::RepairOptions opts;
    opts.num_threads = kBatchThreads;
    entry->want = CsvBytes(
        certfix::BatchRepair(sat, opts).Repair(final_input, sc.trusted)
            .repaired);
    slot = std::move(entry);
  }
  return *slot;
}

std::unique_ptr<Engine> Bench::SetUp(PassResult* r) {
  auto t0 = Clock::now();
  auto e = std::make_unique<Engine>();
  {
    Span s(Layer::kRelational, "ReadCsv(master)");
    e->master = ReadRelation(in_.master_csv, "ReadCsv(master)");
  }
  r->csv_parse_s += Since(t0);
  r->csv_parse_bytes += in_.master_csv.size();
  auto tr = Clock::now();
  {
    Span s(Layer::kRules, "ParseRules");
    e->rules = ReadRules();
  }
  r->rules_parse_s.push_back(Since(tr));
  auto ti = Clock::now();
  {
    Span s(Layer::kCore, "MasterIndex");
    e->index = std::make_unique<certfix::MasterIndex>(e->rules, e->master);
    e->sat = std::make_unique<certfix::Saturator>(e->rules, e->master,
                                                  *e->index);
  }
  r->index_build_s.push_back(Since(ti));
  r->setup_engine_s.push_back(Since(t0));
  return e;
}

void Bench::BatchIteration(const Engine& e, PassResult* r) {
  auto t0 = Clock::now();
  Relation input;
  {
    Span s(Layer::kRelational, "ReadCsv(input)");
    input = ReadRelation(in_.input_csv, "ReadCsv(input)");
  }
  auto t1 = Clock::now();
  certfix::RepairOptions opts;
  opts.num_threads = kBatchThreads;
  certfix::BatchRepairResult res;
  {
    Span s(Layer::kCore, "BatchRepair::Repair");
    res = certfix::BatchRepair(*e.sat, opts).Repair(input, in_.trusted);
  }
  auto t2 = Clock::now();
  std::ostringstream out;
  {
    Span s(Layer::kRelational, "WriteCsv");
    Must(certfix::WriteCsv(res.repaired, out), "WriteCsv");
  }
  const double total = Since(t0);
  r->csv_parse_s += std::chrono::duration<double>(t1 - t0).count();
  r->csv_parse_bytes += in_.input_csv.size();
  r->repair_s.push_back(std::chrono::duration<double>(t2 - t1).count());
  r->csv_write_s.push_back(Since(t2));
  r->batch_rows_per_s.push_back(input.size() / total);
  attempted_ += input.size();

  Counts& c = r->counts;
  c.fully_covered = res.tuples_fully_covered;
  c.partial = res.tuples_partial;
  c.untouched = res.tuples_untouched;
  c.conflicting = res.tuples_conflicting;
  c.cells_changed = res.cells_changed;
  c.batch_memo_hits = res.memo_hits;
  c.batch_memo_misses = res.memo_misses;

  CheckTimer check(&r->check_s);
  std::string got = out.str();
  if (batch_want_.empty()) {
    batch_want_ = std::move(got);
  } else if (got != batch_want_) {
    Diverged("batch: output differs between iterations");
    ++failed_;
  }
  {
    // Oracle: a fixed 1% sample re-repaired alone, with no memo, must
    // match the batch output row for row.
    const AttrSet all = in_.schema->AllAttrs();
    for (size_t i = 0; i < input.size(); i += 100) {
      certfix::Tuple row = input.at(i);
      certfix::TupleRepair one =
          certfix::RepairOneTuple(*e.sat, row, in_.trusted, all);
      const certfix::Tuple& want = one.report.conflicting() ? row : one.fixed;
      if (!(res.repaired.at(i) == want)) {
        Diverged("batch: row " + std::to_string(i) +
                 " differs from RepairOneTuple");
        ++failed_;
      }
    }
  }
}

void Bench::StreamIteration(const Engine& e, PassResult* r) {
  std::istringstream in(in_.input_csv);
  certfix::CsvTupleSource source(in_.schema, in);
  std::ostringstream out;
  certfix::CsvStreamSink sink(in_.schema, out);
  certfix::StreamOptions opts;
  opts.num_shards = kStreamShards;
  std::unique_ptr<certfix::StreamRepairEngine> engine;
  {
    Span s(Layer::kStream, "StreamRepairEngine()");
    engine = std::make_unique<certfix::StreamRepairEngine>(*e.sat, in_.trusted,
                                                           &sink, opts);
  }
  std::vector<std::string> fields;
  uint64_t rows = 0;
  double parse_s = 0, push_s = 0;
  const bool timed_calls = Recorder().enabled();
  auto t0 = Clock::now();
  for (;;) {
    bool got = false;
    {
      Span s(Layer::kRelational, "CsvTupleSource::Next");
      auto tn = timed_calls ? Clock::now() : Clock::time_point();
      got = Must(source.Next(&fields), "CsvTupleSource::Next");
      if (timed_calls) parse_s += Since(tn);
    }
    if (!got) break;
    ++rows;
    Status st;
    {
      Span s(Layer::kStream, "PushStrings");
      auto tp = timed_calls ? Clock::now() : Clock::time_point();
      st = engine->PushStrings(fields);
      if (timed_calls) push_s += Since(tp);
    }
    if (!st.ok()) ++failed_;
  }
  auto tf = Clock::now();
  certfix::StreamSnapshot snap;
  {
    Span s(Layer::kStream, "Finish");
    snap = engine->Finish();
  }
  const double total = Since(t0);
  r->finish_s.push_back(Since(tf));
  r->producer_parse_s.push_back(parse_s);
  r->push_s.push_back(push_s);
  if (timed_calls) {
    r->csv_parse_s += parse_s;
    r->csv_parse_bytes += in_.input_csv.size();
  }
  r->stream_rows_per_s.push_back(rows / total);
  r->backpressure_waits = snap.backpressure_waits;
  r->counts.stream_pool_recycles = snap.pool_recycles;
  r->counts.stream_memo_hits = snap.memo_hits;
  r->counts.stream_memo_misses = snap.memo_misses;
  attempted_ += rows;
  engine.reset();
  // Oracle: sink bytes equal BatchRepair over the same input.
  CheckTimer check(&r->check_s);
  if (out.str() != batch_want_) {
    Diverged("stream: sink bytes differ from BatchRepair");
    ++failed_;
  }
}

void Bench::DurableIteration(PassResult* r, size_t k) {
  const OracleLog& olog = Log(k);
  const DurableLog& dl = olog.log;
  const std::string dir = out_dir_ + "/session";
  fs::remove_all(dir);
  const certfix::DurableOptions opts = DurableOpts(file_.sizes);

  auto t0 = Clock::now();
  Relation master, initial;
  {
    Span s(Layer::kRelational, "ReadCsv(master)");
    master = ReadRelation(dl.master_csv, "ReadCsv(master)");
  }
  {
    Span s(Layer::kRelational, "ReadCsv(initial)");
    initial = ReadRelation(dl.initial_csv, "ReadCsv(initial)");
  }
  r->csv_parse_s += Since(t0);
  r->csv_parse_bytes += dl.master_csv.size() + dl.initial_csv.size();
  certfix::RuleSet rules;
  {
    Span s(Layer::kRules, "ParseRules");
    rules = ReadRules();
  }
  std::unique_ptr<certfix::DurableSession> session;
  {
    Span s(Layer::kIncremental, "DurableSession::Create");
    session = Must(certfix::DurableSession::Create(dir, rules, master, initial,
                                                   in_.trusted, opts),
                   "DurableSession::Create");
  }
  r->setup_durable_s.push_back(Since(t0));

  std::istringstream log(dl.delta_log);
  certfix::DeltaLogSource source(in_.schema, in_.schema, log);
  Delta delta;
  uint64_t n = 0;
  std::vector<double> ack_us;
  ack_us.reserve(dl.scenario.deltas.size());
  auto ta = Clock::now();
  for (;;) {
    bool got = false;
    {
      Span s(Layer::kRelational, "DeltaLogSource::Next");
      got = Must(source.Next(&delta), "DeltaLogSource::Next");
    }
    if (!got) break;
    ++n;
    auto t = Clock::now();
    Status st;
    {
      Span s(Layer::kIncremental, "DurableSession::Apply");
      st = session->Apply(delta);
    }
    const double lat = Since(t);
    if (certfix::IsMasterDelta(delta.kind)) {
      r->master_ack_ms.push_back(lat * 1e3);
    } else {
      ack_us.push_back(lat * 1e6);
    }
    if (!st.ok()) ++failed_;
  }
  auto tf = Clock::now();
  {
    Span s(Layer::kIncremental, "DeltaRepairEngine::Flush");
    session->engine().Flush();
  }
  r->flush_s.push_back(Since(tf));
  r->deltas_per_s.push_back(n / Since(ta));
  r->ack_p50_us.push_back(Percentile(ack_us, 0.50));
  r->ack_p99_us.push_back(Percentile(ack_us, 0.99));
  r->ack_samples += ack_us.size();
  attempted_ += n;

  const uint64_t gen = session->snapshot_id();
  const std::string wal_path = dir + "/wal-" + std::to_string(gen) + ".log";
  std::string before;
  {
    CheckTimer check(&r->check_s);
    before = CsvBytes(session->engine().SnapshotRepaired());
    const uint64_t session_bytes = DirBytes(dir);
    r->bytes_per_user_byte.push_back(
        static_cast<double>(session_bytes) /
        (dl.master_csv.size() + dl.initial_csv.size() + dl.delta_log.size()));
    if (k == 0) {
      const certfix::DeltaRepairStats stats = session->engine().stats();
      Counts& c = r->counts;
      c.delta_repairs = stats.tuples_repaired;
      c.invalidations = stats.tuples_invalidated;
      c.master_rebuilds = stats.master_rebuilds;
      c.durable_conflicting = stats.conflicting;
      c.durable_rows = stats.rows;
      c.session_bytes = session_bytes;
      c.wal_tail_bytes = FileBytes(wal_path);
    }
  }
  session.reset();

  double storage_s = 0;
  if (Recorder().enabled()) {
    // What Open will read, timed on its own: the generation's two
    // snapshots and the WAL tail scan. The rest of recovery is re-repair
    // and replay.
    const std::string snap = dir + "/snapshot-" + std::to_string(gen);
    auto ts = Clock::now();
    uint64_t bytes = 0;
    for (const char* which : {".master.col", ".input.col"}) {
      Span s(Layer::kStorage, "ReadColumnar");
      Must(certfix::storage::ReadColumnar(snap + which), "ReadColumnar");
      bytes += FileBytes(snap + which);
    }
    const double read_s = Since(ts);
    auto tw = Clock::now();
    {
      Span s(Layer::kStorage, "ScanWal");
      Must(certfix::storage::ScanWal(wal_path), "ScanWal");
    }
    const double scan_s = Since(tw);
    r->snapshot_read_mb_per_s.push_back(bytes / 1e6 / read_s);
    r->wal_scan_s.push_back(scan_s);
    storage_s = read_s + scan_s;
  }

  // Open only reads the directory (it would truncate a torn tail, and
  // there is none), so each reopen recovers the same state; every one is
  // a recover_s sample and is checked.
  for (size_t rep = 0; rep < kRecoverReps; ++rep) {
    auto tr = Clock::now();
    {
      Span s(Layer::kIncremental, "DurableSession::Open");
      session = Must(certfix::DurableSession::Open(dir, opts),
                     "DurableSession::Open");
    }
    {
      Span s(Layer::kIncremental, "DeltaRepairEngine::Flush");
      session->engine().Flush();
    }
    r->recover_s.push_back(Since(tr));
    if (Recorder().enabled()) {
      r->recover_rest_s.push_back(r->recover_s.back() - storage_s);
    }
    // Oracle: recovered == before close.
    CheckTimer check(&r->check_s);
    const std::string after = CsvBytes(session->engine().SnapshotRepaired());
    session.reset();
    if (after != before) {
      Diverged("durable: recovered relation differs from the one closed");
      ++failed_;
    }
  }
  // Oracle: before close == BatchRepair over the final state.
  CheckTimer check(&r->check_s);
  fs::remove_all(dir);
  if (before != olog.want) {
    Diverged("durable: repaired relation differs from BatchRepair over "
             "ApplyDeltaLog's final state");
    ++failed_;
  }
}

PassResult Bench::RunPass(const Plan& plan) {
  PassResult r;
  auto t0 = Clock::now();
  std::unique_ptr<Engine> engine;
  for (size_t i = 0; i < kSetupReps; ++i) engine = SetUp(&r);

  auto start = Clock::now();
  {
    // Warm-up: one unrecorded iteration of each phase (durable log 0), so
    // first-touch page faults, allocator growth and cold caches stay out
    // of the samples. Its exact counts are the ones printed; later
    // iterations repeat them.
    PassResult warm;
    BatchIteration(*engine, &warm);
    StreamIteration(*engine, &warm);
    {
      CheckTimer check(&r.check_s);
      Log(0);
    }
    DurableIteration(&warm, 0);
    r.counts = warm.counts;
    r.check_s += warm.check_s;
  }

  double spent[3] = {0, 0, 0};
  auto run = [&](int p) {
    const size_t log = r.iters[kDurable] + 1;
    if (p == kDurable) {
      CheckTimer check(&r.check_s);
      Log(log);
    }
    ResetPeakRss();
    auto t = Clock::now();
    if (p == kBatch) BatchIteration(*engine, &r);
    if (p == kStream) StreamIteration(*engine, &r);
    if (p == kDurable) DurableIteration(&r, log);
    spent[p] += Since(t);
    r.peak_rss_mb[p].push_back(PeakRssMiB());
    ++r.iters[p];
    r.sequence.push_back(p);
  };
  if (!plan.replay.empty()) {
    for (int p : plan.replay) run(p);
  } else {
    // Interleaving spreads each phase's samples over the whole pass, so a
    // burst of load from outside the benchmark hits a few samples of
    // every phase rather than all samples of one. Each step runs the
    // phase furthest behind its share.
    for (int p : {kBatch, kStream, kDurable}) run(p);
    while (Since(start) < plan.seconds) {
      const double total = spent[0] + spent[1] + spent[2];
      int next = kBatch;
      for (int p : {kStream, kDurable}) {
        if (kPhaseShare[p] * total - spent[p] >
            kPhaseShare[next] * total - spent[next]) {
          next = p;
        }
      }
      run(next);
    }
  }
  r.wall_s = Since(t0) - r.check_s;
  return r;
}

// ---------------------------------------------------------------------------
// Per-layer probes of the traced run.

void Bench::ProbeRepairLatency(std::vector<double>* miss_us,
                               std::vector<double>* hit_ns) {
  // Single-threaded RepairOneTuple on a fixed sample: once through a
  // fresh memo (misses), once replaying it (hits).
  Relation input = ReadRelation(in_.input_csv, "ReadCsv(input)");
  PassResult unused;
  std::unique_ptr<Engine> e = SetUp(&unused);
  certfix::RepairMemo memo(e->rules, in_.trusted);
  certfix::PoolBridge bridge(input.pool().get(), e->master.pool().get());
  const AttrSet all = in_.schema->AllAttrs();
  const size_t kSample = 2000;
  const size_t step = std::max<size_t>(1, input.size() / kSample);
  std::vector<certfix::Tuple> rows;
  for (size_t i = 0; i < input.size() && rows.size() < kSample; i += step) {
    rows.push_back(input.at(i));
  }
  for (int pass = 0; pass < 2; ++pass) {
    for (const certfix::Tuple& row : rows) {
      const uint64_t misses = memo.misses();
      auto t = Clock::now();
      certfix::TupleRepair rep;
      {
        Span s(Layer::kCore, "RepairOneTuple");
        rep = certfix::RepairOneTuple(*e->sat, row, in_.trusted, all,
                                      &bridge, nullptr, &memo);
      }
      const double dt = Since(t);
      if (pass == 0 && memo.misses() > misses) miss_us->push_back(dt * 1e6);
      if (pass == 1) hit_ns->push_back(dt * 1e9);
    }
  }
}

/// Records push->emit latency against each row's due time.
class LatencySink : public certfix::StreamSink {
 public:
  LatencySink(const std::vector<Clock::time_point>* due,
              std::vector<double>* lat_us)
      : due_(due), lat_us_(lat_us) {}
  void Emit(const certfix::StreamRecord& record) override {
    (*lat_us_)[record.seq] =
        std::chrono::duration<double, std::micro>(Clock::now() -
                                                  (*due_)[record.seq])
            .count();
  }

 private:
  const std::vector<Clock::time_point>* due_;
  std::vector<double>* lat_us_;
};

void Bench::ProbeOpenLoop(double rate, std::vector<double>* lat_us,
                          std::vector<double>* lag_us) {
  // Open loop: rows are due on a fixed schedule at `rate` rows/s whether
  // or not the engine keeps up; latency counts from the due time.
  PassResult unused;
  std::unique_ptr<Engine> e = SetUp(&unused);
  const size_t n = std::min<size_t>(
      in_.input_rows, std::max<size_t>(1000, static_cast<size_t>(rate)));
  std::vector<Clock::time_point> due(n);
  std::vector<double> lat(n, 0);
  LatencySink sink(&due, &lat);
  certfix::StreamOptions opts;
  opts.num_shards = kStreamShards;
  std::istringstream in(in_.input_csv);
  certfix::CsvTupleSource source(in_.schema, in);
  std::vector<std::string> fields;
  {
    certfix::StreamRepairEngine engine(*e->sat, in_.trusted, &sink, opts);
    const auto start = Clock::now();
    for (size_t i = 0; i < n; ++i) {
      due[i] = start + std::chrono::nanoseconds(
                           static_cast<int64_t>(i * 1e9 / rate));
      while (Clock::now() < due[i]) {
      }
      lag_us->push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - due[i])
              .count());
      if (!Must(source.Next(&fields), "CsvTupleSource::Next")) break;
      Must(engine.PushStrings(fields), "PushStrings");
    }
    engine.Finish();
  }
  // The first fifth is warm-up.
  lat_us->assign(lat.begin() + n / 5, lat.end());
}

void Bench::ProbeDeltaApply(std::vector<double> per_kind_us[4],
                            double* repairs_per_delta,
                            double* invalidated_per_master,
                            double* rebuilds) {
  // The first durable log on a non-durable engine: Apply without WAL.
  const DurableLog& dl = Log(0).log;
  const Relation master = ReadRelation(dl.master_csv, "ReadCsv(master)");
  const Relation initial = ReadRelation(dl.initial_csv, "ReadCsv(initial)");
  const certfix::RuleSet rules = ReadRules();
  certfix::DeltaRepairOptions opts;
  opts.num_shards = kDeltaShards;
  certfix::DeltaRepairEngine engine(rules, master, in_.trusted, opts);
  Must(engine.Load(initial), "DeltaRepairEngine::Load");
  engine.Flush();
  const certfix::DeltaRepairStats loaded = engine.stats();
  std::istringstream log(dl.delta_log);
  certfix::DeltaLogSource source(in_.schema, in_.schema, log);
  Delta delta;
  uint64_t n = 0;
  while (Must(source.Next(&delta), "DeltaLogSource::Next")) {
    ++n;
    auto t = Clock::now();
    Status st;
    {
      Span s(Layer::kIncremental, "DeltaRepairEngine::Apply");
      st = engine.Apply(delta);
    }
    const double us = Since(t) * 1e6;
    Must(st, "DeltaRepairEngine::Apply");
    size_t k = certfix::IsMasterDelta(delta.kind) ? 3
               : delta.kind == certfix::DeltaKind::kInsert ? 0
               : delta.kind == certfix::DeltaKind::kUpdate ? 1
                                                           : 2;
    per_kind_us[k].push_back(us);
  }
  engine.Flush();
  const certfix::DeltaRepairStats done = engine.stats();
  *repairs_per_delta =
      static_cast<double>(done.tuples_repaired - loaded.tuples_repaired) / n;
  *invalidated_per_master =
      dl.master_deltas == 0
          ? 0
          : static_cast<double>(done.tuples_invalidated -
                                loaded.tuples_invalidated) /
                dl.master_deltas;
  *rebuilds = static_cast<double>(done.master_rebuilds -
                                  loaded.master_rebuilds);
}

void Bench::ProbeWal(std::vector<double>* append_us,
                     std::vector<double>* sync_us, double* bytes_per_delta) {
  // A standalone writer on the session's filesystem, Sync timed apart.
  const std::string path = out_dir_ + "/wal-probe.log";
  fs::remove(path);
  certfix::storage::WalWriterOptions opts;
  opts.sync_every_append = false;
  auto writer = Must(certfix::storage::WalWriter::Create(path, opts),
                     "WalWriter::Create");
  const uint64_t start = writer->tail_offset();
  const std::vector<Delta>& deltas = Log(0).log.scenario.deltas;
  const size_t n = std::min<size_t>(deltas.size(), 2000);
  for (size_t i = 0; i < n; ++i) {
    auto t = Clock::now();
    {
      Span s(Layer::kStorage, "WalWriter::Append");
      Must(writer->Append(deltas[i]), "WalWriter::Append");
    }
    auto ts = Clock::now();
    {
      Span s(Layer::kStorage, "WalWriter::Sync");
      Must(writer->Sync(), "WalWriter::Sync");
    }
    append_us->push_back(std::chrono::duration<double, std::micro>(ts - t)
                             .count());
    sync_us->push_back(Since(ts) * 1e6);
  }
  *bytes_per_delta = static_cast<double>(writer->tail_offset() - start) /
                     std::max<size_t>(n, 1);
  writer.reset();
  fs::remove(path);
}

void Bench::ProbeSnapshotWrite(double* mb_per_s, double* bytes_per_csv_byte) {
  // The first durable log's master and initial relations, written the
  // way a session snapshot writes them (compressed columns).
  const DurableLog& dl = Log(0).log;
  const Relation master = ReadRelation(dl.master_csv, "ReadCsv(master)");
  const Relation initial = ReadRelation(dl.initial_csv, "ReadCsv(initial)");
  uint64_t bytes = 0;
  double secs = 0;
  for (const Relation* rel : {&master, &initial}) {
    const std::string path = out_dir_ + "/probe.col";
    auto t = Clock::now();
    {
      Span s(Layer::kStorage, "WriteColumnar");
      Must(certfix::storage::WriteColumnar(*rel, path), "WriteColumnar");
    }
    secs += Since(t);
    bytes += FileBytes(path);
    fs::remove(path);
  }
  *mb_per_s = bytes / 1e6 / secs;
  *bytes_per_csv_byte = static_cast<double>(bytes) /
                        (dl.master_csv.size() + dl.initial_csv.size());
}

// ---------------------------------------------------------------------------
// Output.

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
    std::cout << "metric " << name << " " << Num(value) << " " << unit
              << "\n";
  }
  std::string Json() const {
    std::ostringstream o;
    o << "{";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      o << (i ? ", " : "") << JsonString(metrics_[i].name)
        << ": {\"value\": " << Num(metrics_[i].value)
        << ", \"unit\": " << JsonString(metrics_[i].unit) << "}";
    }
    return o.str() + "}";
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

void EndToEnd(const PassResult& r, Report* out) {
  out->Add("setup_s", Median(r.setup_engine_s) + Median(r.setup_durable_s),
           "s");
  // The process peak would be one sample, and it swings with allocator
  // and thread timing. Iteration peaks creep up over a run as glibc's
  // per-thread arenas fragment (they stay flat with MALLOC_ARENA_MAX=1),
  // so the median would depend on how many iterations a run fits; the
  // heaviest phase's smallest iteration peak does not.
  double peak_rss = 0;
  for (const std::vector<double>& peaks : r.peak_rss_mb) {
    if (peaks.empty()) continue;
    peak_rss = std::max(peak_rss, *std::min_element(peaks.begin(),
                                                    peaks.end()));
  }
  out->Add("peak_rss_mb", peak_rss, "MiB");
  out->Add("batch.rows_per_s", Median(r.batch_rows_per_s), "rows/s");
  out->Add("stream.rows_per_s", Median(r.stream_rows_per_s), "rows/s");
  out->Add("deltas.per_s", Median(r.deltas_per_s), "deltas/s");
  out->Add("deltas.ack_p50_us", Median(r.ack_p50_us), "us");
  out->Add("deltas.ack_p99_us", Median(r.ack_p99_us), "us");
  out->Add("deltas.master_ack_p50_ms", Percentile(r.master_ack_ms, 0.50),
           "ms");
  out->Add("deltas.master_ack_p90_ms", Percentile(r.master_ack_ms, 0.90),
           "ms");
  out->Add("recover_s", Median(r.recover_s), "s");
  out->Add("durable.bytes_per_user_byte", Median(r.bytes_per_user_byte),
           "ratio");
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string workloads_dir = "cfxbench/workloads";
  std::string out_dir = ".bench_build/out";
  double scale = 1.0;
  std::string git_sha = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
    } else if (k == "--trace") {
      a->trace = v == "0" ? 0 : v == "1" ? 1 : -1;
    } else if (k == "--workloads-dir") {
      a->workloads_dir = v;
    } else if (k == "--out-dir") {
      a->out_dir = v;
    } else if (k == "--scale") {
      a->scale = std::strtod(v.c_str(), &end);
    } else if (k == "--git-sha") {
      a->git_sha = v;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0 &&
         a->trace >= 0 && a->scale > 0;
}

std::string Stamp(const Args& a, const std::string& session_fs) {
  const std::string build_type = CFXBENCH_BUILD_TYPE;
  std::ostringstream o;
  o << "{\"workload\": " << JsonString(a.workload) << ", \"seed\": " << a.seed
    << ", \"seconds\": " << Num(a.seconds) << ", \"trace\": " << a.trace
    << ", \"scale\": " << Num(a.scale)
    << ", \"nproc\": " << std::thread::hardware_concurrency()
    << ", \"cpu\": " << JsonString(CpuModel())
    << ", \"compiler\": " << JsonString(CFXBENCH_COMPILER)
    << ", \"build_type\": " << JsonString(build_type)
    << ", \"release_build\": " << (build_type == "Release" ? "true" : "false")
    << ", \"git_sha\": " << JsonString(a.git_sha)
    << ", \"flush_policy\": \"WAL append per delta, no fsync; snapshots "
       "and manifest fsync'd\""
    << ", \"session_fs\": " << JsonString(session_fs)
    << ", \"batch_threads\": " << kBatchThreads
    << ", \"stream_shards\": " << kStreamShards
    << ", \"delta_shards\": " << kDeltaShards << "}";
  return o.str();
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: cfxbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--workloads-dir D] [--out-dir D] [--scale F] "
                 "[--git-sha SHA]\n";
    return 2;
  }
  const std::string spec_path =
      args.workloads_dir + "/" + args.workload + ".toml";
  WorkloadFile file = Must(
      LoadWorkloadFile(spec_path, args.workload, args.seed, args.scale),
      "workload file");
  fs::create_directories(args.out_dir);
  const std::string session_fs = FsName(args.out_dir);
  const std::string build_type = CFXBENCH_BUILD_TYPE;
  std::cout << "stamp " << Stamp(args, session_fs) << "\n";
  if (build_type != "Release") {
    std::cout << "WARNING: " << build_type
              << " build; timings are not comparable to Release\n";
  }

  auto tg = Clock::now();
  Inputs inputs = Must(GenerateInputs(file), "generate");
  const size_t input_rows = inputs.input_rows;
  Bench bench(file, std::move(inputs), args.out_dir);
  const DurableLog& log0 = bench.Log(0).log;
  std::cout << "generate_s " << Num(Since(tg)) << "\n";
  std::cout << "inputs master_rows " << file.sizes.input_master_rows
            << " input_rows " << input_rows << " durable_master_rows "
            << log0.scenario.master.size() << " initial_rows "
            << log0.scenario.initial.size() << " deltas "
            << log0.scenario.deltas.size() << " master_deltas "
            << log0.master_deltas << "\n";

  // The untraced pass takes the whole budget in a timed run and half of
  // it in a traced run; the traced pass then replays its phase sequence
  // so trace.overhead_ratio compares like with like.
  Plan plan;
  plan.seconds = args.trace ? args.seconds / 2 : args.seconds;
  const auto steal0 = CpuStealJiffies();
  const PassResult untraced = bench.RunPass(plan);
  const auto steal1 = CpuStealJiffies();
  const Counts& counts = untraced.counts;
  Report report;

  if (args.trace == 0) {
    EndToEnd(untraced, &report);
  } else {
    Plan replay;
    replay.replay = untraced.sequence;
    const std::string run_id = args.workload + "/seed-" +
                               std::to_string(args.seed);
    SpanRecorder& rec = Recorder();
    rec.Enable(run_id);
    PassResult traced;
    {
      Span root(Layer::kBench, "pass");
      traced = bench.RunPass(replay);
    }
    // Shares are of the traced pass's wall time less the checks; the
    // root span's self time is what no layer span covers.
    double layer_self[kNumLayers];
    for (size_t l = 0; l < kNumLayers; ++l) {
      const Layer layer = static_cast<Layer>(l);
      layer_self[l] = rec.self_seconds(layer);
      std::cout << "layer " << LayerName(layer) << " self_s "
                << Num(layer_self[l]) << " spans " << rec.spans(layer)
                << "\n";
    }

    std::vector<double> miss_us, hit_ns, lat_us, lag_us, append_us, sync_us;
    std::vector<double> per_kind[4];
    double repairs_per_delta = 0, invalidated = 0, rebuilds = 0;
    double wal_bytes = 0, write_mb_s = 0, snap_ratio = 0;
    bench.ProbeRepairLatency(&miss_us, &hit_ns);
    bench.ProbeOpenLoop(0.5 * Median(untraced.stream_rows_per_s), &lat_us,
                        &lag_us);
    bench.ProbeDeltaApply(per_kind, &repairs_per_delta, &invalidated,
                          &rebuilds);
    bench.ProbeWal(&append_us, &sync_us, &wal_bytes);
    bench.ProbeSnapshotWrite(&write_mb_s, &snap_ratio);
    rec.Disable();

    const std::string trace_path = args.out_dir + "/trace-" + args.workload +
                                   "-" + std::to_string(args.seed) + ".json";
    {
      std::ofstream f(trace_path);
      f << rec.ChromeJson();
    }
    std::cout << "trace " << trace_path << " (" << rec.dropped()
              << " spans beyond the file cap counted but not written)\n";

    for (Layer l : {Layer::kRelational, Layer::kRules, Layer::kCore,
                    Layer::kStream, Layer::kIncremental, Layer::kStorage}) {
      report.Add(std::string("layer.") + LayerName(l) + ".self_share",
                 layer_self[static_cast<size_t>(l)] / traced.wall_s, "ratio");
    }
    report.Add("relational.csv_parse_mb_per_s",
               traced.csv_parse_bytes / 1e6 / traced.csv_parse_s, "MB/s");
    report.Add("relational.csv_write_s", Median(traced.csv_write_s), "s");
    report.Add("rules.parse_s", Median(traced.rules_parse_s), "s");
    report.Add("core.index_build_s", Median(traced.index_build_s), "s");
    report.Add("core.repair_s", Median(traced.repair_s), "s");
    report.Add("core.repair_miss_us.p50", Percentile(miss_us, 0.50), "us");
    report.Add("core.repair_miss_us.p99", Percentile(miss_us, 0.99), "us");
    report.Add("core.repair_hit_ns.p50", Percentile(hit_ns, 0.50), "ns");
    const double hits = static_cast<double>(counts.stream_memo_hits);
    report.Add("core.memo_hit_ratio",
               hits / (hits + counts.stream_memo_misses), "ratio");
    report.Add("stream.producer_parse_s", Median(traced.producer_parse_s),
               "s");
    report.Add("stream.push_s", Median(traced.push_s), "s");
    report.Add("stream.finish_s", Median(traced.finish_s), "s");
    report.Add("stream.backpressure_waits",
               static_cast<double>(traced.backpressure_waits), "count");
    report.Add("stream.emit_latency_p50_us", Percentile(lat_us, 0.50), "us");
    report.Add("stream.emit_latency_p99_us", Percentile(lat_us, 0.99), "us");
    report.Add("stream.open_loop_lag_p99_us", Percentile(lag_us, 0.99),
               "us");
    report.Add("incremental.apply_us.insert", Median(per_kind[0]), "us");
    report.Add("incremental.apply_us.update", Median(per_kind[1]), "us");
    report.Add("incremental.apply_us.delete", Median(per_kind[2]), "us");
    report.Add("incremental.apply_us.master", Median(per_kind[3]), "us");
    report.Add("incremental.repairs_per_delta", repairs_per_delta, "ratio");
    report.Add("incremental.invalidated_per_master_delta", invalidated,
               "ratio");
    report.Add("incremental.master_rebuilds", rebuilds, "count");
    report.Add("incremental.flush_s", Median(traced.flush_s), "s");
    report.Add("storage.wal_append_us", Median(append_us), "us");
    report.Add("storage.wal_sync_us", Median(sync_us), "us");
    report.Add("storage.wal_bytes_per_delta", wal_bytes, "bytes/delta");
    report.Add("storage.snapshot_write_mb_per_s", write_mb_s, "MB/s");
    report.Add("storage.snapshot_read_mb_per_s",
               Median(traced.snapshot_read_mb_per_s), "MB/s");
    report.Add("storage.wal_scan_s", Median(traced.wal_scan_s), "s");
    report.Add("storage.snapshot_bytes_per_csv_byte", snap_ratio, "ratio");
    report.Add("recover.unattributed_s", Median(traced.recover_rest_s), "s");
    report.Add("trace.unattributed_share",
               layer_self[static_cast<size_t>(Layer::kBench)] / traced.wall_s,
               "ratio");
    report.Add("trace.overhead_ratio", traced.wall_s / untraced.wall_s,
               "ratio");
  }

  std::cout << "counts " << counts.Json() << "\n";
  std::cout << "iterations batch " << untraced.iters[kBatch] << " stream "
            << untraced.iters[kStream] << " durable "
            << untraced.iters[kDurable] << " setup " << kSetupReps << "\n";
  std::cout << "phase_wall_s " << Num(untraced.wall_s) << "\n";
  // CPU time the hypervisor gave other guests while this VM wanted it;
  // on a shared host it, not the program, sets most run-to-run spread.
  const uint64_t total = steal1.second - steal0.second;
  std::cout << "host_cpu_steal_share "
            << Num(total == 0 ? 0.0
                              : static_cast<double>(steal1.first -
                                                    steal0.first) /
                                    total)
            << "\n";
  std::cout << "samples ack " << untraced.ack_samples << " master_ack "
            << untraced.master_ack_ms.size() << "\n";
  std::cout << "ops_attempted " << bench.attempted() << " ops_failed_ratio "
            << Num(static_cast<double>(bench.failed()) / bench.attempted())
            << "\n";
  for (const std::string& d : bench.divergences()) {
    std::cout << "DIVERGED " << d << "\n";
  }
  std::cout << "{\"correct\": " << (bench.correct() ? "true" : "false")
            << ", \"attempted\": " << bench.attempted()
            << ", \"failed\": " << bench.failed()
            << ", \"metrics\": " << report.Json() << "}" << std::endl;
  return bench.correct() && bench.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace cfxbench

int main(int argc, char** argv) {
  try {
    return cfxbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "cfxbench: " << e.what() << "\n";
    return 2;
  }
}
