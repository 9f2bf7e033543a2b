/// \file workload.h
/// \brief Loads a benchmark workload file and generates its input bytes.
///
/// A workload file (workloads/<name>.toml) is a scenario spec
/// (workload/scenario.h) followed by one `[bench]` section the benchmark
/// reads itself. The scenario part shapes the durable phase (master,
/// initial input, delta log); `[bench]` sizes the batch/stream input and
/// the snapshot rotation. The batch/stream input is generated from the
/// same spec and seed with its own master size, so a large master for the
/// batch phase does not make every master delta of the durable phase
/// rebuild a large index:
///
/// ```toml
/// [bench]
/// input_master_rows = 30000  # master rows of the batch/stream phases
/// input_rows = 100000    # rows repaired by the batch and stream phases
/// snapshot_every = 12000 # durable snapshot rotation, in WAL appends
/// ```
///
/// The benchmark hands the product only the generated bytes (CSV, rules
/// DSL, delta log); the typed scenario objects stay on the benchmark side
/// for the oracles.

#ifndef CFXBENCH_WORKLOAD_H_
#define CFXBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>

#include "util/result.h"
#include "workload/scenario.h"

namespace cfxbench {

struct BenchSizes {
  size_t input_master_rows = 0;
  size_t input_rows = 0;
  size_t snapshot_every = 0;
};

struct WorkloadFile {
  certfix::ScenarioSpec spec;  ///< durable-phase scenario
  BenchSizes sizes;
};

/// Parses a workload file. `scale` (self-test only) multiplies every row,
/// delta and rotation count, keeping at least one of each.
certfix::Result<WorkloadFile> LoadWorkloadFile(const std::string& path,
                                               const std::string& name,
                                               uint64_t seed, double scale);

/// Batch/stream inputs of one run.
struct Inputs {
  certfix::SchemaPtr schema;
  certfix::AttrSet trusted;
  std::string rules_dsl;
  std::string master_csv;
  std::string input_csv;
  size_t input_rows = 0;
};

/// One durable-phase log: master, initial input and delta-log bytes, plus
/// the typed scenario the oracle replays.
struct DurableLog {
  certfix::Scenario scenario;
  std::string master_csv;
  std::string initial_csv;
  std::string delta_log;
  size_t master_deltas = 0;
};

/// Generates the batch/stream input: the spec with its [bench] sizes and
/// no deltas, at the run's seed.
certfix::Result<Inputs> GenerateInputs(const WorkloadFile& file);

/// Generates the k-th durable log of a run, from the spec at seed
/// `seed * 1000 + k`. Each durable iteration replays a fresh log, so a
/// run averages over several logs instead of repeating one.
certfix::Result<DurableLog> GenerateDurableLog(const WorkloadFile& file,
                                               size_t k);

}  // namespace cfxbench

#endif  // CFXBENCH_WORKLOAD_H_
