#include "workload.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "relational/csv.h"
#include "rules/rule_parser.h"
#include "util/string_util.h"

namespace cfxbench {
namespace {

using certfix::Result;
using certfix::Status;

std::string Trim(const std::string& s) {
  return std::string(certfix::Trim(s));
}

size_t Scaled(size_t n, double scale) {
  if (scale == 1.0 || n == 0) return n;
  return std::max<size_t>(1, static_cast<size_t>(std::llround(n * scale)));
}

Status ParseBenchLine(const std::string& line, BenchSizes* sizes) {
  size_t eq = line.find('=');
  if (eq == std::string::npos) {
    return Status::ParseError("[bench]: expected key = value: " + line);
  }
  std::string key = Trim(line.substr(0, eq));
  std::string value = Trim(line.substr(eq + 1));
  size_t hash = value.find('#');
  if (hash != std::string::npos) value = Trim(value.substr(0, hash));
  size_t* slot = key == "input_master_rows" ? &sizes->input_master_rows
                 : key == "input_rows"     ? &sizes->input_rows
                 : key == "snapshot_every" ? &sizes->snapshot_every
                                           : nullptr;
  if (slot == nullptr) {
    return Status::ParseError("[bench]: unknown key '" + key + "'");
  }
  if (!certfix::ParseSizeStrict(value, slot)) {
    return Status::ParseError("[bench] " + key + ": not a count: " + value);
  }
  return Status::OK();
}

std::string CsvBytes(const certfix::Relation& rel) {
  std::ostringstream out;
  certfix::WriteCsv(rel, out);
  return out.str();
}

}  // namespace

Result<WorkloadFile> LoadWorkloadFile(const std::string& path,
                                      const std::string& name, uint64_t seed,
                                      double scale) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open workload file " + path);
  std::string scenario_text;
  WorkloadFile file;
  bool in_bench = false;
  std::string line;
  while (std::getline(in, line)) {
    std::string t = Trim(line);
    if (t == "[bench]") {
      in_bench = true;
      continue;
    }
    if (in_bench && !t.empty() && t[0] == '[') in_bench = false;
    if (!in_bench) {
      scenario_text += line + "\n";
    } else if (!t.empty() && t[0] != '#') {
      CERTFIX_RETURN_IF_ERROR(ParseBenchLine(t, &file.sizes));
    }
  }
  CERTFIX_ASSIGN_OR_RETURN(file.spec,
                           certfix::ParseScenarioSpec(scenario_text, name));
  file.spec.seed = seed;
  file.spec.master_rows = Scaled(file.spec.master_rows, scale);
  file.spec.initial_rows = Scaled(file.spec.initial_rows, scale);
  file.spec.num_deltas = Scaled(file.spec.num_deltas, scale);
  file.sizes.input_master_rows = Scaled(file.sizes.input_master_rows, scale);
  file.sizes.input_rows = Scaled(file.sizes.input_rows, scale);
  file.sizes.snapshot_every = Scaled(file.sizes.snapshot_every, scale);
  if (file.sizes.input_master_rows == 0 || file.sizes.input_rows == 0 ||
      file.spec.num_deltas == 0) {
    return Status::InvalidArgument(path +
                                   ": input sizes and deltas must be > 0");
  }
  CERTFIX_RETURN_IF_ERROR(file.spec.Validate());
  return file;
}

Result<Inputs> GenerateInputs(const WorkloadFile& file) {
  certfix::ScenarioSpec spec = file.spec;
  spec.master_rows = file.sizes.input_master_rows;
  spec.initial_rows = file.sizes.input_rows;
  spec.num_deltas = 0;
  spec.arrival.master_ratio = 0.0;
  CERTFIX_ASSIGN_OR_RETURN(certfix::Scenario sc,
                           certfix::GenerateScenario(spec));
  Inputs in;
  in.schema = sc.schema;
  in.trusted = sc.trusted;
  in.rules_dsl = certfix::RulesToDsl(sc.rules);
  in.master_csv = CsvBytes(sc.master);
  in.input_csv = CsvBytes(sc.initial);
  in.input_rows = sc.initial.size();
  return in;
}

Result<DurableLog> GenerateDurableLog(const WorkloadFile& file, size_t k) {
  certfix::ScenarioSpec spec = file.spec;
  spec.seed = file.spec.seed * 1000 + k;
  DurableLog log;
  CERTFIX_ASSIGN_OR_RETURN(log.scenario, certfix::GenerateScenario(spec));
  log.master_csv = CsvBytes(log.scenario.master);
  log.initial_csv = CsvBytes(log.scenario.initial);
  log.delta_log = certfix::DeltaLogToString(log.scenario);
  for (const certfix::Delta& d : log.scenario.deltas) {
    if (certfix::IsMasterDelta(d.kind)) ++log.master_deltas;
  }
  return log;
}

}  // namespace cfxbench
