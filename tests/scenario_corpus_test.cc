// Scenario-corpus harness: every checked-in spec under tests/scenarios/
// (CERTFIX_SCENARIO_DIR) is generated, serialized to its delta-log bytes,
// and replayed through all three engines, which must agree byte-for-byte
// with a memo-free reference:
//
//  * oracle    — positional replay of the log (ApplyDeltaLog), then
//                ReferenceRepair (tests/test_util.h): RepairOneTuple row by
//                row over the final input against the final master, with
//                no memo, no shards and no ShardRepairer
//  * batch     — BatchRepair over the same final state, at 1/2/8 shards
//  * delta     — DeltaRepairEngine consuming the log via DeltaLogSource,
//                at 1/2/8 shards
//  * stream    — StreamRepairEngine over the final input rows (point-of-
//                entry repair of the surviving tuples), at 1/2/8 shards
//
// The zipf-skew spec additionally asserts the memo earns its keep: its
// duplicate-heavy stream must replay a sizable fraction of repairs.
// MasterIndexMatchesBruteForce checks the flat master index itself
// against a row scan on every spec's final master.
//
// Seed shifting: CERTFIX_PROPERTY_SEED offsets every scenario's seed, and
// each --gtest_repeat iteration shifts it again, so CI soak runs cover
// fresh scenarios per repetition while any failure reproduces from the
// printed seed.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <sstream>

#include "core/batch_repair.h"
#include "incremental/delta_repair.h"
#include "relational/csv.h"
#include "stream/sink.h"
#include "stream/stream_repair.h"
#include "test_util.h"
#include "workload/scenario.h"

namespace certfix {
namespace {

using testing_fixtures::BruteForceRows;
using testing_fixtures::ReferenceRepair;

uint64_t SeedShift() {
  static uint64_t base = [] {
    const char* env = std::getenv("CERTFIX_PROPERTY_SEED");
    return env != nullptr ? std::strtoull(env, nullptr, 10) : 0ULL;
  }();
  // Each fixture-set construction (one per --gtest_repeat iteration)
  // advances the shift, so soak repetitions explore fresh seeds.
  static uint64_t iteration = 0;
  return base + 1009 * iteration++;
}

std::vector<std::string> CorpusSpecs() {
  std::vector<std::string> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(CERTFIX_SCENARIO_DIR)) {
    if (entry.path().extension() == ".toml") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

std::string CsvBytes(const Relation& rel) {
  std::ostringstream out;
  Status st = WriteCsv(rel, out);
  EXPECT_TRUE(st.ok()) << st;
  return out.str();
}

class ScenarioCorpusTest : public ::testing::TestWithParam<std::string> {};

std::string ParamName(const ::testing::TestParamInfo<std::string>& info) {
  std::string stem = std::filesystem::path(info.param).stem().string();
  for (char& c : stem) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return stem;
}

/// A corpus spec, seed-shifted, generated and replayed to its final
/// input and master.
struct ReplayedScenario {
  ScenarioSpec spec;
  Scenario sc;
  std::string log;  ///< the delta-log bytes
  std::vector<std::vector<std::string>> input_rows;  ///< final input
  Relation final_input;
  Relation final_master;
};

void LoadAndReplay(const std::string& path, ReplayedScenario* out) {
  Result<ScenarioSpec> loaded = LoadScenarioSpecFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  out->spec = std::move(loaded).ValueOrDie();
  const uint64_t shift = SeedShift();
  out->spec.seed += shift;
  SCOPED_TRACE("scenario " + out->spec.name + " seed " +
               std::to_string(out->spec.seed) + " (shift " +
               std::to_string(shift) + ")");

  Result<Scenario> sc = GenerateScenario(out->spec);
  ASSERT_TRUE(sc.ok()) << sc.status();
  out->sc = std::move(sc).ValueOrDie();
  out->log = DeltaLogToString(out->sc);

  // Positional replay of the log, the oracle semantics.
  out->input_rows = RenderRows(out->sc.initial);
  std::vector<std::vector<std::string>> master_rows =
      RenderRows(out->sc.master);
  Status replayed =
      ApplyDeltaLog(out->sc.deltas, &out->input_rows, &master_rows);
  ASSERT_TRUE(replayed.ok()) << replayed;
  Result<Relation> final_input =
      RelationFromRows(out->sc.schema, out->input_rows);
  Result<Relation> final_master =
      RelationFromRows(out->sc.schema, master_rows);
  ASSERT_TRUE(final_input.ok()) << final_input.status();
  ASSERT_TRUE(final_master.ok()) << final_master.status();
  out->final_input = std::move(final_input).ValueOrDie();
  out->final_master = std::move(final_master).ValueOrDie();
}

TEST_P(ScenarioCorpusTest, EnginesAgreeByteForByte) {
  ReplayedScenario r;
  ASSERT_NO_FATAL_FAILURE(LoadAndReplay(GetParam(), &r));
  const Scenario& sc = r.sc;
  SCOPED_TRACE("scenario " + r.spec.name + " seed " +
               std::to_string(r.spec.seed));

  MasterIndex index(sc.rules, r.final_master);
  Saturator sat(sc.rules, r.final_master, index);
  const std::string want =
      CsvBytes(ReferenceRepair(sat, r.final_input, sc.trusted));

  for (size_t shards : {1, 2, 8}) {
    SCOPED_TRACE("shards " + std::to_string(shards));

    // Batch engine over the final state.
    {
      RepairOptions options;
      options.num_threads = shards;
      BatchRepairResult batch =
          BatchRepair(sat, options).Repair(r.final_input, sc.trusted);
      EXPECT_EQ(CsvBytes(batch.repaired), want);
      EXPECT_EQ(batch.memo_hits + batch.memo_misses, r.final_input.size());
    }

    // Delta engine: consume the serialized log bytes via DeltaLogSource.
    {
      DeltaRepairOptions options;
      options.num_shards = shards;
      DeltaRepairEngine engine(sc.rules, sc.master, sc.trusted, options);
      ASSERT_TRUE(engine.precheck_status().ok()) << engine.precheck_status();
      ASSERT_TRUE(engine.Load(sc.initial).ok());
      std::istringstream in(r.log);
      DeltaLogSource source(sc.schema, sc.schema, in);
      Status st = engine.ApplyAll(&source);
      ASSERT_TRUE(st.ok()) << st;
      EXPECT_EQ(CsvBytes(engine.SnapshotInput()), CsvBytes(r.final_input));
      EXPECT_EQ(CsvBytes(engine.SnapshotRepaired()), want);
      // Every repair is either a replay or a computation.
      DeltaRepairStats stats = engine.stats();
      EXPECT_EQ(stats.memo_hits + stats.memo_misses, stats.tuples_repaired);
    }

    // Stream engine: point-of-entry repair of the final input rows.
    {
      StreamOptions options;
      options.num_shards = shards;
      std::ostringstream out;
      CsvStreamSink sink(sc.schema, out);
      StreamRepairEngine engine(sat, sc.trusted, &sink, options);
      ASSERT_TRUE(engine.precheck_status().ok()) << engine.precheck_status();
      for (const auto& fields : r.input_rows) {
        Status st = engine.PushStrings(fields);
        ASSERT_TRUE(st.ok()) << st;
      }
      StreamSnapshot snapshot = engine.Finish();
      EXPECT_EQ(snapshot.tuples_out, r.input_rows.size());
      EXPECT_EQ(out.str(), want);
      EXPECT_EQ(snapshot.memo_hits + snapshot.memo_misses,
                snapshot.tuples_out);
    }
  }

  // Memo effectiveness on the skewed workload: replaying the zipf
  // stream a second time through the same engine must hit the shard
  // memos for every repeated row (identical rows route to the same
  // shard, and its memo key is the row's full relevant projection).
  const bool is_zipf = r.spec.name.find("zipf") != std::string::npos;
  if (is_zipf && !r.input_rows.empty()) {
    StreamOptions options;
    options.num_shards = 4;
    NullSink sink;
    StreamRepairEngine engine(sat, sc.trusted, &sink, options);
    ASSERT_TRUE(engine.precheck_status().ok()) << engine.precheck_status();
    for (int pass = 0; pass < 2; ++pass) {
      for (const auto& fields : r.input_rows) {
        Status st = engine.PushStrings(fields);
        ASSERT_TRUE(st.ok()) << st;
      }
    }
    StreamSnapshot snapshot = engine.Finish();
    EXPECT_EQ(snapshot.memo_hits + snapshot.memo_misses,
              2 * r.input_rows.size());
    EXPECT_GE(snapshot.memo_hits, r.input_rows.size())
        << "second pass over identical rows should replay from the memo";
  }
}

// The flat master index against a row scan: for every rule and every
// initial-input and final-master row, probed from a foreign pool through
// a PoolBridge (the shard path), Candidates must be exactly the matching
// master rows (ascending) and RhsValues the distinct tm[Bm] ids over
// them in first-occurrence order, each with its first row.
TEST_P(ScenarioCorpusTest, MasterIndexMatchesBruteForce) {
  ReplayedScenario r;
  ASSERT_NO_FATAL_FAILURE(LoadAndReplay(GetParam(), &r));
  const Relation& dm = r.final_master;
  MasterIndex index(r.sc.rules, dm);

  PoolPtr probe_pool = std::make_shared<ValuePool>();
  std::vector<Tuple> probes;
  const std::vector<const Relation*> probe_sources = {&r.sc.initial, &dm};
  for (const Relation* rel : probe_sources) {
    for (size_t i = 0; i < rel->size(); ++i) {
      probes.push_back(rel->at(i).RebasedTo(probe_pool));
    }
  }
  PoolBridge bridge(probe_pool.get(), dm.pool().get());

  for (size_t k = 0; k < r.sc.rules.size(); ++k) {
    const EditingRule& rule = r.sc.rules.at(k);
    const IdColumn& bm = dm.Column(rule.rhsm());
    for (size_t p = 0; p < probes.size(); ++p) {
      SCOPED_TRACE("rule " + rule.name() + " probe " + std::to_string(p));
      std::vector<Value> key;
      for (AttrId a : rule.lhs()) key.push_back(probes[p].at(a));
      const std::vector<size_t> rows = BruteForceRows(dm, rule.lhsm(), key);

      const RowSpan got = index.Candidates(k, probes[p], &bridge);
      ASSERT_EQ(std::vector<size_t>(got.begin(), got.end()), rows);

      std::vector<std::pair<ValueId, size_t>> want_rhs;
      for (size_t row : rows) {
        const bool seen = std::any_of(
            want_rhs.begin(), want_rhs.end(),
            [&](const std::pair<ValueId, size_t>& e) {
              return e.first == bm[row];
            });
        if (!seen) want_rhs.emplace_back(bm[row], row);
      }
      const MasterIndex::RhsSummary& rhs =
          index.RhsValues(k, probes[p], &bridge);
      ASSERT_EQ(rhs.size(), want_rhs.size());
      for (size_t v = 0; v < rhs.size(); ++v) {
        EXPECT_EQ(rhs[v].id, want_rhs[v].first);
        EXPECT_EQ(rhs[v].row, want_rhs[v].second);
        EXPECT_EQ(rhs[v].value, dm.Cell(want_rhs[v].second, rule.rhsm()));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, ScenarioCorpusTest,
                         ::testing::ValuesIn(CorpusSpecs()), ParamName);

// The corpus must stay broad enough to mean something: at least 6 specs,
// covering skewed popularity, bursty arrival, correlated error clusters,
// and master-delta interleave.
TEST(ScenarioCorpusShape, CorpusCoversTheAdversarialAxes) {
  std::vector<std::string> paths = CorpusSpecs();
  ASSERT_GE(paths.size(), 6u);
  bool zipf = false, burst = false, clusters = false, master_mix = false,
       second_workload = false;
  for (const std::string& path : paths) {
    Result<ScenarioSpec> spec = LoadScenarioSpecFile(path);
    ASSERT_TRUE(spec.ok()) << path << ": " << spec.status();
    if (spec->popularity.kind == PopularityKind::kZipf) zipf = true;
    if (spec->arrival.kind == ArrivalKind::kBursty) burst = true;
    if (spec->errors.cluster_len > 0 && spec->errors.burst_continue > 0) {
      clusters = true;
    }
    if (spec->arrival.master_ratio > 0) master_mix = true;
    if (spec->workload == "dblp") second_workload = true;
  }
  EXPECT_TRUE(zipf) << "no zipf-skew scenario in the corpus";
  EXPECT_TRUE(burst) << "no bursty-arrival scenario in the corpus";
  EXPECT_TRUE(clusters) << "no correlated-error-cluster scenario";
  EXPECT_TRUE(master_mix) << "no master-delta interleave scenario";
  EXPECT_TRUE(second_workload) << "corpus only exercises one workload";
}

}  // namespace
}  // namespace certfix
