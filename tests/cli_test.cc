#include "tools/cli.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "relational/csv.h"

namespace certfix {
namespace {

// Writes CSV fixtures under the gtest temp dir and returns their paths.
class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir();
    master_path_ = dir_ + "/master.csv";
    rules_path_ = dir_ + "/rules.txt";
    input_path_ = dir_ + "/input.csv";
    output_path_ = dir_ + "/out.csv";

    std::ofstream master(master_path_);
    master << "zip,AC,city,name\n"
              "EH7,131,Edi,Ann\n"
              "EH7,131,Edi,Bob\n"
              "NW1,020,Lnd,Cid\n"
              "G11,041,Gla,Dee\n";
    master.close();

    std::ofstream rules(rules_path_);
    rules << "rule r1*: (zip | zip) -> (AC, city | AC, city)\n";
    rules.close();

    std::ofstream input(input_path_);
    input << "zip,AC,city,name\n"
             "EH7,999,WRONG,Eve\n"   // fixable from zip
             "ZZZ,000,None,Fay\n";   // matches no master
    input.close();
  }

  int Run(std::vector<std::string> args) {
    out_.str("");
    err_.str("");
    return RunCli(args, out_, err_);
  }

  std::string dir_, master_path_, rules_path_, input_path_, output_path_;
  std::ostringstream out_, err_;
};

TEST_F(CliTest, NoCommandFails) {
  EXPECT_EQ(Run({}), 1);
  EXPECT_NE(err_.str().find("usage"), std::string::npos);
}

TEST_F(CliTest, UnknownCommandFails) {
  EXPECT_EQ(Run({"frobnicate"}), 1);
}

TEST_F(CliTest, MissingFlagValueFails) {
  EXPECT_EQ(Run({"mine", "--master"}), 1);
}

// Each subcommand accepts only its own flags: a stale, misspelt or
// foreign flag exits 1 naming it, and never swallows the next argument.
TEST_F(CliTest, UnknownFlagsFail) {
  const std::vector<std::vector<std::string>> cases = {
      {"repair", "--no-memo"},
      {"repair-deltas", "--index", "map"},
      {"repair", "--thread", "4"},
  };
  for (const std::vector<std::string>& extra : cases) {
    std::vector<std::string> args = {extra[0],  "--master",  master_path_,
                                     "--rules", rules_path_, "--input",
                                     input_path_, "--trusted", "zip"};
    args.insert(args.end(), extra.begin() + 1, extra.end());
    EXPECT_EQ(Run(args), 1) << extra[1];
    EXPECT_NE(err_.str().find("unknown flag " + extra[1] + " for " +
                              extra[0]),
              std::string::npos)
        << err_.str();
  }
  // A flag another subcommand accepts is still foreign here.
  EXPECT_EQ(Run({"mine", "--master", master_path_, "--json"}), 1);
  EXPECT_NE(err_.str().find("unknown flag --json for mine"),
            std::string::npos);
  EXPECT_EQ(Run({"workload", "gen", "--spec", "s.toml", "--threads", "2"}),
            1);
  EXPECT_NE(err_.str().find("unknown flag --threads for workload gen"),
            std::string::npos);
}

TEST_F(CliTest, MineEmitsParseableRules) {
  ASSERT_EQ(Run({"mine", "--master", master_path_, "--no-conditional"}), 0)
      << err_.str();
  std::string text = out_.str();
  EXPECT_NE(text.find("rule mined"), std::string::npos);
  // zip -> AC and zip -> city must be found.
  EXPECT_NE(text.find("(zip | zip) -> (AC | AC)"), std::string::npos);
  EXPECT_NE(text.find("(zip | zip) -> (city | city)"), std::string::npos);
}

TEST_F(CliTest, AnalyzeReportsRegions) {
  ASSERT_EQ(Run({"analyze", "--master", master_path_, "--rules",
                 rules_path_}),
            0)
      << err_.str();
  std::string text = out_.str();
  EXPECT_NE(text.find("CompCRegion Z:"), std::string::npos);
  EXPECT_NE(text.find("digraph"), std::string::npos);
  // zip and name can only be certified by the user.
  EXPECT_NE(text.find("zip"), std::string::npos);
  EXPECT_NE(text.find("name"), std::string::npos);
}

TEST_F(CliTest, CheckAcceptsGoodRegion) {
  ASSERT_EQ(Run({"check", "--master", master_path_, "--rules", rules_path_,
                 "--region", "zip,name"}),
            0)
      << err_.str();
  EXPECT_NE(out_.str().find("certain region: yes"), std::string::npos);
}

TEST_F(CliTest, CheckRejectsBadRegion) {
  // {zip} alone cannot cover name.
  EXPECT_EQ(Run({"check", "--master", master_path_, "--rules", rules_path_,
                 "--region", "zip"}),
            2);
}

TEST_F(CliTest, CheckUnknownAttributeFails) {
  EXPECT_EQ(Run({"check", "--master", master_path_, "--rules", rules_path_,
                 "--region", "nope"}),
            2);
}

TEST_F(CliTest, RepairFixesAndWritesOutput) {
  ASSERT_EQ(Run({"repair", "--master", master_path_, "--rules",
                 rules_path_, "--input", input_path_, "--trusted",
                 "zip,name", "--output", output_path_}),
            0)
      << err_.str();
  EXPECT_NE(out_.str().find("cells changed: 2"), std::string::npos);

  Result<Relation> repaired =
      ReadCsvFileInferSchema("Out", output_path_);
  ASSERT_TRUE(repaired.ok());
  // Row 0 fixed from master; row 1 untouched.
  EXPECT_EQ(repaired->at(0).at(1).as_string(), "131");
  EXPECT_EQ(repaired->at(0).at(2).as_string(), "Edi");
  EXPECT_EQ(repaired->at(1).at(1).as_string(), "000");
}

TEST_F(CliTest, RepairThreadsFlagMatchesSequentialOutput) {
  ASSERT_EQ(Run({"repair", "--master", master_path_, "--rules",
                 rules_path_, "--input", input_path_, "--trusted",
                 "zip,name", "--output", output_path_}),
            0)
      << err_.str();
  std::string sequential = out_.str();
  Result<Relation> seq_rel = ReadCsvFileInferSchema("Out", output_path_);
  ASSERT_TRUE(seq_rel.ok());

  std::string parallel_path = dir_ + "/out_mt.csv";
  ASSERT_EQ(Run({"repair", "--master", master_path_, "--rules",
                 rules_path_, "--input", input_path_, "--trusted",
                 "zip,name", "--output", parallel_path, "--threads", "4",
                 "--chunk-size", "1"}),
            0)
      << err_.str();
  EXPECT_EQ(out_.str().substr(0, out_.str().find("written to")),
            sequential.substr(0, sequential.find("written to")));
  Result<Relation> par_rel = ReadCsvFileInferSchema("Out", parallel_path);
  ASSERT_TRUE(par_rel.ok());
  ASSERT_EQ(par_rel->size(), seq_rel->size());
  for (size_t i = 0; i < seq_rel->size(); ++i) {
    EXPECT_EQ(par_rel->at(i), seq_rel->at(i)) << "row " << i;
  }
}

TEST_F(CliTest, RepairStreamMatchesBatchRepairByteForByte) {
  ASSERT_EQ(Run({"repair", "--master", master_path_, "--rules",
                 rules_path_, "--input", input_path_, "--trusted",
                 "zip,name", "--output", output_path_}),
            0)
      << err_.str();
  std::ifstream batch_file(output_path_);
  std::stringstream batch_bytes;
  batch_bytes << batch_file.rdbuf();

  for (const char* threads : {"1", "4"}) {
    std::string stream_path = dir_ + "/out_stream_" + threads + ".csv";
    ASSERT_EQ(Run({"repair-stream", "--master", master_path_, "--rules",
                   rules_path_, "--input", input_path_, "--trusted",
                   "zip,name", "--output", stream_path, "--threads",
                   threads, "--queue-capacity", "2"}),
              0)
        << err_.str();
    EXPECT_NE(out_.str().find("cells changed: 2"), std::string::npos);
    EXPECT_NE(out_.str().find("shards:"), std::string::npos);
    std::ifstream stream_file(stream_path);
    std::stringstream stream_bytes;
    stream_bytes << stream_file.rdbuf();
    EXPECT_EQ(stream_bytes.str(), batch_bytes.str())
        << "threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// Golden corpus: checked-in fixtures under tests/golden/ with expected
// repaired outputs. Any engine divergence — batch, stream, or delta —
// fails loudly against bytes under version control, not just against a
// sibling engine.

class GoldenTest : public CliTest {
 protected:
  static std::string Golden(const std::string& name) {
    return std::string(CERTFIX_GOLDEN_DIR) + "/" + name;
  }
  static std::string Slurp(const std::string& path) {
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::stringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
  }
};

TEST_F(GoldenTest, RepairMatchesGoldenOutput) {
  ASSERT_EQ(Run({"repair", "--master", Golden("master.csv"), "--rules",
                 Golden("rules.rules"), "--input", Golden("input.csv"),
                 "--trusted", "zip,name", "--output", output_path_}),
            0)
      << err_.str();
  EXPECT_EQ(Slurp(output_path_), Slurp(Golden("expected_repair.csv")));
}

TEST_F(GoldenTest, RepairStreamMatchesGoldenOutput) {
  for (const char* threads : {"1", "4"}) {
    ASSERT_EQ(Run({"repair-stream", "--master", Golden("master.csv"),
                   "--rules", Golden("rules.rules"), "--input",
                   Golden("input.csv"), "--trusted", "zip,name", "--output",
                   output_path_, "--threads", threads}),
              0)
        << err_.str();
    EXPECT_EQ(Slurp(output_path_), Slurp(Golden("expected_repair.csv")))
        << "threads=" << threads;
  }
}

TEST_F(GoldenTest, RepairDeltasMatchesGoldenOutput) {
  for (const char* threads : {"1", "4"}) {
    ASSERT_EQ(Run({"repair-deltas", "--master", Golden("master.csv"),
                   "--rules", Golden("rules.rules"), "--input",
                   Golden("input.csv"), "--deltas", Golden("deltas.log"),
                   "--trusted", "zip,name", "--output", output_path_,
                   "--threads", threads, "--queue-capacity", "2"}),
              0)
        << err_.str();
    EXPECT_NE(out_.str().find("invalidated: 2"), std::string::npos)
        << out_.str();
    EXPECT_NE(out_.str().find("rebuilds: 1"), std::string::npos)
        << out_.str();
    EXPECT_EQ(Slurp(output_path_), Slurp(Golden("expected_deltas.csv")))
        << "threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// Workload generator: `workload gen` output is byte-pinned for two seeds
// under tests/golden/workload/. The specs differ only in seed, so these
// also pin that the seed — and only the seed — moves the bytes.

TEST_F(GoldenTest, WorkloadGenMatchesGoldenFixtures) {
  for (const char* name : {"gen-seed1", "gen-seed2"}) {
    ASSERT_EQ(Run({"workload", "gen", "--spec",
                   Golden(std::string("workload/") + name + ".toml"),
                   "--out-dir", dir_, "--prefix", name}),
              0)
        << err_.str();
    EXPECT_NE(out_.str().find("deltas: 30"), std::string::npos)
        << out_.str();
    for (const char* suffix :
         {"_master.csv", "_initial.csv", ".deltas", ".rules"}) {
      std::string file = std::string(name) + suffix;
      EXPECT_EQ(Slurp(dir_ + "/" + file), Slurp(Golden("workload/" + file)))
          << file;
    }
  }
}

TEST_F(GoldenTest, WorkloadGenIsDeterministicAcrossRuns) {
  std::string spec = Golden("workload/gen-seed1.toml");
  ASSERT_EQ(Run({"workload", "gen", "--spec", spec, "--out-dir", dir_,
                 "--prefix", "run_a"}),
            0)
      << err_.str();
  ASSERT_EQ(Run({"workload", "gen", "--spec", spec, "--out-dir", dir_,
                 "--prefix", "run_b"}),
            0)
      << err_.str();
  for (const char* suffix : {"_master.csv", "_initial.csv", ".deltas"}) {
    EXPECT_EQ(Slurp(dir_ + "/run_a" + suffix),
              Slurp(dir_ + "/run_b" + suffix))
        << suffix;
  }
}

TEST_F(CliTest, WorkloadGenMissingFlagsFail) {
  EXPECT_EQ(Run({"workload"}), 1);
  EXPECT_NE(err_.str().find("workload gen"), std::string::npos);
  EXPECT_EQ(Run({"workload", "frobnicate"}), 1);
  EXPECT_EQ(Run({"workload", "gen"}), 1);
  EXPECT_NE(err_.str().find("--spec"), std::string::npos);
  EXPECT_EQ(Run({"workload", "gen", "--spec", rules_path_}), 1);
  EXPECT_NE(err_.str().find("--out-dir"), std::string::npos);
}

TEST_F(CliTest, WorkloadGenRejectsBadSpec) {
  EXPECT_EQ(Run({"workload", "gen", "--spec", dir_ + "/nope.toml",
                 "--out-dir", dir_}),
            2);
  std::string bad_path = dir_ + "/bad.toml";
  std::ofstream bad(bad_path);
  bad << "workload = \"hosp\"\nnot_a_knob = 3\n";
  bad.close();
  EXPECT_EQ(Run({"workload", "gen", "--spec", bad_path, "--out-dir", dir_}),
            2);
  EXPECT_NE(err_.str().find("not_a_knob"), std::string::npos);
}

TEST_F(CliTest, RepairDeltasMissingFlagsFail) {
  // --deltas is required.
  EXPECT_EQ(Run({"repair-deltas", "--master", master_path_, "--rules",
                 rules_path_, "--input", input_path_, "--trusted",
                 "zip,name"}),
            1);
  EXPECT_NE(err_.str().find("--deltas"), std::string::npos);
}

TEST_F(CliTest, RepairDeltasRejectsMalformedLog) {
  std::string deltas_path = dir_ + "/bad.deltas";
  std::ofstream deltas(deltas_path);
  deltas << "X,0\n";  // unknown op
  deltas.close();
  EXPECT_EQ(Run({"repair-deltas", "--master", master_path_, "--rules",
                 rules_path_, "--input", input_path_, "--deltas",
                 deltas_path, "--trusted", "zip,name"}),
            2);
  EXPECT_NE(err_.str().find("unknown op"), std::string::npos);
}

TEST_F(CliTest, RepairStreamMissingFlagsFail) {
  EXPECT_EQ(Run({"repair-stream", "--master", master_path_, "--rules",
                 rules_path_}),
            1);
  EXPECT_EQ(Run({"repair-stream", "--master", master_path_, "--rules",
                 rules_path_, "--input", input_path_, "--trusted",
                 "zip,name", "--threads", "nope"}),
            1);
}

TEST_F(CliTest, RepairMissingFlagsFail) {
  EXPECT_EQ(Run({"repair", "--master", master_path_, "--rules",
                 rules_path_}),
            1);
}

TEST_F(CliTest, RepairRejectsNonNumericThreads) {
  for (const char* bad : {"four", "-1", "2x", ""}) {
    EXPECT_EQ(Run({"repair", "--master", master_path_, "--rules",
                   rules_path_, "--input", input_path_, "--trusted",
                   "zip,name", "--threads", bad}),
              1)
        << "value '" << bad << "'";
    EXPECT_NE(err_.str().find("non-negative integer"), std::string::npos);
  }
  EXPECT_EQ(Run({"repair", "--master", master_path_, "--rules",
                 rules_path_, "--input", input_path_, "--trusted",
                 "zip,name", "--chunk-size", "oops"}),
            1);
}

TEST_F(CliTest, MissingFilesReported) {
  EXPECT_EQ(Run({"mine", "--master", dir_ + "/nope.csv"}), 2);
  EXPECT_EQ(Run({"analyze", "--master", master_path_, "--rules",
                 dir_ + "/nope.rules"}),
            2);
}

// ---------------------------------------------------------------------------
// Telemetry surface: --metrics-json is golden-pinned under the fake
// clock, --trace-out emits a balanced Chrome trace, and --no-telemetry
// must not move the repaired bytes or summary.

TEST_F(GoldenTest, RepairMetricsJsonMatchesGoldenFixture) {
  std::string metrics_path = dir_ + "/metrics.json";
  ASSERT_EQ(Run({"repair", "--master", Golden("master.csv"), "--rules",
                 Golden("rules.rules"), "--input", Golden("input.csv"),
                 "--trusted", "zip,name", "--metrics-deterministic",
                 "--metrics-json", metrics_path}),
            0)
      << err_.str();
  EXPECT_EQ(Slurp(metrics_path), Slurp(Golden("metrics/repair_metrics.json")));
}

TEST_F(GoldenTest, RepairStreamTraceOutIsBalanced) {
  std::string trace_path = dir_ + "/trace.json";
  std::string metrics_path = dir_ + "/stream_metrics.json";
  ASSERT_EQ(Run({"repair-stream", "--master", Golden("master.csv"),
                 "--rules", Golden("rules.rules"), "--input",
                 Golden("input.csv"), "--trusted", "zip,name", "--threads",
                 "2", "--trace-out", trace_path, "--metrics-json",
                 metrics_path}),
            0)
      << err_.str();
  std::string trace = Slurp(trace_path);
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("stream.shard_repair"), std::string::npos);
  size_t begins = 0, ends = 0, pos = 0;
  while ((pos = trace.find("\"ph\": \"", pos)) != std::string::npos) {
    (trace[pos + 7] == 'B' ? begins : ends)++;
    ++pos;
  }
  EXPECT_GT(begins, 0u);
  EXPECT_EQ(begins, ends);
  // The metrics snapshot rides along and names the hot-path histograms.
  std::string metrics = Slurp(metrics_path);
  EXPECT_NE(metrics.find("\"repair_tuple_ns\""), std::string::npos);
  EXPECT_NE(metrics.find("\"queue_push_wait_ns\""), std::string::npos);
}

TEST_F(GoldenTest, NoTelemetryFlagKeepsOutputIdentical) {
  ASSERT_EQ(Run({"repair", "--master", Golden("master.csv"), "--rules",
                 Golden("rules.rules"), "--input", Golden("input.csv"),
                 "--trusted", "zip,name", "--output", output_path_,
                 "--no-telemetry"}),
            0)
      << err_.str();
  EXPECT_EQ(Slurp(output_path_), Slurp(Golden("expected_repair.csv")));
  EXPECT_NE(out_.str().find("cells changed:"), std::string::npos);
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::stringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

TEST_F(CliTest, RepairDeltasWalPersistsAndMatchesPlainRun) {
  std::string deltas_path = dir_ + "/wal.deltas";
  {
    std::ofstream deltas(deltas_path);
    deltas << "I,,G11,000,Wrong,New\n"  // fixable from master's G11 row
              "U,0,NW1,999,Nope,Eve\n"
              "D,1\n";
  }
  std::string wal_dir = dir_ + "/wal_session";
  std::filesystem::remove_all(wal_dir);

  // Plain run is the reference.
  std::string plain_out = dir_ + "/plain.csv";
  ASSERT_EQ(Run({"repair-deltas", "--master", master_path_, "--rules",
                 rules_path_, "--input", input_path_, "--deltas",
                 deltas_path, "--trusted", "zip,name", "--output",
                 plain_out}),
            0)
      << err_.str();

  // Durable run: same bytes, plus a committed session directory.
  std::string durable_out = dir_ + "/durable.csv";
  ASSERT_EQ(Run({"repair-deltas", "--master", master_path_, "--rules",
                 rules_path_, "--input", input_path_, "--deltas",
                 deltas_path, "--trusted", "zip,name", "--wal", wal_dir,
                 "--output", durable_out}),
            0)
      << err_.str();
  EXPECT_NE(out_.str().find("wal: " + wal_dir), std::string::npos);
  EXPECT_EQ(ReadAll(durable_out), ReadAll(plain_out));
  EXPECT_TRUE(std::filesystem::exists(wal_dir + "/MANIFEST"));

  // recover needs nothing but the directory.
  std::string recovered_out = dir_ + "/recovered.csv";
  ASSERT_EQ(Run({"recover", "--dir", wal_dir, "--output", recovered_out}),
            0)
      << err_.str();
  EXPECT_NE(out_.str().find("recovered " + wal_dir), std::string::npos);
  EXPECT_NE(out_.str().find("replayed: 3"), std::string::npos);
  EXPECT_EQ(ReadAll(recovered_out), ReadAll(plain_out));

  // An existing --wal dir resumes the session: master/rules/input come
  // from the directory, and more deltas append on top.
  std::string more_path = dir_ + "/more.deltas";
  {
    std::ofstream deltas(more_path);
    deltas << "I,,EH7,1,2,Zed\n";
  }
  ASSERT_EQ(Run({"repair-deltas", "--wal", wal_dir, "--deltas", more_path,
                 "--output", durable_out}),
            0)
      << err_.str();
  EXPECT_NE(out_.str().find("recovered " + wal_dir), std::string::npos);
  EXPECT_NE(ReadAll(durable_out), ReadAll(plain_out));

  // snapshot rotates the generation and empties the WAL.
  ASSERT_EQ(Run({"snapshot", "--dir", wal_dir}), 0) << err_.str();
  EXPECT_NE(out_.str().find("snapshot generation"), std::string::npos);
  ASSERT_EQ(Run({"recover", "--dir", wal_dir}), 0) << err_.str();
  EXPECT_NE(out_.str().find("replayed: 0"), std::string::npos);
}

TEST_F(CliTest, RecoverSurvivesTornWalTail) {
  std::string deltas_path = dir_ + "/torn.deltas";
  {
    std::ofstream deltas(deltas_path);
    deltas << "I,,G11,000,Wrong,New\nD,0\n";
  }
  std::string wal_dir = dir_ + "/torn_session";
  std::filesystem::remove_all(wal_dir);
  ASSERT_EQ(Run({"repair-deltas", "--master", master_path_, "--rules",
                 rules_path_, "--input", input_path_, "--deltas",
                 deltas_path, "--trusted", "zip,name", "--wal", wal_dir}),
            0)
      << err_.str();

  // Chop the last 3 bytes off the WAL: a torn final record.
  std::string wal_path = wal_dir + "/wal-0.log";
  uint64_t size = std::filesystem::file_size(wal_path);
  std::filesystem::resize_file(wal_path, size - 3);
  ASSERT_EQ(Run({"recover", "--dir", wal_dir}), 0) << err_.str();
  EXPECT_NE(out_.str().find("replayed: 1"), std::string::npos);
  EXPECT_NE(out_.str().find("discarded bytes:"), std::string::npos);
}

TEST_F(CliTest, SnapshotAndRecoverRequireDir) {
  EXPECT_EQ(Run({"snapshot"}), 1);
  EXPECT_NE(err_.str().find("--dir"), std::string::npos);
  EXPECT_EQ(Run({"recover"}), 1);
  EXPECT_EQ(Run({"recover", "--dir", dir_ + "/no_such_session"}), 2);
}

TEST_F(CliTest, MinedRulesRoundTripThroughParser) {
  ASSERT_EQ(Run({"mine", "--master", master_path_}), 0) << err_.str();
  // Feed the mined DSL back through the repair path via a fresh file.
  std::string mined_path = dir_ + "/mined.rules";
  std::ofstream mined(mined_path);
  mined << out_.str();
  mined.close();
  EXPECT_EQ(Run({"repair", "--master", master_path_, "--rules", mined_path,
                 "--input", input_path_, "--trusted", "zip,name"}),
            0)
      << err_.str();
}

}  // namespace
}  // namespace certfix
