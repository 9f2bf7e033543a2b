#include "tools/cli.h"

#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <ostream>
#include <set>
#include <sstream>

#include "analysis/analyzer.h"
#include "core/batch_repair.h"
#include "core/dependency_graph.h"
#include "core/zproblems.h"
#include "core/cregion.h"
#include "incremental/delta_repair.h"
#include "incremental/durable_session.h"
#include "storage/wal.h"
#include "mining/rule_miner.h"
#include "relational/csv.h"
#include "relational/csv_stream.h"
#include "rules/rule_parser.h"
#include "stream/delta_source.h"
#include "stream/stream_repair.h"
#include "telemetry/clock.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "util/string_util.h"
#include "workload/scenario.h"

namespace certfix {

namespace {

struct ParsedArgs {
  std::string command;
  std::map<std::string, std::string> flags;
  std::vector<std::string> errors;
};

/// The flags each subcommand accepts. Anything else is a usage error,
/// so a stale or misspelt flag can neither be silently ignored nor
/// swallow the next argument as its value.
const std::set<std::string>* AcceptedFlags(const std::string& command) {
  static const std::map<std::string, std::set<std::string>> kFlags = [] {
    const std::set<std::string> telemetry = {
        "metrics-json", "trace-out", "metrics-deterministic", "no-telemetry"};
    auto with_telemetry = [&](std::set<std::string> flags) {
      flags.insert(telemetry.begin(), telemetry.end());
      return flags;
    };
    auto repair = [&](std::set<std::string> extra) {
      extra.insert({"master", "rules", "input", "trusted", "output",
                    "threads", "analyze"});
      return with_telemetry(std::move(extra));
    };
    return std::map<std::string, std::set<std::string>>{
        {"mine", {"master", "max-lhs", "no-conditional"}},
        {"analyze",
         {"master", "rules", "trusted", "json", "strict", "max-probes"}},
        {"check", {"master", "rules", "region"}},
        {"repair", repair({"chunk-size"})},
        {"repair-stream", repair({"queue-capacity"})},
        {"repair-deltas",
         repair({"queue-capacity", "deltas", "wal", "snapshot-every",
                 "no-compress", "no-sync", "mmap-budget"})},
        {"snapshot", {"dir", "threads", "mmap-budget", "no-compress"}},
        {"recover", with_telemetry({"dir", "output", "threads",
                                    "queue-capacity", "mmap-budget"})},
        {"workload-gen", {"spec", "out-dir", "prefix"}},
    };
  }();
  auto it = kFlags.find(command);
  return it == kFlags.end() ? nullptr : &it->second;
}

ParsedArgs ParseArgs(const std::vector<std::string>& args) {
  ParsedArgs out;
  if (args.empty()) {
    out.errors.push_back("missing subcommand");
    return out;
  }
  out.command = args[0];
  // An unknown subcommand is reported by RunCli; its flags go unchecked.
  const std::set<std::string>* accepted = AcceptedFlags(out.command);
  for (size_t i = 1; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (!StartsWith(a, "--")) {
      out.errors.push_back("unexpected positional argument: " + a);
      continue;
    }
    std::string key = a.substr(2);
    if (accepted != nullptr && accepted->count(key) == 0) {
      out.errors.push_back(
          "unknown flag --" + key + " for " +
          (out.command == "workload-gen" ? "workload gen" : out.command));
      continue;
    }
    if (key == "no-conditional" || key == "json" || key == "strict" ||
        key == "metrics-deterministic" || key == "no-telemetry" ||
        key == "no-compress" || key == "no-sync") {
      out.flags[key] = "true";
      continue;
    }
    if (i + 1 >= args.size()) {
      out.errors.push_back("flag --" + key + " needs a value");
      continue;
    }
    out.flags[key] = args[++i];
  }
  return out;
}

void Usage(std::ostream& err) {
  err << "usage: certfix "
         "<mine|analyze|check|repair|repair-stream|repair-deltas|"
         "snapshot|recover|workload gen> [flags]\n"
      << "  mine    --master M.csv [--max-lhs N] [--no-conditional]\n"
      << "  analyze --master M.csv --rules R.rules [--trusted a,b]\n"
      << "          [--json] [--strict] [--max-probes N]\n"
      << "  check   --master M.csv --rules R.rules --region a,b,c\n"
      << "  repair  --master M.csv --rules R.rules --input D.csv\n"
      << "          --trusted a,b [--output OUT.csv] [--threads N]\n"
      << "          [--chunk-size N] [--analyze off|warn|strict]\n"
      << "          [telemetry flags]\n"
      << "  repair-stream\n"
      << "          --master M.csv --rules R.rules --input D.csv\n"
      << "          --trusted a,b [--output OUT.csv] [--threads N]\n"
      << "          [--queue-capacity N] [--analyze off|warn|strict]\n"
      << "          [telemetry flags]\n"
      << "  repair-deltas\n"
      << "          --master M.csv --rules R.rules --input D.csv\n"
      << "          --deltas D.deltas --trusted a,b [--output OUT.csv]\n"
      << "          [--threads N] [--queue-capacity N]\n"
      << "          [--analyze off|warn|strict] [telemetry flags]\n"
      << "          [--wal DIR] [--snapshot-every N] [--no-compress]\n"
      << "          [--no-sync] [--mmap-budget BYTES]\n"
      << "          (--wal persists state durably; with an existing DIR\n"
      << "           the session is recovered and --master/--rules/\n"
      << "           --input/--trusted are read from it; --deltas is\n"
      << "           then optional. --deltas accepts the CSV delta-log\n"
      << "           or binary WAL format.)\n"
      << "  snapshot --dir DIR [--threads N] [--no-compress]\n"
      << "          [--mmap-budget BYTES]\n"
      << "          (rotates a durable session to a fresh snapshot\n"
      << "           generation, emptying its WAL)\n"
      << "  recover --dir DIR [--output OUT.csv] [--threads N]\n"
      << "          [--queue-capacity N] [--mmap-budget BYTES]\n"
      << "          [telemetry flags]\n"
      << "          (snapshot load + WAL replay; prints what recovery\n"
      << "           found and optionally writes the repaired relation)\n"
      << "  workload gen\n"
      << "          --spec S.toml --out-dir DIR [--prefix NAME]\n"
      << "          (writes NAME_master.csv, NAME_initial.csv,\n"
      << "           NAME.deltas, NAME.rules)\n"
      << "telemetry flags (repair commands):\n"
      << "  --metrics-json PATH       write a metrics-registry snapshot\n"
      << "  --trace-out PATH          write a Chrome/Perfetto trace\n"
      << "  --metrics-deterministic   zero all timings (golden-pinnable)\n"
      << "  --no-telemetry            skip clock reads on hot paths\n";
}

Result<Relation> LoadMaster(const ParsedArgs& args) {
  auto it = args.flags.find("master");
  if (it == args.flags.end()) {
    return Status::InvalidArgument("--master is required");
  }
  return ReadCsvFileInferSchema("Master", it->second);
}

Result<RuleSet> LoadRules(const ParsedArgs& args, const SchemaPtr& schema) {
  auto it = args.flags.find("rules");
  if (it == args.flags.end()) {
    return Status::InvalidArgument("--rules is required");
  }
  std::ifstream in(it->second);
  if (!in) return Status::NotFound("cannot open rules file: " + it->second);
  std::stringstream buf;
  buf << in.rdbuf();
  return ParseRules(buf.str(), schema, schema);
}

Result<std::vector<AttrId>> ResolveList(const SchemaPtr& schema,
                                        const std::string& csv) {
  std::vector<std::string> names;
  for (const std::string& part : Split(csv, ',')) {
    std::string t(Trim(part));
    if (!t.empty()) names.push_back(t);
  }
  if (names.empty()) {
    return Status::InvalidArgument("empty attribute list");
  }
  return schema->Resolve(names);
}

int CmdMine(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  Result<Relation> master = LoadMaster(args);
  if (!master.ok()) {
    err << master.status() << "\n";
    return 2;
  }
  RuleMinerOptions options;
  auto it = args.flags.find("max-lhs");
  if (it != args.flags.end()) {
    options.max_lhs = std::strtoul(it->second.c_str(), nullptr, 10);
  }
  if (args.flags.count("no-conditional") > 0) {
    options.mine_conditional = false;
  }
  RuleMiner miner(*master, options);
  Result<RuleSet> rules =
      miner.MineRules(master->schema(), master->schema());
  if (!rules.ok()) {
    err << rules.status() << "\n";
    return 2;
  }
  out << "# " << rules->size() << " rules mined from "
      << master->size() << " master rows\n";
  for (const EditingRule& rule : *rules) out << RuleToDsl(rule) << "\n";
  return 0;
}

/// Parses an optional non-negative integer flag. 0 is a meaningful value
/// for every size knob (all hardware threads / even split), so a typo
/// must not silently parse to it.
bool ParseSizeFlag(const ParsedArgs& args, const char* flag, size_t* out,
                   std::ostream& err) {
  auto it = args.flags.find(flag);
  if (it == args.flags.end()) return true;
  const std::string& s = it->second;
  if (!ParseSizeStrict(s, out)) {
    err << "--" << flag << " needs a non-negative integer, got '" << s
        << "'\n";
    return false;
  }
  return true;
}

/// Parses the optional --analyze off|warn|strict flag shared by the
/// repair commands.
bool ParseAnalyzeFlag(const ParsedArgs& args, AnalyzeMode* mode,
                      std::ostream& err) {
  auto it = args.flags.find("analyze");
  if (it == args.flags.end()) return true;
  Result<AnalyzeMode> parsed = ParseAnalyzeMode(it->second);
  if (!parsed.ok()) {
    err << parsed.status() << "\n";
    return false;
  }
  *mode = *parsed;
  return true;
}

int CmdAnalyze(const ParsedArgs& args, std::ostream& out,
               std::ostream& err) {
  const bool json = args.flags.count("json") > 0;
  const bool strict = args.flags.count("strict") > 0;
  Result<Relation> master = LoadMaster(args);
  if (!master.ok()) {
    err << master.status() << "\n";
    return 2;
  }
  Result<RuleSet> rules = LoadRules(args, master->schema());
  if (!rules.ok()) {
    // An unreadable file stays a plain error; a ruleset that *parsed
    // wrong* becomes a diagnostic so --json consumers see one format.
    if (rules.status().code() == StatusCode::kNotFound &&
        rules.status().message().rfind("cannot open", 0) == 0) {
      err << rules.status() << "\n";
      return 2;
    }
    RulesetReport report;
    Diagnostic d;
    // ParseRules rewraps every failure as kParseError with a "line N:"
    // prefix, so the unknown-attribute case is recognized by the
    // Schema::Resolve message it carries.
    d.kind = rules.status().code() == StatusCode::kNotFound ||
                     rules.status().message().find("has no attribute") !=
                         std::string::npos
                 ? DiagnosticKind::kUnknownAttribute
                 : DiagnosticKind::kParseError;
    d.severity = DiagnosticSeverity::kError;
    d.message = rules.status().message();
    report.diagnostics.push_back(std::move(d));
    if (json) {
      out << report.ToJson();
    } else {
      out << report.ToText();
    }
    return 2;
  }

  AttrSet trusted = RulesetAnalyzer::DefaultTrusted(*rules);
  if (auto it = args.flags.find("trusted"); it != args.flags.end()) {
    Result<std::vector<AttrId>> z = ResolveList(master->schema(), it->second);
    if (!z.ok()) {
      err << z.status() << "\n";
      return 2;
    }
    trusted = AttrSet::FromVector(*z);
  }
  AnalyzeOptions options;
  if (!ParseSizeFlag(args, "max-probes", &options.max_probes, err)) {
    return 1;
  }

  RulesetAnalyzer analyzer(*rules, master->schema());
  RulesetReport report = analyzer.Analyze(&*master, trusted, options);
  if (json) {
    out << report.ToJson();
    return strict && !report.ok() ? 2 : 0;
  }

  MasterIndex index(*rules, *master);
  Saturator sat(*rules, *master, index);
  RegionFinder finder(sat);
  DependencyGraph graph(*rules);

  out << "rules: " << rules->size() << ", master rows: " << master->size()
      << "\n";
  out << "dependency graph " << (graph.HasCycle() ? "(cyclic)" : "(acyclic)")
      << ":\n"
      << graph.ToDot();
  ZProblems z(sat);
  out << "attributes only the user can certify:";
  for (AttrId a : z.ForcedAttrs().ToVector()) {
    out << " " << master->schema()->attr_name(a);
  }
  out << "\nCompCRegion Z:";
  for (AttrId a : finder.CompCRegionZ()) {
    out << " " << master->schema()->attr_name(a);
  }
  out << "\nGRegion Z    :";
  for (AttrId a : finder.GRegionZ()) {
    out << " " << master->schema()->attr_name(a);
  }
  out << "\n\n" << report.ToText();
  return strict && !report.ok() ? 2 : 0;
}

int CmdCheck(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  Result<Relation> master = LoadMaster(args);
  if (!master.ok()) {
    err << master.status() << "\n";
    return 2;
  }
  Result<RuleSet> rules = LoadRules(args, master->schema());
  if (!rules.ok()) {
    err << rules.status() << "\n";
    return 2;
  }
  auto it = args.flags.find("region");
  if (it == args.flags.end()) {
    err << "--region is required\n";
    return 1;
  }
  Result<std::vector<AttrId>> z = ResolveList(master->schema(), it->second);
  if (!z.ok()) {
    err << z.status() << "\n";
    return 2;
  }
  MasterIndex index(*rules, *master);
  Saturator sat(*rules, *master, index);
  RegionFinder finder(sat);
  double coverage = 0.0;
  CRegionOptions options;
  Region region = finder.BuildRegion(*z, options, &coverage);
  out << "region Z = {" << it->second << "}: " << region.tableau().size()
      << " validated pattern rows; " << static_cast<int>(coverage * 100)
      << "% of sampled master tuples admit a certain fix\n";
  if (region.tableau().empty()) {
    out << "NOT a usable certain region (no pattern row validates)\n";
    return 2;
  }
  out << "certain region: yes (for the validated rows)\n";
  return 0;
}

/// Per-command telemetry scope shared by the repair commands. Gives the
/// command a fresh registry (RunCli is called many times in-process by
/// tests; counters must not bleed across commands), applies
/// --metrics-deterministic / --no-telemetry, and turns the tracer on
/// when --trace-out asks for a trace. Member order matters: the
/// registry is declared first so it is destroyed last, after every
/// engine that recorded into it.
struct TelemetryScope {
  explicit TelemetryScope(const ParsedArgs& args)
      : fake_clock(args.flags.count("metrics-deterministic") > 0),
        enabled(args.flags.count("no-telemetry") == 0) {
    if (args.flags.count("trace-out") > 0) {
      telemetry::Tracer::Global().Enable();
    }
  }
  ~TelemetryScope() { telemetry::Tracer::Global().Disable(); }
  TelemetryScope(const TelemetryScope&) = delete;
  TelemetryScope& operator=(const TelemetryScope&) = delete;

  telemetry::ScopedRegistry registry;
  telemetry::ScopedFakeClock fake_clock;
  telemetry::ScopedEnabled enabled;
};

/// Writes --metrics-json and --trace-out files if requested. Called on
/// every command exit path that ran the engine (a conflict exit still
/// has metrics worth keeping). Returns 0, or 2 on a write failure.
int DumpTelemetry(const ParsedArgs& args, std::ostream& err) {
  if (auto it = args.flags.find("metrics-json"); it != args.flags.end()) {
    std::ofstream out(it->second);
    if (!out) {
      err << Status::InvalidArgument("cannot open for write: " + it->second)
          << "\n";
      return 2;
    }
    out << telemetry::Registry::Global()->ToJson();
  }
  if (auto it = args.flags.find("trace-out"); it != args.flags.end()) {
    std::ofstream out(it->second);
    if (!out) {
      err << Status::InvalidArgument("cannot open for write: " + it->second)
          << "\n";
      return 2;
    }
    out << telemetry::Tracer::Global().ExportJson();
  }
  return 0;
}

/// Setup both repair commands share: master data, rules, the input
/// path, and the resolved trusted attribute set.
struct RepairSetup {
  Relation master;
  RuleSet rules;
  std::string input_path;
  AttrSet trusted;
};

/// Loads the common repair inputs (--master, --rules, --input,
/// --trusted). Returns 0 on success, else the command's exit code
/// (after printing to `err`).
int LoadRepairSetup(const ParsedArgs& args, std::ostream& err,
                    RepairSetup* setup) {
  Result<Relation> master = LoadMaster(args);
  if (!master.ok()) {
    err << master.status() << "\n";
    return 2;
  }
  Result<RuleSet> rules = LoadRules(args, master->schema());
  if (!rules.ok()) {
    err << rules.status() << "\n";
    return 2;
  }
  auto input_it = args.flags.find("input");
  auto trusted_it = args.flags.find("trusted");
  if (input_it == args.flags.end() || trusted_it == args.flags.end()) {
    err << "--input and --trusted are required\n";
    return 1;
  }
  Result<std::vector<AttrId>> trusted =
      ResolveList(master->schema(), trusted_it->second);
  if (!trusted.ok()) {
    err << trusted.status() << "\n";
    return 2;
  }
  setup->master = std::move(master).ValueOrDie();
  setup->rules = std::move(rules).ValueOrDie();
  setup->input_path = input_it->second;
  setup->trusted = AttrSet::FromVector(*trusted);
  return 0;
}

int CmdRepair(const ParsedArgs& args, std::ostream& out,
              std::ostream& err) {
  TelemetryScope telemetry_scope(args);
  RepairSetup setup;
  if (int code = LoadRepairSetup(args, err, &setup); code != 0) {
    return code;
  }
  Result<Relation> input = [&] {
    CERTFIX_SPAN("batch.ingest");
    return ReadCsvFile(setup.master.schema(), setup.input_path);
  }();
  if (!input.ok()) {
    err << input.status() << "\n";
    return 2;
  }
  RepairOptions options;
  if (!ParseSizeFlag(args, "threads", &options.num_threads, err) ||
      !ParseSizeFlag(args, "chunk-size", &options.chunk_size, err) ||
      !ParseAnalyzeFlag(args, &options.analyze_first, err)) {
    return 1;
  }
  MasterIndex index(setup.rules, setup.master);
  Saturator sat(setup.rules, setup.master, index);
  BatchRepair repair(sat, options);
  Result<BatchRepairResult> checked =
      repair.RepairChecked(*input, setup.trusted);
  if (!checked.ok()) {
    err << checked.status() << "\n";
    return 2;
  }
  BatchRepairResult result = std::move(checked).ValueOrDie();
  out << "rows: " << input->size()
      << "  fully covered: " << result.tuples_fully_covered
      << "  partial: " << result.tuples_partial
      << "  untouched: " << result.tuples_untouched
      << "  conflicts: " << result.tuples_conflicting
      << "  cells changed: " << result.cells_changed << "\n";
  out << "memo hits: " << result.memo_hits
      << "  memo misses: " << result.memo_misses << "\n";
  auto output_it = args.flags.find("output");
  if (output_it != args.flags.end()) {
    CERTFIX_SPAN("batch.sink");
    Status st = WriteCsvFile(result.repaired, output_it->second);
    if (!st.ok()) {
      err << st << "\n";
      return 2;
    }
    out << "repaired relation written to " << output_it->second << "\n";
  }
  if (int code = DumpTelemetry(args, err); code != 0) return code;
  return result.tuples_conflicting == 0 ? 0 : 2;
}

int CmdRepairStream(const ParsedArgs& args, std::ostream& out,
                    std::ostream& err) {
  TelemetryScope telemetry_scope(args);
  RepairSetup setup;
  if (int code = LoadRepairSetup(args, err, &setup); code != 0) {
    return code;
  }
  StreamOptions options;
  if (!ParseSizeFlag(args, "threads", &options.num_shards, err) ||
      !ParseSizeFlag(args, "queue-capacity", &options.queue_capacity, err) ||
      !ParseAnalyzeFlag(args, &options.analyze_first, err)) {
    return 1;
  }
  std::ifstream in(setup.input_path);
  if (!in) {
    err << Status::NotFound("cannot open file: " + setup.input_path) << "\n";
    return 2;
  }

  MasterIndex index(setup.rules, setup.master);
  Saturator sat(setup.rules, setup.master, index);
  CsvTupleSource source(setup.master.schema(), in);

  std::ofstream file_out;
  std::unique_ptr<StreamSink> sink;
  auto output_it = args.flags.find("output");
  if (output_it != args.flags.end()) {
    file_out.open(output_it->second);
    if (!file_out) {
      err << Status::InvalidArgument("cannot open for write: " +
                                     output_it->second)
          << "\n";
      return 2;
    }
    sink = std::make_unique<CsvStreamSink>(setup.master.schema(), file_out);
  } else {
    sink = std::make_unique<NullSink>();
  }

  StreamRepairEngine engine(sat, setup.trusted, sink.get(), options);
  if (!engine.precheck_status().ok()) {
    err << engine.precheck_status() << "\n";
    return 2;
  }
  std::vector<std::string> fields;
  for (;;) {
    Result<bool> got = source.Next(&fields);
    if (!got.ok()) {
      err << got.status() << "\n";
      return 2;
    }
    if (!*got) break;
    Status st = engine.PushStrings(fields);
    if (!st.ok()) {
      err << st << "\n";
      // A refused push usually means a shard worker died; Finish()
      // rethrows its exception — surface the root cause, not just the
      // generic push error.
      try {
        engine.Finish();
      } catch (const std::exception& e) {
        err << "stream worker failed: " << e.what() << "\n";
      }
      return 2;
    }
  }
  StreamSnapshot s;
  try {
    s = engine.Finish();
  } catch (const std::exception& e) {
    err << "stream worker failed: " << e.what() << "\n";
    return 2;
  }
  out << "rows: " << s.tuples_out
      << "  fully covered: " << s.fully_covered
      << "  partial: " << s.partial
      << "  untouched: " << s.untouched
      << "  conflicts: " << s.conflicting
      << "  cells changed: " << s.cells_changed << "\n";
  out << "shards: " << engine.num_shards()
      << "  backpressure waits: " << s.backpressure_waits
      << "  pool recycles: " << s.pool_recycles
      << "  memo hits: " << s.memo_hits
      << "  memo misses: " << s.memo_misses << "\n";
  if (output_it != args.flags.end()) {
    out << "repaired relation written to " << output_it->second << "\n";
  }
  if (int code = DumpTelemetry(args, err); code != 0) return code;
  return s.conflicting == 0 ? 0 : 2;
}

int CmdRepairDeltas(const ParsedArgs& args, std::ostream& out,
                    std::ostream& err) {
  TelemetryScope telemetry_scope(args);
  DeltaRepairOptions options;
  if (!ParseSizeFlag(args, "threads", &options.num_shards, err) ||
      !ParseSizeFlag(args, "queue-capacity", &options.queue_capacity, err) ||
      !ParseAnalyzeFlag(args, &options.analyze_first, err)) {
    return 1;
  }

  auto wal_it = args.flags.find("wal");
  auto deltas_it = args.flags.find("deltas");
  if (deltas_it == args.flags.end() && wal_it == args.flags.end()) {
    err << "--deltas is required (unless recovering via --wal)\n";
    return 1;
  }
  DurableOptions durable;
  durable.engine = options;
  if (!ParseSizeFlag(args, "snapshot-every", &durable.snapshot_every, err) ||
      !ParseSizeFlag(args, "mmap-budget", &durable.mmap_budget_bytes, err)) {
    return 1;
  }
  durable.compress_snapshots = args.flags.count("no-compress") == 0;
  durable.sync_every_append = args.flags.count("no-sync") == 0;

  // Lifetime note: a plain (non-durable) engine borrows setup.rules, so
  // setup must outlive it.
  RepairSetup setup;
  std::unique_ptr<DurableSession> session;
  std::unique_ptr<DeltaRepairEngine> owned_engine;
  DeltaRepairStats stats;
  try {
    if (wal_it != args.flags.end() &&
        DurableSession::Exists(wal_it->second)) {
      Result<std::unique_ptr<DurableSession>> opened =
          DurableSession::Open(wal_it->second, durable);
      if (!opened.ok()) {
        err << opened.status() << "\n";
        return 2;
      }
      session = std::move(opened).ValueOrDie();
      const RecoveryInfo& rec = session->recovery();
      out << "recovered " << wal_it->second << ": snapshot "
          << rec.snapshot_id << "  replayed: " << rec.replayed_records
          << "  discarded bytes: " << rec.discarded_bytes
          << "  mapped columns: " << rec.mapped_columns << "\n";
    } else {
      if (int code = LoadRepairSetup(args, err, &setup); code != 0) {
        return code;
      }
      Result<Relation> input =
          ReadCsvFile(setup.master.schema(), setup.input_path);
      if (!input.ok()) {
        err << input.status() << "\n";
        return 2;
      }
      if (wal_it != args.flags.end()) {
        Result<std::unique_ptr<DurableSession>> created =
            DurableSession::Create(wal_it->second, setup.rules, setup.master,
                                   *input, setup.trusted, durable);
        if (!created.ok()) {
          err << created.status() << "\n";
          return 2;
        }
        session = std::move(created).ValueOrDie();
      } else {
        owned_engine = std::make_unique<DeltaRepairEngine>(
            setup.rules, setup.master, setup.trusted, options);
        if (!owned_engine->precheck_status().ok()) {
          err << owned_engine->precheck_status() << "\n";
          return 2;
        }
        if (Status st = owned_engine->Load(*input); !st.ok()) {
          err << st << "\n";
          return 2;
        }
      }
    }
    DeltaRepairEngine& engine =
        session != nullptr ? session->engine() : *owned_engine;
    if (!engine.precheck_status().ok()) {
      err << engine.precheck_status() << "\n";
      return 2;
    }
    if (deltas_it != args.flags.end()) {
      const RuleSet& rules = session != nullptr ? session->rules()
                                                : setup.rules;
      Result<std::unique_ptr<DeltaSource>> source = storage::OpenDeltaLog(
          rules.r_schema(), rules.rm_schema(), deltas_it->second);
      if (!source.ok()) {
        err << source.status() << "\n";
        return 2;
      }
      Status st = session != nullptr ? session->ApplyAll(source->get())
                                     : engine.ApplyAll(source->get());
      if (!st.ok()) {
        err << st << "\n";
        return 2;
      }
    }
    stats = engine.stats();
  } catch (const std::exception& e) {
    err << "delta engine worker failed: " << e.what() << "\n";
    return 2;
  }
  DeltaRepairEngine& engine =
      session != nullptr ? session->engine() : *owned_engine;
  if (session != nullptr) {
    out << "wal: " << session->dir() << "  snapshot: "
        << session->snapshot_id() << "  pending deltas: "
        << session->records_since_snapshot() << "\n";
  }
  out << "rows: " << stats.rows
      << "  fully covered: " << stats.fully_covered
      << "  partial: " << stats.partial
      << "  untouched: " << stats.untouched
      << "  conflicts: " << stats.conflicting
      << "  cells changed: " << stats.cells_changed << "\n";
  out << "deltas: " << stats.deltas_applied
      << "  repairs: " << stats.tuples_repaired
      << "  invalidated: " << stats.tuples_invalidated
      << "  rebuilds: " << stats.master_rebuilds
      << "  no-op updates: " << stats.noop_updates
      << "  shards: " << engine.num_shards()
      << "  memo hits: " << stats.memo_hits
      << "  memo misses: " << stats.memo_misses << "\n";
  auto output_it = args.flags.find("output");
  if (output_it != args.flags.end()) {
    Status st = WriteCsvFile(engine.SnapshotRepaired(), output_it->second);
    if (!st.ok()) {
      err << st << "\n";
      return 2;
    }
    out << "repaired relation written to " << output_it->second << "\n";
  }
  if (int code = DumpTelemetry(args, err); code != 0) return code;
  return stats.conflicting == 0 ? 0 : 2;
}

int CmdSnapshot(const ParsedArgs& args, std::ostream& out,
                std::ostream& err) {
  auto dir_it = args.flags.find("dir");
  if (dir_it == args.flags.end()) {
    err << "--dir is required\n";
    return 1;
  }
  DurableOptions durable;
  if (!ParseSizeFlag(args, "threads", &durable.engine.num_shards, err) ||
      !ParseSizeFlag(args, "mmap-budget", &durable.mmap_budget_bytes, err)) {
    return 1;
  }
  durable.compress_snapshots = args.flags.count("no-compress") == 0;
  try {
    Result<std::unique_ptr<DurableSession>> opened =
        DurableSession::Open(dir_it->second, durable);
    if (!opened.ok()) {
      err << opened.status() << "\n";
      return 2;
    }
    std::unique_ptr<DurableSession> session = std::move(opened).ValueOrDie();
    if (Status st = session->WriteSnapshot(); !st.ok()) {
      err << st << "\n";
      return 2;
    }
    out << "snapshot generation " << session->snapshot_id()
        << " committed in " << dir_it->second << "\n";
  } catch (const std::exception& e) {
    err << "delta engine worker failed: " << e.what() << "\n";
    return 2;
  }
  return 0;
}

int CmdRecover(const ParsedArgs& args, std::ostream& out,
               std::ostream& err) {
  TelemetryScope telemetry_scope(args);
  auto dir_it = args.flags.find("dir");
  if (dir_it == args.flags.end()) {
    err << "--dir is required\n";
    return 1;
  }
  DurableOptions durable;
  if (!ParseSizeFlag(args, "threads", &durable.engine.num_shards, err) ||
      !ParseSizeFlag(args, "queue-capacity", &durable.engine.queue_capacity,
                     err) ||
      !ParseSizeFlag(args, "mmap-budget", &durable.mmap_budget_bytes, err)) {
    return 1;
  }
  DeltaRepairStats stats;
  std::unique_ptr<DurableSession> session;
  try {
    Result<std::unique_ptr<DurableSession>> opened =
        DurableSession::Open(dir_it->second, durable);
    if (!opened.ok()) {
      err << opened.status() << "\n";
      return 2;
    }
    session = std::move(opened).ValueOrDie();
    stats = session->engine().stats();
  } catch (const std::exception& e) {
    err << "delta engine worker failed: " << e.what() << "\n";
    return 2;
  }
  const RecoveryInfo& rec = session->recovery();
  out << "recovered " << dir_it->second << ": snapshot " << rec.snapshot_id
      << "  replayed: " << rec.replayed_records
      << "  discarded bytes: " << rec.discarded_bytes
      << "  mapped columns: " << rec.mapped_columns << "\n";
  out << "rows: " << stats.rows
      << "  fully covered: " << stats.fully_covered
      << "  partial: " << stats.partial
      << "  untouched: " << stats.untouched
      << "  conflicts: " << stats.conflicting
      << "  cells changed: " << stats.cells_changed << "\n";
  if (auto output_it = args.flags.find("output");
      output_it != args.flags.end()) {
    Status st =
        WriteCsvFile(session->engine().SnapshotRepaired(), output_it->second);
    if (!st.ok()) {
      err << st << "\n";
      return 2;
    }
    out << "repaired relation written to " << output_it->second << "\n";
  }
  if (int code = DumpTelemetry(args, err); code != 0) return code;
  return stats.conflicting == 0 ? 0 : 2;
}

int CmdWorkloadGen(const ParsedArgs& args, std::ostream& out,
                   std::ostream& err) {
  auto spec_it = args.flags.find("spec");
  auto dir_it = args.flags.find("out-dir");
  if (spec_it == args.flags.end() || dir_it == args.flags.end()) {
    err << "--spec and --out-dir are required\n";
    return 1;
  }
  Result<ScenarioSpec> spec = LoadScenarioSpecFile(spec_it->second);
  if (!spec.ok()) {
    err << spec.status() << "\n";
    return 2;
  }
  Result<Scenario> scenario = GenerateScenario(*spec);
  if (!scenario.ok()) {
    err << scenario.status() << "\n";
    return 2;
  }
  std::string prefix = scenario->spec.name;
  if (auto it = args.flags.find("prefix"); it != args.flags.end()) {
    prefix = it->second;
  }
  std::error_code ec;
  std::filesystem::create_directories(dir_it->second, ec);
  if (ec) {
    err << "cannot create " << dir_it->second << ": " << ec.message() << "\n";
    return 2;
  }
  std::string base = dir_it->second + "/" + prefix;
  if (Status st = WriteCsvFile(scenario->master, base + "_master.csv");
      !st.ok()) {
    err << st << "\n";
    return 2;
  }
  if (Status st = WriteCsvFile(scenario->initial, base + "_initial.csv");
      !st.ok()) {
    err << st << "\n";
    return 2;
  }
  std::ofstream deltas_out(base + ".deltas", std::ios::binary);
  if (!deltas_out) {
    err << "cannot open for write: " << base << ".deltas\n";
    return 2;
  }
  if (Status st = WriteDeltaLog(scenario->spec.name, scenario->spec.seed,
                                scenario->deltas, deltas_out);
      !st.ok()) {
    err << st << "\n";
    return 2;
  }
  deltas_out.close();
  // The ruleset the scenario was generated against, in the DSL
  // rule_parser.h reads back — so a generated scenario is runnable with
  // the CLI repair commands without hand-writing rules.
  std::ofstream rules_out(base + ".rules");
  if (!rules_out) {
    err << "cannot open for write: " << base << ".rules\n";
    return 2;
  }
  for (const EditingRule& rule : scenario->rules) {
    rules_out << RuleToDsl(rule) << "\n";
  }
  rules_out.close();
  std::string trusted_csv;
  for (const std::string& name : scenario->trusted_names) {
    if (!trusted_csv.empty()) trusted_csv += ",";
    trusted_csv += name;
  }
  out << "scenario: " << scenario->spec.name << "  workload: "
      << scenario->spec.workload << "  seed: " << scenario->spec.seed << "\n";
  out << "master rows: " << scenario->master.size()
      << "  initial rows: " << scenario->initial.size()
      << "  deltas: " << scenario->deltas.size() << "\n";
  out << "trusted: " << trusted_csv << "\n";
  out << "wrote " << base << "_master.csv, " << base << "_initial.csv, "
      << base << ".deltas, " << base << ".rules\n";
  return 0;
}

}  // namespace

int RunCli(const std::vector<std::string>& args, std::ostream& out,
           std::ostream& err) {
  // `workload` takes a positional subcommand before the flags; fold it
  // into the command name so the flag parser stays positional-free.
  std::vector<std::string> rewritten;
  if (!args.empty() && args[0] == "workload") {
    if (args.size() < 2 || args[1] != "gen") {
      err << "usage: certfix workload gen --spec S.toml --out-dir DIR"
             " [--prefix NAME]\n";
      return 1;
    }
    rewritten.assign(args.begin() + 1, args.end());
    rewritten[0] = "workload-gen";
  }
  ParsedArgs parsed = ParseArgs(rewritten.empty() ? args : rewritten);
  if (!parsed.errors.empty()) {
    for (const std::string& e : parsed.errors) err << "error: " << e << "\n";
    Usage(err);
    return 1;
  }
  if (parsed.command == "mine") return CmdMine(parsed, out, err);
  if (parsed.command == "analyze") return CmdAnalyze(parsed, out, err);
  if (parsed.command == "check") return CmdCheck(parsed, out, err);
  if (parsed.command == "repair") return CmdRepair(parsed, out, err);
  if (parsed.command == "repair-stream") {
    return CmdRepairStream(parsed, out, err);
  }
  if (parsed.command == "repair-deltas") {
    return CmdRepairDeltas(parsed, out, err);
  }
  if (parsed.command == "snapshot") return CmdSnapshot(parsed, out, err);
  if (parsed.command == "recover") return CmdRecover(parsed, out, err);
  if (parsed.command == "workload-gen") {
    return CmdWorkloadGen(parsed, out, err);
  }
  err << "unknown subcommand: " << parsed.command << "\n";
  Usage(err);
  return 1;
}

}  // namespace certfix
