/// \file durable_session.h
/// \brief Crash-safe persistence for DeltaRepairEngine: periodic columnar
/// snapshots (storage/columnar.h) plus a write-ahead delta log
/// (storage/wal.h), so engine state survives a process kill at any byte.
///
/// State directory layout:
///
/// ```
/// MANIFEST                 "certfix-durable v1\nsnapshot <N>\n"
/// rules.rules              ruleset DSL (rule_parser.h round-trip)
/// trusted                  comma-separated trusted attribute names
/// snapshot-<N>.master.col  columnar master relation
/// snapshot-<N>.input.col   columnar UNREPAIRED input relation
/// wal-<N>.log              deltas accepted since snapshot N
/// ```
///
/// Crash-consistency protocol:
///
///  * Apply: append to wal-<N>, fsync, only then apply to the engine —
///    a delta the caller saw accepted is always recoverable; a torn
///    final record is one the caller never saw acknowledged and is
///    discarded by per-record CRC on replay.
///  * Snapshot rotation (WriteSnapshot): write snapshot-(N+1).{master,
///    input}.col and an empty wal-(N+1) first (each atomically), then
///    atomically rewrite MANIFEST to point at N+1 — the manifest rename
///    is the commit point; a crash on either side recovers from a
///    complete generation. Old generation files are deleted best-effort
///    after the commit.
///  * Recovery (Open): read MANIFEST, load both snapshots, rebuild the
///    engine (the master is adopted move-in, so columns past the RAM
///    budget stay memory-mapped), Load() the input, replay wal-<N>.
///
/// Why replay is exact: engine state is a deterministic function of
/// (master, input order, delta sequence) — the oracle contract of
/// delta_repair.h. The snapshot stores the unrepaired input, Load()
/// re-repairs it deterministically, and replayed deltas land in the
/// original order. Deltas the engine rejected (bad position, arity) were
/// deterministic no-ops the first time and re-reject identically on
/// replay, so logging before validation is safe.

#ifndef CERTFIX_INCREMENTAL_DURABLE_SESSION_H_
#define CERTFIX_INCREMENTAL_DURABLE_SESSION_H_

#include <cstdint>
#include <memory>
#include <string>

#include "incremental/delta_repair.h"
#include "storage/columnar.h"
#include "storage/wal.h"

namespace certfix {

struct DurableOptions {
  /// Engine knobs (shards, ring capacity, pool recycling, analyze gate)
  /// used by the in-memory engine.
  DeltaRepairOptions engine;
  /// Auto-rotate the snapshot after this many WAL appends; 0 = only on
  /// explicit WriteSnapshot() (the WAL then grows without bound).
  size_t snapshot_every = 0;
  /// fsync per append (see WalWriterOptions). Off trades durability of
  /// the most recent deltas for throughput.
  bool sync_every_append = true;
  /// Per-column raw-vs-varint choice when writing snapshots. Must be off
  /// for masters meant to load out-of-core (only raw blocks stay
  /// mapped).
  bool compress_snapshots = true;
  /// RAM budget for loading the master snapshot; columns beyond it stay
  /// memory-mapped (storage/columnar.h). The input snapshot always
  /// materializes — the engine rebuilds its own slot store from it.
  size_t mmap_budget_bytes = static_cast<size_t>(-1);
};

/// What recovery found (Open fills this; Create leaves it zeroed).
struct RecoveryInfo {
  uint64_t snapshot_id = 0;        ///< generation the manifest committed
  uint64_t replayed_records = 0;   ///< intact WAL records re-applied
  uint64_t discarded_bytes = 0;    ///< torn/corrupt WAL tail dropped
  size_t mapped_columns = 0;       ///< master columns left on the mmap
};

/// \brief Owns a DeltaRepairEngine plus its durability machinery. Same
/// single-caller-thread contract as the engine itself.
class DurableSession {
 public:
  /// Initializes `dir` (created if missing, must not already hold a
  /// session) with snapshot generation 0 of (master, input) and an empty
  /// WAL, persisting the ruleset and trusted set alongside.
  static Result<std::unique_ptr<DurableSession>> Create(
      const std::string& dir, const RuleSet& rules, const Relation& master,
      const Relation& input, AttrSet trusted, DurableOptions options = {});

  /// Recovers from an existing session directory: snapshot load + WAL
  /// replay per the protocol above. Rules and the trusted set are read
  /// back from the directory, so recovery needs nothing but `dir`.
  static Result<std::unique_ptr<DurableSession>> Open(
      const std::string& dir, DurableOptions options = {});

  /// True if `dir` holds a committed session (a MANIFEST).
  static bool Exists(const std::string& dir);

  DurableSession(const DurableSession&) = delete;
  DurableSession& operator=(const DurableSession&) = delete;
  ~DurableSession();

  /// WAL-append + fsync, then engine apply (and auto-rotation when
  /// snapshot_every is hit). The engine's verdict is returned; rejected
  /// deltas stay in the WAL harmlessly (see file comment).
  Status Apply(const Delta& delta);
  /// Applies every delta `source` yields, stopping on source errors.
  Status ApplyAll(DeltaSource* source);

  /// Rotates to a fresh snapshot generation (manifest commit), emptying
  /// the WAL. Telemetry: snapshot.bytes / snapshot.writes.
  Status WriteSnapshot();

  DeltaRepairEngine& engine() { return *engine_; }
  const RuleSet& rules() const { return *rules_; }
  const RecoveryInfo& recovery() const { return recovery_; }
  uint64_t records_since_snapshot() const { return records_since_snapshot_; }
  uint64_t snapshot_id() const { return snapshot_id_; }
  const std::string& dir() const { return dir_; }

 private:
  DurableSession() = default;

  /// Writes generation `id` (both snapshots + fresh WAL), then commits
  /// it by atomically rewriting MANIFEST. Resets records_since_snapshot_.
  Status CommitGeneration(uint64_t id);
  std::string SnapshotPath(uint64_t id, const char* which) const;
  std::string WalPath(uint64_t id) const;

  std::string dir_;
  DurableOptions options_;
  std::unique_ptr<RuleSet> rules_;  ///< owned; the engine borrows it
  AttrSet trusted_;
  std::unique_ptr<DeltaRepairEngine> engine_;
  std::unique_ptr<storage::WalWriter> wal_;
  uint64_t snapshot_id_ = 0;
  uint64_t records_since_snapshot_ = 0;
  RecoveryInfo recovery_;
};

}  // namespace certfix

#endif  // CERTFIX_INCREMENTAL_DURABLE_SESSION_H_
