#include "incremental/delta_repair.h"

#include <algorithm>
#include <numeric>

#include "analysis/analyzer.h"
#include "core/repair_memo.h"
#include "telemetry/trace.h"

namespace certfix {

DeltaMetrics::DeltaMetrics()
    : deltas_applied(baseline.BindCounter("delta.deltas_applied",
                                          &DeltaRepairStats::deltas_applied)),
      tuples_repaired(baseline.BindCounter(
          "delta.tuples_repaired", &DeltaRepairStats::tuples_repaired)),
      tuples_invalidated(baseline.BindCounter(
          "delta.tuples_invalidated", &DeltaRepairStats::tuples_invalidated)),
      master_rebuilds(baseline.BindCounter(
          "delta.master_rebuilds", &DeltaRepairStats::master_rebuilds)),
      noop_updates(baseline.BindCounter("delta.noop_updates",
                                        &DeltaRepairStats::noop_updates)),
      memo_hits(baseline.BindCounter("delta.memo_hits",
                                     &DeltaRepairStats::memo_hits)),
      memo_misses(baseline.BindCounter("delta.memo_misses",
                                       &DeltaRepairStats::memo_misses)),
      pool_recycles(baseline.BindCounter("delta.pool_recycles",
                                         &DeltaRepairStats::pool_recycles)),
      by_class{baseline.BindGauge("delta.fully_covered",
                                  &DeltaRepairStats::fully_covered),
               baseline.BindGauge("delta.partial", &DeltaRepairStats::partial),
               baseline.BindGauge("delta.untouched",
                                  &DeltaRepairStats::untouched),
               baseline.BindGauge("delta.conflicting",
                                  &DeltaRepairStats::conflicting)},
      cells_changed(baseline.BindGauge("delta.cells_changed",
                                       &DeltaRepairStats::cells_changed)),
      max_reorder(
          telemetry::Registry::Global()->GetMaxGauge("delta.max_reorder")) {}

namespace {
/// Private master copy for the copying constructor: the engine mutates
/// its master on kMaster* deltas, and the single-writer pool contract
/// forbids sharing the caller's pool for that.
Relation CopyToPrivatePool(const Relation& master) {
  Relation copy(master.schema());
  copy.Reserve(master.size());
  for (size_t i = 0; i < master.size(); ++i) {
    (void)copy.Append(master.at(i));  // same schema by construction
  }
  return copy;
}
}  // namespace

DeltaRepairEngine::DeltaRepairEngine(const RuleSet& rules,
                                     const Relation& master, AttrSet trusted,
                                     DeltaRepairOptions options)
    : DeltaRepairEngine(rules, CopyToPrivatePool(master), trusted, options) {}

DeltaRepairEngine::DeltaRepairEngine(const RuleSet& rules, Relation&& master,
                                     AttrSet trusted,
                                     DeltaRepairOptions options)
    : rules_(&rules),
      schema_(rules.r_schema()),
      master_schema_(rules.rm_schema()),
      trusted_(trusted),
      options_(options),
      all_rules_(rules.size()),
      master_(std::move(master)),
      input_(schema_),
      repaired_(schema_),
      runtime_(options.num_shards, options.queue_capacity,
               ShardRepairer::block_rows()) {
  std::iota(all_rules_.begin(), all_rules_.end(), 0);
  index_ = std::make_unique<MasterIndex>(*rules_, master_);
  sat_ = std::make_unique<Saturator>(*rules_, master_, *index_);

  // The analyze_first gate runs before any worker exists: a strict
  // rejection leaves the engine inert with the verdict in
  // precheck_status_ — every mutator returns it via CheckLive.
  precheck_status_ = GateRuleset(*sat_, trusted_, options_.analyze_first,
                                 "DeltaRepairEngine");
  if (!precheck_status_.ok()) return;

  runtime_.Start([this](size_t shard, std::vector<Job>& batch) {
    RepairBatch(shards_[shard], batch);
  });
  // Workers reach shards_ only with a popped job, and no job can be
  // pushed before this constructor returns.
  shards_.reserve(runtime_.num_shards());
  for (size_t s = 0; s < runtime_.num_shards(); ++s) {
    shards_.push_back({ShardRepairer(*sat_, trusted_), sat_epoch_});
  }
}

DeltaRepairEngine::~DeltaRepairEngine() {
  // Workers apply into the members below; stop them first.
  runtime_.Close();
}

Status DeltaRepairEngine::CheckLive() {
  if (!precheck_status_.ok()) return precheck_status_;
  if (runtime_.failed()) {
    return Status::Internal(
        "delta engine worker failed; Flush() rethrows the cause");
  }
  return Status::OK();
}

Status DeltaRepairEngine::MasterSchemaCheck(const Tuple& t) const {
  if (t.schema().get() != master_schema_.get() &&
      !t.schema()->Equals(*master_schema_)) {
    return Status::InvalidArgument(
        "tuple schema does not match master schema " + master_schema_->name());
  }
  return Status::OK();
}

Status DeltaRepairEngine::InputSchemaCheck(const Tuple& t) const {
  if (t.schema().get() != schema_.get() && !t.schema()->Equals(*schema_)) {
    return Status::InvalidArgument("tuple schema does not match relation " +
                                   schema_->name());
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Pipeline

Status DeltaRepairEngine::EnqueueRepair(uint32_t slot) {
  CERTFIX_SPAN("delta.ingest");
  metrics_.tuples_repaired->Increment();
  Job job;
  job.slot = slot;
  job.epoch = sat_epoch_;
  job.sat = sat_.get();
  job.flush = memo_flush_head_;
  job.values.reserve(schema_->num_attrs());
  for (size_t a = 0; a < schema_->num_attrs(); ++a) {
    job.values.push_back(input_.Cell(slot, static_cast<AttrId>(a)));
  }
  if (!runtime_.Push(std::move(job), [](const Job& j) { return j.slot; })) {
    return Status::Internal("delta engine worker failed");
  }
  return Status::OK();
}

void DeltaRepairEngine::ApplyMemoFlush(RepairMemo* memo,
                                       const MemoFlush* head,
                                       uint64_t last_epoch) {
  if (memo->entries() == 0) return;  // nothing cached, nothing stale
  // Collect the nodes published since this repair context last ran. The
  // chain is newest-first; epochs are consecutive, so completeness means
  // the oldest collected node is exactly last_epoch + 1.
  std::vector<const MemoFlush*> nodes;
  for (const MemoFlush* n = head; n != nullptr && n->epoch > last_epoch;
       n = n->prev.get()) {
    nodes.push_back(n);
  }
  if (nodes.empty() || nodes.back()->epoch != last_epoch + 1) {
    // The depth cap cut the chain before it reached us: some invalidation
    // is unrecoverable, so drop everything rather than risk a stale hit.
    memo->Clear();
    return;
  }
  for (auto it = nodes.rbegin(); it != nodes.rend(); ++it) {
    memo->FlushProbes((*it)->hashes);
  }
}

void DeltaRepairEngine::RepairBatch(Shard& shard, std::vector<Job>& batch) {
  CERTFIX_SPAN("delta.shard_repair");
  ShardRepairer& repairer = shard.repairer;
  // Master deltas drain the pipeline before the epoch advances, so one
  // check covers the batch; the ring's mutex published the new saturator.
  const Job& head = batch.front();
  if (shard.epoch != head.epoch) {
    repairer.Rebind(*head.sat);
    ApplyMemoFlush(repairer.memo(), head.flush.get(), shard.epoch);
    shard.epoch = head.epoch;
  }
  if (repairer.RecycleIfOver(options_.pool_recycle_values)) {
    metrics_.pool_recycles->Increment();
  }
  repairer.Run(
      batch.size(), /*log_probes=*/true,
      [&](size_t i) { return repairer.MakeRow(batch[i].values); },
      [&](ShardRepairer::Outcome& o) {
        const Job& job = batch[o.index];
        Done done{job.seq, job.slot, o.OwnedCells(), o.repair.report,
                  std::move(o.probes.hashes), o.memo_hit};
        CERTFIX_SPAN("delta.merge");
        runtime_.Complete(std::move(done),
                          [this](Done& d) { ApplyResult(d); });
      });
}

void DeltaRepairEngine::UnregisterProbes(uint32_t slot) {
  for (uint64_t h : slot_probes_[slot]) {
    auto it = probe_to_slots_.find(h);
    if (it == probe_to_slots_.end()) continue;
    auto& v = it->second;
    v.erase(std::remove(v.begin(), v.end(), slot), v.end());
    if (v.empty()) probe_to_slots_.erase(it);
  }
  slot_probes_[slot].clear();
}

void DeltaRepairEngine::ApplyResult(Done& d) {
  uint32_t slot = d.slot;
  // Memo tallies count every finished repair, even one whose slot died
  // in flight — they measure saturation work saved, not live state.
  (d.memo_hit ? metrics_.memo_hits : metrics_.memo_misses)->Increment();
  if (slot_class_[slot] == kDeadClass) {
    return;  // deleted while the repair was in flight
  }
  UnregisterProbes(slot);
  std::sort(d.probes.begin(), d.probes.end());
  d.probes.erase(std::unique(d.probes.begin(), d.probes.end()),
                 d.probes.end());
  for (uint64_t h : d.probes) probe_to_slots_[h].push_back(slot);
  slot_probes_[slot] = std::move(d.probes);

  for (size_t a = 0; a < d.fixed.size(); ++a) {
    AttrId attr = static_cast<AttrId>(a);
    if (repaired_.Cell(slot, attr) != d.fixed[a]) {
      repaired_.SetCell(slot, attr, std::move(d.fixed[a]));
    }
  }

  if (slot_class_[slot] != kPendingClass) {
    metrics_.by_class[slot_class_[slot]]->Add(-1);
  }
  slot_class_[slot] = static_cast<uint8_t>(d.report.kind);
  metrics_.by_class[slot_class_[slot]]->Add(1);
  metrics_.cells_changed->Add(static_cast<int64_t>(d.report.cells_changed) -
                              slot_cells_[slot]);
  slot_cells_[slot] = static_cast<uint32_t>(d.report.cells_changed);
}

void DeltaRepairEngine::DrainPipeline() {
  runtime_.Drain();
  if (std::exception_ptr error = runtime_.TakeError()) {
    std::rethrow_exception(error);
  }
}

void DeltaRepairEngine::Flush() {
  Status st = EnsureIndexFresh();  // may enqueue invalidated re-repairs
  DrainPipeline();
  if (!st.ok()) {
    throw std::runtime_error(st.ToString());
  }
}

// ---------------------------------------------------------------------------
// Input deltas

Status DeltaRepairEngine::EnsureIndexFresh() {
  if (!index_stale_) return Status::OK();
  CERTFIX_SPAN("delta.rebuild");
  // A master delta staled the index. The pipeline is already quiescent
  // (master mutations drain it), so no worker can be probing the old one.
  index_ = std::make_unique<MasterIndex>(*rules_, master_);
  sat_ = std::make_unique<Saturator>(*rules_, master_, *index_);
  ++sat_epoch_;
  metrics_.master_rebuilds->Increment();
  index_stale_ = false;
  // Publish this epoch's memo invalidation. A node exists for every
  // epoch — even an empty one — so a worker can prove its flush chain
  // is gapless down to the epoch it last saw.
  auto node = std::make_shared<MemoFlush>();
  node->epoch = sat_epoch_;
  node->hashes = std::move(pending_memo_flush_);
  pending_memo_flush_.clear();
  node->prev = memo_flush_head_;
  memo_flush_head_ = std::move(node);
  // Cap the chain. The cut mutates a node others may hold refs to, but
  // the pipeline is quiescent here (master deltas drained it) and no
  // worker dereferences its chain outside batch start, so nothing
  // races; workers cut off simply Clear() when they next run.
  MemoFlush* n = memo_flush_head_.get();
  for (size_t depth = 1; n->prev != nullptr; ++depth) {
    if (depth >= kMaxFlushChain) {
      n->prev.reset();
      break;
    }
    n = n->prev.get();
  }
  std::vector<uint32_t> dirty(dirty_slots_.begin(), dirty_slots_.end());
  dirty_slots_.clear();
  metrics_.tuples_invalidated->Add(dirty.size());
  for (uint32_t slot : dirty) {
    CERTFIX_RETURN_IF_ERROR(EnqueueRepair(slot));
  }
  return Status::OK();
}

Status DeltaRepairEngine::Insert(const Tuple& t) {
  CERTFIX_RETURN_IF_ERROR(CheckLive());
  CERTFIX_RETURN_IF_ERROR(EnsureIndexFresh());
  uint32_t slot = static_cast<uint32_t>(input_.size());
  CERTFIX_RETURN_IF_ERROR(input_.Append(t));
  {
    auto lock = runtime_.LockMerge();
    // Placeholder: input values until the job lands.
    repaired_.Append(t);  // contract-lint: allow(status-discard) schema-checked on entry
    slot_probes_.emplace_back();
    slot_class_.push_back(kPendingClass);
    slot_cells_.push_back(0);
  }
  order_.push_back(slot);
  metrics_.deltas_applied->Increment();
  return EnqueueRepair(slot);
}

Status DeltaRepairEngine::Update(size_t pos, const Tuple& t) {
  CERTFIX_RETURN_IF_ERROR(CheckLive());
  if (pos >= order_.size()) {
    return Status::InvalidArgument("update position " + std::to_string(pos) +
                                   " out of range (rows: " +
                                   std::to_string(order_.size()) + ")");
  }
  // Unlike Insert (where Relation::Append validates), UpdateRow indexes
  // the tuple by this schema's attrs unchecked — validate here.
  CERTFIX_RETURN_IF_ERROR(InputSchemaCheck(t));
  CERTFIX_RETURN_IF_ERROR(EnsureIndexFresh());
  uint32_t slot = order_[pos];
  AttrSet changed = input_.UpdateRow(slot, t);
  metrics_.deltas_applied->Increment();
  if (changed.Empty()) {
    // Cell-level dirty tracking: the row is byte-identical, its repair is
    // still exact — nothing to invalidate.
    metrics_.noop_updates->Increment();
    return Status::OK();
  }
  return EnqueueRepair(slot);
}

Status DeltaRepairEngine::Delete(size_t pos) {
  CERTFIX_RETURN_IF_ERROR(CheckLive());
  if (pos >= order_.size()) {
    return Status::InvalidArgument("delete position " + std::to_string(pos) +
                                   " out of range (rows: " +
                                   std::to_string(order_.size()) + ")");
  }
  uint32_t slot = order_[pos];
  order_.erase(order_.begin() + static_cast<std::ptrdiff_t>(pos));
  dirty_slots_.erase(slot);
  {
    auto lock = runtime_.LockMerge();
    UnregisterProbes(slot);
    if (slot_class_[slot] != kPendingClass) {
      metrics_.by_class[slot_class_[slot]]->Add(-1);
    }
    metrics_.cells_changed->Add(-static_cast<int64_t>(slot_cells_[slot]));
    slot_cells_[slot] = 0;
    slot_class_[slot] = kDeadClass;
  }
  metrics_.deltas_applied->Increment();
  return Status::OK();
}

Status DeltaRepairEngine::Load(const Relation& input) {
  for (size_t i = 0; i < input.size(); ++i) {
    CERTFIX_RETURN_IF_ERROR(Insert(input.at(i)));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Master deltas

void DeltaRepairEngine::InvalidateMasterRow(
    size_t row, const std::vector<size_t>& rule_idxs) {
  auto lock = runtime_.LockMerge();
  for (size_t i : rule_idxs) {
    uint64_t h = MasterProbeKeyHash(i, master_, row, rules_->at(i).lhsm());
    // Every affected hash joins the next epoch's memo flush, whether or
    // not a live slot depends on it right now: shard memos also hold
    // entries for rows since deleted or updated, and for rows on rings
    // this thread knows nothing about.
    pending_memo_flush_.push_back(h);
    auto it = probe_to_slots_.find(h);
    if (it == probe_to_slots_.end()) continue;
    for (uint32_t slot : it->second) {
      if (slot_class_[slot] != kDeadClass) dirty_slots_.insert(slot);
    }
  }
}

Status DeltaRepairEngine::MasterInsert(const Tuple& t) {
  CERTFIX_RETURN_IF_ERROR(CheckLive());
  CERTFIX_RETURN_IF_ERROR(MasterSchemaCheck(t));
  DrainPipeline();
  CERTFIX_RETURN_IF_ERROR(master_.Append(t));
  // A new master row can answer any rule's probe for its key.
  InvalidateMasterRow(master_.size() - 1, all_rules_);
  index_stale_ = true;
  metrics_.deltas_applied->Increment();
  return Status::OK();
}

Status DeltaRepairEngine::MasterUpdate(size_t pos, const Tuple& t) {
  CERTFIX_RETURN_IF_ERROR(CheckLive());
  CERTFIX_RETURN_IF_ERROR(MasterSchemaCheck(t));
  if (pos >= master_.size()) {
    return Status::InvalidArgument(
        "master update position " + std::to_string(pos) +
        " out of range (rows: " + std::to_string(master_.size()) + ")");
  }
  // The changed mask only *reads* master_ cells (workers never write the
  // master), so a self-identical upsert is detected and skipped without
  // paying the drain barrier. Mutating master_ below does require
  // quiescence: interning into its pool would race worker probes.
  AttrSet changed;
  for (size_t a = 0; a < master_schema_->num_attrs(); ++a) {
    AttrId attr = static_cast<AttrId>(a);
    if (master_.Cell(pos, attr) != t.at(attr)) changed.Add(attr);
  }
  metrics_.deltas_applied->Increment();
  if (changed.Empty()) {
    metrics_.noop_updates->Increment();
    return Status::OK();
  }
  DrainPipeline();
  // Only rules whose master side reads a changed attribute can answer
  // differently — and only for the row's old or new key.
  std::vector<size_t> affected = rules_->RulesReadingMasterAttrs(changed);
  InvalidateMasterRow(pos, affected);  // old projections
  master_.UpdateRow(pos, t);
  InvalidateMasterRow(pos, affected);  // new projections
  if (!affected.empty()) index_stale_ = true;
  return Status::OK();
}

Status DeltaRepairEngine::MasterDelete(size_t pos) {
  CERTFIX_RETURN_IF_ERROR(CheckLive());
  if (pos >= master_.size()) {
    return Status::InvalidArgument(
        "master delete position " + std::to_string(pos) +
        " out of range (rows: " + std::to_string(master_.size()) + ")");
  }
  DrainPipeline();
  InvalidateMasterRow(pos, all_rules_);
  // Relations have no erase; rebuild the master without the row. The
  // MasterIndex rebuild right after is O(|Dm|) anyway. Old index/saturator
  // reference the dropped relation — destroy them before it goes away.
  index_.reset();
  sat_.reset();
  Relation next(master_schema_);
  next.Reserve(master_.size() - 1);
  for (size_t i = 0; i < master_.size(); ++i) {
    if (i != pos) next.Append(master_.at(i));
  }
  master_ = std::move(next);
  index_stale_ = true;
  metrics_.deltas_applied->Increment();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Parse-level entry points

Status DeltaRepairEngine::Apply(const Delta& delta) {
  switch (delta.kind) {
    case DeltaKind::kInsert: {
      CERTFIX_ASSIGN_OR_RETURN(Tuple t,
                               Tuple::FromStrings(schema_, delta.fields));
      return Insert(t);
    }
    case DeltaKind::kUpdate: {
      CERTFIX_ASSIGN_OR_RETURN(Tuple t,
                               Tuple::FromStrings(schema_, delta.fields));
      return Update(delta.row, t);
    }
    case DeltaKind::kDelete:
      return Delete(delta.row);
    case DeltaKind::kMasterInsert: {
      CERTFIX_ASSIGN_OR_RETURN(
          Tuple t, Tuple::FromStrings(master_schema_, delta.fields));
      return MasterInsert(t);
    }
    case DeltaKind::kMasterUpdate: {
      CERTFIX_ASSIGN_OR_RETURN(
          Tuple t, Tuple::FromStrings(master_schema_, delta.fields));
      return MasterUpdate(delta.row, t);
    }
    case DeltaKind::kMasterDelete:
      return MasterDelete(delta.row);
  }
  return Status::InvalidArgument("unknown delta kind");
}

Status DeltaRepairEngine::ApplyAll(DeltaSource* source) {
  Delta delta;
  for (;;) {
    CERTFIX_ASSIGN_OR_RETURN(bool got, source->Next(&delta));
    if (!got) return Status::OK();
    CERTFIX_RETURN_IF_ERROR(Apply(delta));
  }
}

// ---------------------------------------------------------------------------
// Reads

Relation DeltaRepairEngine::SnapshotRepaired() {
  Flush();
  CERTFIX_SPAN("delta.sink");
  Relation out(schema_);
  out.Reserve(order_.size());
  for (uint32_t slot : order_) out.Append(repaired_.at(slot));
  return out;
}

Relation DeltaRepairEngine::SnapshotInput() {
  Flush();
  Relation out(schema_);
  out.Reserve(order_.size());
  for (uint32_t slot : order_) out.Append(input_.at(slot));
  return out;
}

std::vector<size_t> DeltaRepairEngine::ConflictPositions() {
  Flush();
  std::vector<size_t> out;
  for (size_t pos = 0; pos < order_.size(); ++pos) {
    if (slot_class_[order_[pos]] ==
        static_cast<uint8_t>(FixClass::kConflicting)) {
      out.push_back(pos);
    }
  }
  return out;
}

DeltaRepairStats DeltaRepairEngine::stats() {
  Flush();
  DeltaRepairStats s;
  metrics_.baseline.Fill(&s);
  s.rows = order_.size();
  s.max_reorder = runtime_.max_reorder();
  metrics_.max_reorder->Note(s.max_reorder);
  return s;
}

}  // namespace certfix
