/// \file delta_differential_test.cc
/// \brief Property-based differential tests of the incremental engine:
/// after any delta sequence, DeltaRepairEngine state must be byte-identical
/// to a from-scratch BatchRepair over the final input and master, and to
/// the memo-free ReferenceRepair (tests/test_util.h) — at 1/2/8 shards.
///
/// The property test draws a random master, a random rule subset, a random
/// initial relation, and a 500+-step delta sequence (all six DeltaKinds)
/// from one seed, checking the oracle every K steps. The base seed comes
/// from CERTFIX_PROPERTY_SEED (default fixed for PR CI); under
/// --gtest_repeat each iteration shifts the seed, which the Release CI leg
/// uses as a randomized soak.

#include "incremental/delta_repair.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "core/batch_repair.h"
#include "relational/csv.h"
#include "test_util.h"
#include "workload/dirty_gen.h"
#include "workload/hosp.h"

namespace certfix {
namespace {

using namespace testing_fixtures;

std::string ToCsv(const Relation& rel) {
  std::ostringstream out;
  EXPECT_TRUE(WriteCsv(rel, out).ok());
  return out.str();
}

/// From-scratch oracles over the engine's current input and master:
/// BatchRepair, which also cross-checks the engine's live counters, and
/// the memo-free ReferenceRepair, which proves the memo (and its
/// master-delta flush chain) invisible at every check step.
void ExpectMatchesScratch(DeltaRepairEngine* engine, const RuleSet& rules,
                          AttrSet trusted, const std::string& label) {
  Relation final_input = engine->SnapshotInput();
  Relation final_master = engine->master();  // quiescent after the flush
  MasterIndex index(rules, final_master);
  Saturator sat(rules, final_master, index);
  BatchRepairResult batch = BatchRepair(sat).Repair(final_input, trusted);

  const std::string repaired = ToCsv(engine->SnapshotRepaired());
  ASSERT_EQ(repaired, ToCsv(ReferenceRepair(sat, final_input, trusted)))
      << label;
  ASSERT_EQ(repaired, ToCsv(batch.repaired)) << label;
  EXPECT_EQ(engine->ConflictPositions(), batch.conflict_rows) << label;
  DeltaRepairStats stats = engine->stats();
  EXPECT_EQ(stats.rows, final_input.size()) << label;
  EXPECT_EQ(stats.fully_covered, batch.tuples_fully_covered) << label;
  EXPECT_EQ(stats.partial, batch.tuples_partial) << label;
  EXPECT_EQ(stats.untouched, batch.tuples_untouched) << label;
  EXPECT_EQ(stats.conflicting, batch.tuples_conflicting) << label;
  EXPECT_EQ(stats.cells_changed, batch.cells_changed) << label;
}

// ---------------------------------------------------------------------------
// Deterministic supplier-fixture test: every delta kind, scripted.

class DeltaSupplierTest : public ::testing::Test {
 protected:
  void SetUp() override {
    r_ = SupplierSchema();
    rm_ = SupplierMasterSchema();
    dm_ = SupplierMaster(rm_);
    rules_ = SupplierRules(r_, rm_);
  }

  SchemaPtr r_;
  SchemaPtr rm_;
  Relation dm_;
  RuleSet rules_;
};

TEST_F(DeltaSupplierTest, ScriptedDeltasMatchScratchAcrossShardCounts) {
  AttrSet trusted = Attrs(r_, {"AC", "phn", "type", "zip"});
  for (size_t shards : {1, 2, 8}) {
    DeltaRepairOptions options;
    options.num_shards = shards;
    DeltaRepairEngine engine(rules_, dm_, trusted, options);
    std::string label = "shards=" + std::to_string(shards);

    Relation data(r_);
    ASSERT_TRUE(data.Append(T1(r_)).ok());
    ASSERT_TRUE(data.Append(T3(r_)).ok());
    ASSERT_TRUE(data.Append(T4(r_)).ok());
    ASSERT_TRUE(engine.Load(data).ok());
    ExpectMatchesScratch(&engine, rules_, trusted, label + " after load");

    // Input deltas: insert, self-identical update (must be a no-op),
    // real update, delete.
    ASSERT_TRUE(engine.Insert(T2(r_)).ok());
    ASSERT_TRUE(engine.Update(0, T1(r_)).ok());
    EXPECT_EQ(engine.stats().noop_updates, 1u) << label;
    ASSERT_TRUE(engine.Update(1, T1(r_)).ok());
    ASSERT_TRUE(engine.Delete(2).ok());
    ExpectMatchesScratch(&engine, rules_, trusted,
                         label + " after input deltas");

    // Master upsert changing s1's street: tuples repaired from s1 must be
    // re-repaired; the oracle sees the new value.
    Tuple s1 = dm_.at(0);
    Tuple s1_new(rm_, dm_.pool());
    for (size_t a = 0; a < rm_->num_attrs(); ++a) {
      s1_new.Set(static_cast<AttrId>(a), s1.at(static_cast<AttrId>(a)));
    }
    s1_new.Set(A(rm_, "str"), Value::Str("99 New Row"));
    ASSERT_TRUE(engine.MasterUpdate(0, s1_new).ok());
    ExpectMatchesScratch(&engine, rules_, trusted,
                         label + " after master update");
    EXPECT_GT(engine.stats().tuples_invalidated, 0u) << label;

    // Master insert introducing a brand-new zip, then an input tuple that
    // needs it (the probe-recorded-on-empty-answer case is the update
    // below: T4's zip never matched the master until now).
    Tuple s3(rm_, dm_.pool());
    ASSERT_TRUE(dm_.size() >= 2);
    Tuple s2 = dm_.at(1);
    for (size_t a = 0; a < rm_->num_attrs(); ++a) {
      s3.Set(static_cast<AttrId>(a), s2.at(static_cast<AttrId>(a)));
    }
    s3.Set(A(rm_, "zip"), Value::Str("G1 1AA"));
    s3.Set(A(rm_, "AC"), Value::Str("041"));
    s3.Set(A(rm_, "city"), Value::Str("Gla"));
    s3.Set(A(rm_, "str"), Value::Str("5 Oak Ln"));
    ASSERT_TRUE(engine.MasterInsert(s3).ok());
    ExpectMatchesScratch(&engine, rules_, trusted,
                         label + " after master insert");

    // Master delete: drop s2; tuples that matched it fall back.
    ASSERT_TRUE(engine.MasterDelete(1).ok());
    ExpectMatchesScratch(&engine, rules_, trusted,
                         label + " after master delete");
  }
}

TEST_F(DeltaSupplierTest, MasterInsertRepairsPreviouslyUnmatchedTuple) {
  // T4 matches no master row at load time; the repair must still record
  // its (empty-answer) probes so this master insert invalidates it.
  AttrSet trusted = Attrs(r_, {"AC", "phn", "type", "zip"});
  DeltaRepairEngine engine(rules_, dm_, trusted);
  ASSERT_TRUE(engine.Insert(T4(r_)).ok());
  Relation before = engine.SnapshotRepaired();
  EXPECT_EQ(before.Cell(0, A(r_, "city")).as_string(), "Gla");

  Tuple s3(rm_, dm_.pool());
  Tuple s1 = dm_.at(0);
  for (size_t a = 0; a < rm_->num_attrs(); ++a) {
    s3.Set(static_cast<AttrId>(a), s1.at(static_cast<AttrId>(a)));
  }
  s3.Set(A(rm_, "zip"), Value::Str("G1 1AA"));
  s3.Set(A(rm_, "AC"), Value::Str("0131"));
  s3.Set(A(rm_, "Hphn"), Value::Str("9999999"));
  s3.Set(A(rm_, "str"), Value::Str("7 Birch Way"));
  s3.Set(A(rm_, "city"), Value::Str("Glasgow"));
  ASSERT_TRUE(engine.MasterInsert(s3).ok());
  EXPECT_EQ(engine.stats().tuples_invalidated, 1u);
  Relation after = engine.SnapshotRepaired();
  EXPECT_EQ(after.Cell(0, A(r_, "str")).as_string(), "7 Birch Way");
  ExpectMatchesScratch(&engine, rules_, trusted, "unmatched-then-insert");
}

TEST_F(DeltaSupplierTest, RejectsBadPositionsAndSchemas) {
  AttrSet trusted = Attrs(r_, {"AC", "phn", "type", "zip"});
  DeltaRepairEngine engine(rules_, dm_, trusted);
  ASSERT_TRUE(engine.Insert(T1(r_)).ok());
  EXPECT_FALSE(engine.Update(1, T1(r_)).ok());  // out of range
  EXPECT_FALSE(engine.Delete(7).ok());
  EXPECT_FALSE(engine.MasterUpdate(99, dm_.at(0)).ok());
  EXPECT_FALSE(engine.MasterDelete(99).ok());
  // Wrong-schema tuples are refused on every mutation entry point.
  SchemaPtr narrow = Schema::Make("N", std::vector<std::string>{"a"});
  Tuple bad(narrow);
  EXPECT_FALSE(engine.Insert(bad).ok());
  EXPECT_FALSE(engine.Update(0, bad).ok());
  EXPECT_FALSE(engine.MasterInsert(bad).ok());
  EXPECT_FALSE(engine.MasterUpdate(0, bad).ok());
  // The engine is still healthy afterwards.
  ASSERT_TRUE(engine.Update(0, T3(r_)).ok());
  ExpectMatchesScratch(&engine, rules_, trusted, "after rejected deltas");
}

TEST_F(DeltaSupplierTest, SelfIdenticalMasterUpsertSkipsTheBarrier) {
  AttrSet trusted = Attrs(r_, {"AC", "phn", "type", "zip"});
  DeltaRepairEngine engine(rules_, dm_, trusted);
  ASSERT_TRUE(engine.Insert(T1(r_)).ok());
  ASSERT_TRUE(engine.MasterUpdate(0, dm_.at(0)).ok());
  DeltaRepairStats stats = engine.stats();
  EXPECT_EQ(stats.noop_updates, 1u);
  EXPECT_EQ(stats.master_rebuilds, 0u);
  EXPECT_EQ(stats.tuples_invalidated, 0u);
}

TEST_F(DeltaSupplierTest, IrrelevantMasterUpdateInvalidatesNothing) {
  // DOB/gender appear in no rule's master side: RulesReadingMasterAttrs
  // prunes the delta to zero invalidations and zero rebuilds.
  AttrSet trusted = Attrs(r_, {"AC", "phn", "type", "zip"});
  DeltaRepairEngine engine(rules_, dm_, trusted);
  Relation data(r_);
  ASSERT_TRUE(data.Append(T1(r_)).ok());
  ASSERT_TRUE(data.Append(T3(r_)).ok());
  ASSERT_TRUE(engine.Load(data).ok());
  engine.Flush();

  Tuple s1 = dm_.at(0);
  Tuple s1_new(rm_, dm_.pool());
  for (size_t a = 0; a < rm_->num_attrs(); ++a) {
    s1_new.Set(static_cast<AttrId>(a), s1.at(static_cast<AttrId>(a)));
  }
  s1_new.Set(A(rm_, "DOB"), Value::Str("12/12/55"));
  s1_new.Set(A(rm_, "gender"), Value::Str("F"));
  ASSERT_TRUE(engine.MasterUpdate(0, s1_new).ok());
  DeltaRepairStats stats = engine.stats();
  EXPECT_EQ(stats.tuples_invalidated, 0u);
  EXPECT_EQ(stats.master_rebuilds, 0u);
  EXPECT_EQ(stats.tuples_repaired, 2u);  // only the initial load
  ExpectMatchesScratch(&engine, rules_, trusted, "irrelevant master update");
}

// ---------------------------------------------------------------------------
// Property test: random relations, random rule subsets, 500+-step delta
// sequences, oracle check every K steps, at 1/2/8 shards.

uint64_t BaseSeed() {
  const char* env = std::getenv("CERTFIX_PROPERTY_SEED");
  if (env != nullptr) return std::strtoull(env, nullptr, 10);
  return 20260729;
}

/// Seed shift per in-process iteration so --gtest_repeat soaks different
/// sequences while a single run stays reproducible.
uint64_t NextSeed() {
  static uint64_t iteration = 0;
  return BaseSeed() + 1009 * iteration++;
}

struct PropertyWorld {
  SchemaPtr schema;
  RuleSet rules;              // random subset of the HOSP rules
  Relation master;
  Relation insert_pool;       // dirty rows to insert/update with
  Relation master_pool;       // fresh master rows to insert
  AttrSet trusted;
};

PropertyWorld MakeWorld(uint64_t seed) {
  PropertyWorld w;
  w.schema = HospWorkload::MakeSchema();
  RuleSet all_rules = HospWorkload::MakeRules(w.schema);
  Rng rng(seed);

  // Random rule subset (>= 6 rules so repairs stay interesting).
  w.rules = RuleSet(w.schema, w.schema);
  std::vector<size_t> picks;
  for (size_t i = 0; i < all_rules.size(); ++i) picks.push_back(i);
  rng.Shuffle(&picks);
  size_t keep = 6 + rng.Index(all_rules.size() - 5);
  picks.resize(keep);
  std::sort(picks.begin(), picks.end());
  for (size_t i : picks) {
    EXPECT_TRUE(w.rules.Add(all_rules.at(i)).ok());
  }

  w.master = HospWorkload::MakeMaster(w.schema, 60 + rng.Index(40), &rng);
  Rng rng2(seed * 31 + 7);
  Relation non_master =
      HospWorkload::MakeMaster(w.schema, 60, &rng2, 500000);
  Rng rng3(seed * 131 + 3);
  w.master_pool = HospWorkload::MakeMaster(w.schema, 64, &rng3, 900000);

  w.trusted.Add(*w.schema->IndexOf("id"));
  w.trusted.Add(*w.schema->IndexOf("mCode"));

  DirtyGenOptions gen_options;
  gen_options.duplicate_rate = 0.6;
  gen_options.noise_rate = 0.4;
  gen_options.protected_attrs = w.trusted;
  gen_options.seed = seed * 7 + 1;
  DirtyGenerator gen(w.master, non_master, gen_options);
  w.insert_pool = Relation(w.schema);
  for (const DirtyPair& pair : gen.Generate(700)) {
    EXPECT_TRUE(w.insert_pool.Append(pair.dirty).ok());
  }
  return w;
}

/// One random delta applied to `engine`. Mirrors nothing — the oracle is
/// the from-scratch BatchRepair, so the generator only needs validity
/// (positions in range, master never emptied).
void ApplyRandomDelta(DeltaRepairEngine* engine, PropertyWorld* w, Rng* rng,
                      size_t* next_insert, size_t* next_master_insert) {
  double roll = rng->NextDouble();
  size_t rows = engine->size();
  if (roll < 0.30 || rows == 0) {  // insert
    const Relation& pool = w->insert_pool;
    ASSERT_TRUE(
        engine->Insert(pool.at(*next_insert % pool.size())).ok());
    ++*next_insert;
  } else if (roll < 0.60) {  // update
    size_t pos = rng->Index(rows);
    if (rng->NextDouble() < 0.15) {
      // Point edit: corrupt one attribute of the current row.
      Relation input = engine->SnapshotInput();
      Tuple t(w->schema, input.pool());
      for (size_t a = 0; a < w->schema->num_attrs(); ++a) {
        t.Set(static_cast<AttrId>(a), input.Cell(pos, static_cast<AttrId>(a)));
      }
      AttrId attr = static_cast<AttrId>(rng->Index(w->schema->num_attrs()));
      t.Set(attr, Value::Str(rng->AlphaString(6)));
      ASSERT_TRUE(engine->Update(pos, t).ok());
    } else {
      const Relation& pool = w->insert_pool;
      ASSERT_TRUE(
          engine->Update(pos, pool.at(*next_insert % pool.size())).ok());
      ++*next_insert;
    }
  } else if (roll < 0.75) {  // delete
    ASSERT_TRUE(engine->Delete(rng->Index(rows)).ok());
  } else if (roll < 0.85) {  // master insert
    const Relation& pool = w->master_pool;
    ASSERT_TRUE(
        engine->MasterInsert(pool.at(*next_master_insert % pool.size()))
            .ok());
    ++*next_master_insert;
  } else if (roll < 0.95) {  // master update
    const Relation& dm = engine->master();
    size_t pos = rng->Index(dm.size());
    // Private pool: interning into dm's live pool would race the shard
    // workers reading it (the master() contract).
    Tuple t(w->schema);
    for (size_t a = 0; a < w->schema->num_attrs(); ++a) {
      t.Set(static_cast<AttrId>(a), dm.Cell(pos, static_cast<AttrId>(a)));
    }
    AttrId attr = static_cast<AttrId>(rng->Index(w->schema->num_attrs()));
    if (rng->NextDouble() < 0.5) {
      t.Set(attr, Value::Str(rng->AlphaString(5)));
    }  // else: self-identical upsert — must be a no-op
    ASSERT_TRUE(engine->MasterUpdate(pos, t).ok());
  } else {  // master delete (keep a handful of rows)
    const Relation& dm = engine->master();
    if (dm.size() > 5) {
      ASSERT_TRUE(engine->MasterDelete(rng->Index(dm.size())).ok());
    }
  }
}

TEST(DeltaPropertyTest, RandomDeltaSequencesMatchScratchAtEveryShardCount) {
  uint64_t seed = NextSeed();
  SCOPED_TRACE("seed=" + std::to_string(seed) +
               " (set CERTFIX_PROPERTY_SEED to reproduce)");
  PropertyWorld w = MakeWorld(seed);

  constexpr size_t kSteps = 520;
  constexpr size_t kCheckEvery = 65;
  const std::vector<size_t> shard_counts = {1, 2, 8};
  std::vector<std::string> final_csv;
  for (size_t shards : shard_counts) {
    DeltaRepairOptions options;
    options.num_shards = shards;
    options.queue_capacity = 16;
    DeltaRepairEngine engine(w.rules, w.master, w.trusted, options);

    // Same per-shard-count RNG so all three runs see one sequence.
    Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
    size_t next_insert = 0;
    size_t next_master_insert = 0;

    Relation initial(w.schema);
    for (size_t i = 0; i < 40; ++i) {
      ASSERT_TRUE(initial.Append(w.insert_pool.at(i)).ok());
    }
    next_insert = 40;
    ASSERT_TRUE(engine.Load(initial).ok());

    for (size_t step = 1; step <= kSteps; ++step) {
      ASSERT_NO_FATAL_FAILURE(ApplyRandomDelta(&engine, &w, &rng,
                                               &next_insert,
                                               &next_master_insert));
      if (step % kCheckEvery == 0) {
        ASSERT_NO_FATAL_FAILURE(ExpectMatchesScratch(
            &engine, w.rules, w.trusted,
            "shards=" + std::to_string(shards) +
                " step=" + std::to_string(step)));
      }
    }
    ExpectMatchesScratch(&engine, w.rules, w.trusted,
                         "shards=" + std::to_string(shards) + " final");
    final_csv.push_back(ToCsv(engine.SnapshotRepaired()));

    // The incremental claim itself: far fewer repairs than a re-run of
    // everything per delta would cost.
    DeltaRepairStats stats = engine.stats();
    EXPECT_LE(stats.tuples_repaired,
              40 + kSteps + stats.tuples_invalidated);
    // Every repair either replayed or was computed-and-recorded.
    EXPECT_EQ(stats.memo_hits + stats.memo_misses, stats.tuples_repaired);
  }
  // Every shard count walked the same sequence to the same bytes.
  for (size_t i = 1; i < final_csv.size(); ++i) {
    EXPECT_EQ(final_csv[0], final_csv[i])
        << "shards=" << shard_counts[i] << " diverged";
  }
}

}  // namespace
}  // namespace certfix
