/// \file shard_runtime_test.cc
/// \brief The shard runtime (stream/shard_runtime.h) on a trivial job
/// type: seq-ordered completion under skewed shard delays, the reorder
/// bound, failure waking parked producers, and close/drain losing no
/// admitted job.

#include "stream/shard_runtime.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

namespace certfix {
namespace {

struct Job {
  uint64_t seq = 0;
  uint64_t key = 0;
};
struct Result {
  uint64_t seq = 0;
  uint64_t key = 0;
};
using Runtime = ShardRuntime<Job, Result>;

/// Spins until `pred` holds; fails the test after 10 s instead of hanging.
template <typename Pred>
bool WaitFor(Pred pred) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return true;
}

class SkewedShardsTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SkewedShardsTest, CompletesInSeqOrderWithinTheWindow) {
  const size_t shards = GetParam();
  constexpr uint64_t kJobs = 400;
  Runtime rt(shards, /*queue_capacity=*/4, /*max_batch=*/3);
  std::vector<Result> applied;  // written under the merge lock only
  rt.Start([&](size_t shard, std::vector<Job>& batch) {
    for (Job& job : batch) {
      // Low shards are slow, high shards fast: results arrive far out of
      // seq order whenever there is more than one shard.
      std::this_thread::sleep_for(
          std::chrono::microseconds(shard == 0 ? 300 : (shard % 3) * 20));
      rt.Complete(Result{job.seq, job.key},
                  [&](Result& r) { applied.push_back(r); });
    }
  });
  ASSERT_EQ(rt.num_shards(), shards);
  for (uint64_t i = 0; i < kJobs; ++i) {
    ASSERT_TRUE(rt.Push(Job{0, i}, [](const Job& j) { return j.key; }));
  }
  rt.Drain();
  {
    auto lock = rt.LockMerge();
    ASSERT_EQ(applied.size(), kJobs);
    for (uint64_t i = 0; i < kJobs; ++i) {
      EXPECT_EQ(applied[i].seq, i);
      EXPECT_EQ(applied[i].key, i) << "one producer: seq order = push order";
    }
  }
  EXPECT_GE(rt.max_reorder(), 1u);
  EXPECT_LE(rt.max_reorder(), shards * 4) << "bounded by the window";
  rt.Close();
  EXPECT_EQ(rt.TakeError(), nullptr);
}

INSTANTIATE_TEST_SUITE_P(Shards, SkewedShardsTest,
                         ::testing::Values(size_t{1}, size_t{2}, size_t{8}));

TEST(ShardRuntimeTest, FailWakesProducersParkedOnWindowAndRing) {
  // Two rings of two slots: window 4. Every job routes to ring 0, whose
  // worker holds job 0 until released, so ring 0 fills with jobs 1-2,
  // job 3 is admitted but blocks on the full ring, and job 4 parks on
  // the full window.
  Runtime rt(/*num_shards=*/2, /*queue_capacity=*/2, /*max_batch=*/1);
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<bool> holding{false};
  rt.Start([&](size_t, std::vector<Job>&) {
    holding = true;
    released.wait();
    throw std::runtime_error("boom");
  });
  auto to_ring0 = [](const Job&) { return size_t{0}; };
  ASSERT_TRUE(rt.Push(Job{}, to_ring0));
  ASSERT_TRUE(WaitFor([&] { return holding.load(); }));
  ASSERT_TRUE(rt.Push(Job{}, to_ring0));
  ASSERT_TRUE(rt.Push(Job{}, to_ring0));

  std::atomic<int> ring_result{-1};
  std::thread on_ring([&] { ring_result = rt.Push(Job{}, to_ring0); });
  ASSERT_TRUE(WaitFor([&] { return rt.backpressure_waits() == 1; }));
  std::atomic<int> window_result{-1};
  std::thread on_window([&] { window_result = rt.Push(Job{}, to_ring0); });
  ASSERT_TRUE(WaitFor([&] { return rt.backpressure_waits() == 2; }));
  EXPECT_EQ(ring_result.load(), -1);
  EXPECT_EQ(window_result.load(), -1);

  release.set_value();  // the worker throws: the runtime fails
  on_ring.join();
  on_window.join();
  EXPECT_EQ(ring_result.load(), 0);
  EXPECT_EQ(window_result.load(), 0);
  EXPECT_TRUE(rt.failed());
  EXPECT_FALSE(rt.Push(Job{}, to_ring0));
  rt.Drain();  // must not wait for the jobs the failure stranded
  rt.Close();
  std::exception_ptr error = rt.TakeError();
  ASSERT_NE(error, nullptr);
  try {
    std::rethrow_exception(error);
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
  EXPECT_EQ(rt.TakeError(), nullptr) << "TakeError clears the error";
}

TEST(ShardRuntimeTest, CloseAndDrainLoseNoAdmittedJob) {
  constexpr uint64_t kProducers = 4;
  constexpr uint64_t kPerProducer = 500;
  constexpr uint64_t kJobs = kProducers * kPerProducer;
  Runtime rt(/*num_shards=*/3, /*queue_capacity=*/2, /*max_batch=*/4);
  std::vector<Result> applied;
  rt.Start([&](size_t shard, std::vector<Job>& batch) {
    if (shard == 1) std::this_thread::sleep_for(std::chrono::microseconds(50));
    for (Job& job : batch) {
      rt.Complete(Result{job.seq, job.key},
                  [&](Result& r) { applied.push_back(r); });
    }
  });
  std::vector<std::thread> producers;
  for (uint64_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (uint64_t i = 0; i < kPerProducer; ++i) {
        const uint64_t key = p * kPerProducer + i + 1;
        EXPECT_TRUE(rt.Push(Job{0, key}, [](const Job& j) { return j.key; }));
      }
    });
  }
  for (std::thread& t : producers) t.join();
  // Close with jobs still on the rings: workers drain them before exit.
  rt.Close();
  EXPECT_FALSE(rt.Push(Job{}, [](const Job&) { return size_t{0}; }))
      << "a closed runtime admits nothing";
  ASSERT_EQ(applied.size(), kJobs);
  uint64_t key_sum = 0;
  for (uint64_t i = 0; i < kJobs; ++i) {
    EXPECT_EQ(applied[i].seq, i);
    key_sum += applied[i].key;
  }
  EXPECT_EQ(key_sum, kJobs * (kJobs + 1) / 2) << "every job exactly once";
  EXPECT_LE(rt.max_reorder(), 3u * 2u) << "bounded by the window";
  EXPECT_EQ(rt.TakeError(), nullptr);
}

TEST(ShardRuntimeTest, RefusesBeforeStartAndAfterExplicitFail) {
  Runtime rt(/*num_shards=*/2, /*queue_capacity=*/1, /*max_batch=*/1);
  EXPECT_EQ(rt.num_shards(), 0u);
  EXPECT_FALSE(rt.Push(Job{}, [](const Job&) { return size_t{0}; }));
  rt.Fail(std::make_exception_ptr(std::runtime_error("rejected")));
  EXPECT_TRUE(rt.failed());
  rt.Drain();
  rt.Close();
  EXPECT_NE(rt.TakeError(), nullptr);
}

}  // namespace
}  // namespace certfix
