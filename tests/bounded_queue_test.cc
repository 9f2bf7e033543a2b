#include "stream/bounded_queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

namespace certfix {
namespace {

/// One-item pop through PopBatch(&v, 1): false once closed and drained.
template <typename T>
bool PopOne(BoundedQueue<T>* q, T* out) {
  std::vector<T> v;
  if (q->PopBatch(&v, 1) == 0) return false;
  EXPECT_EQ(v.size(), 1u);
  *out = std::move(v.front());
  return true;
}

TEST(BoundedQueueTest, FifoSingleThread) {
  BoundedQueue<int> q(4);
  EXPECT_TRUE(q.Push(1));
  EXPECT_TRUE(q.Push(2));
  EXPECT_TRUE(q.Push(3));
  int v = 0;
  EXPECT_TRUE(PopOne(&q, &v));
  EXPECT_EQ(v, 1);
  EXPECT_TRUE(PopOne(&q, &v));
  EXPECT_EQ(v, 2);
  EXPECT_TRUE(q.Push(4));
  EXPECT_TRUE(PopOne(&q, &v));
  EXPECT_EQ(v, 3);
  EXPECT_TRUE(PopOne(&q, &v));
  EXPECT_EQ(v, 4);
  EXPECT_EQ(q.size(), 0u);
}

TEST(BoundedQueueTest, CapacityClampedToOne) {
  BoundedQueue<int> q(0);
  EXPECT_EQ(q.capacity(), 1u);
  EXPECT_TRUE(q.Push(7));
  EXPECT_EQ(q.size(), 1u);  // full at one slot
  int v = 0;
  EXPECT_TRUE(PopOne(&q, &v));
  EXPECT_EQ(v, 7);
}

TEST(BoundedQueueTest, PushBlocksUntilPopFreesSlot) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.Push(1));
  std::atomic<bool> second_pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.Push(2));  // must block: queue is full
    second_pushed = true;
  });
  // Give the producer a chance to reach (and block in) Push.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(second_pushed.load());
  int v = 0;
  EXPECT_TRUE(PopOne(&q, &v));
  EXPECT_EQ(v, 1);
  producer.join();
  EXPECT_TRUE(second_pushed.load());
  EXPECT_GE(q.blocked_pushes(), 1u);
  EXPECT_TRUE(PopOne(&q, &v));
  EXPECT_EQ(v, 2);
}

TEST(BoundedQueueTest, CloseDrainsThenPopFails) {
  BoundedQueue<int> q(8);
  ASSERT_TRUE(q.Push(1));
  ASSERT_TRUE(q.Push(2));
  q.Close();
  // Pushed-before-close items survive; pops drain them in order.
  int v = 0;
  EXPECT_TRUE(PopOne(&q, &v));
  EXPECT_EQ(v, 1);
  EXPECT_TRUE(PopOne(&q, &v));
  EXPECT_EQ(v, 2);
  EXPECT_FALSE(PopOne(&q, &v));  // closed and empty
  EXPECT_FALSE(PopOne(&q, &v));  // stays closed
}

TEST(BoundedQueueTest, PushAfterCloseFails) {
  BoundedQueue<int> q(2);
  q.Close();
  EXPECT_FALSE(q.Push(1));
  int v = 0;
  EXPECT_FALSE(PopOne(&q, &v));
}

TEST(BoundedQueueTest, CloseWakesBlockedProducer) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.Push(1));
  std::atomic<bool> push_result{true};
  std::thread producer([&] { push_result = q.Push(2); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.Close();  // producer must wake and report failure
  producer.join();
  EXPECT_FALSE(push_result.load());
  // The item enqueued before close is still poppable.
  int v = 0;
  EXPECT_TRUE(PopOne(&q, &v));
  EXPECT_EQ(v, 1);
  EXPECT_FALSE(PopOne(&q, &v));
}

TEST(BoundedQueueTest, CloseWakesBlockedConsumer) {
  BoundedQueue<int> q(1);
  std::atomic<bool> pop_result{true};
  std::thread consumer([&] {
    int v = 0;
    pop_result = PopOne(&q, &v);  // blocks: empty
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.Close();
  consumer.join();
  EXPECT_FALSE(pop_result.load());
}

TEST(BoundedQueueTest, MpmcStressEveryItemDeliveredOnce) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 500;
  BoundedQueue<int> q(8);  // small ring: forces contention + backpressure
  std::atomic<long long> sum{0};
  std::atomic<int> popped{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      int v = 0;
      while (PopOne(&q, &v)) {
        sum += v;
        ++popped;
      }
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.Push(p * kPerProducer + i + 1));
      }
    });
  }
  for (auto& t : producers) t.join();
  q.Close();
  for (auto& t : consumers) t.join();
  constexpr long long n = kProducers * kPerProducer;
  EXPECT_EQ(popped.load(), n);
  EXPECT_EQ(sum.load(), n * (n + 1) / 2);
}

TEST(BoundedQueueTest, MoveOnlyPayload) {
  BoundedQueue<std::unique_ptr<int>> q(2);
  ASSERT_TRUE(q.Push(std::make_unique<int>(42)));
  std::unique_ptr<int> out;
  ASSERT_TRUE(PopOne(&q, &out));
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(*out, 42);
}

}  // namespace
}  // namespace certfix
