#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "buffer/resource_manager.h"

namespace payg {
namespace {

TEST(DispositionTest, WeightsAreOrdered) {
  EXPECT_LT(DispositionWeight(Disposition::kTemporary),
            DispositionWeight(Disposition::kShortTerm));
  EXPECT_LT(DispositionWeight(Disposition::kShortTerm),
            DispositionWeight(Disposition::kMidTerm));
  EXPECT_LT(DispositionWeight(Disposition::kMidTerm),
            DispositionWeight(Disposition::kLongTerm));
  EXPECT_LT(DispositionWeight(Disposition::kLongTerm),
            DispositionWeight(Disposition::kNonSwappable));
}

TEST(ResourceManagerTest, TracksBytesPerPool) {
  ResourceManager rm;
  rm.Register("a", 100, Disposition::kMidTerm, PoolId::kGeneral, nullptr);
  rm.Register("b", 50, Disposition::kPagedAttribute, PoolId::kPagedPool,
              nullptr);
  rm.Register("c", 25, Disposition::kPagedAttribute, PoolId::kColdPagedPool,
              nullptr);
  EXPECT_EQ(rm.total_bytes(), 175u);
  EXPECT_EQ(rm.pool_bytes(PoolId::kGeneral), 100u);
  EXPECT_EQ(rm.pool_bytes(PoolId::kPagedPool), 50u);
  EXPECT_EQ(rm.pool_bytes(PoolId::kColdPagedPool), 25u);
}

TEST(ResourceManagerTest, UnregisterReleasesBytes) {
  ResourceManager rm;
  ResourceId id =
      rm.Register("a", 100, Disposition::kMidTerm, PoolId::kGeneral, nullptr);
  EXPECT_TRUE(rm.Unregister(id));
  EXPECT_EQ(rm.total_bytes(), 0u);
  EXPECT_FALSE(rm.Unregister(id));  // second time: already gone
}

TEST(ResourceManagerTest, ReactiveEvictionEnforcesGlobalBudget) {
  ResourceManager rm;
  std::atomic<int> evicted{0};
  rm.SetGlobalBudget(250);
  for (int i = 0; i < 5; ++i) {
    rm.Register("r" + std::to_string(i), 100, Disposition::kMidTerm,
                PoolId::kGeneral, [&] { evicted++; });
  }
  // 5 x 100 bytes against a 250 budget: at least 3 evictions.
  EXPECT_LE(rm.total_bytes(), 250u);
  EXPECT_GE(evicted.load(), 3);
  EXPECT_GE(rm.stats().reactive_evictions, 3u);
}

TEST(ResourceManagerTest, LruPrefersOldUntouchedResources) {
  ResourceManager rm;
  std::vector<int> evicted;
  std::vector<ResourceId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(rm.Register("r" + std::to_string(i), 100,
                              Disposition::kMidTerm, PoolId::kGeneral,
                              [&evicted, i] { evicted.push_back(i); }));
  }
  // Touch 0 and 1 so 2 becomes the coldest.
  rm.Touch(ids[0]);
  rm.Touch(ids[1]);
  rm.SetGlobalBudget(350);  // forces exactly one eviction
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], 2);
}

TEST(ResourceManagerTest, WeightedLruEvictsLowWeightFirst) {
  ResourceManager rm;
  std::vector<std::string> evicted;
  // Same age, different dispositions: the temporary resource must go first
  // (t/w ordering with smaller w → larger score).
  rm.Register("long", 100, Disposition::kLongTerm, PoolId::kGeneral,
              [&] { evicted.push_back("long"); });
  rm.Register("tmp", 100, Disposition::kTemporary, PoolId::kGeneral,
              [&] { evicted.push_back("tmp"); });
  rm.SetGlobalBudget(150);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], "tmp");
}

TEST(ResourceManagerTest, NonSwappableIsNeverEvicted) {
  ResourceManager rm;
  std::atomic<int> evicted{0};
  rm.Register("pinned-by-policy", 100, Disposition::kNonSwappable,
              PoolId::kGeneral, [&] { evicted++; });
  rm.SetGlobalBudget(10);
  EXPECT_EQ(evicted.load(), 0);
  EXPECT_EQ(rm.total_bytes(), 100u);  // budget is overrun rather than violated
}

TEST(ResourceManagerTest, PinnedResourcesSurviveEviction) {
  ResourceManager rm;
  std::atomic<int> evicted{0};
  ResourceId id = rm.Register("hot", 100, Disposition::kTemporary,
                              PoolId::kGeneral, [&] { evicted++; });
  ASSERT_TRUE(rm.Pin(id));
  rm.SetGlobalBudget(10);
  EXPECT_EQ(evicted.load(), 0);
  rm.Unpin(id);
  rm.SetGlobalBudget(10);  // re-trigger
  EXPECT_EQ(evicted.load(), 1);
}

TEST(ResourceManagerTest, PinFailsForUnknownResource) {
  ResourceManager rm;
  EXPECT_FALSE(rm.Pin(12345));
  PinnedResource p = PinnedResource::TryPin(&rm, 12345);
  EXPECT_FALSE(p.valid());
}

TEST(ResourceManagerTest, RegisterPinnedStartsPinned) {
  ResourceManager rm;
  std::atomic<int> evicted{0};
  ResourceId id = rm.RegisterPinned("page", 100, Disposition::kPagedAttribute,
                                    PoolId::kPagedPool, [&] { evicted++; });
  rm.SetPoolLimits(PoolId::kPagedPool, {0, 10});
  rm.SweepNow();
  EXPECT_EQ(evicted.load(), 0);  // pinned: sweep skips it
  rm.Unpin(id);
  rm.SweepNow();
  EXPECT_EQ(evicted.load(), 1);
}

TEST(ResourceManagerTest, ProactiveSweepShrinksToLowerLimit) {
  ResourceManager rm;
  std::atomic<int> evicted{0};
  for (int i = 0; i < 15; ++i) {
    rm.Register("pg" + std::to_string(i), 100, Disposition::kPagedAttribute,
                PoolId::kPagedPool, [&] { evicted++; });
  }
  // Limits set after registration: whichever sweep runs first (this call or
  // the background sweeper's periodic wake) sees all 1500 bytes, so the
  // assertions hold under any interleaving.
  rm.SetPoolLimits(PoolId::kPagedPool, {200, 1000});
  rm.SweepNow();
  // 1500 bytes > upper 1000 → shrink to lower limit 200.
  EXPECT_LE(rm.pool_bytes(PoolId::kPagedPool), 200u);
  EXPECT_GE(evicted.load(), 13);
  EXPECT_GE(rm.stats().proactive_evictions, 13u);
}

// SweepNow waits out eviction callbacks the background sweeper is still
// running, so a caller that reads its eviction counters right after
// SweepNow sees every eviction chosen before the call.
TEST(ResourceManagerTest, SweepNowWaitsForBackgroundSweeperCallbacks) {
  ResourceManager rm;
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<bool> evicted{false};
  rm.Register("blocker", 100, Disposition::kPagedAttribute,
              PoolId::kPagedPool, [&] {
                entered.set_value();
                released.wait();
                evicted = true;
              });
  // The limit change wakes the background sweeper, which picks the only
  // resource and blocks inside its callback. Nothing else can evict it:
  // there is no global budget and SweepNow has not been called yet.
  rm.SetPoolLimits(PoolId::kPagedPool, {0, 50});
  ASSERT_EQ(entered.get_future().wait_for(std::chrono::seconds(30)),
            std::future_status::ready);

  auto sweep = std::async(std::launch::async, [&] { rm.SweepNow(); });
  EXPECT_EQ(sweep.wait_for(std::chrono::milliseconds(200)),
            std::future_status::timeout)
      << "SweepNow returned while a sweeper callback was still running";
  release.set_value();
  sweep.get();
  EXPECT_TRUE(evicted.load());
}

TEST(ResourceManagerTest, ProactiveSweepIgnoresPoolBelowUpperLimit) {
  ResourceManager rm;
  std::atomic<int> evicted{0};
  rm.SetPoolLimits(PoolId::kPagedPool, {200, 1000});
  for (int i = 0; i < 5; ++i) {
    rm.Register("pg" + std::to_string(i), 100, Disposition::kPagedAttribute,
                PoolId::kPagedPool, [&] { evicted++; });
  }
  rm.SweepNow();
  EXPECT_EQ(evicted.load(), 0);
  EXPECT_EQ(rm.pool_bytes(PoolId::kPagedPool), 500u);
}

TEST(ResourceManagerTest, PagedPoolEvictedInLruOrderIgnoringWeight) {
  ResourceManager rm;
  std::vector<int> order;
  std::vector<ResourceId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(rm.Register("pg" + std::to_string(i), 100,
                              Disposition::kPagedAttribute, PoolId::kPagedPool,
                              [&order, i] { order.push_back(i); }));
  }
  rm.Touch(ids[0]);  // 0 becomes most recent; LRU order 1,2,3,0
  rm.SetPoolLimits(PoolId::kPagedPool, {100, 150});
  rm.SweepNow();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(ResourceManagerTest, ReactivePathDrainsPagedPoolBeforeColumns) {
  ResourceManager rm;
  std::vector<std::string> order;
  rm.SetPoolLimits(PoolId::kPagedPool, {0, 0});  // no proactive limits
  rm.Register("column", 100, Disposition::kMidTerm, PoolId::kGeneral,
              [&] { order.push_back("column"); });
  for (int i = 0; i < 3; ++i) {
    rm.Register("page" + std::to_string(i), 100, Disposition::kPagedAttribute,
                PoolId::kPagedPool,
                [&, i] { order.push_back("page" + std::to_string(i)); });
  }
  // Budget forces evicting 300 bytes; all pages must go before the column.
  rm.SetGlobalBudget(100);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0].substr(0, 4), "page");
  EXPECT_EQ(order[1].substr(0, 4), "page");
  EXPECT_EQ(order[2].substr(0, 4), "page");
  EXPECT_EQ(rm.total_bytes(), 100u);  // the column survived
}

TEST(ResourceManagerTest, BackgroundSweeperRunsAsynchronously) {
  ResourceManager rm;
  std::atomic<int> evicted{0};
  rm.SetPoolLimits(PoolId::kPagedPool, {100, 300});
  for (int i = 0; i < 10; ++i) {
    rm.Register("pg" + std::to_string(i), 100, Disposition::kPagedAttribute,
                PoolId::kPagedPool, [&] { evicted++; });
  }
  // The background thread wakes within ~20ms; give it some slack.
  for (int i = 0; i < 100 && rm.pool_bytes(PoolId::kPagedPool) > 100; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // The sweeper drops the pool bytes under its lock before it runs the
  // eviction callbacks; SweepNow waits until it is out of them. The bytes
  // are read first, so it is the background thread that must have swept.
  const uint64_t swept_bytes = rm.pool_bytes(PoolId::kPagedPool);
  rm.SweepNow();
  EXPECT_LE(swept_bytes, 100u);
  EXPECT_GE(evicted.load(), 9);
}

TEST(ResourceManagerTest, StatsSnapshotIsConsistent) {
  ResourceManager rm;
  rm.Register("a", 100, Disposition::kMidTerm, PoolId::kGeneral, nullptr);
  rm.Register("b", 200, Disposition::kPagedAttribute, PoolId::kPagedPool,
              nullptr);
  auto s = rm.stats();
  EXPECT_EQ(s.total_bytes, 300u);
  EXPECT_EQ(s.resource_count, 2u);
  EXPECT_EQ(s.pool_bytes[static_cast<int>(PoolId::kGeneral)], 100u);
  EXPECT_EQ(s.pool_bytes[static_cast<int>(PoolId::kPagedPool)], 200u);
  EXPECT_EQ(s.reactive_evictions, 0u);
  EXPECT_EQ(s.proactive_evictions, 0u);
  EXPECT_EQ(s.evicted_bytes, 0u);

  rm.SetGlobalBudget(150);  // evicts the paged resource first (reactive)
  s = rm.stats();
  EXPECT_EQ(s.total_bytes, 100u);
  EXPECT_EQ(s.evicted_bytes, 200u);
  EXPECT_EQ(s.reactive_evictions, 1u);
}

TEST(ResourceManagerTest, TouchRevivesEvictionOrder) {
  ResourceManager rm;
  std::vector<int> order;
  std::vector<ResourceId> ids;
  for (int i = 0; i < 3; ++i) {
    ids.push_back(rm.Register("pg" + std::to_string(i), 100,
                              Disposition::kPagedAttribute, PoolId::kPagedPool,
                              [&order, i] { order.push_back(i); }));
  }
  // Touch in reverse: LRU order becomes 2, 1, 0.
  rm.Touch(ids[2]);
  rm.Touch(ids[1]);
  rm.Touch(ids[0]);
  rm.SetPoolLimits(PoolId::kPagedPool, {100, 200});
  rm.SweepNow();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(ResourceManagerTest, ZeroBudgetMeansUnlimited) {
  ResourceManager rm;
  std::atomic<int> evicted{0};
  for (int i = 0; i < 20; ++i) {
    rm.Register("r" + std::to_string(i), 1 << 20, Disposition::kTemporary,
                PoolId::kGeneral, [&] { evicted++; });
  }
  EXPECT_EQ(evicted.load(), 0);
  EXPECT_EQ(rm.total_bytes(), 20u << 20);
}

TEST(ResourceManagerTest, EvictionCallbackRunsOutsideLock) {
  // A callback that calls back into the manager must not deadlock.
  ResourceManager rm;
  std::atomic<bool> reentered{false};
  rm.Register("outer", 100, Disposition::kTemporary, PoolId::kGeneral, [&] {
    // Registration from inside an eviction callback.
    rm.Register("inner", 1, Disposition::kTemporary, PoolId::kGeneral,
                nullptr);
    reentered = true;
  });
  rm.SetGlobalBudget(50);
  EXPECT_TRUE(reentered.load());
}

TEST(PinnedResourceTest, MoveTransfersOwnership) {
  ResourceManager rm;
  ResourceId id =
      rm.Register("r", 10, Disposition::kMidTerm, PoolId::kGeneral, nullptr);
  PinnedResource a = PinnedResource::TryPin(&rm, id);
  ASSERT_TRUE(a.valid());
  PinnedResource b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(b.valid());
  b.Release();
  EXPECT_FALSE(b.valid());
  // After release the resource must be evictable again.
  std::atomic<int> evicted{0};
  rm.SetGlobalBudget(1);
  EXPECT_EQ(rm.total_bytes(), 0u);
  (void)evicted;
}

TEST(PinnedResourceTest, SelfMoveKeepsPin) {
  ResourceManager rm;
  ResourceId id =
      rm.Register("r", 10, Disposition::kMidTerm, PoolId::kGeneral, nullptr);
  PinnedResource a = PinnedResource::TryPin(&rm, id);
  ASSERT_TRUE(a.valid());
  // A self-move must be a no-op: the old implementation released the pin
  // first and then "transferred" from the already-cleared object, silently
  // dropping the protection.
  PinnedResource& alias = a;
  a = std::move(alias);
  EXPECT_TRUE(a.valid());
  EXPECT_EQ(a.id(), id);
  // The resource is still pinned: a tight budget cannot evict it.
  std::atomic<int> evicted{0};
  rm.Register("victim", 10, Disposition::kTemporary, PoolId::kGeneral,
              [&] { evicted.fetch_add(1); });
  rm.SetGlobalBudget(5);
  EXPECT_EQ(rm.total_bytes(), 10u);  // only the pinned survivor remains
  a.Release();
  rm.SetGlobalBudget(5);
  EXPECT_EQ(rm.total_bytes(), 0u);
}

TEST(ResourceManagerStressTest, ConcurrentPinTouchUnregister) {
  // N threads register/pin/touch/unregister against a tight budget while
  // the sweeper evicts: every resource must be released exactly once
  // (registered = evicted + unregistered), byte accounting must return to
  // zero, and no entry may be double-evicted.
  ResourceManager rm;
  rm.SetGlobalBudget(64 * 100);  // roughly half the peak working set
  rm.SetPoolLimits(PoolId::kPagedPool,
                   ResourceManager::Limits{32 * 100, 48 * 100});

  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::atomic<uint64_t> evictions{0};
  std::atomic<uint64_t> unregistered{0};
  std::atomic<uint64_t> double_evictions{0};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<ResourceId> mine;
      std::vector<std::shared_ptr<std::atomic<int>>> flags;
      for (int i = 0; i < kPerThread; ++i) {
        auto flag = std::make_shared<std::atomic<int>>(0);
        ResourceId id = rm.RegisterPinned(
            "s" + std::to_string(t) + "_" + std::to_string(i), 100,
            Disposition::kPagedAttribute, PoolId::kPagedPool, [flag, &evictions,
                                                               &double_evictions] {
              if (flag->fetch_add(1) != 0) double_evictions.fetch_add(1);
              evictions.fetch_add(1);
            });
        mine.push_back(id);
        flags.push_back(flag);
        rm.Unpin(id);  // release the registration pin; now evictable
        rm.Touch(id);
        // Re-pin and unpin a few of the survivors to stir the LRU.
        if (i % 3 == 0 && rm.Pin(id)) {
          rm.Touch(id);
          rm.Unpin(id);
        }
        if (i % 7 == 0) {
          // Voluntarily drop an older resource; false means it was already
          // evicted, in which case its callback must have run instead.
          size_t victim = mine.size() / 2;
          if (rm.Unregister(mine[victim])) {
            unregistered.fetch_add(1);
            if (flags[victim]->fetch_add(1) != 0) double_evictions.fetch_add(1);
          }
        }
      }
      // Drop everything that is still registered.
      for (size_t i = 0; i < mine.size(); ++i) {
        if (rm.Unregister(mine[i])) {
          unregistered.fetch_add(1);
          if (flags[i]->fetch_add(1) != 0) double_evictions.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  rm.SweepNow();

  EXPECT_EQ(double_evictions.load(), 0u);
  EXPECT_EQ(evictions.load() + unregistered.load(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(rm.total_bytes(), 0u);
  EXPECT_EQ(rm.pool_bytes(PoolId::kPagedPool), 0u);
  EXPECT_EQ(rm.stats().resource_count, 0u);
}

}  // namespace
}  // namespace payg
