#include "buffer/resource_manager.h"

#include <algorithm>

#include "common/macros.h"
#include "common/stopwatch.h"
#include "obs/trace.h"

namespace payg {

using buffer_detail::kDeadFlag;

ResourceManager::ResourceManager() {
  for (auto& pb : pool_bytes_) pb.store(0, std::memory_order_relaxed);
  auto& reg = obs::MetricsRegistry::Global();
  m_evict_reactive_ = reg.counter("rm.evictions.reactive");
  m_evict_proactive_ = reg.counter("rm.evictions.proactive");
  m_evicted_bytes_ = reg.counter("rm.evicted.bytes");
  m_sweep_duration_us_ = reg.histogram("rm.sweep.duration_us");
  m_bytes_total_ = reg.gauge("rm.bytes.total");
  m_bytes_pool_[static_cast<int>(PoolId::kGeneral)] =
      reg.gauge("rm.bytes.general");
  m_bytes_pool_[static_cast<int>(PoolId::kPagedPool)] =
      reg.gauge("rm.bytes.paged");
  m_bytes_pool_[static_cast<int>(PoolId::kColdPagedPool)] =
      reg.gauge("rm.bytes.cold_paged");
  m_resources_ = reg.gauge("rm.resources");
  sweeper_ = std::thread([this] { BackgroundSweeper(); });
}

void ResourceManager::UpdateGauges() {
  // Gauges show the level of *this* manager; with several stores in one
  // process the last writer wins, which is fine for the single-store
  // benchmarks these feed. Counters aggregate across managers. Written from
  // the atomic accounting without any lock — gauges are statistics.
  m_bytes_total_->Set(
      static_cast<int64_t>(total_bytes_.load(std::memory_order_relaxed)));
  for (int p = 0; p < kNumPools; ++p) {
    m_bytes_pool_[p]->Set(
        static_cast<int64_t>(pool_bytes_[p].load(std::memory_order_relaxed)));
  }
  m_resources_->Set(
      static_cast<int64_t>(resource_count_.load(std::memory_order_relaxed)));
}

ResourceManager::~ResourceManager() {
  {
    MutexLock lock(mu_);
    shutting_down_ = true;
  }
  sweeper_cv_.NotifyAll();
  sweeper_.join();
}

ResourceId ResourceManager::Register(std::string label, uint64_t bytes,
                                     Disposition disposition, PoolId pool,
                                     EvictCallback on_evict) {
  auto e = std::make_shared<Entry>();
  e->label = std::move(label);
  e->bytes = bytes;
  e->disposition = disposition;
  e->pool = pool;
  e->on_evict = std::move(on_evict);
  return RegisterInternal(std::move(e), /*initial_pins=*/0, nullptr);
}

ResourceId ResourceManager::RegisterPinned(std::string label, uint64_t bytes,
                                           Disposition disposition,
                                           PoolId pool, EvictCallback on_evict,
                                           ResourceHandle* out_handle) {
  auto e = std::make_shared<Entry>();
  e->label = std::move(label);
  e->bytes = bytes;
  e->disposition = disposition;
  e->pool = pool;
  e->on_evict = std::move(on_evict);
  return RegisterInternal(std::move(e), /*initial_pins=*/1, out_handle);
}

ResourceId ResourceManager::RegisterPinnedPage(
    std::shared_ptr<const std::string> label_prefix, uint64_t label_id,
    uint64_t bytes, Disposition disposition, PoolId pool,
    EvictCallback on_evict, ResourceHandle* out_handle) {
  auto e = std::make_shared<Entry>();
  e->label_prefix = std::move(label_prefix);
  e->label_id = label_id;
  e->bytes = bytes;
  e->disposition = disposition;
  e->pool = pool;
  e->on_evict = std::move(on_evict);
  return RegisterInternal(std::move(e), /*initial_pins=*/1, out_handle);
}

ResourceId ResourceManager::RegisterInternal(ResourceHandle entry,
                                             uint32_t initial_pins,
                                             ResourceHandle* out_handle) {
  const ResourceId id = next_id_.fetch_add(1);
  const uint64_t stamp = clock_.fetch_add(1);
  entry->id = id;
  entry->last_touch = stamp;
  entry->pin_state.store(initial_pins, std::memory_order_relaxed);
  const uint64_t bytes = entry->bytes;
  const auto pool_idx = static_cast<int>(entry->pool);
  if (out_handle != nullptr) *out_handle = entry;

  {
    TableStripe& stripe = table_stripes_[id % kTableStripes];
    MutexLock lock(stripe.mu);
    stripe.map.emplace(id, std::move(entry));
  }
  pool_bytes_[pool_idx].fetch_add(bytes, std::memory_order_relaxed);
  const uint64_t total =
      total_bytes_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  resource_count_.fetch_add(1, std::memory_order_relaxed);
  // The deferred LRU insert: the entry reaches its pool's list at the next
  // flush, which every victim pass performs first.
  RecordTouch(id, stamp);
  UpdateGauges();

  const uint64_t budget = global_budget_.load(std::memory_order_relaxed);
  if (budget != 0 && total > budget) {
    std::vector<EvictCallback> callbacks;
    {
      MutexLock lock(mu_);
      ReactiveEvictLocked(&callbacks);
    }
    for (auto& cb : callbacks) {
      if (cb) cb();
    }
  }
  // The proactive sweep is asynchronous by design: loading new pages is
  // never blocked on it (§5), so the pool may transiently exceed the upper
  // limit.
  const uint64_t upper =
      pool_limits_[pool_idx].upper.load(std::memory_order_relaxed);
  if (upper != 0 &&
      pool_bytes_[pool_idx].load(std::memory_order_relaxed) > upper) {
    sweeper_cv_.NotifyOne();
  }
  return id;
}

bool ResourceManager::Unregister(ResourceId id) {
  ResourceHandle e = Find(id);
  if (e == nullptr) return false;
  // Winner of the dead flag owns the removal; a concurrent evictor's
  // CAS(0 → dead) fails against either our flag or an outstanding pin.
  const uint64_t prev =
      e->pin_state.fetch_or(kDeadFlag, std::memory_order_acq_rel);
  if (prev & kDeadFlag) return false;  // eviction got there first
  EraseFromTable(id);
  pool_bytes_[static_cast<int>(e->pool)].fetch_sub(e->bytes,
                                                   std::memory_order_relaxed);
  total_bytes_.fetch_sub(e->bytes, std::memory_order_relaxed);
  resource_count_.fetch_sub(1, std::memory_order_relaxed);
  // The LRU node (if the entry ever reached the list) stays behind; list
  // surgery needs mu_ and this path must not take it. Victim walks skip and
  // erase stale nodes; the sweeper prunes if they pile up without eviction
  // pressure.
  dead_lru_nodes_.fetch_add(1, std::memory_order_relaxed);
  UpdateGauges();
  return true;
}

void ResourceManager::Touch(ResourceId id) {
  // Hot path: no main-mutex acquisition. The LRU splice happens lazily in
  // FlushTouchesLocked before the next victim selection.
  RecordTouch(id, clock_.fetch_add(1));
}

void ResourceManager::Touch(const ResourceHandle& handle) {
  RecordTouch(handle->id, clock_.fetch_add(1));
}

bool ResourceManager::Pin(ResourceId id) {
  ResourceHandle e = Find(id);
  if (e == nullptr) return false;
  if (!TryPinHandle(e)) return false;
  // The recency splice is deferred like Touch, keeping the pin path free of
  // the main mutex.
  RecordTouch(id, clock_.fetch_add(1));
  return true;
}

void ResourceManager::Unpin(ResourceId id) {
  ResourceHandle e = Find(id);
  if (e == nullptr) return;  // already evicted/unregistered: pin died with it
  UnpinHandle(e);
}

void ResourceManager::RecordTouch(ResourceId id, uint64_t stamp) {
  TouchStripe& stripe = touch_stripes_[id % kTouchStripes];
  MutexLock lock(stripe.mu);
  uint64_t& slot = stripe.pending[id];
  if (stamp > slot) slot = stamp;
}

void ResourceManager::FlushTouchesLocked() {
  std::vector<std::pair<ResourceId, uint64_t>> pending;
  for (TouchStripe& stripe : touch_stripes_) {
    MutexLock lock(stripe.mu);
    pending.insert(pending.end(), stripe.pending.begin(),
                   stripe.pending.end());
    stripe.pending.clear();
  }
  if (pending.empty()) return;
  // Apply in stamp order so the lists end up exactly as if every Touch/Pin
  // had spliced under mu_ at the moment it happened (only the latest touch
  // of an id affects its final position, and the buffer keeps exactly
  // that).
  std::sort(pending.begin(), pending.end(),
            [](const std::pair<ResourceId, uint64_t>& a,
               const std::pair<ResourceId, uint64_t>& b) {
              return a.second < b.second;
            });
  for (const auto& [id, stamp] : pending) {
    ResourceHandle e = Find(id);  // mu_ → table stripe: allowed order
    if (e == nullptr) continue;  // removed meanwhile; ids never reused
    if (stamp > e->last_touch) e->last_touch = stamp;
    auto pool_idx = static_cast<int>(e->pool);
    if (e->in_lru) {
      lru_[pool_idx].erase(e->lru_it);
    }
    lru_[pool_idx].push_back(id);
    e->lru_it = std::prev(lru_[pool_idx].end());
    e->in_lru = true;
  }
}

void ResourceManager::SetGlobalBudget(uint64_t bytes) {
  global_budget_.store(bytes, std::memory_order_relaxed);
  std::vector<EvictCallback> callbacks;
  {
    MutexLock lock(mu_);
    ReactiveEvictLocked(&callbacks);
  }
  for (auto& cb : callbacks) {
    if (cb) cb();
  }
}

void ResourceManager::SetPoolLimits(PoolId pool, Limits limits) {
  auto& lim = pool_limits_[static_cast<int>(pool)];
  lim.lower.store(limits.lower, std::memory_order_relaxed);
  lim.upper.store(limits.upper, std::memory_order_relaxed);
  sweeper_cv_.NotifyOne();
}

void ResourceManager::SweepNow() {
  obs::TraceSpan span("buffer", "sweep");
  Stopwatch timer;
  std::vector<EvictCallback> callbacks;
  {
    MutexLock lock(mu_);
    while (sweeper_in_callbacks_) sweeper_idle_cv_.Wait(mu_);
    FlushTouchesLocked();
    PruneDeadLruNodesLocked();
    for (int p = 0; p < kNumPools; ++p) {
      const uint64_t upper =
          pool_limits_[p].upper.load(std::memory_order_relaxed);
      if (upper != 0 &&
          pool_bytes_[p].load(std::memory_order_relaxed) > upper) {
        CollectPagedVictimsLocked(
            static_cast<PoolId>(p),
            pool_limits_[p].lower.load(std::memory_order_relaxed),
            /*proactive=*/true, &callbacks);
      }
    }
  }
  for (auto& cb : callbacks) {
    if (cb) cb();
  }
  m_sweep_duration_us_->Record(static_cast<uint64_t>(timer.ElapsedMicros()));
}

ResourceManagerStats ResourceManager::stats() const {
  ResourceManagerStats s;
  {
    MutexLock lock(mu_);
    s = counters_;
  }
  s.total_bytes = total_bytes_.load(std::memory_order_relaxed);
  for (int p = 0; p < kNumPools; ++p) {
    s.pool_bytes[p] = pool_bytes_[p].load(std::memory_order_relaxed);
  }
  s.resource_count = resource_count_.load(std::memory_order_relaxed);
  return s;
}

void ResourceManager::FinishRemovalLocked(const ResourceHandle& e,
                                          bool count_as_eviction,
                                          bool proactive) {
  auto pool_idx = static_cast<int>(e->pool);
  if (e->in_lru) {
    lru_[pool_idx].erase(e->lru_it);
    e->in_lru = false;
  }
  EraseFromTable(e->id);  // mu_ → table stripe: allowed order
  pool_bytes_[pool_idx].fetch_sub(e->bytes, std::memory_order_relaxed);
  total_bytes_.fetch_sub(e->bytes, std::memory_order_relaxed);
  resource_count_.fetch_sub(1, std::memory_order_relaxed);
  if (count_as_eviction) {
    counters_.evicted_bytes += e->bytes;
    m_evicted_bytes_->Add(e->bytes);
    if (proactive) {
      ++counters_.proactive_evictions;
      m_evict_proactive_->Inc();
    } else {
      ++counters_.reactive_evictions;
      m_evict_reactive_->Inc();
    }
  }
  UpdateGauges();
}

void ResourceManager::CollectPagedVictimsLocked(
    PoolId pool, uint64_t target, bool proactive,
    std::vector<EvictCallback>* callbacks) {
  auto pool_idx = static_cast<int>(pool);
  // Plain LRU front-to-back; disposition weight deliberately plays no role
  // for paged-attribute resources (§5).
  auto it = lru_[pool_idx].begin();
  while (it != lru_[pool_idx].end() &&
         pool_bytes_[pool_idx].load(std::memory_order_relaxed) > target) {
    const ResourceId id = *it;
    ResourceHandle e = Find(id);
    if (e == nullptr) {  // unregistered; the node outlived the entry
      it = lru_[pool_idx].erase(it);
      continue;
    }
    if (e->disposition == Disposition::kNonSwappable) {
      ++it;
      continue;
    }
    // Only an unpinned, live entry may become a victim, and winning the
    // dead flag is what makes us the victim's sole remover: a concurrent
    // TryPin fails against the flag, a concurrent pin beats our CAS.
    uint64_t expected = 0;
    if (!e->pin_state.compare_exchange_strong(expected, kDeadFlag,
                                              std::memory_order_acq_rel,
                                              std::memory_order_acquire)) {
      ++it;  // pinned right now (or racing Unregister won)
      continue;
    }
    callbacks->push_back(std::move(e->on_evict));
    ++it;  // advance before FinishRemovalLocked erases the node
    FinishRemovalLocked(e, /*count_as_eviction=*/true, proactive);
  }
}

void ResourceManager::CollectWeightedVictimsLocked(
    uint64_t target, std::vector<EvictCallback>* callbacks) {
  // Rank unpinned, swappable general-pool resources by descending t/w.
  struct Candidate {
    double score;
    ResourceHandle entry;
  };
  const uint64_t now = clock_.load();
  std::vector<Candidate> candidates;
  auto& lru = lru_[static_cast<int>(PoolId::kGeneral)];
  for (auto it = lru.begin(); it != lru.end();) {
    ResourceHandle e = Find(*it);
    if (e == nullptr) {
      it = lru.erase(it);
      continue;
    }
    const uint64_t state = e->pin_state.load(std::memory_order_acquire);
    if (state == 0 && e->disposition != Disposition::kNonSwappable) {
      double t = static_cast<double>(now - e->last_touch);
      candidates.push_back({t / DispositionWeight(e->disposition),
                            std::move(e)});
    }
    ++it;
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.score > b.score;
            });
  for (Candidate& c : candidates) {
    if (total_bytes_.load(std::memory_order_relaxed) <= target) break;
    uint64_t expected = 0;
    if (!c.entry->pin_state.compare_exchange_strong(
            expected, kDeadFlag, std::memory_order_acq_rel,
            std::memory_order_acquire)) {
      continue;  // pinned (or removed) since the scan above
    }
    callbacks->push_back(std::move(c.entry->on_evict));
    FinishRemovalLocked(c.entry, /*count_as_eviction=*/true,
                        /*proactive=*/false);
  }
}

void ResourceManager::ReactiveEvictLocked(
    std::vector<EvictCallback>* callbacks) {
  const uint64_t budget = global_budget_.load(std::memory_order_relaxed);
  if (budget == 0 || total_bytes_.load(std::memory_order_relaxed) <= budget) {
    return;
  }
  // Deferred touches must land before picking victims or the LRU order
  // would ignore recent activity.
  FlushTouchesLocked();
  // Low-memory situation: paged-attribute resources are unloaded first, down
  // to each pool's lower limit, before touching anything else (§5).
  for (int p = 0; p < kNumPools; ++p) {
    if (total_bytes_.load(std::memory_order_relaxed) <= budget) break;
    if (p == static_cast<int>(PoolId::kGeneral)) continue;
    // These count as reactive, not proactive: budget pressure, not sweeper.
    CollectPagedVictimsLocked(
        static_cast<PoolId>(p),
        pool_limits_[p].lower.load(std::memory_order_relaxed),
        /*proactive=*/false, callbacks);
  }
  if (total_bytes_.load(std::memory_order_relaxed) > budget) {
    CollectWeightedVictimsLocked(budget, callbacks);
  }
}

void ResourceManager::PruneDeadLruNodesLocked() {
  // dead_lru_nodes_ counts unregisters since the last prune — an upper
  // bound on stale nodes (some never reached a list, eviction walks erase
  // others in passing), so the reset below can only make pruning *less*
  // frequent, never let stale nodes grow unboundedly.
  if (dead_lru_nodes_.load(std::memory_order_relaxed) <
      kDeadLruPruneThreshold) {
    return;
  }
  dead_lru_nodes_.store(0, std::memory_order_relaxed);
  for (auto& lru : lru_) {
    for (auto it = lru.begin(); it != lru.end();) {
      if (Find(*it) == nullptr) {
        it = lru.erase(it);
      } else {
        ++it;
      }
    }
  }
}

void ResourceManager::BackgroundSweeper() {
  UniqueLock lock(mu_);
  while (!shutting_down_) {
    // Timed wait (not a predicate wait): the sweeper wakes on the 20 ms
    // tick, on limit changes, and on over-limit registrations alike.
    (void)sweeper_cv_.WaitFor(mu_, std::chrono::milliseconds(20));
    if (shutting_down_) break;
    const auto sweep_start = std::chrono::steady_clock::now();
    std::vector<EvictCallback> callbacks;
    FlushTouchesLocked();
    PruneDeadLruNodesLocked();
    for (int p = 0; p < kNumPools; ++p) {
      const uint64_t upper =
          pool_limits_[p].upper.load(std::memory_order_relaxed);
      if (upper != 0 &&
          pool_bytes_[p].load(std::memory_order_relaxed) > upper) {
        CollectPagedVictimsLocked(
            static_cast<PoolId>(p),
            pool_limits_[p].lower.load(std::memory_order_relaxed),
            /*proactive=*/true, &callbacks);
      }
    }
    if (!callbacks.empty()) {
      // Callbacks run outside mu_ (they may call back into the manager).
      sweeper_in_callbacks_ = true;
      lock.Unlock();
      for (auto& cb : callbacks) {
        if (cb) cb();
      }
      // Only sweeps that actually evicted register a duration/span — the
      // idle 20ms ticks would otherwise drown the histogram in zeros.
      m_sweep_duration_us_->Record(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - sweep_start)
              .count()));
      if (obs::Tracer::enabled()) {
        obs::Tracer::Global().RecordSpan("buffer", "sweep", sweep_start,
                                         callbacks.size());
      }
      lock.Lock();
      sweeper_in_callbacks_ = false;
      sweeper_idle_cv_.NotifyAll();
    }
  }
}

}  // namespace payg
