#ifndef PAYG_EXEC_EXEC_CONTEXT_H_
#define PAYG_EXEC_EXEC_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>

#include "common/status.h"
#include "obs/metrics.h"
#include "obs/query_profile.h"

namespace payg {

// Per-query counter set — an IoStats scoped to one query instead of the
// whole store, one atomic per row of PAYG_QUERY_COUNTERS
// (obs/query_profile.h). One query's partition workers share the context,
// so the counters are atomic; relaxed ordering is enough (they are
// statistics, not synchronization).
struct QueryStats {
#define PAYG_X(name, text) std::atomic<uint64_t> name{0};
  PAYG_QUERY_COUNTERS(PAYG_X)
#undef PAYG_X

  // Plain-integer copy for reporting (benchmarks, logs, tests).
  struct Snapshot {
#define PAYG_X(name, text) uint64_t name = 0;
    PAYG_QUERY_COUNTERS(PAYG_X)
#undef PAYG_X
  };

  Snapshot snapshot() const {
    Snapshot s;
#define PAYG_X(name, text) s.name = name.load(std::memory_order_relaxed);
    PAYG_QUERY_COUNTERS(PAYG_X)
#undef PAYG_X
    return s;
  }

  // Adds the snapshot to the process-wide "query.<name>" counters, so
  // per-query accounting also shows up in the one registry dump. The
  // registry pointers are resolved once per process (the registry never
  // invalidates them, even across ResetAll).
  static void FoldIntoRegistry(const Snapshot& s) {
    auto& reg = obs::MetricsRegistry::Global();
    static obs::Counter* const counters[] = {
#define PAYG_X(name, text) reg.counter("query." #name),
        PAYG_QUERY_COUNTERS(PAYG_X)
#undef PAYG_X
    };
    obs::Counter* const* c = counters;
#define PAYG_X(name, text) (*c++)->Add(s.name);
    PAYG_QUERY_COUNTERS(PAYG_X)
#undef PAYG_X
  }
};

// Process-unique query id, minted at ExecContext construction. Id 0 is
// reserved for "no query" (trace events recorded outside any query scope).
inline uint64_t NextQueryId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

// Carried through one query end to end: Table → Partition → FragmentReader →
// paged structures → PageFile. Gives every layer a place to report work
// (QueryStats) and a deadline to respect, so a cold-partition page load can
// be attributed to — and cancelled by — the query that caused it.
//
// The context outlives every worker of its query (the executor joins them
// before the driver returns), so layers hold it by raw pointer. A null
// ExecContext* anywhere down the stack means "no accounting requested".
struct ExecContext {
  using Clock = std::chrono::steady_clock;

  ExecContext() = default;
  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  // Query end: whatever this query (or query stream — benchmarks reuse one
  // context) accounted folds into the registry exactly once.
  ~ExecContext() { QueryStats::FoldIntoRegistry(stats.snapshot()); }

  QueryStats stats;

  // Process-unique id stamped on this context's trace spans and profile.
  // A context reused across a query stream (benchmarks) keeps one id: the
  // id names the context's lifetime, the profile always describes the most
  // recent ForEach.
  const uint64_t query_id = NextQueryId();

  // Stage breakdown of the most recent executor fan-out on this context,
  // rewritten by QueryExecutor::ForEach at completion. Read it after the
  // query call returns; the executor joins its workers first, so no task
  // is still writing.
  obs::QueryProfile profile;

  // Absolute deadline; Clock::time_point::max() (the default) means none.
  Clock::time_point deadline = Clock::time_point::max();

  void SetDeadlineAfter(std::chrono::microseconds timeout) {
    deadline = Clock::now() + timeout;
  }
  bool has_deadline() const { return deadline != Clock::time_point::max(); }

  // OK while the deadline (if any) has not passed. Checked at the partition
  // fan-out and before every physical page load, so a query over many cold
  // pages stops within one page read of its deadline.
  Status CheckDeadline() const {
    if (has_deadline() && Clock::now() > deadline) {
      return Status::DeadlineExceeded("query deadline exceeded");
    }
    return Status::OK();
  }
};

// Adds `n` to one per-query counter, tolerating the no-context case:
//   Bump(ctx, &QueryStats::rows_scanned, rows);
inline void Bump(ExecContext* ctx, std::atomic<uint64_t> QueryStats::*counter,
                 uint64_t n = 1) {
  if (ctx != nullptr) {
    (ctx->stats.*counter).fetch_add(n, std::memory_order_relaxed);
  }
}

}  // namespace payg

#endif  // PAYG_EXEC_EXEC_CONTEXT_H_
