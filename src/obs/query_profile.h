#ifndef PAYG_OBS_QUERY_PROFILE_H_
#define PAYG_OBS_QUERY_PROFILE_H_

#include <cinttypes>
#include <cstdint>
#include <string>
#include <vector>

// The per-query counter table — the one place a per-query counter is
// named. Each row X(name, text) generates an ExecContext QueryStats atomic,
// its QueryStats::Snapshot field, the process-wide "query.<name>" registry
// counter, a QueryProfile member, the profile's per-query delta, its JSON
// key and its ToText fragment (`text`, a printf fragment for the value).
// Rows render in table order, which is what keeps the ToText pairs
// `cold=N/Mus` and `hit=N/Mus` together.
//
// page_cold_* / page_hit_* split the PageCache::GetPage wait: a cold access
// paid a physical load (page_cold_count tracks pages_read one-for-one, at a
// different code site — profile_test cross-checks them), a hit pinned a
// resident page. Time is the full GetPage call, so cold time includes the
// simulated device latency plus any in-flight-prefetch wait.
#define PAYG_QUERY_COUNTERS(X)                                              \
  X(page_cold_count, " cold=%" PRIu64)                                     \
  X(page_cold_us, "/%" PRIu64 "us")                                        \
  X(page_hit_count, " hit=%" PRIu64)                                       \
  X(page_hit_us, "/%" PRIu64 "us")                                         \
  X(bytes_read, " bytes=%" PRIu64)        /* bytes of physical loads */    \
  X(rows_scanned, " rows=%" PRIu64)       /* rows examined by filters */   \
  X(index_lookups, " index=%" PRIu64)     /* FindRows via an index */      \
  X(vector_scans, " vscan=%" PRIu64)      /* FindRows via a vid scan */    \
  X(codec_native, " codec=%" PRIu64)      /* kernels on compressed form */ \
  X(prefetch_issued, " prefetch=%" PRIu64) /* readahead loads asked for */ \
  X(prefetch_hits, "/%" PRIu64)           /* pins of a prefetched page */  \
  X(pages_pinned, " pinned=%" PRIu64)     /* page-cache pins handed out */ \
  X(pages_read, " reads=%" PRIu64)        /* physical page loads */        \
  X(partitions_visited, " visited=%" PRIu64)                               \
  X(io_batches, " batches=%" PRIu64)      /* batched read submissions */

namespace payg::obs {

// Per-query stage breakdown — EXPLAIN ANALYZE for the Table-2 query shapes.
// Filled by QueryExecutor at query completion from the ExecContext counter
// deltas and the executor's own timers; pure data so it can live in obs
// (below exec in the dependency order) and flow through the slow-query ring
// and the stats dumper without dragging executor types along.
//
// Stage accounting identity (asserted by profile_test): for a query that
// runs serially, queue_wait_us + scan_us ≈ wall_us; page_cold_us +
// page_hit_us is contained in scan_us (page waits happen inside partition
// tasks, they are a decomposition, not an addend).
struct QueryProfile {
  uint64_t query_id = 0;

  // --- timing (microseconds) ---
  uint64_t wall_us = 0;        // ForEach entry to join
  uint64_t queue_wait_us = 0;  // sum over tasks: submit -> worker pickup
  uint64_t scan_us = 0;        // sum over tasks: partition task duration
  std::vector<uint64_t> partition_us;  // slot i = partition i's task time
  uint64_t partitions = 0;             // tasks the executor fanned out

  // --- per-query counters: this query's delta of each table row ---
#define PAYG_X(name, text) uint64_t name = 0;
  PAYG_QUERY_COUNTERS(PAYG_X)
#undef PAYG_X

  bool deadline_exceeded = false;

  // One line, key=value, for logs:
  //   qid=7 wall_us=1234 queue_us=2 scan_us=1200 parts=1 cold=5/1100us ...
  std::string ToText() const;
  // Structured form with the same fields plus the per-partition vector.
  std::string ToJson() const;
};

}  // namespace payg::obs

#endif  // PAYG_OBS_QUERY_PROFILE_H_
