// The four workloads. Each builds a fresh store under the run directory,
// drives it only through the store's public API (ColumnStore, Table,
// Partition::Merge, server::Server/Client, wire::*, ExecContext and the
// MetricsRegistry counters), times each call from outside, checks every
// answer against the Dataset reference, and removes the store at the end.
//
// Every run reports every end-to-end metric, so those are the metrics all
// four workloads have: lookup and scan latency, throughput, memory, disk
// and set-up time. The write path's own timings (merge, checkpoint, aging,
// ingest, reopen) exist on ingest_age only and are per-layer metrics.

#include <sched.h>

#include <array>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <regex>
#include <thread>

#include "bench.h"
#include "common/stopwatch.h"
#include "core/column_store.h"
#include "dataset.h"
#include "exec/exec_context.h"
#include "obs/metrics.h"
#include "server/client.h"
#include "server/server.h"
#include "server/wire.h"
#include "spans.h"

namespace perfbench {

namespace fs = std::filesystem;
using payg::ColumnStore;
using payg::ColumnStoreOptions;
using payg::ExecContext;
using payg::QueryResult;
using payg::Status;
using payg::Stopwatch;
using payg::Table;

namespace {

// ---------------------------------------------------------------------------
// Sizes. Pages are small (8 KiB data/index, 32 KiB dictionary) so that a
// point lookup touches a handful of pages, as at the paper's scale.

constexpr uint32_t kPageSize = 8 * 1024;
constexpr uint32_t kDictPageSize = 32 * 1024;
constexpr uint32_t kReadLatencyUs = 50;  // simulated device read, per page

// The read workloads share one table size. cold_lookup's budget holds well
// under the pages its lookups touch; warm_analytics and served_lookup run
// without budget or simulated latency.
constexpr uint64_t kReadRows = 60000;
constexpr uint64_t kColdBudgetBytes = 512 * 1024;
constexpr int kServedClients = 2;

// ingest_age: a round is a fresh store and kCycles write cycles.
constexpr uint64_t kIngestBaseRows = 24000;
constexpr uint64_t kIngestBatch = 2000;
constexpr int kCycles = 3;
// Lookups of delta rows take about a third of the time of lookups of aged
// rows. Three aged lookups to one delta lookup keep the median inside one of
// the two: with as many of each, it fell in the gap between them and moved
// 28% between runs. With a fifth of these counts the queries were 2% of a
// cycle's time, and a run's latencies rested on under half a second.
constexpr int kDeltaLookups = 2500;
constexpr int kAgedLookups = 7500;
constexpr int kCycleRanges = 5000;

// Foreground loops are cut into segments of about this length; latencies
// and throughput are interquartile means over segments (see
// Samples::SegmentQuantile).
constexpr double kSegmentSeconds = 2.0;
constexpr int kReopens = 5;  // clean reopens per store life; reopen_ms median
constexpr int kSampledRows = 16;  // rows re-read after a reopen

const std::vector<std::string> kLookupCols = {
    "aging_date", "int_lc1", "str_lc2", "dec1", "dbl0", "int_hc0"};
const std::vector<std::string> kRangeCols = {"pk", "aging_date", "int_lc1",
                                             "dec0"};
constexpr uint64_t kRangeRows = 16;

std::vector<int> Indexes(const std::vector<std::string>& names) {
  std::vector<int> out;
  for (const auto& n : names) out.push_back(ColumnIndex(n));
  return out;
}

ColumnStoreOptions StoreOptions(const std::string& dir, uint32_t latency_us,
                                uint64_t budget) {
  ColumnStoreOptions o;
  o.directory = dir;
  o.storage.page_size = kPageSize;
  o.storage.dict_page_size = kDictPageSize;
  o.storage.simulated_read_latency_us = latency_us;
  o.memory_budget = budget;
  return o;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) bytes += e.file_size(ec);
  }
  return bytes;
}

// ---------------------------------------------------------------------------
// Registry counters read around a phase.

struct Registry {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, payg::obs::Histogram::Snapshot> hists;

  uint64_t c(const std::string& n) const {
    auto it = counters.find(n);
    return it == counters.end() ? 0 : it->second;
  }
  payg::obs::Histogram::Snapshot h(const std::string& n) const {
    auto it = hists.find(n);
    return it == hists.end() ? payg::obs::Histogram::Snapshot{} : it->second;
  }
};

const char* const kCounterNames[] = {
    "cache.hits",          "cache.misses",        "cache.prefetch_issued",
    "cache.prefetch_hits", "rm.evictions.reactive", "rm.evictions.proactive",
    "rm.evicted.bytes",    "storage.read.pages",  "storage.write.bytes",
    "io.syscalls",         "query.pages_pinned",  "query.page_cold_us",
    "query.rows_scanned",  "query.index_lookups", "query.vector_scans",
    "query.partitions_visited"};
const char* const kHistNames[] = {"storage.read.latency_us", "io.batch_pages",
                                  "server.queue_wait_us", "server.batch_size"};

Registry ReadRegistry() {
  auto& reg = payg::obs::MetricsRegistry::Global();
  Registry r;
  for (const char* n : kCounterNames) r.counters[n] = reg.counter(n)->value();
  for (const char* n : kHistNames) r.hists[n] = reg.histogram(n)->snapshot();
  return r;
}

void Accumulate(Registry* acc, const Registry& d) {
  for (const auto& [n, v] : d.counters) acc->counters[n] += v;
  for (const auto& [n, hd] : d.hists) {
    auto& h = acc->hists[n];
    h.count += hd.count;
    h.sum += hd.sum;
    for (size_t i = 0; i < h.buckets.size(); ++i) h.buckets[i] += hd.buckets[i];
  }
}

Registry Delta(const Registry& a, const Registry& b) {
  Registry d;
  for (const auto& [n, v] : b.counters) d.counters[n] = v - a.c(n);
  for (const auto& [n, hb] : b.hists) {
    const auto ha = a.h(n);
    payg::obs::Histogram::Snapshot s;
    s.count = hb.count - ha.count;
    s.sum = hb.sum - ha.sum;
    for (size_t i = 0; i < s.buckets.size(); ++i) {
      s.buckets[i] = hb.buckets[i] - ha.buckets[i];
    }
    d.hists[n] = s;
  }
  return d;
}

// ---------------------------------------------------------------------------
// Operations and their reference answers.

enum class Kind {
  kLookup,
  kRange,
  kSumRange,
  kCountIn,
  kCountPrefix,
  kCountValue,
  kWhere
};
constexpr int kNumKinds = 7;
const char* const kKindNames[kNumKinds] = {
    "lookup", "range", "sum_range", "count_in", "count_prefix", "count_value",
    "where"};

struct Op {
  Kind kind = Kind::kLookup;
  uint64_t row = 0;      // lookup row / first row of a range
  int col = 0;           // filter column (count shapes), sum column
  int col2 = 0;          // equality column of kWhere
  uint64_t code = 0;     // kCountValue / kWhere value code, prefix digit
  std::vector<uint64_t> codes;  // kCountIn
  int64_t date_lo = 0, date_hi = 0;  // kSumRange / kWhere
};

struct Answer {
  QueryResult rows;
  uint64_t count = 0;
  double sum = 0;
};

std::string PrefixOf(int col, uint64_t digit) {
  return Columns()[col].name + "_000000" + std::to_string(digit);
}

Status Execute(Table* t, const Op& op, ExecContext* ctx, Answer* out) {
  const auto& cols = Columns();
  switch (op.kind) {
    case Kind::kLookup: {
      Span s("table.SelectByValue");
      PAYG_ASSIGN_OR_RETURN(out->rows,
                            t->SelectByValue("pk", Dataset::Pk(op.row),
                                             kLookupCols, ctx));
      return Status::OK();
    }
    case Kind::kRange: {
      Span s("table.SelectRange");
      PAYG_ASSIGN_OR_RETURN(
          out->rows,
          t->SelectRange("pk", Dataset::Pk(op.row),
                         Dataset::Pk(op.row + kRangeRows - 1), kRangeCols,
                         ctx));
      return Status::OK();
    }
    case Kind::kSumRange: {
      Span s("table.SumRange");
      PAYG_ASSIGN_OR_RETURN(
          out->sum, t->SumRange("aging_date", Value(op.date_lo),
                                Value(op.date_hi), cols[op.col].name, ctx));
      return Status::OK();
    }
    case Kind::kCountIn: {
      Span s("table.CountIn");
      std::vector<Value> values;
      for (uint64_t k : op.codes) values.push_back(ValueAt(op.col, k));
      PAYG_ASSIGN_OR_RETURN(out->count,
                            t->CountIn(cols[op.col].name, values, ctx));
      return Status::OK();
    }
    case Kind::kCountPrefix: {
      Span s("table.CountPrefix");
      PAYG_ASSIGN_OR_RETURN(
          out->count,
          t->CountPrefix(cols[op.col].name, PrefixOf(op.col, op.code), ctx));
      return Status::OK();
    }
    case Kind::kCountValue: {
      Span s("table.CountByValue");
      PAYG_ASSIGN_OR_RETURN(out->count,
                            t->CountByValue(cols[op.col].name,
                                            ValueAt(op.col, op.code), ctx));
      return Status::OK();
    }
    case Kind::kWhere: {
      Span s("table.CountWhere");
      std::vector<payg::Predicate> preds = {
          payg::Predicate::Eq(cols[op.col2].name, ValueAt(op.col2, op.code)),
          payg::Predicate::Between("aging_date", Value(op.date_lo),
                                   Value(op.date_hi))};
      PAYG_ASSIGN_OR_RETURN(out->count, t->CountWhere(preds, ctx));
      return Status::OK();
    }
  }
  return Status::OK();
}

bool IsLookup(Kind k) { return k == Kind::kLookup; }

// Answers queries from the dataset's codes. Rows [0, visible) are the
// table's visible rows; per-code counts are kept for the read workloads,
// whose data does not change while they are asked.
class Reference {
 public:
  Reference(const Dataset* ds, uint64_t visible, bool with_counts)
      : ds_(ds), visible_(visible) {
    if (!with_counts) return;
    counts_.resize(Columns().size());
    for (size_t c = 0; c < Columns().size(); ++c) {
      const ColumnDef& def = Columns()[c];
      if (def.cardinality == 0) continue;
      counts_[c].assign(def.cardinality, 0);
      for (uint64_t r = 0; r < visible; ++r) {
        ++counts_[c][ds->Code(static_cast<int>(c), r)];
      }
    }
  }

  void set_visible(uint64_t v) { visible_ = v; }
  uint64_t visible() const { return visible_; }

  // Empty when `got` is right, else what differs.
  std::string Check(const Op& op, const Answer& got) const {
    switch (op.kind) {
      case Kind::kLookup: {
        std::vector<std::vector<Value>> want;
        if (op.row < visible_) {
          want.push_back(ds_->Project(op.row, lookup_cols_));
        }
        return got.rows.rows == want ? "" : "lookup row " +
                                                std::to_string(op.row);
      }
      case Kind::kRange: {
        std::vector<std::vector<Value>> want;
        for (uint64_t r = op.row;
             r < op.row + kRangeRows && r < visible_; ++r) {
          want.push_back(ds_->Project(r, range_cols_));
        }
        auto have = got.rows.rows;
        SortRows(&have);
        SortRows(&want);
        return have == want ? "" : "range at row " + std::to_string(op.row);
      }
      case Kind::kSumRange: {
        double want = 0;
        ForRowsOfDates(op.date_lo, op.date_hi, [&](uint64_t r) {
          const Value v = ds_->At(op.col, r);
          want += v.type() == ValueType::kDouble
                      ? v.AsDouble()
                      : static_cast<double>(v.AsInt64());
        });
        return got.sum == want ? "" : "sum_range " + Columns()[op.col].name;
      }
      case Kind::kCountIn: {
        uint64_t want = 0;
        for (uint64_t k : op.codes) want += counts_[op.col][k];
        return CompareCount(got.count, want, "count_in");
      }
      case Kind::kCountPrefix: {
        uint64_t want = 0;
        const auto& cnt = counts_[op.col];
        for (uint64_t k = op.code * 10; k < op.code * 10 + 10; ++k) {
          if (k < cnt.size()) want += cnt[k];
        }
        return CompareCount(got.count, want, "count_prefix");
      }
      case Kind::kCountValue:
        return CompareCount(got.count, counts_[op.col][op.code],
                            "count_value");
      case Kind::kWhere: {
        uint64_t want = 0;
        ForRowsOfDates(op.date_lo, op.date_hi, [&](uint64_t r) {
          if (ds_->Code(op.col2, r) == op.code) ++want;
        });
        return CompareCount(got.count, want, "where");
      }
    }
    return "";
  }

 private:
  template <typename F>
  void ForRowsOfDates(int64_t lo, int64_t hi, F f) const {
    const uint64_t begin = Dataset::FirstRowOfDate(lo);
    const uint64_t end =
        std::min(visible_, Dataset::FirstRowOfDate(hi + 1));
    for (uint64_t r = begin; r < end; ++r) f(r);
  }
  static std::string CompareCount(uint64_t got, uint64_t want,
                                  const char* what) {
    if (got == want) return "";
    return std::string(what) + " got " + std::to_string(got) + " want " +
           std::to_string(want);
  }

  const Dataset* ds_;
  uint64_t visible_;
  std::vector<std::vector<uint64_t>> counts_;  // [col][code]
  const std::vector<int> lookup_cols_ = Indexes(kLookupCols);
  const std::vector<int> range_cols_ = Indexes(kRangeCols);
};

// ---------------------------------------------------------------------------
// What a run measured; turned into the printed metrics at the end.

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

struct Measures {
  Samples setup_s;
  Samples lookup_us, scan_us;
  Samples by_kind[kNumKinds];
  uint64_t queries = 0;
  double query_busy_s = 0;  // time inside the queries (served: wall time)
  // Segment that queries are attributed to: kSegmentSeconds of a
  // foreground loop, or one ingest_age cycle. Per segment: {queries,
  // seconds}.
  uint32_t segment = 0;
  std::map<uint32_t, std::array<double, 2>> seg_queries;
  uint64_t peak_bytes = 0;
  double disk_bytes_per_row = 0;

  uint64_t rows_inserted = 0;
  double insert_s = 0;
  Samples insert_us;
  Samples merge_ms, merge_changed_ms, merge_unchanged_ms;
  uint64_t rows_aged = 0;
  double age_s = 0;
  Samples checkpoint_ms, reopen_ms, open_ms, first_query_ms;
  uint64_t user_bytes = 0, write_bytes = 0;
  Samples delta_lookup_us;

  // Per-layer: registry deltas over the traced foreground queries.
  Registry fg;
  uint64_t fg_ops = 0;
  double fg_scan_ns = 0;
  uint64_t codec_plain = 0, codec_for = 0, codec_rle = 0;
  std::string codec_note;

  // served_lookup only.
  double inproc_lookup_p50_us = 0;
  double wire_us = 0;

  // ingest_age's crash probe.
  uint64_t crash_opens = 0, crash_failed = 0;
  std::string crash_error;

  // Tracing overhead: the same loop untraced, then traced.
  double untraced_tput = 0, traced_tput = 0;

  void AddQuery(Kind k, double us) {
    (IsLookup(k) ? lookup_us : scan_us).Add(us, segment);
    by_kind[static_cast<int>(k)].Add(us);
    ++queries;
    query_busy_s += us / 1e6;
    auto& seg = seg_queries[segment];
    seg[0] += 1;
    seg[1] += us / 1e6;
    if (k != Kind::kLookup && k != Kind::kRange) fg_scan_ns += us * 1e3;
  }
  // Interquartile mean over segments of queries per second of query time.
  double Throughput() const {
    std::vector<double> rates;
    for (const auto& [id, s] : seg_queries) {
      if (s[1] > 0) rates.push_back(s[0] / s[1]);
    }
    return Samples::MidMean(rates);
  }
  void Peak(const ColumnStore* store) {
    peak_bytes = std::max(peak_bytes, store->MemoryFootprint());
  }
};

// ---------------------------------------------------------------------------
// Store life cycle.

struct Live {
  ColumnStoreOptions options;
  std::unique_ptr<ColumnStore> store;
  Table* table = nullptr;
};

// Partition layout of the first `rows` rows, range-partitioned on row order
// (= aging date): partition 0 hot = newest half, 1 and 2 cold = the older
// quarters.
using Layout = std::vector<std::vector<Dataset::LoadColumn>>;

Layout PrepareLayout(const Dataset& ds, uint64_t rows) {
  const uint64_t q = rows / 4;
  const std::pair<uint64_t, uint64_t> ranges[3] = {
      {2 * q, rows}, {0, q}, {q, 2 * q}};
  Layout layout(3);
  for (int p = 0; p < 3; ++p) {
    for (size_t c = 0; c < Columns().size(); ++c) {
      layout[p].push_back(ds.PrepareLoad(static_cast<int>(c), ranges[p].first,
                                         ranges[p].second));
    }
  }
  return layout;
}

// Opens a fresh store and bulk-loads a prepared layout: the engine calls
// that setup_s times. BulkLoadColumn builds the main fragments directly, so
// no merge follows.
Status BuildStore(const Layout& layout, Live* live) {
  PAYG_ASSIGN_OR_RETURN(live->store, ColumnStore::Open(live->options));
  PAYG_ASSIGN_OR_RETURN(live->table,
                        live->store->CreateTable(MakeSchema("erp")));
  for (size_t p = 1; p < layout.size(); ++p) {
    PAYG_RETURN_IF_ERROR(live->table->AddColdPartition());
  }
  for (size_t p = 0; p < layout.size(); ++p) {
    for (size_t c = 0; c < layout[p].size(); ++c) {
      PAYG_RETURN_IF_ERROR(live->table->partition(static_cast<uint32_t>(p))
                               ->BulkLoadColumn(static_cast<int>(c),
                                                layout[p][c].dict,
                                                layout[p][c].vids));
    }
  }
  return Status::OK();
}

// One timed set-up: a fresh store in `live`'s directory.
Status SetUp(const Layout& layout, Live* live, Samples* setup_s) {
  live->store.reset();
  live->table = nullptr;
  fs::remove_all(live->options.directory);
  Stopwatch sw;
  PAYG_RETURN_IF_ERROR(BuildStore(layout, live));
  setup_s->Add(sw.ElapsedSeconds());
  return Status::OK();
}

// Timed set-ups on a spare directory, each torn down again. The workloads
// make one before every segment of the measured phase (ingest_age: after
// every cycle), so that setup_s, like the other metrics, samples the whole
// run. Most of a set-up is the engine's fsyncs, and set-ups taken back to
// back all met the host's disk in the same second: their medians moved up
// to 3x between runs.
class SpareSetUp {
 public:
  SpareSetUp(const Layout* layout, const ColumnStoreOptions& options,
             Samples* setup_s)
      : layout_(layout), setup_s_(setup_s) {
    spare_.options = options;
    spare_.options.directory += "_spare";
  }
  ~SpareSetUp() { fs::remove_all(spare_.options.directory); }

  Status Run() {
    Status st = SetUp(*layout_, &spare_, setup_s_);
    spare_.table = nullptr;
    spare_.store.reset();
    fs::remove_all(spare_.options.directory);
    return st;
  }

 private:
  const Layout* layout_;
  Samples* setup_s_;
  Live spare_;
};

int SegmentsOf(double seconds) {
  return std::max(1, static_cast<int>(std::lround(seconds / kSegmentSeconds)));
}

void CollectCodecs(Table* t, Measures* m) {
  m->codec_plain = m->codec_for = m->codec_rle = 0;
  m->codec_note = "codecs (partition 0):";
  for (const auto& s : t->CollectColumnStats()) {
    if (s.partition == 0) m->codec_note += " " + s.column + "=" + s.codec;
    if (s.codec == "plain") ++m->codec_plain;
    if (s.codec == "for") ++m->codec_for;
    if (s.codec == "rle") ++m->codec_rle;
  }
}

// Runs `op`, times it, checks it. Returns false on a program error.
bool RunQuery(Table* t, ColumnStore* store, const Op& op,
              const Reference& ref, bool traced, Measures* m, RunResult* r,
              Samples* extra = nullptr) {
  Answer got;
  Status st;
  double us;
  ++r->attempted;
  if (traced) {
    // The registry delta around one query is that query's per-layer work
    // (nothing else runs on the store meanwhile).
    const Registry before = ReadRegistry();
    {
      ExecContext ctx;
      Stopwatch sw;
      st = Execute(t, op, &ctx, &got);
      us = sw.ElapsedMicros();
    }
    Accumulate(&m->fg, Delta(before, ReadRegistry()));
    ++m->fg_ops;
  } else {
    Stopwatch sw;
    st = Execute(t, op, nullptr, &got);
    us = sw.ElapsedMicros();
  }
  m->Peak(store);
  if (!st.ok()) {
    r->Mismatch(std::string(kKindNames[static_cast<int>(op.kind)]) + ": " +
                st.ToString());
    return false;
  }
  m->AddQuery(op.kind, us);
  if (extra != nullptr) extra->Add(us);
  const std::string why = ref.Check(op, got);
  if (!why.empty()) r->Mismatch(why);
  return true;
}

// The write path, timed per call. Row bookkeeping (which rows are hot,
// which are visible) lives in the caller.
class Writer {
 public:
  Writer(const Dataset* ds, Measures* m, RunResult* r)
      : ds_(ds), m_(m), r_(r) {}

  Status Insert(Live* live, uint64_t from, uint64_t to) {
    const auto before = ReadRegistry();
    for (uint64_t row = from; row < to; ++row) {
      std::vector<Value> values = ds_->Row(row);
      ++r_->attempted;
      Stopwatch sw;
      Status st;
      {
        Span s("table.Insert");
        st = live->table->Insert(values);
      }
      const double us = sw.ElapsedMicros();
      PAYG_RETURN_IF_ERROR(st);
      m_->insert_us.Add(us);
      m_->insert_s += us / 1e6;
      m_->user_bytes += ds_->RowUserBytes(row);
    }
    m_->rows_inserted += to - from;
    m_->Peak(live->store.get());
    AddWrites(before);
    return Status::OK();
  }

  // Table::MergeAll's loop over Partition::Merge, timing partitions with
  // and without changes apart.
  Status MergeAll(Live* live) {
    const auto before = ReadRegistry();
    ++r_->attempted;
    Stopwatch sw;
    {
      Span all("table.MergeAll");
      for (uint32_t p = 0; p < live->table->partition_count(); ++p) {
        payg::Partition* part = live->table->partition(p);
        const bool changed = part->delta_row_count() > 0 ||
                             part->visible_row_count() < part->row_count();
        Stopwatch psw;
        {
          Span s("partition.Merge");
          PAYG_RETURN_IF_ERROR(part->Merge());
        }
        (changed ? m_->merge_changed_ms : m_->merge_unchanged_ms)
            .Add(psw.ElapsedMillis());
      }
    }
    const double us = sw.ElapsedMicros();
    m_->merge_ms.Add(us / 1e3);
    m_->Peak(live->store.get());
    AddWrites(before);
    return Status::OK();
  }

  // Ages every hot row dated <= `date` into the newest cold partition,
  // first adding a new one when `new_partition`.
  Status Age(Live* live, int64_t date, uint64_t expect, bool new_partition) {
    ++r_->attempted;
    Stopwatch sw;
    uint64_t moved = 0;
    {
      Span s("table.AgeRows");
      if (new_partition) {
        PAYG_RETURN_IF_ERROR(live->table->AddColdPartition());
      }
      PAYG_ASSIGN_OR_RETURN(moved, live->table->AgeRows(Value(date)));
    }
    const double us = sw.ElapsedMicros();
    m_->age_s += us / 1e6;
    m_->rows_aged += moved;
    m_->Peak(live->store.get());
    if (moved != expect) {
      r_->Mismatch("AgeRows moved " + std::to_string(moved) + " want " +
                   std::to_string(expect));
    }
    return Status::OK();
  }

  Status Checkpoint(Live* live) {
    const auto before = ReadRegistry();
    ++r_->attempted;
    Stopwatch sw;
    {
      Span s("store.Checkpoint");
      PAYG_RETURN_IF_ERROR(live->store->Checkpoint());
    }
    const double us = sw.ElapsedMicros();
    m_->checkpoint_ms.Add(us / 1e3);
    m_->Peak(live->store.get());
    AddWrites(before);
    return Status::OK();
  }

 private:
  void AddWrites(const Registry& before) {
    m_->write_bytes += Delta(before, ReadRegistry()).c("storage.write.bytes");
  }

  const Dataset* ds_;
  Measures* m_;
  RunResult* r_;
};

// Re-reads sampled rows and the visible row count of an opened store.
void VerifyStore(Table* t, const Reference& ref, payg::Random* rng,
                 RunResult* r, const std::string& what) {
  if (t->visible_row_count() != ref.visible()) {
    r->Mismatch(what + ": visible rows " +
                std::to_string(t->visible_row_count()) + " want " +
                std::to_string(ref.visible()));
    return;
  }
  for (int i = 0; i < kSampledRows; ++i) {
    Op op;
    op.row = rng->Uniform(ref.visible());
    Answer got;
    Status st = Execute(t, op, nullptr, &got);
    if (!st.ok()) {
      r->Mismatch(what + ": " + st.ToString());
      return;
    }
    const std::string why = ref.Check(op, got);
    if (!why.empty()) r->Mismatch(what + ": " + why);
  }
}

// Closes the store and opens it again kReopens times; each reopen is timed
// from ColumnStore::Open through the first answered lookup.
Status ReopenCycle(Live* live, const Reference& ref, payg::Random* rng,
                   Measures* m, RunResult* r) {
  for (int i = 0; i < kReopens; ++i) {
    live->store.reset();
    live->table = nullptr;
    ++r->attempted;
    Op first;
    first.row = rng->Uniform(ref.visible());
    Answer got;
    Stopwatch sw;
    {
      Span s("store.Open");
      PAYG_ASSIGN_OR_RETURN(live->store, ColumnStore::Open(live->options));
    }
    const double open_ms = sw.ElapsedMillis();
    PAYG_ASSIGN_OR_RETURN(live->table, live->store->GetTable("erp"));
    PAYG_RETURN_IF_ERROR(Execute(live->table, first, nullptr, &got));
    const double total_ms = sw.ElapsedMillis();
    m->reopen_ms.Add(total_ms);
    m->open_ms.Add(open_ms);
    m->first_query_ms.Add(total_ms - open_ms);
    const std::string why = ref.Check(first, got);
    if (!why.empty()) r->Mismatch("first lookup after reopen: " + why);
    VerifyStore(live->table, ref, rng, r, "reopen");
  }
  return Status::OK();
}

// The known durability fault: Partition::Merge deletes the generation it
// replaces while the durable catalog still names it, so opening a copy taken
// after checkpoint -> age -> merge fails on that generation's missing meta
// file. Any other open error is a new fault.
bool IsMergedAwayGeneration(const Status& st) {
  static const std::regex kMissingMeta(
      "^open .*_g[0-9]+\\.pmeta: No such file or directory$");
  return st.IsIOError() && std::regex_match(st.message(), kMissingMeta);
}

// One write cycle. Rows [0, total) are visible; the hot partition holds
// rows [hot_lo, total), older rows are in cold partitions.
struct CycleState {
  uint64_t total = 0;
  uint64_t hot_lo = 0;
};

// insert → delta lookups → add a cold partition and age → merge → aged
// lookups and ranges → checkpoint → crash probe. Queries never overlap a
// merge; a query that fails ends the cycle with an error status.
Status WriteCycle(const Dataset& ds, const std::string& copy_dir, bool traced,
                  Live* live, Reference* ref, CycleState* st,
                  payg::Random* rng, Measures* m, RunResult* r) {
  constexpr uint64_t kAged = kIngestBatch / 2;  // per aging step
  Writer w(&ds, m, r);
  PAYG_RETURN_IF_ERROR(w.Insert(live, st->total, st->total + kIngestBatch));
  ref->set_visible(st->total + kIngestBatch);
  for (int i = 0; i < kDeltaLookups; ++i) {
    Op op;
    op.row = st->total + rng->Uniform(kIngestBatch);
    if (!RunQuery(live->table, live->store.get(), op, *ref, traced, m, r,
                  &m->delta_lookup_us)) {
      return Status::Internal("query failed");
    }
  }
  st->total += kIngestBatch;
  PAYG_RETURN_IF_ERROR(w.Age(live, Dataset::Date(st->hot_lo + kAged - 1),
                             kAged, /*new_partition=*/true));
  PAYG_RETURN_IF_ERROR(w.MergeAll(live));
  for (int i = 0; i < kAgedLookups; ++i) {
    Op op;
    op.row = st->hot_lo + rng->Uniform(kAged);
    if (!RunQuery(live->table, live->store.get(), op, *ref, traced, m, r)) {
      return Status::Internal("query failed");
    }
  }
  for (int i = 0; i < kCycleRanges; ++i) {
    Op op;
    op.kind = Kind::kRange;
    op.row = st->hot_lo + rng->Uniform(st->total - st->hot_lo - kRangeRows);
    if (!RunQuery(live->table, live->store.get(), op, *ref, traced, m, r)) {
      return Status::Internal("query failed");
    }
  }
  st->hot_lo += kAged;
  if (live->table->visible_row_count() != st->total) {
    r->Mismatch("visible rows after a write cycle");
  }
  PAYG_RETURN_IF_ERROR(w.Checkpoint(live));

  // What a crash right after this age + merge leaves on disk must open as
  // the table of the checkpoint above (aging moves rows, it keeps them).
  PAYG_RETURN_IF_ERROR(w.Age(live, Dataset::Date(st->hot_lo + kAged - 1),
                             kAged, /*new_partition=*/false));
  PAYG_RETURN_IF_ERROR(w.MergeAll(live));
  st->hot_lo += kAged;
  fs::remove_all(copy_dir);
  fs::copy(live->options.directory, copy_dir, fs::copy_options::recursive);
  ++r->attempted;
  ++m->crash_opens;
  ColumnStoreOptions copy_options = live->options;
  copy_options.directory = copy_dir;
  {
    auto copy = ColumnStore::Open(copy_options);
    if (!copy.ok() && IsMergedAwayGeneration(copy.status())) {
      // The known durability fault: a counted failure, not a wrong answer.
      ++r->failed;
      ++m->crash_failed;
      m->crash_error = copy.status().ToString();
    } else if (!copy.ok()) {
      r->Mismatch("crash copy: " + copy.status().ToString());
    } else if (auto t = (*copy)->GetTable("erp"); !t.ok()) {
      r->Mismatch("crash copy lost the table");
    } else {
      VerifyStore(*t, *ref, rng, r, "crash copy");
    }
  }
  fs::remove_all(copy_dir);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Operation mixes.

// Generator state of one query stream.
struct OpStream {
  payg::Random* rng;
  uint64_t rows;
  int burst = 0;  // lookups still due in the current burst
};

Op ColdOp(OpStream* s) {
  payg::Random* rng = s->rng;
  const uint64_t rows = s->rows;
  // 80% of keys fall in the newest tenth of the table (recent documents),
  // the rest anywhere.
  auto key = [&](uint64_t span) {
    const uint64_t hot = rows / 10;
    return rng->Uniform(5) != 0 ? rows - hot + rng->Uniform(hot - span)
                                : rng->Uniform(rows - span);
  };
  Op op;
  if (rng->Uniform(10) != 0) {
    op.kind = Kind::kLookup;
    op.row = key(1);
  } else {
    op.kind = Kind::kRange;
    op.row = key(kRangeRows);
  }
  return op;
}

// Warm pk lookups come in bursts of 50 (10% of the operations), so that
// most of them run on the caches a lookup leaves rather than on what a
// scan left; one at a time, their latency followed the host's memory
// traffic.
Op WarmOp(OpStream* s) {
  payg::Random* rng = s->rng;
  const uint64_t rows = s->rows;
  const int64_t days = static_cast<int64_t>(rows / kRowsPerDay);
  auto date_range = [&](int64_t span, Op* op) {
    op->date_lo = kDateBase + static_cast<int64_t>(rng->Uniform(days - span));
    op->date_hi = op->date_lo + span - 1;
  };
  Op op;
  if (s->burst > 0) {
    --s->burst;
    op.row = rng->Uniform(rows);
    return op;
  }
  const uint64_t pick = rng->Uniform(451);
  if (pick == 0) {
    s->burst = 49;
    op.row = rng->Uniform(rows);
  } else if (pick < 91) {
    op.kind = Kind::kSumRange;
    op.col = ColumnIndex(rng->Uniform(2) == 0 ? "dec0" : "dbl1");
    date_range(days / 10, &op);
  } else if (pick < 181) {
    op.kind = Kind::kCountIn;
    op.col = ColumnIndex(rng->Uniform(2) == 0 ? "int_lc3" : "int_lc5");
    const uint64_t card = Columns()[op.col].cardinality;
    const uint64_t first = rng->Uniform(card - 5);
    op.codes = {first, first + 2, first + 4};
  } else if (pick < 271) {
    op.kind = Kind::kCountPrefix;
    op.col = ColumnIndex(rng->Uniform(2) == 0 ? "str_lc3" : "str_lc4");
    op.code = rng->Uniform(Columns()[op.col].cardinality / 10);
  } else if (pick < 361) {
    op.kind = Kind::kCountValue;
    op.col = ColumnIndex(rng->Uniform(2) == 0 ? "int_hc0" : "int_hc1");
    op.code = rng->Uniform(Columns()[op.col].cardinality);
  } else {
    op.kind = Kind::kWhere;
    op.col2 = ColumnIndex(rng->Uniform(2) == 0 ? "int_lc1" : "str_lc1");
    op.code = rng->Uniform(Columns()[op.col2].cardinality);
    date_range(days / 5, &op);
  }
  return op;
}

Op ServedOp(OpStream* s) {
  payg::Random* rng = s->rng;
  const uint64_t rows = s->rows;
  Op op;
  if (rng->Uniform(100) < 85) {
    op.kind = Kind::kLookup;
    op.row = rng->Uniform(rows);
  } else {
    op.kind = Kind::kCountValue;
    op.col = ColumnIndex("int_hc1");
    op.code = rng->Uniform(Columns()[op.col].cardinality);
  }
  return op;
}

// Closed loop on one thread for `seconds`, in segments; `spare`, when
// given, makes one set-up before each segment. With `traced` every query
// gets an ExecContext and a span, and the registry delta of the loop becomes
// the per-layer counts.
template <typename Gen>
bool QueryLoop(Live* live, const Reference& ref, Gen gen, double seconds,
               bool traced, SpareSetUp* spare, Measures* m, RunResult* r) {
  const uint64_t ops_before = m->queries;
  const double busy_before = m->query_busy_s;
  const int segments = SegmentsOf(seconds);
  for (int seg = 0; seg < segments; ++seg) {
    if (spare != nullptr) {
      if (Status st = spare->Run(); !st.ok()) {
        r->Mismatch("program error: set-up: " + st.ToString());
        return false;
      }
    }
    m->segment = static_cast<uint32_t>(seg);
    Stopwatch wall;
    while (wall.ElapsedSeconds() < seconds / segments) {
      for (int i = 0; i < 64; ++i) {
        if (!RunQuery(live->table, live->store.get(), gen(), ref, traced, m,
                      r)) {
          return false;
        }
      }
    }
  }
  const uint64_t ops = m->queries - ops_before;
  const double tput = ops / (m->query_busy_s - busy_before);
  (traced ? m->traced_tput : m->untraced_tput) = tput;
  return true;
}

// Untraced runs measure the whole loop, with the spare set-ups; traced
// runs, which do not report setup_s, spend a quarter of it untraced first,
// for the tracing overhead, and keep only the traced part's latencies.
template <typename Gen>
bool ForegroundLoop(Live* live, const Reference& ref, Gen gen,
                    const RunConfig& cfg, SpareSetUp* spare, Measures* m,
                    RunResult* r) {
  if (!cfg.trace) {
    return QueryLoop(live, ref, gen, cfg.seconds, false, spare, m, r);
  }
  Measures untraced;
  if (!QueryLoop(live, ref, gen, cfg.seconds / 4, false, nullptr, &untraced,
                 r)) {
    return false;
  }
  m->untraced_tput = untraced.untraced_tput;
  EnableSpans();
  return QueryLoop(live, ref, gen, cfg.seconds * 3 / 4, true, nullptr, m, r);
}

// ---------------------------------------------------------------------------
// Result assembly.

std::string Fmt(const char* fmt, double a, double b = 0, double c = 0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c);
  return buf;
}

void AddEndToEnd(const Measures& m, RunResult* r) {
  r->Add("setup_s", m.setup_s.P50(), "s");
  r->Add("lookup_p50_us", m.lookup_us.SegmentQuantile(0.5), "us");
  r->Add("lookup_p95_us", m.lookup_us.SegmentQuantile(0.95), "us");
  r->Add("scan_p50_us", m.scan_us.SegmentQuantile(0.5), "us");
  r->Add("scan_p95_us", m.scan_us.SegmentQuantile(0.95), "us");
  r->Add("throughput_ops_per_s", m.Throughput(), "ops/s");
  r->Add("peak_resident_mib", m.peak_bytes / 1048576.0, "MiB");
  r->Add("disk_bytes_per_row", m.disk_bytes_per_row, "B");
  r->Note(Fmt("lookup us: p90 %.1f, p99 %.1f, p99.9 %.1f",
              m.lookup_us.Quantile(0.9), m.lookup_us.P99(),
              m.lookup_us.Quantile(0.999)));
  r->Note(Fmt("scan us: p90 %.1f, p99 %.1f, p99.9 %.1f",
              m.scan_us.Quantile(0.9), m.scan_us.P99(),
              m.scan_us.Quantile(0.999)));
  r->Note(Fmt("set-up: min %.4f s, median %.4f s, max %.4f s", m.setup_s.Quantile(0),
              m.setup_s.P50(), m.setup_s.Quantile(1)));
  r->Note(Fmt("samples: lookups %.0f, scans %.0f, merges %.0f",
              m.lookup_us.size(), m.scan_us.size(), m.merge_ms.size()) +
          Fmt(", checkpoints %.0f, reopens %.0f, set-ups %.0f",
              m.checkpoint_ms.size(), m.reopen_ms.size(), m.setup_s.size()));
}

void AddPerLayer(const Measures& m, RunResult* r) {
  const Registry& g = m.fg;
  const double ops = static_cast<double>(m.fg_ops);
  const double hits = g.c("cache.hits"), misses = g.c("cache.misses");
  const double pinned = g.c("query.pages_pinned");
  const double read_pages = g.c("storage.read.pages");
  const double rows_scanned = g.c("query.rows_scanned");
  const auto kind_p50 = [&](Kind k) {
    return m.by_kind[static_cast<int>(k)].P50();
  };
  r->Add("server.overhead_p50_us",
         m.inproc_lookup_p50_us == 0
             ? 0
             : m.lookup_us.P50() - m.inproc_lookup_p50_us,
         "us");
  r->Add("server.wire_us", m.wire_us, "us");
  r->Add("server.queue_wait_p50_us", g.h("server.queue_wait_us").p50(), "us");
  r->Add("server.batch_mean", g.h("server.batch_size").mean(), "count");
  r->Add("table.lookup_p50_us", kind_p50(Kind::kLookup), "us");
  r->Add("table.range_p50_us", kind_p50(Kind::kRange), "us");
  r->Add("table.sum_range_p50_us", kind_p50(Kind::kSumRange), "us");
  r->Add("table.count_in_p50_us", kind_p50(Kind::kCountIn), "us");
  r->Add("table.count_prefix_p50_us", kind_p50(Kind::kCountPrefix), "us");
  r->Add("table.where_p50_us", kind_p50(Kind::kWhere), "us");
  r->Add("table.ingest_rows_per_s", Ratio(m.rows_inserted, m.insert_s),
         "rows/s");
  r->Add("table.insert_us", m.insert_us.P50(), "us");
  r->Add("table.merge_ms", m.merge_ms.P50(), "ms");
  r->Add("table.merge_changed_ms", m.merge_changed_ms.P50(), "ms");
  r->Add("table.merge_unchanged_ms", m.merge_unchanged_ms.P50(), "ms");
  r->Add("table.age_rows_per_s", Ratio(m.rows_aged, m.age_s), "rows/s");
  r->Add("table.age_row_us", Ratio(m.age_s * 1e6, m.rows_aged), "us");
  r->Add("exec.partitions_per_query",
         Ratio(g.c("query.partitions_visited"), ops), "count");
  r->Add("paged.hit_ratio", Ratio(hits, hits + misses), "ratio");
  r->Add("paged.misses_per_op", Ratio(misses, ops), "count");
  r->Add("paged.pages_pinned_per_op", Ratio(pinned, ops), "count");
  r->Add("paged.page_cold_us_per_op", Ratio(g.c("query.page_cold_us"), ops),
         "us");
  r->Add("paged.prefetch_useful_ratio",
         Ratio(g.c("cache.prefetch_hits"), g.c("cache.prefetch_issued")),
         "ratio");
  r->Add("paged.index_lookups_per_op", Ratio(g.c("query.index_lookups"), ops),
         "count");
  r->Add("paged.vector_scans_per_op", Ratio(g.c("query.vector_scans"), ops),
         "count");
  r->Add("buffer.evictions_per_op",
         Ratio(g.c("rm.evictions.reactive") + g.c("rm.evictions.proactive"),
               ops),
         "count");
  r->Add("buffer.evicted_mib", g.c("rm.evicted.bytes") / 1048576.0, "MiB");
  r->Add("storage.read_pages_per_op", Ratio(read_pages, ops), "count");
  r->Add("storage.read_latency_p50_us", g.h("storage.read.latency_us").p50(),
         "us");
  r->Add("storage.syscalls_per_page", Ratio(g.c("io.syscalls"), read_pages),
         "count");
  r->Add("storage.batch_pages_mean", g.h("io.batch_pages").mean(), "count");
  r->Add("storage.write_amplification", Ratio(m.write_bytes, m.user_bytes),
         "ratio");
  r->Add("encoding.columns_plain", m.codec_plain, "count");
  r->Add("encoding.columns_for", m.codec_for, "count");
  r->Add("encoding.columns_rle", m.codec_rle, "count");
  r->Add("encoding.rows_scanned_per_op", Ratio(rows_scanned, ops), "count");
  r->Add("encoding.ns_per_row_scanned", Ratio(m.fg_scan_ns, rows_scanned),
         "ns");
  r->Add("columnar.delta_lookup_p50_us", m.delta_lookup_us.P50(), "us");
  r->Add("core.checkpoint_ms", m.checkpoint_ms.P50(), "ms");
  r->Add("core.reopen_ms", m.reopen_ms.P50(), "ms");
  r->Add("core.open_ms", m.open_ms.P50(), "ms");
  r->Add("core.first_query_ms", m.first_query_ms.P50(), "ms");
  r->Add("trace.overhead_ratio", Ratio(m.untraced_tput, m.traced_tput),
         "ratio");

  // The bases of the ratios above, and the tracing overhead.
  r->Note(Fmt("paged.hit_ratio base: %.0f hits / %.0f pins", hits,
              hits + misses));
  r->Note(Fmt("paged.prefetch_useful_ratio base: %.0f useful / %.0f issued",
              g.c("cache.prefetch_hits"), g.c("cache.prefetch_issued")));
  r->Note(Fmt("per-op base: %.0f traced queries; storage base: %.0f pages "
              "read",
              ops, read_pages));
  r->Note(Fmt("storage.write_amplification base: %.0f bytes written / %.0f "
              "user bytes ingested",
              m.write_bytes, m.user_bytes));
  r->Note(Fmt("tracing overhead: untraced %.1f ops/s, traced %.1f ops/s",
              m.untraced_tput, m.traced_tput));
  r->Note(m.codec_note);
}

void Finish(const RunConfig& cfg, const Measures& m, RunResult* r) {
  if (cfg.trace) {
    AddPerLayer(m, r);
    // cache.hits + cache.misses counts every page the cache handed out,
    // query.pages_pinned the ones queries accounted for: every traced query
    // carries a context, so the two must agree.
    const double cache =
        m.fg.c("cache.hits") + m.fg.c("cache.misses");
    if (cache != m.fg.c("query.pages_pinned")) {
      r->Mismatch(Fmt("cache.hits + cache.misses = %.0f but pages pinned = "
                      "%.0f",
                      cache, m.fg.c("query.pages_pinned")));
    }
  } else {
    AddEndToEnd(m, r);
  }
}

// One client connection's closed loop; it keeps its connection and its
// request stream from one segment to the next.
struct ClientLoop {
  explicit ClientLoop(uint64_t seed) : rng(seed) {}
  std::unique_ptr<payg::server::Client> client;
  payg::Random rng;
  Samples lookup_us, scan_us;
  uint64_t ops = 0;
  uint64_t answered = 0;
  std::vector<std::string> errors;
  std::vector<Op> stream;  // the first requests sent, for the replay
};

// One segment of a connection's closed loop.
void RunClient(const Reference* ref, uint32_t seg, double seconds,
               ClientLoop* out) {
  OpStream stream{&out->rng, kReadRows};
  const auto& cols = Columns();
  Stopwatch wall;
  while (wall.ElapsedSeconds() < seconds) {
    const Op op = ServedOp(&stream);
    if (out->stream.size() < 20000) out->stream.push_back(op);
    Answer got;
    Status st;
    Stopwatch sw;
    if (op.kind == Kind::kLookup) {
      Span s("client.SelectByValue");
      auto res = out->client->SelectByValue("erp", "pk", Dataset::Pk(op.row),
                                            kLookupCols);
      st = res.status();
      if (st.ok()) got.rows = std::move(*res);
    } else {
      Span s("client.CountByValue");
      auto res = out->client->CountByValue("erp", cols[op.col].name,
                                           ValueAt(op.col, op.code));
      st = res.status();
      if (st.ok()) got.count = *res;
    }
    const double us = sw.ElapsedMicros();
    ++out->ops;
    if (!st.ok()) {
      out->errors.push_back(st.ToString());
      if (out->errors.size() > 8) return;
      continue;
    }
    (op.kind == Kind::kLookup ? out->lookup_us : out->scan_us).Add(us, seg);
    ++out->answered;
    const std::string why = ref->Check(op, got);
    if (!why.empty()) out->errors.push_back(why);
  }
}

// Pins the calling thread, and every thread it starts while pinned, to the
// CPU it runs on; the destructor restores the previous mask.
class PinToOneCpu {
 public:
  PinToOneCpu() {
    pinned_ = sched_getaffinity(0, sizeof(saved_), &saved_) == 0;
    const int cpu = sched_getcpu();
    if (!pinned_ || cpu < 0) {
      pinned_ = false;
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  ~PinToOneCpu() {
    if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  PinToOneCpu(const PinToOneCpu&) = delete;
  PinToOneCpu& operator=(const PinToOneCpu&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

// The served phase: kServedClients closed-loop connections against an
// in-process server on a unix socket, in segments; `spare`, when given,
// makes one set-up before each segment while the connections wait. The
// server, its sessions and the clients share one CPU: on a shared host a
// request that hands off between threads on several CPUs waits whenever any
// of them is held up by other tenants, which made the served tail move 2-4x
// between runs.
Status ServedPhase(const RunConfig& cfg, Live* live, const Reference& ref,
                   double seconds, SpareSetUp* spare, Measures* m,
                   RunResult* r, std::vector<Op>* stream) {
  payg::server::ServerOptions so;
  so.unix_path = cfg.run_dir + "/s.sock";
  // One worker: the two connections' requests meet in the admission queue,
  // where same-key lookups batch, and the run starts no more threads than
  // it needs on a small host.
  so.worker_threads = 1;
  so.stats_dir = cfg.run_dir + "/stats";
  PinToOneCpu pin;
  payg::server::Server server(live->store.get(), so);
  PAYG_RETURN_IF_ERROR(server.Start());
  std::vector<ClientLoop> loops;
  Status st;
  for (int i = 0; i < kServedClients && st.ok(); ++i) {
    loops.emplace_back(cfg.seed * 1000 + 100 + i);
    auto client = payg::server::Client::ConnectUnix(so.unix_path);
    st = client.status();
    if (st.ok()) loops.back().client = std::move(*client);
  }
  auto answered = [&] {
    uint64_t n = 0;
    for (const auto& l : loops) n += l.answered;
    return n;
  };
  const auto before = ReadRegistry();
  const int segments = SegmentsOf(seconds);
  for (int seg = 0; seg < segments && st.ok(); ++seg) {
    if (spare != nullptr) st = spare->Run();
    if (!st.ok()) break;
    const uint64_t answered_before = answered();
    std::vector<std::thread> threads;
    Stopwatch wall;
    for (auto& l : loops) {
      threads.emplace_back(RunClient, &ref, static_cast<uint32_t>(seg),
                           seconds / segments, &l);
    }
    for (auto& t : threads) t.join();
    const double len = wall.ElapsedSeconds();
    // Clients overlap, so a segment's throughput base is its wall time.
    m->seg_queries[seg] = {static_cast<double>(answered() - answered_before),
                           len};
    m->query_busy_s += len;
  }
  for (auto& l : loops) l.client.reset();
  server.Stop();
  PAYG_RETURN_IF_ERROR(st);
  uint64_t ops = 0;
  for (const auto& l : loops) {
    r->attempted += l.ops;
    ops += l.ops;
    m->lookup_us.Append(l.lookup_us);
    m->scan_us.Append(l.scan_us);
    for (const auto& e : l.errors) r->Mismatch("served: " + e);
  }
  m->Peak(live->store.get());
  m->queries += ops;
  m->fg = Delta(before, ReadRegistry());
  m->fg_ops = ops;
  *stream = std::move(loops[0].stream);
  return Status::OK();
}

// Traced runs: the first requests of one connection again, in process and
// through the wire encoders alone, to split the served latency.
Status ReplayInProcess(Live* live, const Reference& ref,
                       const std::vector<Op>& stream, Measures* m,
                       RunResult* r) {
  namespace wire = payg::server::wire;
  Samples inproc, wire_us;
  const auto& cols = Columns();
  for (const Op& op : stream) {
    Answer got;
    ExecContext ctx;
    Stopwatch sw;
    PAYG_RETURN_IF_ERROR(Execute(live->table, op, &ctx, &got));
    const double us = sw.ElapsedMicros();
    m->by_kind[static_cast<int>(op.kind)].Add(us);
    if (op.kind == Kind::kLookup) inproc.Add(us);
    const std::string why = ref.Check(op, got);
    if (!why.empty()) r->Mismatch("replay: " + why);

    wire::Request req;
    req.table = "erp";
    wire::Response resp;
    if (op.kind == Kind::kLookup) {
      req.op = wire::Op::kSelectByValue;
      req.column = "pk";
      req.value = Dataset::Pk(op.row);
      req.select_columns = kLookupCols;
      resp.result = got.rows;
    } else {
      req.op = wire::Op::kCountByValue;
      req.column = cols[op.col].name;
      req.value = ValueAt(op.col, op.code);
      resp.count = got.count;
    }
    wire::Request req2;
    wire::Response resp2;
    Stopwatch ws;
    {
      Span s("wire.Codec");
      const std::string a = wire::EncodeRequest(req);
      PAYG_RETURN_IF_ERROR(wire::DecodeRequest(a, &req2));
      const std::string b = wire::EncodeResponse(req.op, resp);
      PAYG_RETURN_IF_ERROR(wire::DecodeResponse(req.op, b, &resp2));
    }
    wire_us.Add(ws.ElapsedMicros());
    if (op.kind == Kind::kLookup && !(resp2.result == got.rows)) {
      r->Mismatch("wire round trip changed a result");
    }
  }
  m->inproc_lookup_p50_us = inproc.P50();
  m->wire_us = wire_us.P50();
  return Status::OK();
}

// The served foreground: the closed-loop connections with the spare
// set-ups, and in traced runs a quarter untraced first plus the in-process
// replay, without spare set-ups.
void ServedForeground(const RunConfig& cfg, Live* live, const Reference& ref,
                      SpareSetUp* spare, Measures* m, RunResult* r) {
  std::vector<Op> stream;
  Status st;
  if (!cfg.trace) {
    st = ServedPhase(cfg, live, ref, cfg.seconds, spare, m, r, &stream);
  } else {
    Measures untraced;
    st = ServedPhase(cfg, live, ref, cfg.seconds / 4, nullptr, &untraced, r,
                     &stream);
    if (st.ok()) {
      m->untraced_tput = untraced.queries / untraced.query_busy_s;
      EnableSpans();
      st = ServedPhase(cfg, live, ref, cfg.seconds * 3 / 4, nullptr, m, r,
                       &stream);
      m->traced_tput = m->queries / m->query_busy_s;
    }
    if (st.ok()) st = ReplayInProcess(live, ref, stream, m, r);
  }
  if (!st.ok()) r->Mismatch("served: " + st.ToString());
}

struct ReadWorkload {
  uint32_t latency_us;
  uint64_t budget;  // bytes, 0 = none
  bool warm_all;    // touch every page before the warm-up
  Op (*gen)(OpStream*);
  bool served;      // foreground through the server instead of in process
};

// Common body of the three read workloads: set up, warm up, then the
// measured foreground loop.
RunResult RunReadWorkload(const RunConfig& cfg, const ReadWorkload& w) {
  RunResult r;
  Measures m;
  Dataset ds(cfg.seed);
  ds.Grow(kReadRows);
  Reference ref(&ds, kReadRows, /*with_counts=*/true);
  const Layout layout = PrepareLayout(ds, kReadRows);
  Live live;
  live.options = StoreOptions(cfg.run_dir + "/store", w.latency_us, w.budget);
  payg::Random rng(cfg.seed * 7919 + 17);
  OpStream stream{&rng, kReadRows};

  auto fail = [&](const Status& st) {
    if (r.correct) r.Mismatch("program error: " + st.ToString());
    live.store.reset();
    return r;
  };
  if (Status st = SetUp(layout, &live, &m.setup_s); !st.ok()) {
    return fail(st);
  }
  SpareSetUp spare(&layout, live.options, &m.setup_s);
  m.disk_bytes_per_row =
      static_cast<double>(DirBytes(live.options.directory)) / kReadRows;
  CollectCodecs(live.table, &m);

  if (w.warm_all) {
    // Every data-vector and dictionary page through one full-range select
    // of all columns; index pages through a lookup every 256 keys.
    Status st = live.table
                    ->SelectRange("pk", Dataset::Pk(0),
                                  Dataset::Pk(kReadRows - 1), {}, nullptr)
                    .status();
    for (uint64_t row = 0; st.ok() && row < kReadRows; row += 256) {
      Op op;
      op.row = row;
      Answer got;
      st = Execute(live.table, op, nullptr, &got);
    }
    if (!st.ok()) return fail(st);
  }
  // Warm-up in the workload's own mix (cache at steady state), untimed.
  {
    Measures scratch;
    if (!QueryLoop(&live, ref, [&] { return w.gen(&stream); },
                   std::min(1.0, cfg.seconds / 10), false, nullptr, &scratch,
                   &r)) {
      return fail(Status::Internal("warm-up query failed"));
    }
    r.attempted = 0;
  }
  if (w.served) {
    ServedForeground(cfg, &live, ref, &spare, &m, &r);
  } else {
    ForegroundLoop(&live, ref, [&] { return w.gen(&stream); }, cfg, &spare,
                   &m, &r);
  }
  // The footprint after a query went over the budget (by about 4 KiB) in
  // some runs of a seed and not in other runs of the same seed, so it
  // cannot be a check a run passes or fails: it is printed instead.
  if (w.budget != 0 && m.peak_bytes > w.budget) {
    r.Note(Fmt("BUDGET EXCEEDED: peak footprint %.0f B over the %.0f B "
               "budget",
               m.peak_bytes, w.budget));
  }
  live.store.reset();
  Finish(cfg, m, &r);
  r.Note(Fmt("data: %.0f rows x 22 columns in 1 hot + 2 cold partitions; "
             "budget %.2f MiB; %.0f us per physical page read",
             kReadRows, w.budget / 1048576.0, w.latency_us));
  return r;
}

}  // namespace

// ---------------------------------------------------------------------------

RunResult RunColdLookup(const RunConfig& cfg) {
  return RunReadWorkload(cfg, {kReadLatencyUs, kColdBudgetBytes, false,
                               ColdOp, false});
}

RunResult RunWarmAnalytics(const RunConfig& cfg) {
  return RunReadWorkload(cfg, {0, 0, true, WarmOp, false});
}

RunResult RunServedLookup(const RunConfig& cfg) {
  return RunReadWorkload(cfg, {0, 0, true, ServedOp, true});
}

// ---------------------------------------------------------------------------
// ingest_age: whole rounds, each a fresh store and kCycles write cycles
// with the crash probe, then a checkpoint and the clean reopens.

RunResult RunIngestAge(const RunConfig& cfg) {
  RunResult r;
  Measures m;
  Dataset ds(cfg.seed);
  ds.Grow(kIngestBaseRows + kCycles * kIngestBatch);
  const Layout layout = PrepareLayout(ds, kIngestBaseRows);
  Live live;
  live.options =
      StoreOptions(cfg.run_dir + "/store", kReadLatencyUs, /*budget=*/0);
  const std::string copy_dir = cfg.run_dir + "/crash_copy";

  SpareSetUp spare(&layout, live.options, &m.setup_s);

  // setup_s: each round's set-up, and in untraced runs one spare set-up
  // after each cycle.
  auto round = [&](bool traced) -> Status {
    payg::Random rng(cfg.seed * 7919 + 3);
    Reference ref(&ds, kIngestBaseRows, /*with_counts=*/false);
    PAYG_RETURN_IF_ERROR(SetUp(layout, &live, &m.setup_s));
    CycleState st{kIngestBaseRows, kIngestBaseRows / 2};
    for (int cycle = 0; cycle < kCycles; ++cycle) {
      ++m.segment;  // one segment per cycle
      PAYG_RETURN_IF_ERROR(WriteCycle(ds, copy_dir, traced, &live, &ref, &st,
                                      &rng, &m, &r));
      if (!cfg.trace) PAYG_RETURN_IF_ERROR(spare.Run());
    }
    // The crash probe left merges after the last checkpoint: checkpoint
    // again so that the clean reopens open what the store has.
    Writer w(&ds, &m, &r);
    PAYG_RETURN_IF_ERROR(w.Checkpoint(&live));
    m.disk_bytes_per_row =
        static_cast<double>(DirBytes(live.options.directory)) / st.total;
    CollectCodecs(live.table, &m);
    return ReopenCycle(&live, ref, &rng, &m, &r);
  };

  // Whole rounds until the measured time is used up, so that every run
  // attempts the same operations per round. Traced runs keep the first
  // round untraced, for the tracing overhead.
  Stopwatch wall;
  int rounds = 0;
  const int min_rounds = cfg.trace ? 2 : 1;
  while (r.correct &&
         (rounds < min_rounds || wall.ElapsedSeconds() < cfg.seconds)) {
    const bool traced = cfg.trace && rounds > 0;
    if (traced) EnableSpans();
    const uint64_t q0 = m.queries;
    const double busy0 = m.query_busy_s;
    if (Status st = round(traced); !st.ok()) {
      if (r.correct) r.Mismatch("program error: " + st.ToString());
      break;
    }
    (traced ? m.traced_tput : m.untraced_tput) =
        (m.queries - q0) / (m.query_busy_s - busy0);
    ++rounds;
    if (!r.correct) break;
  }
  live.store.reset();
  fs::remove_all(copy_dir);
  Finish(cfg, m, &r);
  r.Note("ingest_age: " + std::to_string(rounds) + " rounds of " +
         std::to_string(kCycles) + " cycles; crash-copy opens failed " +
         std::to_string(m.crash_failed) + " of " +
         std::to_string(m.crash_opens) +
         (m.crash_error.empty() ? "" : " (" + m.crash_error + ")"));
  return r;
}

}  // namespace perfbench
