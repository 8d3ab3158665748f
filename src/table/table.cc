#include "table/table.h"

#include <algorithm>
#include <limits>
#include <map>
#include <unordered_map>

namespace payg {

Table::Table(TableSchema schema, StorageManager* storage, ResourceManager* rm,
             const ExecOptions& exec_options)
    : schema_(std::move(schema)),
      storage_(storage),
      rm_(rm),
      executor_(std::make_unique<QueryExecutor>(exec_options)) {
  // Partition 0 is the hot partition; aging-aware tables start as a
  // partitioned table with only the hot partition (§4.2).
  partitions_.push_back(
      std::make_unique<Partition>(&schema_, 0, /*cold=*/false, storage_, rm_));
}

Result<std::unique_ptr<Table>> Table::OpenExisting(
    TableSchema schema, StorageManager* storage, ResourceManager* rm,
    const std::vector<PartitionManifest>& manifests,
    const ExecOptions& exec_options) {
  if (manifests.empty() || manifests[0].cold) {
    return Status::InvalidArgument("manifests must start with the hot "
                                   "partition");
  }
  auto table =
      std::make_unique<Table>(std::move(schema), storage, rm, exec_options);
  table->partitions_.clear();
  for (uint32_t i = 0; i < manifests.size(); ++i) {
    PAYG_ASSIGN_OR_RETURN(
        auto part,
        Partition::OpenExisting(&table->schema_, i, manifests[i].cold,
                                storage, rm, manifests[i].merge_generation,
                                manifests[i].main_rows));
    table->partitions_.push_back(std::move(part));
  }
  return table;
}

void Table::set_exec_options(const ExecOptions& options) {
  executor_ = std::make_unique<QueryExecutor>(options);
}

std::vector<PartitionManifest> Table::Manifests() const {
  std::vector<PartitionManifest> out;
  for (const auto& part : partitions_) {
    out.push_back(PartitionManifest{part->cold(), part->merge_generation(),
                                    part->main_row_count()});
  }
  return out;
}

Status Table::Insert(const std::vector<Value>& row) {
  return partitions_[0]->Insert(row);
}

Status Table::AddColdPartition() {
  partitions_.push_back(std::make_unique<Partition>(
      &schema_, static_cast<uint32_t>(partitions_.size()), /*cold=*/true,
      storage_, rm_));
  return Status::OK();
}

Result<uint64_t> Table::AgeRows(const Value& threshold) {
  if (schema_.temperature_column < 0) {
    return Status::FailedPrecondition("table has no temperature column");
  }
  if (partitions_.size() < 2) {
    return Status::FailedPrecondition(
        "add a cold partition before aging rows");
  }
  Partition* hot_part = partitions_[0].get();
  Partition* cold_part = partitions_.back().get();
  const int temp_col = schema_.temperature_column;

  // Find hot rows whose temperature is <= threshold.
  std::vector<RowPos> victims;
  PAYG_RETURN_IF_ERROR(FindMatchesRange(
      hot_part, temp_col,
      schema_.columns[temp_col].type == ValueType::kInt64
          ? Value(std::numeric_limits<int64_t>::min())
          : (schema_.columns[temp_col].type == ValueType::kDouble
                 ? Value(-std::numeric_limits<double>::infinity())
                 : Value(std::string())),
      threshold, /*ctx=*/nullptr, &victims));

  // The move is ordinary DML (§4.2): insert into the cold delta, delete
  // from hot. No reorganisation of existing data happens here.
  for (RowPos r : victims) {
    PAYG_ASSIGN_OR_RETURN(std::vector<Value> row, hot_part->GetRow(r));
    PAYG_RETURN_IF_ERROR(cold_part->Insert(row));
    PAYG_RETURN_IF_ERROR(hot_part->MarkDeleted(r));
  }
  return static_cast<uint64_t>(victims.size());
}

Status Table::MergeAll() {
  for (auto& part : partitions_) {
    PAYG_RETURN_IF_ERROR(part->Merge());
  }
  return Status::OK();
}

uint64_t Table::row_count() const {
  uint64_t n = 0;
  for (const auto& part : partitions_) n += part->row_count();
  return n;
}

uint64_t Table::visible_row_count() const {
  uint64_t n = 0;
  for (const auto& part : partitions_) n += part->visible_row_count();
  return n;
}

Result<std::vector<int>> Table::ResolveColumns(
    const std::vector<std::string>& names) const {
  std::vector<int> cols;
  if (names.empty()) {
    // SELECT *.
    for (size_t i = 0; i < schema_.columns.size(); ++i) {
      cols.push_back(static_cast<int>(i));
    }
    return cols;
  }
  for (const std::string& name : names) {
    int idx = schema_.ColumnIndex(name);
    if (idx < 0) return Status::NotFound("no such column: " + name);
    cols.push_back(idx);
  }
  return cols;
}

// ---------------------------------------------------------------------------
// Fan-out/merge drivers. Every query template reduces to one of these; the
// executor runs `matcher` per partition (inline when worker_threads = 0) and
// task i writes only slot i of the partials vector, so the merge below —
// always in partition-id order — reproduces the serial loop's output exactly.
// ---------------------------------------------------------------------------

Result<QueryResult> Table::ExecuteSelect(const PartitionMatcher& matcher,
                                         const std::vector<int>& select_cols,
                                         ExecContext* ctx) {
  const size_t n = partitions_.size();
  std::vector<QueryResult> partials(n);
  PAYG_RETURN_IF_ERROR(
      executor_->ForEach(ctx, n, [&](size_t i) -> Status {
        Partition* part = partitions_[i].get();
        Bump(ctx, &QueryStats::partitions_visited);
        std::vector<RowPos> rows;
        PAYG_RETURN_IF_ERROR(matcher(part, ctx, &rows));
        return MaterializeRows(part, rows, select_cols, ctx, &partials[i]);
      }));
  QueryResult result;
  size_t total = 0;
  for (const QueryResult& p : partials) total += p.rows.size();
  result.rows.reserve(total);
  for (QueryResult& p : partials) {
    for (auto& row : p.rows) result.rows.push_back(std::move(row));
  }
  return result;
}

Result<uint64_t> Table::ExecuteCount(const PartitionMatcher& matcher,
                                     ExecContext* ctx) {
  const size_t n = partitions_.size();
  std::vector<uint64_t> partials(n, 0);
  PAYG_RETURN_IF_ERROR(
      executor_->ForEach(ctx, n, [&](size_t i) -> Status {
        Partition* part = partitions_[i].get();
        Bump(ctx, &QueryStats::partitions_visited);
        std::vector<RowPos> rows;
        PAYG_RETURN_IF_ERROR(matcher(part, ctx, &rows));
        partials[i] = rows.size();
        return Status::OK();
      }));
  uint64_t count = 0;
  for (uint64_t c : partials) count += c;
  return count;
}

Result<std::vector<RowId>> Table::ExecuteRowIds(const PartitionMatcher& matcher,
                                                ExecContext* ctx) {
  const size_t n = partitions_.size();
  std::vector<std::vector<RowId>> partials(n);
  PAYG_RETURN_IF_ERROR(
      executor_->ForEach(ctx, n, [&](size_t i) -> Status {
        Partition* part = partitions_[i].get();
        Bump(ctx, &QueryStats::partitions_visited);
        std::vector<RowPos> rows;
        PAYG_RETURN_IF_ERROR(matcher(part, ctx, &rows));
        partials[i].reserve(rows.size());
        for (RowPos r : rows) partials[i].push_back(RowId{part->id(), r});
        return Status::OK();
      }));
  std::vector<RowId> ids;
  size_t total = 0;
  for (const auto& p : partials) total += p.size();
  ids.reserve(total);
  for (auto& p : partials) ids.insert(ids.end(), p.begin(), p.end());
  return ids;
}

Result<double> Table::ExecuteSum(const PartitionMatcher& matcher, int sum_col,
                                 ExecContext* ctx) {
  const ValueType stype = schema_.columns[sum_col].type;
  const size_t n = partitions_.size();
  // Per-partition partial sums merged in partition order: floating-point
  // addition is not associative, so both serial and parallel mode use this
  // exact grouping to make the results bit-identical.
  std::vector<double> partials(n, 0.0);
  PAYG_RETURN_IF_ERROR(
      executor_->ForEach(ctx, n, [&](size_t i) -> Status {
        Partition* part = partitions_[i].get();
        Bump(ctx, &QueryStats::partitions_visited);
        std::vector<RowPos> rows;
        PAYG_RETURN_IF_ERROR(matcher(part, ctx, &rows));
        if (rows.empty()) return Status::OK();
        const RowPos base = static_cast<RowPos>(part->main_row_count());
        std::unique_ptr<FragmentReader> reader;
        std::unordered_map<ValueId, double> memo;
        double sum = 0;
        for (RowPos r : rows) {
          double v;
          if (r < base) {
            if (reader == nullptr) {
              PAYG_ASSIGN_OR_RETURN(reader,
                                    part->main(sum_col)->NewReader(ctx));
            }
            PAYG_ASSIGN_OR_RETURN(ValueId vid, reader->GetVid(r));
            auto it = memo.find(vid);
            if (it == memo.end()) {
              PAYG_ASSIGN_OR_RETURN(Value mv, reader->GetValueForVid(vid));
              double d = stype == ValueType::kInt64
                             ? static_cast<double>(mv.AsInt64())
                             : mv.AsDouble();
              it = memo.emplace(vid, d).first;
            }
            v = it->second;
          } else {
            DeltaFragment* delta = part->delta(sum_col);
            const Value& mv = delta->GetValue(delta->GetVid(r - base));
            v = stype == ValueType::kInt64 ? static_cast<double>(mv.AsInt64())
                                           : mv.AsDouble();
          }
          sum += v;
        }
        partials[i] = sum;
        return Status::OK();
      }));
  double sum = 0;
  for (double p : partials) sum += p;
  return sum;
}

Status Table::FindMatches(Partition* part, int col, const Value& value,
                          ExecContext* ctx, std::vector<RowPos>* out) {
  std::vector<RowPos> rows;
  // Main fragment: dictionary probe, then inverted index (Alg. 5) or data
  // vector scan (Alg. 1).
  if (part->main(col) != nullptr && part->main_row_count() > 0) {
    PAYG_ASSIGN_OR_RETURN(auto reader, part->main(col)->NewReader(ctx));
    PAYG_ASSIGN_OR_RETURN(ValueId vid, reader->FindValueId(value));
    if (vid != kInvalidValueId) {
      PAYG_RETURN_IF_ERROR(reader->FindRows(vid, &rows));
    }
  }
  // Delta fragment (always a full value-space scan of the delta).
  std::vector<RowPos> delta_rows;
  part->delta(col)->FindRows(value, &delta_rows);
  Bump(ctx, &QueryStats::rows_scanned, part->delta(col)->row_count());
  const RowPos base = static_cast<RowPos>(part->main_row_count());
  for (RowPos r : delta_rows) rows.push_back(base + r);
  // Visibility.
  for (RowPos r : rows) {
    if (part->IsVisible(r)) out->push_back(r);
  }
  return Status::OK();
}

Status Table::MultiFindMatches(Partition* part, int col,
                               const std::vector<Value>& probes,
                               ExecContext* ctx, std::vector<RowPos>* rows,
                               std::vector<std::vector<uint32_t>>* row_probes) {
  // Probe the dictionary once per distinct probe and remember which probe
  // indices each vid answers (duplicate probes share a vid; absent probes
  // drop out here and keep empty result slots).
  std::map<ValueId, std::vector<uint32_t>> vid_probes;
  if (part->main(col) != nullptr && part->main_row_count() > 0) {
    PAYG_ASSIGN_OR_RETURN(auto reader, part->main(col)->NewReader(ctx));
    for (uint32_t j = 0; j < probes.size(); ++j) {
      PAYG_ASSIGN_OR_RETURN(ValueId vid, reader->FindValueId(probes[j]));
      if (vid != kInvalidValueId) vid_probes[vid].push_back(j);
    }
    if (!vid_probes.empty()) {
      std::vector<ValueId> vids;
      vids.reserve(vid_probes.size());
      for (const auto& [vid, unused] : vid_probes) vids.push_back(vid);
      // search_in dispatches over the merged sorted probe set — the scan
      // every probe of this batch shares. Probe sets are chunked to the
      // size the SIMD tiers evaluate exactly (one cmpeq per probe); beyond
      // that the kernels degrade to a band prefilter + scalar membership
      // check per candidate, which for a wide probe band costs more than a
      // second pass over the (now hot) pages.
      constexpr size_t kProbeChunk = 16;
      std::vector<RowPos> matched;
      for (size_t c = 0; c < vids.size(); c += kProbeChunk) {
        std::vector<ValueId> chunk(
            vids.begin() + static_cast<ptrdiff_t>(c),
            vids.begin() +
                static_cast<ptrdiff_t>(std::min(c + kProbeChunk, vids.size())));
        PAYG_RETURN_IF_ERROR(reader->SearchVidSet(
            0, static_cast<RowPos>(part->main_row_count()), chunk, &matched));
      }
      // Chunks interleave in row space; restore ascending row order so the
      // per-probe results match what individual lookups would return.
      std::sort(matched.begin(), matched.end());
      for (RowPos r : matched) {
        if (!part->IsVisible(r)) continue;
        // Attribute the row to its probes. The row's pages are pinned hot
        // from the search, so re-decoding the vid is cheap.
        PAYG_ASSIGN_OR_RETURN(ValueId vid, reader->GetVid(r));
        auto it = vid_probes.find(vid);
        PAYG_ASSERT(it != vid_probes.end());
        rows->push_back(r);
        row_probes->push_back(it->second);
      }
    }
  }
  // Delta: one value-space pass over the delta rows for the whole batch
  // (individual lookups scan it once per probe).
  std::map<std::string, std::vector<uint32_t>> key_probes;
  for (uint32_t j = 0; j < probes.size(); ++j) {
    key_probes[probes[j].EncodeKey()].push_back(j);
  }
  DeltaFragment* delta = part->delta(col);
  const RowPos base = static_cast<RowPos>(part->main_row_count());
  const uint64_t delta_rows = delta->row_count();
  for (uint64_t r = 0; r < delta_rows; ++r) {
    const Value& v = delta->GetValue(delta->GetVid(static_cast<RowPos>(r)));
    auto it = key_probes.find(v.EncodeKey());
    if (it == key_probes.end()) continue;
    const RowPos pos = base + static_cast<RowPos>(r);
    if (!part->IsVisible(pos)) continue;
    rows->push_back(pos);
    row_probes->push_back(it->second);
  }
  Bump(ctx, &QueryStats::rows_scanned, delta_rows);
  return Status::OK();
}

Status Table::FindMatchesRange(Partition* part, int col, const Value& lo,
                               const Value& hi, ExecContext* ctx,
                               std::vector<RowPos>* out) {
  std::vector<RowPos> rows;
  if (part->main(col) != nullptr && part->main_row_count() > 0) {
    PAYG_ASSIGN_OR_RETURN(auto reader, part->main(col)->NewReader(ctx));
    PAYG_ASSIGN_OR_RETURN(ValueId vlo, reader->LowerBoundVid(lo));
    PAYG_ASSIGN_OR_RETURN(ValueId vhi_excl, reader->UpperBoundVid(hi));
    if (vlo < vhi_excl) {
      PAYG_RETURN_IF_ERROR(reader->SearchVidRange(
          0, static_cast<RowPos>(part->main_row_count()), vlo, vhi_excl - 1,
          &rows));
    }
  }
  std::vector<RowPos> delta_rows;
  part->delta(col)->FindRowsInRange(lo, hi, &delta_rows);
  Bump(ctx, &QueryStats::rows_scanned, part->delta(col)->row_count());
  const RowPos base = static_cast<RowPos>(part->main_row_count());
  for (RowPos r : delta_rows) rows.push_back(base + r);
  for (RowPos r : rows) {
    if (part->IsVisible(r)) out->push_back(r);
  }
  return Status::OK();
}

Status Table::FindMatchesIn(Partition* part, int col,
                            const std::vector<Value>& values, ExecContext* ctx,
                            std::vector<RowPos>* out) {
  std::vector<RowPos> rows;
  if (part->main(col) != nullptr && part->main_row_count() > 0) {
    PAYG_ASSIGN_OR_RETURN(auto reader, part->main(col)->NewReader(ctx));
    // Translate the IN-list into a sorted vid set through the dictionary;
    // absent values simply drop out.
    std::vector<ValueId> vids;
    for (const Value& v : values) {
      PAYG_ASSIGN_OR_RETURN(ValueId vid, reader->FindValueId(v));
      if (vid != kInvalidValueId) vids.push_back(vid);
    }
    std::sort(vids.begin(), vids.end());
    vids.erase(std::unique(vids.begin(), vids.end()), vids.end());
    if (!vids.empty()) {
      PAYG_RETURN_IF_ERROR(reader->SearchVidSet(
          0, static_cast<RowPos>(part->main_row_count()), vids, &rows));
    }
  }
  std::vector<RowPos> delta_rows;
  part->delta(col)->FindRowsMatching(
      [&values](const Value& v) {
        for (const Value& probe : values) {
          if (v == probe) return true;
        }
        return false;
      },
      &delta_rows);
  Bump(ctx, &QueryStats::rows_scanned, part->delta(col)->row_count());
  const RowPos base = static_cast<RowPos>(part->main_row_count());
  for (RowPos r : delta_rows) rows.push_back(base + r);
  for (RowPos r : rows) {
    if (part->IsVisible(r)) out->push_back(r);
  }
  return Status::OK();
}

Status Table::FindMatchesPrefix(Partition* part, int col,
                                const std::string& prefix, ExecContext* ctx,
                                std::vector<RowPos>* out) {
  std::vector<RowPos> rows;
  if (part->main(col) != nullptr && part->main_row_count() > 0) {
    PAYG_ASSIGN_OR_RETURN(auto reader, part->main(col)->NewReader(ctx));
    // [LowerBound(prefix), LowerBound(successor)) is exactly the vid range
    // of strings starting with `prefix` — the dictionary is order
    // preserving. The successor is the prefix with its last byte bumped
    // (dropping trailing 0xFF bytes).
    PAYG_ASSIGN_OR_RETURN(ValueId vlo,
                          reader->LowerBoundVid(Value(prefix)));
    std::string successor = prefix;
    while (!successor.empty() &&
           static_cast<unsigned char>(successor.back()) == 0xFF) {
      successor.pop_back();
    }
    ValueId vhi_excl;
    if (successor.empty()) {
      // Prefix of all-0xFF bytes: everything >= prefix matches.
      vhi_excl = static_cast<ValueId>(part->main(col)->dict_size());
    } else {
      ++successor.back();
      PAYG_ASSIGN_OR_RETURN(vhi_excl,
                            reader->LowerBoundVid(Value(successor)));
    }
    if (vlo < vhi_excl) {
      PAYG_RETURN_IF_ERROR(reader->SearchVidRange(
          0, static_cast<RowPos>(part->main_row_count()), vlo, vhi_excl - 1,
          &rows));
    }
  }
  std::vector<RowPos> delta_rows;
  part->delta(col)->FindRowsMatching(
      [&prefix](const Value& v) {
        const std::string& s = v.AsString();
        return s.size() >= prefix.size() &&
               s.compare(0, prefix.size(), prefix) == 0;
      },
      &delta_rows);
  Bump(ctx, &QueryStats::rows_scanned, part->delta(col)->row_count());
  const RowPos base = static_cast<RowPos>(part->main_row_count());
  for (RowPos r : delta_rows) rows.push_back(base + r);
  for (RowPos r : rows) {
    if (part->IsVisible(r)) out->push_back(r);
  }
  return Status::OK();
}

Status Table::MaterializeRows(Partition* part, const std::vector<RowPos>& rows,
                              const std::vector<int>& select_cols,
                              ExecContext* ctx, QueryResult* result) {
  if (rows.empty()) return Status::OK();
  const size_t first_out = result->rows.size();
  result->rows.resize(first_out + rows.size());
  for (auto& row : result->rows) row.reserve(select_cols.size());

  const RowPos base = static_cast<RowPos>(part->main_row_count());
  // Late materialization (§1): one column at a time, so each column's
  // dictionary pages are touched once per query, not once per row.
  for (int col : select_cols) {
    std::unique_ptr<FragmentReader> reader;
    std::unordered_map<ValueId, Value> memo;  // materialize each distinct vid once
    for (size_t i = 0; i < rows.size(); ++i) {
      Value v;
      if (rows[i] < base) {
        if (reader == nullptr) {
          PAYG_ASSIGN_OR_RETURN(reader, part->main(col)->NewReader(ctx));
        }
        PAYG_ASSIGN_OR_RETURN(ValueId vid, reader->GetVid(rows[i]));
        auto it = memo.find(vid);
        if (it == memo.end()) {
          PAYG_ASSIGN_OR_RETURN(Value mv, reader->GetValueForVid(vid));
          it = memo.emplace(vid, std::move(mv)).first;
        }
        v = it->second;
      } else {
        DeltaFragment* delta = part->delta(col);
        v = delta->GetValue(delta->GetVid(rows[i] - base));
      }
      result->rows[first_out + i].push_back(std::move(v));
    }
  }
  return Status::OK();
}

Result<QueryResult> Table::SelectByValue(
    const std::string& filter_column, const Value& value,
    const std::vector<std::string>& select_columns, ExecContext* ctx) {
  int col = schema_.ColumnIndex(filter_column);
  if (col < 0) return Status::NotFound("no such column: " + filter_column);
  PAYG_ASSIGN_OR_RETURN(std::vector<int> select_cols,
                        ResolveColumns(select_columns));
  return ExecuteSelect(
      [this, col, &value](Partition* part, ExecContext* c,
                          std::vector<RowPos>* rows) {
        return FindMatches(part, col, value, c, rows);
      },
      select_cols, ctx);
}

Result<uint64_t> Table::CountByValue(const std::string& filter_column,
                                     const Value& value, ExecContext* ctx) {
  int col = schema_.ColumnIndex(filter_column);
  if (col < 0) return Status::NotFound("no such column: " + filter_column);
  return ExecuteCount(
      [this, col, &value](Partition* part, ExecContext* c,
                          std::vector<RowPos>* rows) {
        return FindMatches(part, col, value, c, rows);
      },
      ctx);
}

Result<std::vector<RowId>> Table::RowIdsByValue(
    const std::string& filter_column, const Value& value, ExecContext* ctx) {
  int col = schema_.ColumnIndex(filter_column);
  if (col < 0) return Status::NotFound("no such column: " + filter_column);
  return ExecuteRowIds(
      [this, col, &value](Partition* part, ExecContext* c,
                          std::vector<RowPos>* rows) {
        return FindMatches(part, col, value, c, rows);
      },
      ctx);
}

namespace {

// Shared probe validation for the multi-lookup entry points: a mistyped
// probe would hit the dictionary's typed-compare assertion deep in the
// engine, so reject it at the API boundary (the server forwards untrusted
// client values here).
Status CheckProbeTypes(const TableSchema& schema, int col,
                       const std::vector<Value>& probes) {
  for (const Value& p : probes) {
    if (p.type() != schema.columns[col].type) {
      return Status::InvalidArgument(
          "probe type does not match column " + schema.columns[col].name);
    }
  }
  return Status::OK();
}

}  // namespace

Result<std::vector<QueryResult>> Table::MultiSelectByValue(
    const std::string& filter_column, const std::vector<Value>& probes,
    const std::vector<std::string>& select_columns, ExecContext* ctx) {
  int col = schema_.ColumnIndex(filter_column);
  if (col < 0) return Status::NotFound("no such column: " + filter_column);
  PAYG_RETURN_IF_ERROR(CheckProbeTypes(schema_, col, probes));
  PAYG_ASSIGN_OR_RETURN(std::vector<int> select_cols,
                        ResolveColumns(select_columns));
  if (probes.empty()) return std::vector<QueryResult>{};
  const size_t n = partitions_.size();
  // partials[i][j] = probe j's rows from partition i; task i writes slot i.
  std::vector<std::vector<QueryResult>> partials(n);
  PAYG_RETURN_IF_ERROR(executor_->ForEach(ctx, n, [&](size_t i) -> Status {
    Partition* part = partitions_[i].get();
    Bump(ctx, &QueryStats::partitions_visited);
    std::vector<RowPos> rows;
    std::vector<std::vector<uint32_t>> row_probes;
    PAYG_RETURN_IF_ERROR(
        MultiFindMatches(part, col, probes, ctx, &rows, &row_probes));
    // One materialization pass over the union of matched rows: each
    // column's pages and dictionary entries are touched once for the whole
    // batch, then the rows fan back out to their probes.
    QueryResult united;
    PAYG_RETURN_IF_ERROR(
        MaterializeRows(part, rows, select_cols, ctx, &united));
    partials[i].resize(probes.size());
    for (size_t k = 0; k < rows.size(); ++k) {
      for (uint32_t j : row_probes[k]) {
        partials[i][j].rows.push_back(united.rows[k]);
      }
    }
    return Status::OK();
  }));
  std::vector<QueryResult> out(probes.size());
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < probes.size(); ++j) {
      for (auto& row : partials[i][j].rows) {
        out[j].rows.push_back(std::move(row));
      }
    }
  }
  return out;
}

Result<std::vector<uint64_t>> Table::MultiCountByValue(
    const std::string& filter_column, const std::vector<Value>& probes,
    ExecContext* ctx) {
  int col = schema_.ColumnIndex(filter_column);
  if (col < 0) return Status::NotFound("no such column: " + filter_column);
  PAYG_RETURN_IF_ERROR(CheckProbeTypes(schema_, col, probes));
  if (probes.empty()) return std::vector<uint64_t>{};
  const size_t n = partitions_.size();
  std::vector<std::vector<uint64_t>> partials(n);
  PAYG_RETURN_IF_ERROR(executor_->ForEach(ctx, n, [&](size_t i) -> Status {
    Partition* part = partitions_[i].get();
    Bump(ctx, &QueryStats::partitions_visited);
    std::vector<RowPos> rows;
    std::vector<std::vector<uint32_t>> row_probes;
    PAYG_RETURN_IF_ERROR(
        MultiFindMatches(part, col, probes, ctx, &rows, &row_probes));
    partials[i].assign(probes.size(), 0);
    for (const auto& js : row_probes) {
      for (uint32_t j : js) ++partials[i][j];
    }
    return Status::OK();
  }));
  std::vector<uint64_t> out(probes.size(), 0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < probes.size(); ++j) out[j] += partials[i][j];
  }
  return out;
}

Result<QueryResult> Table::SelectRange(
    const std::string& filter_column, const Value& lo, const Value& hi,
    const std::vector<std::string>& select_columns, ExecContext* ctx) {
  int col = schema_.ColumnIndex(filter_column);
  if (col < 0) return Status::NotFound("no such column: " + filter_column);
  PAYG_ASSIGN_OR_RETURN(std::vector<int> select_cols,
                        ResolveColumns(select_columns));
  return ExecuteSelect(
      [this, col, &lo, &hi](Partition* part, ExecContext* c,
                            std::vector<RowPos>* rows) {
        return FindMatchesRange(part, col, lo, hi, c, rows);
      },
      select_cols, ctx);
}

Result<double> Table::SumRange(const std::string& filter_column,
                               const Value& lo, const Value& hi,
                               const std::string& sum_column,
                               ExecContext* ctx) {
  int col = schema_.ColumnIndex(filter_column);
  if (col < 0) return Status::NotFound("no such column: " + filter_column);
  int scol = schema_.ColumnIndex(sum_column);
  if (scol < 0) return Status::NotFound("no such column: " + sum_column);
  if (schema_.columns[scol].type == ValueType::kString) {
    return Status::InvalidArgument("SUM over a string column");
  }
  return ExecuteSum(
      [this, col, &lo, &hi](Partition* part, ExecContext* c,
                            std::vector<RowPos>* rows) {
        return FindMatchesRange(part, col, lo, hi, c, rows);
      },
      scol, ctx);
}

namespace {

// Value-space evaluation of a predicate (delta rows and IN narrowing).
bool EvalPredicate(const Predicate& pred, const Value& v) {
  switch (pred.op) {
    case Predicate::Op::kEq:
      return v == pred.value;
    case Predicate::Op::kBetween:
      return v.Compare(pred.lo) >= 0 && v.Compare(pred.hi) <= 0;
    case Predicate::Op::kIn:
      for (const Value& probe : pred.values) {
        if (v == probe) return true;
      }
      return false;
    case Predicate::Op::kPrefix: {
      const std::string& s = v.AsString();
      return s.size() >= pred.prefix.size() &&
             s.compare(0, pred.prefix.size(), pred.prefix) == 0;
    }
  }
  return false;
}

}  // namespace

Status Table::FindByPredicate(Partition* part, const Predicate& pred,
                              ExecContext* ctx, std::vector<RowPos>* out) {
  int col = schema_.ColumnIndex(pred.column);
  if (col < 0) return Status::NotFound("no such column: " + pred.column);
  switch (pred.op) {
    case Predicate::Op::kEq:
      return FindMatches(part, col, pred.value, ctx, out);
    case Predicate::Op::kBetween:
      return FindMatchesRange(part, col, pred.lo, pred.hi, ctx, out);
    case Predicate::Op::kIn:
      return FindMatchesIn(part, col, pred.values, ctx, out);
    case Predicate::Op::kPrefix:
      if (schema_.columns[col].type != ValueType::kString) {
        return Status::InvalidArgument("prefix predicate on non-string "
                                       "column");
      }
      return FindMatchesPrefix(part, col, pred.prefix, ctx, out);
  }
  return Status::Internal("unknown predicate op");
}

Status Table::NarrowByPredicate(Partition* part, const Predicate& pred,
                                const std::vector<RowPos>& in,
                                ExecContext* ctx, std::vector<RowPos>* out) {
  int col = schema_.ColumnIndex(pred.column);
  if (col < 0) return Status::NotFound("no such column: " + pred.column);

  // Split candidates into main rows (narrowed via vid-space row-list
  // search) and delta rows (narrowed in value space).
  const RowPos base = static_cast<RowPos>(part->main_row_count());
  std::vector<RowPos> main_rows, delta_rows;
  for (RowPos r : in) {
    (r < base ? main_rows : delta_rows).push_back(r);
  }

  std::vector<RowPos> kept;
  if (!main_rows.empty()) {
    PAYG_ASSIGN_OR_RETURN(auto reader, part->main(col)->NewReader(ctx));
    switch (pred.op) {
      case Predicate::Op::kEq: {
        PAYG_ASSIGN_OR_RETURN(ValueId vid, reader->FindValueId(pred.value));
        if (vid != kInvalidValueId) {
          PAYG_RETURN_IF_ERROR(reader->FilterRows(main_rows, vid, vid, &kept));
        }
        break;
      }
      case Predicate::Op::kBetween: {
        PAYG_ASSIGN_OR_RETURN(ValueId vlo, reader->LowerBoundVid(pred.lo));
        PAYG_ASSIGN_OR_RETURN(ValueId vhi_excl, reader->UpperBoundVid(pred.hi));
        if (vlo < vhi_excl) {
          PAYG_RETURN_IF_ERROR(
              reader->FilterRows(main_rows, vlo, vhi_excl - 1, &kept));
        }
        break;
      }
      case Predicate::Op::kIn: {
        std::vector<ValueId> vids;
        for (const Value& v : pred.values) {
          PAYG_ASSIGN_OR_RETURN(ValueId vid, reader->FindValueId(v));
          if (vid != kInvalidValueId) vids.push_back(vid);
        }
        std::sort(vids.begin(), vids.end());
        for (RowPos r : main_rows) {
          PAYG_ASSIGN_OR_RETURN(ValueId vid, reader->GetVid(r));
          if (std::binary_search(vids.begin(), vids.end(), vid)) {
            kept.push_back(r);
          }
        }
        Bump(ctx, &QueryStats::rows_scanned, main_rows.size());
        break;
      }
      case Predicate::Op::kPrefix: {
        if (schema_.columns[col].type != ValueType::kString) {
          return Status::InvalidArgument("prefix predicate on non-string "
                                         "column");
        }
        PAYG_ASSIGN_OR_RETURN(ValueId vlo,
                              reader->LowerBoundVid(Value(pred.prefix)));
        std::string successor = pred.prefix;
        while (!successor.empty() &&
               static_cast<unsigned char>(successor.back()) == 0xFF) {
          successor.pop_back();
        }
        ValueId vhi_excl;
        if (successor.empty()) {
          vhi_excl = static_cast<ValueId>(part->main(col)->dict_size());
        } else {
          ++successor.back();
          PAYG_ASSIGN_OR_RETURN(vhi_excl,
                                reader->LowerBoundVid(Value(successor)));
        }
        if (vlo < vhi_excl) {
          PAYG_RETURN_IF_ERROR(
              reader->FilterRows(main_rows, vlo, vhi_excl - 1, &kept));
        }
        break;
      }
    }
  }
  DeltaFragment* delta = part->delta(col);
  for (RowPos r : delta_rows) {
    if (EvalPredicate(pred, delta->GetValue(delta->GetVid(r - base)))) {
      kept.push_back(r);
    }
  }
  Bump(ctx, &QueryStats::rows_scanned, delta_rows.size());
  std::sort(kept.begin(), kept.end());
  out->insert(out->end(), kept.begin(), kept.end());
  return Status::OK();
}

Status Table::FindMatchesWhere(Partition* part,
                               const std::vector<Predicate>& conjuncts,
                               ExecContext* ctx, std::vector<RowPos>* out) {
  PAYG_ASSERT(!conjuncts.empty());
  std::vector<RowPos> candidates;
  PAYG_RETURN_IF_ERROR(FindByPredicate(part, conjuncts[0], ctx, &candidates));
  for (size_t i = 1; i < conjuncts.size() && !candidates.empty(); ++i) {
    std::vector<RowPos> next;
    PAYG_RETURN_IF_ERROR(
        NarrowByPredicate(part, conjuncts[i], candidates, ctx, &next));
    candidates = std::move(next);
  }
  out->insert(out->end(), candidates.begin(), candidates.end());
  return Status::OK();
}

Result<QueryResult> Table::SelectWhere(
    const std::vector<Predicate>& conjuncts,
    const std::vector<std::string>& select_columns, ExecContext* ctx) {
  if (conjuncts.empty()) {
    return Status::InvalidArgument("SelectWhere needs at least one conjunct");
  }
  PAYG_ASSIGN_OR_RETURN(std::vector<int> select_cols,
                        ResolveColumns(select_columns));
  return ExecuteSelect(
      [this, &conjuncts](Partition* part, ExecContext* c,
                         std::vector<RowPos>* rows) {
        return FindMatchesWhere(part, conjuncts, c, rows);
      },
      select_cols, ctx);
}

Result<uint64_t> Table::CountWhere(const std::vector<Predicate>& conjuncts,
                                   ExecContext* ctx) {
  if (conjuncts.empty()) {
    return Status::InvalidArgument("CountWhere needs at least one conjunct");
  }
  return ExecuteCount(
      [this, &conjuncts](Partition* part, ExecContext* c,
                         std::vector<RowPos>* rows) {
        return FindMatchesWhere(part, conjuncts, c, rows);
      },
      ctx);
}

Result<QueryResult> Table::SelectIn(
    const std::string& filter_column, const std::vector<Value>& values,
    const std::vector<std::string>& select_columns, ExecContext* ctx) {
  int col = schema_.ColumnIndex(filter_column);
  if (col < 0) return Status::NotFound("no such column: " + filter_column);
  PAYG_ASSIGN_OR_RETURN(std::vector<int> select_cols,
                        ResolveColumns(select_columns));
  return ExecuteSelect(
      [this, col, &values](Partition* part, ExecContext* c,
                           std::vector<RowPos>* rows) {
        return FindMatchesIn(part, col, values, c, rows);
      },
      select_cols, ctx);
}

Result<uint64_t> Table::CountIn(const std::string& filter_column,
                                const std::vector<Value>& values,
                                ExecContext* ctx) {
  int col = schema_.ColumnIndex(filter_column);
  if (col < 0) return Status::NotFound("no such column: " + filter_column);
  return ExecuteCount(
      [this, col, &values](Partition* part, ExecContext* c,
                           std::vector<RowPos>* rows) {
        return FindMatchesIn(part, col, values, c, rows);
      },
      ctx);
}

Result<QueryResult> Table::SelectPrefix(
    const std::string& filter_column, const std::string& prefix,
    const std::vector<std::string>& select_columns, ExecContext* ctx) {
  int col = schema_.ColumnIndex(filter_column);
  if (col < 0) return Status::NotFound("no such column: " + filter_column);
  if (schema_.columns[col].type != ValueType::kString) {
    return Status::InvalidArgument("prefix predicate on non-string column");
  }
  PAYG_ASSIGN_OR_RETURN(std::vector<int> select_cols,
                        ResolveColumns(select_columns));
  return ExecuteSelect(
      [this, col, &prefix](Partition* part, ExecContext* c,
                           std::vector<RowPos>* rows) {
        return FindMatchesPrefix(part, col, prefix, c, rows);
      },
      select_cols, ctx);
}

Result<uint64_t> Table::CountPrefix(const std::string& filter_column,
                                    const std::string& prefix,
                                    ExecContext* ctx) {
  int col = schema_.ColumnIndex(filter_column);
  if (col < 0) return Status::NotFound("no such column: " + filter_column);
  if (schema_.columns[col].type != ValueType::kString) {
    return Status::InvalidArgument("prefix predicate on non-string column");
  }
  return ExecuteCount(
      [this, col, &prefix](Partition* part, ExecContext* c,
                           std::vector<RowPos>* rows) {
        return FindMatchesPrefix(part, col, prefix, c, rows);
      },
      ctx);
}

void Table::UnloadAll() {
  for (auto& part : partitions_) part->UnloadAll();
}

uint64_t Table::ResidentBytes() const {
  uint64_t bytes = 0;
  for (const auto& part : partitions_) bytes += part->ResidentBytes();
  return bytes;
}

std::vector<Table::ColumnStats> Table::CollectColumnStats() const {
  std::vector<ColumnStats> out;
  for (const auto& part : partitions_) {
    for (size_t c = 0; c < schema_.columns.size(); ++c) {
      const ColumnSchema& cs = schema_.columns[c];
      ColumnStats stats;
      stats.table = schema_.name;
      stats.column = cs.name;
      stats.partition = part->id();
      stats.cold = part->cold();
      stats.page_loadable = cs.page_loadable;
      stats.delta_rows = part->delta(static_cast<int>(c))->row_count();
      MainFragment* main =
          const_cast<Partition*>(part.get())->main(static_cast<int>(c));
      if (main != nullptr) {
        stats.has_index = main->has_index();
        stats.main_rows = main->row_count();
        stats.dict_size = main->dict_size();
        stats.resident_bytes = main->ResidentBytes();
        stats.codec = main->codec_name();
      }
      out.push_back(std::move(stats));
    }
  }
  return out;
}

}  // namespace payg
