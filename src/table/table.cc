#include "table/table.h"

#include <algorithm>
#include <limits>
#include <map>
#include <unordered_map>

namespace payg {

namespace {

// Checks one conjunct's column and operand types against the schema and
// returns the column's index.
Result<int> CheckPredicate(const TableSchema& schema, const Predicate& pred) {
  const int col = schema.ColumnIndex(pred.column);
  if (col < 0) return Status::NotFound("no such column: " + pred.column);
  const ValueType type = schema.columns[col].type;
  auto operand = [&](const Value& v) {
    if (v.type() == type) return Status::OK();
    return Status::InvalidArgument(
        "operand of type " + std::string(ValueTypeName(v.type())) +
        " does not match column " + pred.column);
  };
  switch (pred.op) {
    case Predicate::Op::kEq:
      PAYG_RETURN_IF_ERROR(operand(pred.value));
      return col;
    case Predicate::Op::kBetween:
      PAYG_RETURN_IF_ERROR(operand(pred.lo));
      PAYG_RETURN_IF_ERROR(operand(pred.hi));
      return col;
    case Predicate::Op::kIn:
      for (const Value& v : pred.values) PAYG_RETURN_IF_ERROR(operand(v));
      return col;
    case Predicate::Op::kPrefix:
      if (type == ValueType::kString) return col;
      return Status::InvalidArgument("prefix predicate on non-string column " +
                                     pred.column);
  }
  return Status::InvalidArgument("unknown predicate op");
}

// Value-space evaluation of a predicate (delta rows).
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

// A predicate in the vid space of one main fragment: the vids whose values
// satisfy it, as an inclusive range [lo, hi] or, for IN, a sorted set.
// Values absent from the dictionary drop out.
struct VidFilter {
  bool is_set = false;
  ValueId lo = 1, hi = 0;    // !is_set; empty when lo > hi
  std::vector<ValueId> set;  // is_set; ascending, unique

  bool empty() const { return is_set ? set.empty() : lo > hi; }
};

Result<VidFilter> ToVidFilter(FragmentReader* reader, const Predicate& pred,
                              uint64_t dict_size) {
  VidFilter f;
  ValueId vlo = 0, vhi_excl = 0;
  switch (pred.op) {
    case Predicate::Op::kEq: {
      PAYG_ASSIGN_OR_RETURN(ValueId vid, reader->FindValueId(pred.value));
      if (vid != kInvalidValueId) f.lo = f.hi = vid;
      return f;
    }
    case Predicate::Op::kBetween: {
      PAYG_ASSIGN_OR_RETURN(vlo, reader->LowerBoundVid(pred.lo));
      PAYG_ASSIGN_OR_RETURN(vhi_excl, reader->UpperBoundVid(pred.hi));
      break;
    }
    case Predicate::Op::kIn: {
      f.is_set = true;
      for (const Value& v : pred.values) {
        PAYG_ASSIGN_OR_RETURN(ValueId vid, reader->FindValueId(v));
        if (vid != kInvalidValueId) f.set.push_back(vid);
      }
      std::sort(f.set.begin(), f.set.end());
      f.set.erase(std::unique(f.set.begin(), f.set.end()), f.set.end());
      return f;
    }
    case Predicate::Op::kPrefix: {
      // [LowerBound(prefix), LowerBound(successor)) is exactly the vid range
      // of strings starting with `prefix` — the dictionary is order
      // preserving. The successor is the prefix with its last byte bumped
      // (dropping trailing 0xFF bytes); a prefix of only 0xFF bytes has
      // none, and everything >= prefix matches.
      PAYG_ASSIGN_OR_RETURN(vlo, reader->LowerBoundVid(Value(pred.prefix)));
      std::string successor = pred.prefix;
      while (!successor.empty() &&
             static_cast<unsigned char>(successor.back()) == 0xFF) {
        successor.pop_back();
      }
      if (successor.empty()) {
        vhi_excl = static_cast<ValueId>(dict_size);
      } else {
        ++successor.back();
        PAYG_ASSIGN_OR_RETURN(vhi_excl,
                              reader->LowerBoundVid(Value(successor)));
      }
      break;
    }
  }
  if (vlo < vhi_excl) {
    f.lo = vlo;
    f.hi = vhi_excl - 1;
  }
  return f;
}

}  // namespace

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
  const ColumnSchema& temp = schema_.columns[temp_col];
  const Predicate aged = Predicate::Between(
      temp.name,
      temp.type == ValueType::kInt64
          ? Value(std::numeric_limits<int64_t>::min())
          : (temp.type == ValueType::kDouble
                 ? Value(-std::numeric_limits<double>::infinity())
                 : Value(std::string())),
      threshold);
  PAYG_RETURN_IF_ERROR(CheckPredicate(schema_, aged).status());
  std::vector<RowPos> victims;
  PAYG_RETURN_IF_ERROR(
      FindMatches(hot_part, aged, temp_col, /*ctx=*/nullptr, &victims));

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

Result<Table::Plan> Table::Resolve(const Query& query) const {
  if (query.where.empty()) {
    return Status::InvalidArgument("a query needs at least one conjunct");
  }
  Plan plan;
  plan.where_cols.reserve(query.where.size());
  for (const Predicate& pred : query.where) {
    PAYG_ASSIGN_OR_RETURN(int col, CheckPredicate(schema_, pred));
    plan.where_cols.push_back(col);
  }
  if (query.aggregate == Aggregate::kRows) {
    PAYG_ASSIGN_OR_RETURN(plan.select_cols, ResolveColumns(query.select));
  }
  if (query.aggregate == Aggregate::kSum) {
    plan.sum_col = schema_.ColumnIndex(query.sum_column);
    if (plan.sum_col < 0) {
      return Status::NotFound("no such column: " + query.sum_column);
    }
    if (schema_.columns[plan.sum_col].type == ValueType::kString) {
      return Status::InvalidArgument("SUM over a string column");
    }
  }
  return plan;
}

Status Table::Validate(const Query& query) const {
  return Resolve(query).status();
}

// ---------------------------------------------------------------------------
// Fan-out/merge driver. The executor runs the per-partition steps (inline
// when worker_threads = 0) and task i writes only slot i of the partials
// vector, so the merge below — always in partition-id order — reproduces
// the serial loop's output exactly. SUM in particular adds per-partition
// partials in partition order in both modes: floating-point addition is not
// associative, and this fixed grouping keeps the result bit-identical.
// ---------------------------------------------------------------------------

Result<Answer> Table::Run(const Query& query, ExecContext* ctx) {
  PAYG_ASSIGN_OR_RETURN(const Plan plan, Resolve(query));
  const size_t n = partitions_.size();
  std::vector<Answer> partials(n);
  PAYG_RETURN_IF_ERROR(executor_->ForEach(ctx, n, [&](size_t i) -> Status {
    Partition* part = partitions_[i].get();
    Bump(ctx, &QueryStats::partitions_visited);
    std::vector<RowPos> rows;
    PAYG_RETURN_IF_ERROR(
        FindMatchesWhere(part, query.where, plan.where_cols, ctx, &rows));
    Answer& out = partials[i];
    switch (query.aggregate) {
      case Aggregate::kRows:
        return MaterializeRows(part, rows, plan.select_cols, ctx, &out.result);
      case Aggregate::kCount:
        out.count = rows.size();
        return Status::OK();
      case Aggregate::kRowIds:
        out.row_ids.reserve(rows.size());
        for (RowPos r : rows) out.row_ids.push_back(RowId{part->id(), r});
        return Status::OK();
      case Aggregate::kSum:
        return SumRows(part, rows, plan.sum_col, ctx, &out.sum);
    }
    return Status::OK();
  }));

  Answer answer;
  size_t rows = 0, ids = 0;
  for (const Answer& p : partials) {
    rows += p.result.rows.size();
    ids += p.row_ids.size();
  }
  answer.result.rows.reserve(rows);
  answer.row_ids.reserve(ids);
  for (Answer& p : partials) {
    for (auto& row : p.result.rows) {
      answer.result.rows.push_back(std::move(row));
    }
    answer.row_ids.insert(answer.row_ids.end(), p.row_ids.begin(),
                          p.row_ids.end());
    answer.count += p.count;
    answer.sum += p.sum;
  }
  return answer;
}

Result<std::vector<Answer>> Table::RunBatch(const Query& shape,
                                            const std::vector<Value>& probes,
                                            ExecContext* ctx) {
  if (shape.where.size() != 1 || shape.where[0].op != Predicate::Op::kEq ||
      (shape.aggregate != Aggregate::kRows &&
       shape.aggregate != Aggregate::kCount)) {
    return Status::InvalidArgument(
        "RunBatch takes one Eq conjunct and a rows or count aggregate");
  }
  if (probes.empty()) return std::vector<Answer>{};
  // The shape is checked once with the first probe as its operand, the
  // other probes against the same column.
  Query query = shape;
  query.where[0].value = probes[0];
  PAYG_ASSIGN_OR_RETURN(const Plan plan, Resolve(query));
  const int col = plan.where_cols[0];
  for (const Value& probe : probes) {
    query.where[0].value = probe;
    PAYG_RETURN_IF_ERROR(CheckPredicate(schema_, query.where[0]).status());
  }
  const bool select = shape.aggregate == Aggregate::kRows;

  const size_t n = partitions_.size();
  // partials[i][j] = probe j's answer from partition i; task i writes slot i.
  std::vector<std::vector<Answer>> partials(n);
  PAYG_RETURN_IF_ERROR(executor_->ForEach(ctx, n, [&](size_t i) -> Status {
    Partition* part = partitions_[i].get();
    Bump(ctx, &QueryStats::partitions_visited);
    std::vector<RowPos> rows;
    std::vector<std::vector<uint32_t>> row_probes;
    PAYG_RETURN_IF_ERROR(
        MultiFindMatches(part, col, probes, ctx, &rows, &row_probes));
    partials[i].resize(probes.size());
    if (!select) {
      for (const auto& js : row_probes) {
        for (uint32_t j : js) ++partials[i][j].count;
      }
      return Status::OK();
    }
    // One materialization pass over the union of matched rows: each
    // column's pages and dictionary entries are touched once for the whole
    // batch, then the rows fan back out to their probes.
    QueryResult united;
    PAYG_RETURN_IF_ERROR(
        MaterializeRows(part, rows, plan.select_cols, ctx, &united));
    for (size_t k = 0; k < rows.size(); ++k) {
      for (uint32_t j : row_probes[k]) {
        partials[i][j].result.rows.push_back(united.rows[k]);
      }
    }
    return Status::OK();
  }));
  std::vector<Answer> out(probes.size());
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < probes.size(); ++j) {
      for (auto& row : partials[i][j].result.rows) {
        out[j].result.rows.push_back(std::move(row));
      }
      out[j].count += partials[i][j].count;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Per-partition steps.
// ---------------------------------------------------------------------------

Status Table::FindMatches(Partition* part, const Predicate& pred, int col,
                          ExecContext* ctx, std::vector<RowPos>* out) {
  std::vector<RowPos> rows;
  const RowPos base = static_cast<RowPos>(part->main_row_count());
  // Main fragment: dictionary probe, then the inverted index for Eq (Alg. 5,
  // a data-vector scan when there is none) or a data-vector search over the
  // vid range or set (Alg. 1).
  if (part->main(col) != nullptr && base > 0) {
    PAYG_ASSIGN_OR_RETURN(auto reader, part->main(col)->NewReader(ctx));
    PAYG_ASSIGN_OR_RETURN(
        VidFilter f,
        ToVidFilter(reader.get(), pred, part->main(col)->dict_size()));
    if (f.empty()) {
      // No value of the main dictionary qualifies.
    } else if (pred.op == Predicate::Op::kEq) {
      PAYG_RETURN_IF_ERROR(reader->FindRows(f.lo, &rows));
    } else if (f.is_set) {
      PAYG_RETURN_IF_ERROR(reader->SearchVidSet(0, base, f.set, &rows));
    } else {
      PAYG_RETURN_IF_ERROR(reader->SearchVidRange(0, base, f.lo, f.hi, &rows));
    }
  }
  // Delta fragment: hash + postings for Eq, otherwise one pass over its
  // unsorted dictionary and one over its vids.
  DeltaFragment* delta = part->delta(col);
  std::vector<RowPos> delta_rows;
  if (pred.op == Predicate::Op::kEq) {
    delta->FindRows(pred.value, &delta_rows);
  } else {
    delta->FindRowsMatching(
        [&pred](const Value& v) { return EvalPredicate(pred, v); },
        &delta_rows);
  }
  Bump(ctx, &QueryStats::rows_scanned, delta->row_count());
  for (RowPos r : delta_rows) rows.push_back(base + r);
  // Visibility.
  for (RowPos r : rows) {
    if (part->IsVisible(r)) out->push_back(r);
  }
  return Status::OK();
}

Status Table::NarrowByPredicate(Partition* part, const Predicate& pred,
                                int col, const std::vector<RowPos>& in,
                                ExecContext* ctx, std::vector<RowPos>* out) {
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
    PAYG_ASSIGN_OR_RETURN(
        VidFilter f,
        ToVidFilter(reader.get(), pred, part->main(col)->dict_size()));
    if (f.empty()) {
      // No candidate main row can qualify.
    } else if (f.is_set) {
      for (RowPos r : main_rows) {
        PAYG_ASSIGN_OR_RETURN(ValueId vid, reader->GetVid(r));
        if (std::binary_search(f.set.begin(), f.set.end(), vid)) {
          kept.push_back(r);
        }
      }
      Bump(ctx, &QueryStats::rows_scanned, main_rows.size());
    } else {
      PAYG_RETURN_IF_ERROR(reader->FilterRows(main_rows, f.lo, f.hi, &kept));
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
                               const std::vector<Predicate>& where,
                               const std::vector<int>& cols, ExecContext* ctx,
                               std::vector<RowPos>* out) {
  std::vector<RowPos> candidates;
  PAYG_RETURN_IF_ERROR(FindMatches(part, where[0], cols[0], ctx, &candidates));
  for (size_t i = 1; i < where.size() && !candidates.empty(); ++i) {
    std::vector<RowPos> next;
    PAYG_RETURN_IF_ERROR(
        NarrowByPredicate(part, where[i], cols[i], candidates, ctx, &next));
    candidates = std::move(next);
  }
  out->insert(out->end(), candidates.begin(), candidates.end());
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

Status Table::SumRows(Partition* part, const std::vector<RowPos>& rows,
                      int sum_col, ExecContext* ctx, double* sum) {
  const ValueType stype = schema_.columns[sum_col].type;
  const RowPos base = static_cast<RowPos>(part->main_row_count());
  std::unique_ptr<FragmentReader> reader;
  std::unordered_map<ValueId, double> memo;  // decode each distinct vid once
  for (RowPos r : rows) {
    double v;
    if (r < base) {
      if (reader == nullptr) {
        PAYG_ASSIGN_OR_RETURN(reader, part->main(sum_col)->NewReader(ctx));
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
    *sum += v;
  }
  return Status::OK();
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
