#ifndef PAYG_TABLE_TABLE_H_
#define PAYG_TABLE_TABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "exec/query_executor.h"
#include "table/partition.h"
#include "table/schema.h"

namespace payg {

// Identifies a row across partitions (the executor's ROWID).
struct RowId {
  uint32_t partition = 0;
  RowPos row = 0;

  bool operator==(const RowId& other) const {
    return partition == other.partition && row == other.row;
  }
};

// Materialized query result.
struct QueryResult {
  std::vector<std::vector<Value>> rows;

  bool operator==(const QueryResult& other) const {
    return rows == other.rows;
  }
};

// One conjunct of a WHERE clause. Conjunctive queries evaluate the first
// predicate through the dictionary/index machinery and then narrow the
// surviving row positions with the data-vector search variety over row
// lists (§3.1.2).
struct Predicate {
  enum class Op { kEq, kBetween, kIn, kPrefix };

  std::string column;
  Op op = Op::kEq;
  Value value;                // kEq
  Value lo, hi;               // kBetween (inclusive)
  std::vector<Value> values;  // kIn
  std::string prefix;         // kPrefix (string columns)

  static Predicate Eq(std::string column, Value v) {
    Predicate p;
    p.column = std::move(column);
    p.op = Op::kEq;
    p.value = std::move(v);
    return p;
  }
  static Predicate Between(std::string column, Value lo, Value hi) {
    Predicate p;
    p.column = std::move(column);
    p.op = Op::kBetween;
    p.lo = std::move(lo);
    p.hi = std::move(hi);
    return p;
  }
  static Predicate In(std::string column, std::vector<Value> values) {
    Predicate p;
    p.column = std::move(column);
    p.op = Op::kIn;
    p.values = std::move(values);
    return p;
  }
  static Predicate Prefix(std::string column, std::string prefix) {
    Predicate p;
    p.column = std::move(column);
    p.op = Op::kPrefix;
    p.prefix = std::move(prefix);
    return p;
  }
};

// What a query returns: its rows, COUNT(*), ROWID()s or SUM(column).
enum class Aggregate { kRows, kCount, kRowIds, kSum };

// SELECT <select> | COUNT(*) | ROWID() | SUM(<sum_column>) FROM T
// WHERE <where[0]> AND <where[1]> AND ...
// The first conjunct drives: it is evaluated through the dictionary and
// then the inverted index or a data-vector search; the others narrow the
// surviving rows with the data-vector search over row lists (§3.1.2), and
// the survivors are materialized late.
struct Query {
  std::vector<Predicate> where{};     // at least one conjunct
  std::vector<std::string> select{};  // kRows only; empty = SELECT *
  Aggregate aggregate = Aggregate::kRows;
  std::string sum_column{};           // kSum only; an int64 or double column
};

// The answer to a Query; the field its aggregate names is set, the others
// stay empty.
struct Answer {
  QueryResult result;          // kRows
  uint64_t count = 0;          // kCount
  double sum = 0;              // kSum
  std::vector<RowId> row_ids;  // kRowIds, in partition order

  bool operator==(const Answer& other) const = default;
};

// A range-partitioned columnar table with one hot partition and any number
// of cold partitions (§4). Every query is evaluated independently on the
// main and delta fragment of each partition and the results are combined
// after applying row visibility (§2).
// Per-partition restart info recorded in the store catalog.
struct PartitionManifest {
  bool cold = false;
  uint64_t merge_generation = 0;
  uint64_t main_rows = 0;
};

class Table {
 public:
  Table(TableSchema schema, StorageManager* storage, ResourceManager* rm,
        const ExecOptions& exec_options = ExecOptions{});

  // Restart path: re-attaches a table whose partitions were persisted by a
  // checkpoint. manifests[0] must be the hot partition.
  static Result<std::unique_ptr<Table>> OpenExisting(
      TableSchema schema, StorageManager* storage, ResourceManager* rm,
      const std::vector<PartitionManifest>& manifests,
      const ExecOptions& exec_options = ExecOptions{});

  // Manifests describing the current partitions (for the catalog). Only
  // meaningful right after MergeAll (deltas are memory-only).
  std::vector<PartitionManifest> Manifests() const;

  const TableSchema& schema() const { return schema_; }

  // Replaces the execution layer (e.g. to switch worker count between
  // benchmark phases). Must not race with running queries.
  void set_exec_options(const ExecOptions& options);
  const ExecOptions& exec_options() const { return executor_->options(); }

  // Appends a row to the hot partition's delta fragments.
  Status Insert(const std::vector<Value>& row);

  // Adds a new cold partition (explicit ADD PARTITION, §4.2). Its columns
  // follow the schema's loading preference; cold pages live in the cold
  // paged pool.
  Status AddColdPartition();

  // Ages rows: every visible hot row whose temperature column value
  // compares <= `threshold` is moved to the newest cold partition as an
  // ordinary delete+insert through the delta (§4.2). Returns the number of
  // rows moved. Run MergeAll() afterwards to persist cold mains.
  Result<uint64_t> AgeRows(const Value& threshold);

  // Runs the delta merge on every partition.
  Status MergeAll();

  uint64_t partition_count() const {
    return static_cast<uint64_t>(partitions_.size());
  }
  Partition* hot() { return partitions_[0].get(); }
  Partition* partition(uint32_t id) { return partitions_[id].get(); }

  uint64_t row_count() const;
  uint64_t visible_row_count() const;

  // --- queries ---------------------------------------------------------------
  //
  // Run fans a query's per-partition work out through the shared
  // QueryExecutor and merges partition results in partition-id order, so
  // serial (worker_threads = 0) and parallel runs return identical answers.
  // The optional ExecContext collects per-query counters and carries the
  // query deadline; null means "no accounting".

  // Checks `query` against the schema: at least one conjunct, every named
  // column exists (NotFound otherwise), every operand has its column's type,
  // prefixes apply to string columns and SUM to numeric ones
  // (InvalidArgument otherwise). Run and RunBatch call it first, so a
  // mistyped operand never reaches a typed compare.
  Status Validate(const Query& query) const;

  Result<Answer> Run(const Query& query, ExecContext* ctx = nullptr);

  // Batched point lookups (S25): `shape` is one Eq conjunct with a rows or
  // count aggregate, and element i of the result is identical to Run of
  // `shape` with its Eq value replaced by probes[i] (same rows, same order).
  // Per partition this costs one reader (one pin pass over the column's
  // pages) and one merged search_in dispatch over the sorted probe-vid set,
  // instead of one full lookup per probe — the engine-side primitive behind
  // the server's same-partition request batching. Probes may repeat and may
  // be absent from the table (their answer is simply empty).
  Result<std::vector<Answer>> RunBatch(const Query& shape,
                                       const std::vector<Value>& probes,
                                       ExecContext* ctx = nullptr);

  // Named forms of common queries (the §6 workload templates).

  // SELECT <select_columns> FROM T WHERE <filter_column> = <value>
  Result<QueryResult> SelectByValue(
      const std::string& filter_column, const Value& value,
      const std::vector<std::string>& select_columns,
      ExecContext* ctx = nullptr) {
    return Pick(Run({.where = Only(Predicate::Eq(filter_column, value)),
                     .select = select_columns},
                    ctx),
                &Answer::result);
  }

  // SELECT COUNT(*) FROM T WHERE <filter_column> = <value>
  Result<uint64_t> CountByValue(const std::string& filter_column,
                                const Value& value,
                                ExecContext* ctx = nullptr) {
    return Pick(Run({.where = Only(Predicate::Eq(filter_column, value)),
                     .aggregate = Aggregate::kCount},
                    ctx),
                &Answer::count);
  }

  // SELECT <select_columns> FROM T WHERE lo <= <filter_column> <= hi
  Result<QueryResult> SelectRange(
      const std::string& filter_column, const Value& lo, const Value& hi,
      const std::vector<std::string>& select_columns,
      ExecContext* ctx = nullptr) {
    return Pick(
        Run({.where = Only(Predicate::Between(filter_column, lo, hi)),
             .select = select_columns},
            ctx),
        &Answer::result);
  }

  // SELECT SUM(<sum_column>) FROM T WHERE lo <= <filter_column> <= hi
  Result<double> SumRange(const std::string& filter_column, const Value& lo,
                          const Value& hi, const std::string& sum_column,
                          ExecContext* ctx = nullptr) {
    return Pick(
        Run({.where = Only(Predicate::Between(filter_column, lo, hi)),
             .aggregate = Aggregate::kSum,
             .sum_column = sum_column},
            ctx),
        &Answer::sum);
  }

  // SELECT COUNT(*) FROM T WHERE <filter_column> IN (<values>)
  Result<uint64_t> CountIn(const std::string& filter_column,
                           const std::vector<Value>& values,
                           ExecContext* ctx = nullptr) {
    return Pick(Run({.where = Only(Predicate::In(filter_column, values)),
                     .aggregate = Aggregate::kCount},
                    ctx),
                &Answer::count);
  }

  // SELECT COUNT(*) FROM T WHERE <filter_column> LIKE '<prefix>%'
  Result<uint64_t> CountPrefix(const std::string& filter_column,
                               const std::string& prefix,
                               ExecContext* ctx = nullptr) {
    return Pick(
        Run({.where = Only(Predicate::Prefix(filter_column, prefix)),
             .aggregate = Aggregate::kCount},
            ctx),
        &Answer::count);
  }

  // SELECT COUNT(*) FROM T WHERE <p1> AND <p2> AND ...
  Result<uint64_t> CountWhere(const std::vector<Predicate>& conjuncts,
                              ExecContext* ctx = nullptr) {
    return Pick(Run({.where = conjuncts, .aggregate = Aggregate::kCount}, ctx),
                &Answer::count);
  }

  // --- memory control -------------------------------------------------------
  void UnloadAll();
  uint64_t ResidentBytes() const;

  // --- monitoring (an M_CS_COLUMNS-style view) ------------------------------
  struct ColumnStats {
    std::string table;
    std::string column;
    uint32_t partition = 0;
    bool cold = false;
    bool page_loadable = false;
    bool has_index = false;
    uint64_t main_rows = 0;
    uint64_t delta_rows = 0;
    uint64_t dict_size = 0;
    uint64_t resident_bytes = 0;  // main fragment only
    // Storage codec of the main fragment's data vector (S22): "plain",
    // "for", "rle" for paged columns, "resident" for fully loaded ones,
    // empty before the first delta merge.
    std::string codec;
  };

  // One row per (partition, column): loading behaviour, sizes, and the
  // bytes currently memory resident.
  std::vector<ColumnStats> CollectColumnStats() const;

 private:
  // A one-conjunct WHERE clause, built without copying the predicate.
  static std::vector<Predicate> Only(Predicate pred) {
    std::vector<Predicate> where;
    where.push_back(std::move(pred));
    return where;
  }

  // The field of a successful answer a named query form returns.
  template <typename T>
  static Result<T> Pick(Result<Answer> answer, T Answer::*field) {
    if (!answer.ok()) return answer.status();
    return std::move((*answer).*field);
  }

  // The per-partition steps of Run and RunBatch. The executor invokes them
  // once per partition, possibly concurrently, so they touch only the given
  // partition, per-call readers, and the (atomic) ctx counters. Every
  // predicate has been validated and `col` is its column.

  // Visible rows of `part` satisfying `pred` (the driving conjunct), main
  // rows then delta rows, each in row order.
  Status FindMatches(Partition* part, const Predicate& pred, int col,
                     ExecContext* ctx, std::vector<RowPos>* out);
  // Keeps the rows of `in` (ascending) that also satisfy `pred`.
  Status NarrowByPredicate(Partition* part, const Predicate& pred, int col,
                           const std::vector<RowPos>& in, ExecContext* ctx,
                           std::vector<RowPos>* out);
  // Visible rows satisfying every conjunct; cols[i] is where[i]'s column.
  Status FindMatchesWhere(Partition* part, const std::vector<Predicate>& where,
                          const std::vector<int>& cols, ExecContext* ctx,
                          std::vector<RowPos>* out);
  // Multi-probe FindMatches for an Eq column: one dictionary pass + one
  // merged SearchVidSet over the union of probe vids. Appends the matched
  // visible rows (main matches in row order, then delta matches in row
  // order) to *rows and, aligned with it, the indices of the probes each row
  // matched to *row_probes (a row matches every probe equal to its value, so
  // duplicate probes share rows).
  Status MultiFindMatches(Partition* part, int col,
                          const std::vector<Value>& probes, ExecContext* ctx,
                          std::vector<RowPos>* rows,
                          std::vector<std::vector<uint32_t>>* row_probes);
  // Materializes `select_cols` of the given rows of one partition.
  Status MaterializeRows(Partition* part, const std::vector<RowPos>& rows,
                         const std::vector<int>& select_cols, ExecContext* ctx,
                         QueryResult* result);
  // Adds `sum_col` of the given rows of one partition to *sum.
  Status SumRows(Partition* part, const std::vector<RowPos>& rows, int sum_col,
                 ExecContext* ctx, double* sum);
  Result<std::vector<int>> ResolveColumns(
      const std::vector<std::string>& names) const;

  // A validated query's column indices: where_cols[i] is where[i]'s column,
  // select_cols the kRows projection, sum_col the kSum column.
  struct Plan {
    std::vector<int> where_cols;
    std::vector<int> select_cols;
    int sum_col = -1;
  };
  // Validate's checks, returning the resolved columns.
  Result<Plan> Resolve(const Query& query) const;

  TableSchema schema_;
  StorageManager* storage_;
  ResourceManager* rm_;
  std::vector<std::unique_ptr<Partition>> partitions_;
  std::unique_ptr<QueryExecutor> executor_;
};

}  // namespace payg

#endif  // PAYG_TABLE_TABLE_H_
