#ifndef PERFBENCH_DATASET_H_
#define PERFBENCH_DATASET_H_

// The benchmark's input generator and reference model.
//
// One ERP-shaped table (paper §6.1): a unique string primary key, an aging
// date that grows with row order, skewed and uniform low-cardinality ints,
// low-cardinality strings, decimals, doubles, and a few high-cardinality
// ints and strings. Every value is a monotone function of a per-column code
// k, so a column's sorted dictionary is its sorted distinct codes. The
// generator keeps every row's codes in memory; the checks answer each query
// again from them with plain loops.

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "table/schema.h"
#include "table/table.h"

namespace perfbench {

using payg::Value;
using payg::ValueType;

enum class ColumnKind {
  kPk,        // "DOC" + 12-digit row number, unique
  kDate,      // aging date in days, kDateBase + row / kRowsPerDay
  kLowInt,    // uniform over a small domain
  kSkewInt,   // 75% the default value (code 0), else uniform
  kLowStr,    // short strings, small domain
  kDecimal,   // DECIMAL(p,2) carried as scaled int64
  kDouble,    // multiples of 0.25, so every SUM is exact
  kHighInt,   // thousands of distinct values
  kHighStr,   // thousands of distinct, longer strings
};

struct ColumnDef {
  std::string name;
  ColumnKind kind;
  ValueType type;
  uint32_t cardinality;  // domain of the code k (rows for pk/date: unbounded)
};

inline constexpr int64_t kDateBase = 20000;
inline constexpr uint64_t kRowsPerDay = 40;

// The fixed 22-column layout. Column 0 is "pk", column 1 "aging_date".
const std::vector<ColumnDef>& Columns();
int ColumnIndex(const std::string& name);

// Value of code `k` in column `col` (monotone in k).
Value ValueAt(int col, uint64_t k);
// Raw bytes a user hands the store for one value (8 per number, the
// string's length otherwise): the base of write amplification.
uint64_t UserBytes(int col, uint64_t k);

// Table DDL: every column page loadable, the pk with an inverted index,
// aging_date as the temperature column.
payg::TableSchema MakeSchema(const std::string& table_name);

// Per-row codes of every column, generated from a seed. Rows are appended
// by Grow(), so an ingest workload extends the same deterministic stream.
class Dataset {
 public:
  explicit Dataset(uint64_t seed);

  void Grow(uint64_t rows);
  uint64_t rows() const { return rows_; }

  uint64_t Code(int col, uint64_t row) const;
  Value At(int col, uint64_t row) const { return ValueAt(col, Code(col, row)); }
  std::vector<Value> Row(uint64_t row) const;
  std::vector<Value> Project(uint64_t row, const std::vector<int>& cols) const;
  uint64_t RowUserBytes(uint64_t row) const;

  static Value Pk(uint64_t row);
  static int64_t Date(uint64_t row) {
    return kDateBase + static_cast<int64_t>(row / kRowsPerDay);
  }
  // First row whose date is >= `date` (dates are non-decreasing in row).
  static uint64_t FirstRowOfDate(int64_t date) {
    return date <= kDateBase
               ? 0
               : static_cast<uint64_t>(date - kDateBase) * kRowsPerDay;
  }

  // Rows [begin, end) as the sorted-dictionary + vid form that
  // Partition::BulkLoadColumn takes.
  struct LoadColumn {
    std::vector<Value> dict;
    std::vector<payg::ValueId> vids;
  };
  LoadColumn PrepareLoad(int col, uint64_t begin, uint64_t end) const;

 private:
  std::vector<payg::Random> rngs_;              // one stream per column
  std::vector<std::vector<uint32_t>> codes_;   // [col][row]; empty for pk/date
  uint64_t rows_ = 0;
};

// Sorts result rows into a canonical order so that a result can be
// compared with a reference whatever partition order produced it.
void SortRows(std::vector<std::vector<Value>>* rows);

}  // namespace perfbench

#endif  // PERFBENCH_DATASET_H_
