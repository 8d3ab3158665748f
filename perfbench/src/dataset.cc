#include "dataset.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

namespace {

std::vector<ColumnDef> BuildColumns() {
  std::vector<ColumnDef> cols;
  cols.push_back({"pk", ColumnKind::kPk, ValueType::kString, 0});
  cols.push_back({"aging_date", ColumnKind::kDate, ValueType::kInt64, 0});
  const uint32_t low_int[] = {2, 5, 11, 17, 29, 41, 59};
  for (int i = 0; i < 7; ++i) {
    cols.push_back({"int_lc" + std::to_string(i),
                    i % 2 == 0 ? ColumnKind::kSkewInt : ColumnKind::kLowInt,
                    ValueType::kInt64, low_int[i]});
  }
  const uint32_t low_str[] = {11, 29, 41, 71, 97};
  for (int i = 0; i < 5; ++i) {
    cols.push_back({"str_lc" + std::to_string(i), ColumnKind::kLowStr,
                    ValueType::kString, low_str[i]});
  }
  cols.push_back({"dec0", ColumnKind::kDecimal, ValueType::kInt64, 83});
  cols.push_back({"dec1", ColumnKind::kDecimal, ValueType::kInt64, 97});
  cols.push_back({"dbl0", ColumnKind::kDouble, ValueType::kDouble, 59});
  cols.push_back({"dbl1", ColumnKind::kDouble, ValueType::kDouble, 71});
  cols.push_back({"int_hc0", ColumnKind::kHighInt, ValueType::kInt64, 4000});
  cols.push_back({"int_hc1", ColumnKind::kHighInt, ValueType::kInt64, 25000});
  cols.push_back({"str_hc0", ColumnKind::kHighStr, ValueType::kString, 1500});
  cols.push_back({"str_hc1", ColumnKind::kHighStr, ValueType::kString, 10000});
  return cols;
}

std::string Padded(const std::string& prefix, uint64_t k, int width) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s%0*llu", prefix.c_str(), width,
                static_cast<unsigned long long>(k));
  return buf;
}

}  // namespace

const std::vector<ColumnDef>& Columns() {
  static const std::vector<ColumnDef> cols = BuildColumns();
  return cols;
}

int ColumnIndex(const std::string& name) {
  const auto& cols = Columns();
  for (size_t i = 0; i < cols.size(); ++i) {
    if (cols[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

Value ValueAt(int col, uint64_t k) {
  const ColumnDef& def = Columns()[col];
  switch (def.kind) {
    case ColumnKind::kPk:
      return Value(Padded("DOC", k, 12));
    case ColumnKind::kDate:
      return Value(kDateBase + static_cast<int64_t>(k));
    case ColumnKind::kLowInt:
    case ColumnKind::kSkewInt:
      return Value(static_cast<int64_t>(k * 3 + col));
    case ColumnKind::kHighInt:
      return Value(static_cast<int64_t>(k * 7 + col));
    case ColumnKind::kDecimal:
      return Value(static_cast<int64_t>(1000 + k * 125));
    case ColumnKind::kDouble:
      return Value(static_cast<double>(k) * 0.25 + col);
    case ColumnKind::kLowStr:
      return Value(Padded(def.name + "_", k, 8));
    case ColumnKind::kHighStr: {
      // Longer text (names, descriptions) after the zero-padded number, so
      // the order still follows k.
      std::string v = Padded(def.name + "_", k, 8);
      for (int i = 0; i < 40; ++i) {
        v.push_back(static_cast<char>('a' + (k * 31 + i * 7) % 26));
      }
      return Value(std::move(v));
    }
  }
  return Value();
}

uint64_t UserBytes(int col, uint64_t k) {
  const Value v = ValueAt(col, k);
  return v.type() == ValueType::kString ? v.AsString().size() : 8;
}

payg::TableSchema MakeSchema(const std::string& table_name) {
  payg::TableSchema schema;
  schema.name = table_name;
  for (const ColumnDef& def : Columns()) {
    payg::ColumnSchema cs;
    cs.name = def.name;
    cs.type = def.type;
    cs.page_loadable = true;
    cs.primary_key = def.kind == ColumnKind::kPk;
    cs.with_index = cs.primary_key;
    schema.columns.push_back(cs);
  }
  schema.temperature_column = 1;
  return schema;
}

Dataset::Dataset(uint64_t seed) {
  const auto& cols = Columns();
  codes_.resize(cols.size());
  for (size_t c = 0; c < cols.size(); ++c) {
    rngs_.emplace_back(seed * 0x9E3779B97F4A7C15ull + c + 1);
  }
}

void Dataset::Grow(uint64_t rows) {
  const auto& cols = Columns();
  for (size_t c = 0; c < cols.size(); ++c) {
    const ColumnDef& def = cols[c];
    if (def.kind == ColumnKind::kPk || def.kind == ColumnKind::kDate) continue;
    auto& codes = codes_[c];
    payg::Random& rng = rngs_[c];
    codes.reserve(rows_ + rows);
    for (uint64_t r = 0; r < rows; ++r) {
      uint64_t k;
      if (def.kind == ColumnKind::kSkewInt && !rng.OneIn(4)) {
        k = 0;
      } else {
        k = rng.Uniform(def.cardinality);
      }
      codes.push_back(static_cast<uint32_t>(k));
    }
  }
  rows_ += rows;
}

uint64_t Dataset::Code(int col, uint64_t row) const {
  switch (Columns()[col].kind) {
    case ColumnKind::kPk:
      return row;
    case ColumnKind::kDate:
      return row / kRowsPerDay;
    default:
      return codes_[col][row];
  }
}

Value Dataset::Pk(uint64_t row) { return ValueAt(0, row); }

std::vector<Value> Dataset::Row(uint64_t row) const {
  std::vector<Value> out;
  out.reserve(Columns().size());
  for (size_t c = 0; c < Columns().size(); ++c) {
    out.push_back(At(static_cast<int>(c), row));
  }
  return out;
}

std::vector<Value> Dataset::Project(uint64_t row,
                                    const std::vector<int>& cols) const {
  std::vector<Value> out;
  out.reserve(cols.size());
  for (int c : cols) out.push_back(At(c, row));
  return out;
}

uint64_t Dataset::RowUserBytes(uint64_t row) const {
  uint64_t bytes = 0;
  for (size_t c = 0; c < Columns().size(); ++c) {
    bytes += UserBytes(static_cast<int>(c), Code(static_cast<int>(c), row));
  }
  return bytes;
}

Dataset::LoadColumn Dataset::PrepareLoad(int col, uint64_t begin,
                                         uint64_t end) const {
  LoadColumn out;
  std::vector<uint64_t> codes;
  codes.reserve(end - begin);
  for (uint64_t r = begin; r < end; ++r) codes.push_back(Code(col, r));
  std::vector<uint64_t> distinct = codes;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  out.dict.reserve(distinct.size());
  for (uint64_t k : distinct) out.dict.push_back(ValueAt(col, k));
  out.vids.reserve(codes.size());
  for (uint64_t k : codes) {
    out.vids.push_back(static_cast<payg::ValueId>(
        std::lower_bound(distinct.begin(), distinct.end(), k) -
        distinct.begin()));
  }
  return out;
}

void SortRows(std::vector<std::vector<Value>>* rows) {
  std::sort(rows->begin(), rows->end(),
            [](const std::vector<Value>& a, const std::vector<Value>& b) {
              for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
                const int c = a[i].Compare(b[i]);
                if (c != 0) return c < 0;
              }
              return a.size() < b.size();
            });
}

}  // namespace perfbench
