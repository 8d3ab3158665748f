// Cross-module integration, concurrency-under-eviction, fault injection,
// and a randomized reference-model equivalence suite.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <optional>
#include <thread>

#include "common/random.h"
#include "core/column_store.h"
#include "server/client.h"
#include "server/server.h"
#include "workload/erp.h"

namespace payg {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/payg_integration_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::remove_all(dir_);
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  ColumnStoreOptions Options() {
    ColumnStoreOptions options;
    options.directory = dir_;
    options.storage.page_size = 8192;
    options.storage.dict_page_size = 16 * 1024;
    return options;
  }

  std::string dir_;
};

TableSchema KvSchema(const std::string& name, bool paged) {
  TableSchema schema;
  schema.name = name;
  schema.columns.push_back({"k", ValueType::kString, paged, true, true});
  schema.columns.push_back({"v", ValueType::kInt64, paged, false, false});
  schema.columns.push_back({"tag", ValueType::kString, paged, false, false});
  return schema;
}

std::vector<Value> KvRow(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "K%06d", i);
  return {Value(std::string(buf)), Value(int64_t{i}),
          Value("tag_" + std::to_string(i % 7))};
}

// ---------------------------------------------------------------------------
// IN-list and prefix queries
// ---------------------------------------------------------------------------

TEST_F(IntegrationTest, InListQueries) {
  auto store = ColumnStore::Open(Options());
  ASSERT_TRUE(store.ok());
  auto table = (*store)->CreateTable(KvSchema("t", true));
  ASSERT_TRUE(table.ok());
  for (int i = 0; i < 300; ++i) ASSERT_TRUE((*table)->Insert(KvRow(i)).ok());
  ASSERT_TRUE((*table)->MergeAll().ok());
  // A few rows stay in the delta.
  for (int i = 300; i < 320; ++i) {
    ASSERT_TRUE((*table)->Insert(KvRow(i)).ok());
  }

  std::vector<Value> probes{Value(int64_t{5}), Value(int64_t{150}),
                            Value(int64_t{310}), Value(int64_t{9999})};
  auto count = (*table)->CountIn("v", probes);
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(*count, 3u);  // 9999 does not exist
  auto rows = (*table)->Run(
      {.where = {Predicate::In("v", probes)}, .select = {"k", "v"}});
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->result.rows.size(), 3u);
  std::vector<int64_t> got;
  for (const auto& row : rows->result.rows) got.push_back(row[1].AsInt64());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<int64_t>{5, 150, 310}));

  // IN on the string tag column: tags repeat, counts add up.
  auto tag_count = (*table)->CountIn(
      "tag", {Value(std::string("tag_0")), Value(std::string("tag_3"))});
  ASSERT_TRUE(tag_count.ok());
  uint64_t expect = 0;
  for (int i = 0; i < 320; ++i) {
    if (i % 7 == 0 || i % 7 == 3) ++expect;
  }
  EXPECT_EQ(*tag_count, expect);
}

TEST_F(IntegrationTest, PrefixQueries) {
  auto store = ColumnStore::Open(Options());
  ASSERT_TRUE(store.ok());
  auto table = (*store)->CreateTable(KvSchema("t", true));
  ASSERT_TRUE(table.ok());
  for (int i = 0; i < 250; ++i) ASSERT_TRUE((*table)->Insert(KvRow(i)).ok());
  ASSERT_TRUE((*table)->MergeAll().ok());
  for (int i = 250; i < 260; ++i) {
    ASSERT_TRUE((*table)->Insert(KvRow(i)).ok());
  }

  // K00012 matches K000120..K000129.
  auto count = (*table)->CountPrefix("k", "K00012");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(*count, 10u);
  auto rows = (*table)->Run(
      {.where = {Predicate::Prefix("k", "K00025")}, .select = {"v"}});
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->result.rows.size(), 10u);  // 250..259, all in the delta
  auto none = (*table)->CountPrefix("k", "Z");
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(*none, 0u);
  auto all = (*table)->CountPrefix("k", "");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(*all, 260u);
  // Prefix on a numeric column is rejected.
  EXPECT_FALSE((*table)->CountPrefix("v", "1").ok());
}

// ---------------------------------------------------------------------------
// Conjunctive predicates (AND of several columns)
// ---------------------------------------------------------------------------

TEST_F(IntegrationTest, ConjunctiveQueriesMatchScalarEvaluation) {
  auto store = ColumnStore::Open(Options());
  ASSERT_TRUE(store.ok());
  auto table = (*store)->CreateTable(KvSchema("t", true));
  ASSERT_TRUE(table.ok());
  for (int i = 0; i < 400; ++i) ASSERT_TRUE((*table)->Insert(KvRow(i)).ok());
  ASSERT_TRUE((*table)->MergeAll().ok());
  for (int i = 400; i < 450; ++i) {
    ASSERT_TRUE((*table)->Insert(KvRow(i)).ok());  // delta portion
  }

  // v BETWEEN 100 AND 430 AND tag = 'tag_2'
  std::vector<Predicate> conjuncts{
      Predicate::Between("v", Value(int64_t{100}), Value(int64_t{430})),
      Predicate::Eq("tag", Value(std::string("tag_2")))};
  auto count = (*table)->CountWhere(conjuncts);
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  uint64_t expect = 0;
  for (int i = 100; i <= 430; ++i) {
    if (i % 7 == 2) ++expect;
  }
  EXPECT_EQ(*count, expect);

  auto rows = (*table)->Run({.where = conjuncts, .select = {"v"}});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->result.rows.size(), expect);
  for (const auto& row : rows->result.rows) {
    int64_t v = row[0].AsInt64();
    EXPECT_GE(v, 100);
    EXPECT_LE(v, 430);
    EXPECT_EQ(v % 7, 2);
  }

  // Three conjuncts including a prefix and an IN-list.
  std::vector<Predicate> three{
      Predicate::Prefix("k", "K0001"),  // rows 100..199
      Predicate::In("tag", {Value(std::string("tag_1")),
                            Value(std::string("tag_5"))}),
      Predicate::Between("v", Value(int64_t{120}), Value(int64_t{180}))};
  auto c3 = (*table)->CountWhere(three);
  ASSERT_TRUE(c3.ok());
  expect = 0;
  for (int i = 120; i <= 180; ++i) {
    if (i % 7 == 1 || i % 7 == 5) ++expect;
  }
  EXPECT_EQ(*c3, expect);

  // Conjunct order must not change the result.
  std::reverse(three.begin(), three.end());
  auto c3r = (*table)->CountWhere(three);
  ASSERT_TRUE(c3r.ok());
  EXPECT_EQ(*c3r, expect);

  // Empty conjunct list is rejected; unknown column is rejected.
  EXPECT_FALSE((*table)->CountWhere({}).ok());
  EXPECT_FALSE(
      (*table)->CountWhere({Predicate::Eq("zzz", Value(int64_t{1}))}).ok());
}

// ---------------------------------------------------------------------------
// Delta inverted index
// ---------------------------------------------------------------------------

TEST_F(IntegrationTest, DeltaIndexAnswersWithoutScan) {
  DeltaFragment delta(ValueType::kInt64);
  delta.EnableIndex();
  EXPECT_TRUE(delta.has_index());
  for (int i = 0; i < 1000; ++i) {
    delta.Append(Value(int64_t{i % 13}));
  }
  std::vector<RowPos> rows;
  delta.FindRows(Value(int64_t{4}), &rows);
  std::vector<RowPos> expect;
  for (RowPos r = 0; r < 1000; ++r) {
    if (r % 13 == 4) expect.push_back(r);
  }
  EXPECT_EQ(rows, expect);
  // Clear keeps the index enabled and consistent for reuse.
  delta.Clear();
  delta.Append(Value(int64_t{7}));
  rows.clear();
  delta.FindRows(Value(int64_t{7}), &rows);
  EXPECT_EQ(rows, (std::vector<RowPos>{0}));
}

TEST_F(IntegrationTest, IndexedAndUnindexedDeltaAgree) {
  DeltaFragment indexed(ValueType::kString), plain(ValueType::kString);
  indexed.EnableIndex();
  Random rng(77);
  for (int i = 0; i < 500; ++i) {
    Value v(std::string("s" + std::to_string(rng.Uniform(20))));
    indexed.Append(v);
    plain.Append(v);
  }
  for (int probe = 0; probe < 20; ++probe) {
    Value v(std::string("s" + std::to_string(probe)));
    std::vector<RowPos> a, b;
    indexed.FindRows(v, &a);
    plain.FindRows(v, &b);
    EXPECT_EQ(a, b) << "probe " << probe;
  }
}

// ---------------------------------------------------------------------------
// Concurrency under aggressive eviction
// ---------------------------------------------------------------------------

TEST_F(IntegrationTest, ConcurrentQueriesUnderEvictionPressure) {
  auto options = Options();
  // Pool so small that pages churn constantly while queries run.
  options.paged_pool_limits = {32 * 1024, 64 * 1024};
  auto store = ColumnStore::Open(options);
  ASSERT_TRUE(store.ok());
  auto table = (*store)->CreateTable(KvSchema("t", true));
  ASSERT_TRUE(table.ok());
  for (int i = 0; i < 3000; ++i) ASSERT_TRUE((*table)->Insert(KvRow(i)).ok());
  ASSERT_TRUE((*table)->MergeAll().ok());
  (*table)->UnloadAll();

  std::atomic<int> failures{0};
  auto worker = [&](int seed) {
    Random rng(seed);
    for (int q = 0; q < 150; ++q) {
      int i = static_cast<int>(rng.Uniform(3000));
      auto r = (*table)->SelectByValue("k", KvRow(i)[0], {"v", "tag"});
      if (!r.ok() || r->rows.size() != 1 ||
          r->rows[0][0].AsInt64() != i ||
          r->rows[0][1].AsString() != "tag_" + std::to_string(i % 7)) {
        ++failures;
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) threads.emplace_back(worker, 1000 + t);
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  // The proactive sweeper was actually exercising the pool meanwhile.
  (*store)->resource_manager().SweepNow();
  EXPECT_LE((*store)->resource_manager().pool_bytes(PoolId::kPagedPool),
            options.paged_pool_limits.upper);
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

TEST_F(IntegrationTest, CorruptDataVectorPageSurfacesAsCorruption) {
  auto store = ColumnStore::Open(Options());
  ASSERT_TRUE(store.ok());
  auto table = (*store)->CreateTable(KvSchema("t", true));
  ASSERT_TRUE(table.ok());
  for (int i = 0; i < 2000; ++i) ASSERT_TRUE((*table)->Insert(KvRow(i)).ok());
  ASSERT_TRUE((*table)->MergeAll().ok());
  (*table)->UnloadAll();

  // Flip bytes in the middle of the v-column data vector chain.
  std::string victim;
  for (auto& e : std::filesystem::directory_iterator(dir_)) {
    std::string f = e.path().filename().string();
    if (f.find("_c1_") != std::string::npos && f.size() > 3 &&
        f.substr(f.size() - 3) == ".dv") {
      victim = e.path().string();
    }
  }
  ASSERT_FALSE(victim.empty());
  {
    FILE* f = std::fopen(victim.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 8192 + 200, SEEK_SET), 0);  // page 1 payload
    for (int i = 0; i < 16; ++i) std::fputc(0x5A, f);
    std::fclose(f);
  }

  // A full scan over the corrupted column must fail loudly, not return
  // wrong data.
  auto r = (*table)->CountByValue("v", Value(int64_t{123}));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption()) << r.status().ToString();
}

TEST_F(IntegrationTest, TruncatedChainSurfacesAsError) {
  auto store = ColumnStore::Open(Options());
  ASSERT_TRUE(store.ok());
  auto table = (*store)->CreateTable(KvSchema("t", true));
  ASSERT_TRUE(table.ok());
  for (int i = 0; i < 2000; ++i) ASSERT_TRUE((*table)->Insert(KvRow(i)).ok());
  ASSERT_TRUE((*table)->MergeAll().ok());
  (*table)->UnloadAll();

  std::string victim;
  for (auto& e : std::filesystem::directory_iterator(dir_)) {
    std::string f = e.path().filename().string();
    if (f.find("_c1_") != std::string::npos && f.size() > 3 &&
        f.substr(f.size() - 3) == ".dv") {
      victim = e.path().string();
    }
  }
  ASSERT_FALSE(victim.empty());
  std::filesystem::resize_file(victim, 8192);  // only the meta page remains

  auto r = (*table)->CountByValue("v", Value(int64_t{42}));
  EXPECT_FALSE(r.ok());
}

// ---------------------------------------------------------------------------
// Randomized reference-model equivalence
// ---------------------------------------------------------------------------

// The oracle's table: a unique indexed string key, a low-cardinality int, a
// string tag and the temperature column aging keys on. Every path a query
// can take — Table::Run serial and parallel, the named forms, RunBatch, and
// the server — must answer what a naive row store answers.
TableSchema ModelSchema(bool paged) {
  TableSchema schema = KvSchema("t", paged);
  schema.columns.push_back({"day", ValueType::kInt64, paged, false, false});
  schema.temperature_column = 3;
  return schema;
}

const char* const kModelColumns[] = {"k", "v", "tag", "day"};
constexpr int kK = 0, kTag = 2;  // the string columns

std::string Key(int i) { return KvRow(i)[0].AsString(); }

// A naive row-store model of the same table.
struct ReferenceModel {
  std::vector<std::vector<Value>> rows;

  static bool Matches(const Predicate& p, const Value& v) {
    switch (p.op) {
      case Predicate::Op::kEq:
        return v == p.value;
      case Predicate::Op::kBetween:
        return v.Compare(p.lo) >= 0 && v.Compare(p.hi) <= 0;
      case Predicate::Op::kIn:
        return std::find(p.values.begin(), p.values.end(), v) !=
               p.values.end();
      case Predicate::Op::kPrefix:
        return v.AsString().rfind(p.prefix, 0) == 0;
    }
    return false;
  }

  bool RowMatches(const TableSchema& schema, const std::vector<Value>& row,
                  const std::vector<Predicate>& where) const {
    for (const Predicate& p : where) {
      const int col = schema.ColumnIndex(p.column);
      if (!Matches(p, row[col])) return false;
    }
    return true;
  }

  // Matching rows projected to `select` (empty = all), as a sorted multiset.
  std::vector<std::vector<Value>> Select(const TableSchema& schema,
                                         const Query& q) const {
    std::vector<std::vector<Value>> out;
    for (const auto& row : rows) {
      if (!RowMatches(schema, row, q.where)) continue;
      if (q.select.empty()) {
        out.push_back(row);
        continue;
      }
      std::vector<Value> projected;
      for (const std::string& c : q.select) {
        projected.push_back(row[schema.ColumnIndex(c)]);
      }
      out.push_back(std::move(projected));
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  double Sum(const TableSchema& schema, const Query& q) const {
    const int col = schema.ColumnIndex(q.sum_column);
    int64_t sum = 0;
    for (const auto& row : rows) {
      if (RowMatches(schema, row, q.where)) sum += row[col].AsInt64();
    }
    return static_cast<double>(sum);
  }
};

// Random queries over the model's current rows: 1–3 conjuncts (Eq,
// Between, IN with duplicates and absent values, prefixes on the string
// columns), each ending in a random aggregate.
class QueryGen {
 public:
  QueryGen(Random* rng, const ReferenceModel* model, int next_key)
      : rng_(rng), model_(model), next_key_(next_key) {}

  Query Next() {
    Query q;
    const uint64_t conjuncts = 1 + rng_->Uniform(3);
    for (uint64_t i = 0; i < conjuncts; ++i) q.where.push_back(Conjunct());
    switch (rng_->Uniform(4)) {
      case 0: {
        q.aggregate = Aggregate::kRows;
        const uint64_t n = rng_->Uniform(4);  // 0 = SELECT *
        for (uint64_t i = 0; i < n; ++i) {
          q.select.push_back(kModelColumns[rng_->Uniform(4)]);
        }
        break;
      }
      case 1:
        q.aggregate = Aggregate::kCount;
        break;
      case 2:
        q.aggregate = Aggregate::kRowIds;
        break;
      default:
        q.aggregate = Aggregate::kSum;
        q.sum_column = rng_->Uniform(2) == 0 ? "v" : "day";
        break;
    }
    return q;
  }

  // A value of column `col`: usually one a row holds, sometimes one none
  // does.
  Value ValueOf(int col) {
    if (model_->rows.empty() || rng_->Uniform(5) == 0) {
      switch (col) {
        case kK:
          return Value(Key(next_key_ + 1 + static_cast<int>(rng_->Uniform(9))));
        case kTag:
          return Value(std::string("tag_9"));
        default:
          return Value(int64_t{-1} - static_cast<int64_t>(rng_->Uniform(5)));
      }
    }
    return model_->rows[rng_->Uniform(model_->rows.size())][col];
  }

 private:
  Predicate Conjunct() {
    const int col = static_cast<int>(rng_->Uniform(4));
    const std::string name = kModelColumns[col];
    const bool is_string = col == kK || col == kTag;
    switch (rng_->Uniform(is_string ? 4 : 3)) {
      case 0:
        return Predicate::Eq(name, ValueOf(col));
      case 1: {
        Value lo = ValueOf(col), hi = ValueOf(col);
        // Mostly ordered bounds; an inverted pair matches nothing.
        if (rng_->Uniform(6) != 0 && hi.Compare(lo) < 0) std::swap(lo, hi);
        return Predicate::Between(name, lo, hi);
      }
      case 2: {
        std::vector<Value> values;
        const uint64_t n = 1 + rng_->Uniform(4);
        for (uint64_t i = 0; i < n; ++i) values.push_back(ValueOf(col));
        if (rng_->Uniform(2) == 0) values.push_back(values.front());
        return Predicate::In(name, values);
      }
      default: {
        std::string prefix = ValueOf(col).AsString();
        prefix.resize(rng_->Uniform(prefix.size() + 1));
        if (rng_->Uniform(8) == 0) prefix = "Z";  // matches nothing
        return Predicate::Prefix(name, prefix);
      }
    }
  }

  Random* rng_;
  const ReferenceModel* model_;
  int next_key_;
};

// The wire requests that carry `q`: the single-conjunct opcode for its
// predicate and aggregate, if there is one, and the conjunct-list opcode.
std::vector<server::wire::Request> WireForms(const Query& q) {
  using server::wire::Op;
  using server::wire::Request;
  std::vector<Request> out;
  auto add = [&out](Request r) {
    r.table = "t";
    out.push_back(std::move(r));
  };
  if (q.where.size() == 1) {
    const Predicate& p = q.where[0];
    static const Op kOps[4][4] = {
        // kRows, kCount, kRowIds, kSum
        {Op::kSelectByValue, Op::kCountByValue, Op::kRowIdsByValue, Op::kPing},
        {Op::kSelectRange, Op::kPing, Op::kPing, Op::kSumRange},
        {Op::kSelectIn, Op::kCountIn, Op::kPing, Op::kPing},
        {Op::kSelectPrefix, Op::kCountPrefix, Op::kPing, Op::kPing}};
    const Op op = kOps[static_cast<int>(p.op)][static_cast<int>(q.aggregate)];
    if (op != Op::kPing) {
      add({.op = op,
           .column = p.column,
           .sum_column = q.sum_column,
           .value = p.value,
           .lo = p.lo,
           .hi = p.hi,
           .values = p.values,
           .prefix = p.prefix,
           .select_columns = q.select});
    }
  }
  if (q.aggregate == Aggregate::kRows) {
    add({.op = Op::kSelectWhere,
         .predicates = q.where,
         .select_columns = q.select});
  }
  if (q.aggregate == Aggregate::kCount) {
    add({.op = Op::kCountWhere, .predicates = q.where});
  }
  return out;
}

// The named Table form of `q`, when one exists.
std::optional<Result<Answer>> RunNamed(Table* t, const Query& q) {
  auto wrap = [](auto r, auto Answer::*field) -> Result<Answer> {
    if (!r.ok()) return r.status();
    Answer a;
    a.*field = std::move(*r);
    return a;
  };
  const Predicate& p = q.where[0];
  const bool single = q.where.size() == 1;
  using Op = Predicate::Op;
  switch (q.aggregate) {
    case Aggregate::kRows:
      if (single && p.op == Op::kEq) {
        return wrap(t->SelectByValue(p.column, p.value, q.select),
                    &Answer::result);
      }
      if (single && p.op == Op::kBetween) {
        return wrap(t->SelectRange(p.column, p.lo, p.hi, q.select),
                    &Answer::result);
      }
      return std::nullopt;
    case Aggregate::kCount:
      if (single && p.op == Op::kEq) {
        return wrap(t->CountByValue(p.column, p.value), &Answer::count);
      }
      if (single && p.op == Op::kIn) {
        return wrap(t->CountIn(p.column, p.values), &Answer::count);
      }
      if (single && p.op == Op::kPrefix) {
        return wrap(t->CountPrefix(p.column, p.prefix), &Answer::count);
      }
      return wrap(t->CountWhere(q.where), &Answer::count);
    case Aggregate::kSum:
      if (single && p.op == Op::kBetween) {
        return wrap(t->SumRange(p.column, p.lo, p.hi, q.sum_column),
                    &Answer::sum);
      }
      return std::nullopt;
    case Aggregate::kRowIds:
      return std::nullopt;
  }
  return std::nullopt;
}

class ReferenceModelTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  // Checks `got` (from Run) against the model; `what` names the query.
  void CheckAgainstModel(Table* table, const ReferenceModel& model,
                         const Query& q, const Answer& got,
                         const std::string& what) {
    const TableSchema& schema = table->schema();
    switch (q.aggregate) {
      case Aggregate::kRows: {
        auto have = got.result.rows;
        std::sort(have.begin(), have.end());
        EXPECT_EQ(have, model.Select(schema, q)) << what;
        break;
      }
      case Aggregate::kCount:
        EXPECT_EQ(got.count, model.Select(schema, q).size()) << what;
        break;
      case Aggregate::kSum:
        EXPECT_EQ(got.sum, model.Sum(schema, q)) << what;
        break;
      case Aggregate::kRowIds: {
        Query all = q;
        all.select.clear();
        const auto want = model.Select(schema, all);
        ASSERT_EQ(got.row_ids.size(), want.size()) << what;
        // Partition order, then row order: strictly ascending ids, each
        // naming a visible row that satisfies every conjunct.
        std::vector<std::vector<Value>> rows;
        for (size_t i = 0; i < got.row_ids.size(); ++i) {
          const RowId id = got.row_ids[i];
          if (i > 0) {
            const RowId prev = got.row_ids[i - 1];
            EXPECT_TRUE(prev.partition < id.partition ||
                        (prev.partition == id.partition && prev.row < id.row))
                << what << ": row ids out of order at " << i;
          }
          ASSERT_LT(id.partition, table->partition_count()) << what;
          Partition* part = table->partition(id.partition);
          EXPECT_TRUE(part->IsVisible(id.row)) << what;
          auto row = part->GetRow(id.row);
          ASSERT_TRUE(row.ok()) << what << ": " << row.status().ToString();
          rows.push_back(std::move(*row));
        }
        std::sort(rows.begin(), rows.end());
        EXPECT_EQ(rows, want) << what;
        break;
      }
    }
  }
};

TEST_P(ReferenceModelTest, RandomOpsMatchModel) {
  std::string dir = ::testing::TempDir() + "/payg_model_" +
                    std::to_string(GetParam());
  std::filesystem::remove_all(dir);
  ColumnStoreOptions options;
  options.directory = dir + "/data";
  options.storage.page_size = 8192;
  options.storage.dict_page_size = 16 * 1024;
  auto store = ColumnStore::Open(options);
  ASSERT_TRUE(store.ok());
  // Odd seeds use page loadable columns, even seeds fully resident: the
  // model must hold for both.
  auto created = (*store)->CreateTable(ModelSchema(GetParam() % 2 == 1));
  ASSERT_TRUE(created.ok());
  Table* table = *created;

  server::ServerOptions server_options;
  server_options.unix_path = dir + "/sock";
  server_options.stats_dir = dir + "/stats";
  server_options.worker_threads = 2;
  server::Server server(store->get(), server_options);
  ASSERT_TRUE(server.Start().ok());
  auto client = server::Client::ConnectUnix(server_options.unix_path);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  Random rng(GetParam());
  ReferenceModel model;
  int next_key = 0;
  int64_t max_day = 0;
  int queries = 0;
  for (int step = 0; step < 400; ++step) {
    const uint64_t op = rng.Uniform(20);
    if (op < 9 || model.rows.empty()) {
      // Insert.
      const int i = next_key++;
      max_day = i / 8;
      std::vector<Value> row = {
          Value(Key(i)), Value(static_cast<int64_t>(rng.Uniform(24))),
          Value("tag_" + std::to_string(rng.Uniform(7))), Value(max_day)};
      ASSERT_TRUE(table->Insert(row).ok());
      model.rows.push_back(std::move(row));
      continue;
    }
    if (op < 10) {
      ASSERT_TRUE(table->MergeAll().ok());
      continue;
    }
    if (op < 11) {
      // Age the oldest rows into a cold partition; they stay visible.
      if (table->partition_count() < 2 || rng.Uniform(3) == 0) {
        ASSERT_TRUE(table->AddColdPartition().ok());
      }
      const int64_t threshold =
          static_cast<int64_t>(rng.Uniform(static_cast<uint64_t>(max_day) + 1));
      ASSERT_TRUE(table->AgeRows(Value(threshold)).ok());
      continue;
    }

    QueryGen gen(&rng, &model, next_key);
    const Query q = gen.Next();
    const std::string what = "step " + std::to_string(step) + " query " +
                             std::to_string(queries++);
    table->set_exec_options(ExecOptions{/*worker_threads=*/0});
    auto serial = table->Run(q);
    ASSERT_TRUE(serial.ok()) << what << ": " << serial.status().ToString();
    CheckAgainstModel(table, model, q, *serial, what);

    table->set_exec_options(ExecOptions{/*worker_threads=*/4});
    auto parallel = table->Run(q);
    table->set_exec_options(ExecOptions{/*worker_threads=*/0});
    ASSERT_TRUE(parallel.ok()) << what << ": " << parallel.status().ToString();
    EXPECT_EQ(*parallel, *serial) << what << " (parallel)";

    if (auto named = RunNamed(table, q)) {
      ASSERT_TRUE(named->ok()) << what << ": " << named->status().ToString();
      EXPECT_EQ(**named, *serial) << what << " (named form)";
    }

    for (const server::wire::Request& req : WireForms(q)) {
      auto resp = (*client)->Call(req);
      ASSERT_TRUE(resp.ok()) << what << ": " << resp.status().ToString();
      EXPECT_EQ(static_cast<const Answer&>(*resp), *serial)
          << what << " (wire op " << static_cast<int>(req.op) << ")";
    }

    // Same-column Eq probes, batched: the query's first Eq conjunct as a
    // rows or count shape, probed with its own value, other values of the
    // column (present and absent) and a duplicate. Element i answers probe
    // i; element 0 is exactly Run's answer.
    for (const Predicate& p : q.where) {
      if (p.op != Predicate::Op::kEq) continue;
      Query shape{.where = {p},
                  .select = q.select,
                  .aggregate = q.aggregate == Aggregate::kRows
                                   ? Aggregate::kRows
                                   : Aggregate::kCount};
      const int col = table->schema().ColumnIndex(p.column);
      std::vector<Value> probes = {p.value};
      for (uint64_t i = rng.Uniform(4); i > 0; --i) {
        probes.push_back(gen.ValueOf(col));
      }
      probes.push_back(p.value);
      auto batch = table->RunBatch(shape, probes);
      ASSERT_TRUE(batch.ok()) << what << ": " << batch.status().ToString();
      ASSERT_EQ(batch->size(), probes.size()) << what;
      auto single = table->Run(shape);
      ASSERT_TRUE(single.ok()) << what << ": " << single.status().ToString();
      EXPECT_EQ((*batch)[0], *single) << what << " (batch)";
      for (size_t i = 0; i < probes.size(); ++i) {
        shape.where[0].value = probes[i];
        CheckAgainstModel(table, model, shape, (*batch)[i],
                          what + " (batch probe " + std::to_string(i) + ")");
      }
      break;
    }
  }
  EXPECT_GE(queries, 100);

  // Final full verification after a merge: every row, by key and in full.
  ASSERT_TRUE(table->MergeAll().ok());
  const Query all{.where = {Predicate::Prefix("k", "")}};
  auto everything = table->Run(all);
  ASSERT_TRUE(everything.ok());
  CheckAgainstModel(table, model, all, *everything, "final");
  EXPECT_EQ(everything->result.rows.size(), model.rows.size());

  client->reset();
  server.Stop();
  store->reset();
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReferenceModelTest,
                         ::testing::Range<uint64_t>(1, 9));

}  // namespace
}  // namespace payg
