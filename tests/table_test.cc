#include <gtest/gtest.h>

#include <filesystem>

#include "buffer/resource_manager.h"
#include "common/random.h"
#include "table/table.h"

namespace payg {
namespace {

TableSchema OrdersSchema(bool paged_cold_columns,
                         const std::string& name = "orders") {
  TableSchema schema;
  schema.name = name;
  schema.columns.push_back({"id", ValueType::kString, paged_cold_columns,
                            /*with_index=*/true, /*primary_key=*/true});
  schema.columns.push_back(
      {"aging_date", ValueType::kInt64, paged_cold_columns, false, false});
  schema.columns.push_back(
      {"status", ValueType::kString, paged_cold_columns, false, false});
  schema.columns.push_back(
      {"amount", ValueType::kInt64, paged_cold_columns, false, false});
  schema.temperature_column = 1;
  return schema;
}

std::vector<Value> OrderRow(uint64_t id, int64_t date,
                            const std::string& status, int64_t amount) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "ORD%08llu",
                static_cast<unsigned long long>(id));
  return {Value(std::string(buf)), Value(date), Value(status), Value(amount)};
}

class TableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/payg_table_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::remove_all(dir_);
    StorageOptions opts;
    opts.page_size = 8192;
    opts.dict_page_size = 8192;
    auto sm = StorageManager::Open(dir_, opts);
    ASSERT_TRUE(sm.ok());
    storage_ = std::move(*sm);
    rm_ = std::make_unique<ResourceManager>();
  }

  void TearDown() override {
    storage_.reset();
    std::filesystem::remove_all(dir_);
  }

  std::unique_ptr<Table> MakeOrders(bool paged, int rows,
                                    const std::string& name = "orders") {
    auto table = std::make_unique<Table>(OrdersSchema(paged, name),
                                         storage_.get(), rm_.get());
    for (int i = 0; i < rows; ++i) {
      EXPECT_TRUE(table
                      ->Insert(OrderRow(i, /*date=*/i, "S" + std::to_string(i % 5),
                                        i * 100))
                      .ok());
    }
    return table;
  }

  std::string dir_;
  std::unique_ptr<StorageManager> storage_;
  std::unique_ptr<ResourceManager> rm_;
};

TEST_F(TableTest, InsertsLandInDelta) {
  auto table = MakeOrders(false, 10);
  EXPECT_EQ(table->row_count(), 10u);
  EXPECT_EQ(table->hot()->delta_row_count(), 10u);
  EXPECT_EQ(table->hot()->main_row_count(), 0u);
}

TEST_F(TableTest, InsertValidatesShape) {
  auto table = MakeOrders(false, 0);
  EXPECT_FALSE(table->Insert({Value(int64_t{1})}).ok());  // wrong width
  EXPECT_FALSE(table
                   ->Insert({Value(int64_t{1}), Value(int64_t{2}),
                             Value(int64_t{3}), Value(int64_t{4})})
                   .ok());  // wrong type in col 0
}

TEST_F(TableTest, QueriesSeeDeltaRows) {
  auto table = MakeOrders(false, 100);
  auto count = table->CountByValue("status", Value(std::string("S3")));
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(*count, 20u);
  auto rows = table->SelectByValue("id", OrderRow(42, 0, "", 0)[0], {});
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->rows.size(), 1u);
  EXPECT_EQ(rows->rows[0][3].AsInt64(), 4200);
}

TEST_F(TableTest, MergeMovesDeltaToMain) {
  auto table = MakeOrders(false, 100);
  ASSERT_TRUE(table->MergeAll().ok());
  EXPECT_EQ(table->hot()->delta_row_count(), 0u);
  EXPECT_EQ(table->hot()->main_row_count(), 100u);
  // Queries still see everything.
  auto count = table->CountByValue("status", Value(std::string("S3")));
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 20u);
  auto rows = table->SelectByValue("id", OrderRow(42, 0, "", 0)[0], {});
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->rows.size(), 1u);
  EXPECT_EQ(rows->rows[0][3].AsInt64(), 4200);
}

TEST_F(TableTest, QueriesSpanMainAndDelta) {
  auto table = MakeOrders(false, 50);
  ASSERT_TRUE(table->MergeAll().ok());
  // New rows after the merge land in the delta again.
  for (int i = 50; i < 80; ++i) {
    ASSERT_TRUE(
        table->Insert(OrderRow(i, i, "S" + std::to_string(i % 5), i * 100))
            .ok());
  }
  auto count = table->CountByValue("status", Value(std::string("S0")));
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 16u);  // 10 in main (0..49), 6 in delta (50..79)
}

TEST_F(TableTest, SecondMergeCombinesOldMainAndNewDelta) {
  auto table = MakeOrders(false, 50);
  ASSERT_TRUE(table->MergeAll().ok());
  for (int i = 50; i < 80; ++i) {
    ASSERT_TRUE(
        table->Insert(OrderRow(i, i, "S" + std::to_string(i % 5), i * 100))
            .ok());
  }
  ASSERT_TRUE(table->MergeAll().ok());
  EXPECT_EQ(table->hot()->main_row_count(), 80u);
  for (int id : {0, 49, 50, 79}) {
    auto rows = table->SelectByValue("id", OrderRow(id, 0, "", 0)[0], {});
    ASSERT_TRUE(rows.ok());
    ASSERT_EQ(rows->rows.size(), 1u) << "id " << id;
    EXPECT_EQ(rows->rows[0][3].AsInt64(), id * 100);
  }
}

TEST_F(TableTest, RangeQueries) {
  auto table = MakeOrders(false, 200);
  ASSERT_TRUE(table->MergeAll().ok());
  auto rows = table->SelectRange("id", OrderRow(10, 0, "", 0)[0],
                                 OrderRow(19, 0, "", 0)[0], {"amount"});
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->rows.size(), 10u);
  auto sum = table->SumRange("id", OrderRow(10, 0, "", 0)[0],
                             OrderRow(19, 0, "", 0)[0], "amount");
  ASSERT_TRUE(sum.ok());
  double expect = 0;
  for (int i = 10; i <= 19; ++i) expect += i * 100;
  EXPECT_DOUBLE_EQ(*sum, expect);
}

TEST_F(TableTest, RangeQuerySpansMainAndDelta) {
  auto table = MakeOrders(false, 30);
  ASSERT_TRUE(table->MergeAll().ok());
  for (int i = 30; i < 40; ++i) {
    ASSERT_TRUE(table->Insert(OrderRow(i, i, "S0", i * 100)).ok());
  }
  auto sum = table->SumRange("id", OrderRow(25, 0, "", 0)[0],
                             OrderRow(34, 0, "", 0)[0], "amount");
  ASSERT_TRUE(sum.ok());
  double expect = 0;
  for (int i = 25; i <= 34; ++i) expect += i * 100;
  EXPECT_DOUBLE_EQ(*sum, expect);
}

TEST_F(TableTest, RowIdsByValue) {
  auto table = MakeOrders(false, 20);
  ASSERT_TRUE(table->MergeAll().ok());
  auto ids = table->Run(
      {.where = {Predicate::Eq("id", OrderRow(7, 0, "", 0)[0])},
       .aggregate = Aggregate::kRowIds});
  ASSERT_TRUE(ids.ok());
  ASSERT_EQ(ids->row_ids.size(), 1u);
  EXPECT_EQ(ids->row_ids[0].partition, 0u);
  EXPECT_EQ(ids->row_ids[0].row, 7u);
}

// Operands are checked against the schema before any typed compare: a
// mistyped Eq/Between/IN operand or a prefix on a numeric column is an
// InvalidArgument through Run and through the named forms, over merged
// mains and delta rows alike.
TEST_F(TableTest, MistypedOperandsAreInvalidArgument) {
  auto table = MakeOrders(true, 50);
  ASSERT_TRUE(table->MergeAll().ok());
  for (int i = 50; i < 60; ++i) {
    ASSERT_TRUE(table->Insert(OrderRow(i, i, "S0", i)).ok());
  }
  const Value text(std::string("x"));
  const Value number(int64_t{3});
  const std::vector<Predicate> bad = {
      Predicate::Eq("aging_date", text),
      Predicate::Between("aging_date", number, text),
      Predicate::In("status", {Value(std::string("S1")), number}),
      Predicate::Prefix("amount", "1")};
  for (const Predicate& pred : bad) {
    for (Aggregate aggregate : {Aggregate::kRows, Aggregate::kCount,
                                Aggregate::kRowIds}) {
      auto r = table->Run({.where = {pred}, .aggregate = aggregate});
      ASSERT_FALSE(r.ok()) << pred.column;
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
          << pred.column;
    }
    // As a narrowing conjunct too.
    auto narrowed = table->Run(
        {.where = {Predicate::Between("aging_date", number, Value(int64_t{40})),
                   pred},
         .aggregate = Aggregate::kCount});
    EXPECT_EQ(narrowed.status().code(), StatusCode::kInvalidArgument)
        << pred.column;
    EXPECT_EQ(table->CountWhere({pred}).status().code(),
              StatusCode::kInvalidArgument)
        << pred.column;
  }
  EXPECT_EQ(table->CountByValue("aging_date", text).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(table->SelectByValue("amount", text, {}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(table->SelectRange("aging_date", text, number, {}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      table->SumRange("aging_date", number, Value(2.5), "amount")
          .status()
          .code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(table->CountIn("aging_date", {number, text}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(table->CountPrefix("amount", "1").status().code(),
            StatusCode::kInvalidArgument);
  // Aging compares the temperature column against the threshold.
  ASSERT_TRUE(table->AddColdPartition().ok());
  EXPECT_EQ(table->AgeRows(text).status().code(),
            StatusCode::kInvalidArgument);
  // The shape errors: no conjunct, unknown columns, SUM over a string.
  EXPECT_EQ(table->Run({}).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(table->Run({.where = {Predicate::Eq("nope", number)}})
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(table->Run({.where = {Predicate::Eq("amount", number)},
                        .select = {"nope"}})
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(table->SumRange("aging_date", number, number, "status")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // Well-typed queries still run.
  auto ok = table->CountByValue("amount", Value(int64_t{4900}));
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(*ok, 1u);
}

TEST_F(TableTest, AgingMovesRowsToColdPartition) {
  auto table = MakeOrders(false, 100);
  ASSERT_TRUE(table->MergeAll().ok());
  ASSERT_TRUE(table->AddColdPartition().ok());
  // Age rows with date <= 39 (the 40 oldest).
  auto moved = table->AgeRows(Value(int64_t{39}));
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  EXPECT_EQ(*moved, 40u);
  // The move is ordinary DML: rows sit in the cold delta, hot rows are
  // deletion-marked, and total visible rows stay constant.
  EXPECT_EQ(table->partition(1)->delta_row_count(), 40u);
  EXPECT_EQ(table->hot()->visible_row_count(), 60u);
  EXPECT_EQ(table->visible_row_count(), 100u);
  // Queries still return exactly one row per id, even mid-move.
  auto rows = table->SelectByValue("id", OrderRow(5, 0, "", 0)[0], {});
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->rows.size(), 1u);
  EXPECT_EQ(rows->rows[0][3].AsInt64(), 500);
}

TEST_F(TableTest, AgingThenMergePersistsColdMain) {
  auto table = MakeOrders(true, 100);  // page loadable columns
  ASSERT_TRUE(table->MergeAll().ok());
  ASSERT_TRUE(table->AddColdPartition().ok());
  ASSERT_TRUE(table->AgeRows(Value(int64_t{49})).ok());
  ASSERT_TRUE(table->MergeAll().ok());
  // Hot kept 50 visible rows, cold got 50, deltas are empty.
  EXPECT_EQ(table->hot()->main_row_count(), 50u);
  EXPECT_EQ(table->partition(1)->main_row_count(), 50u);
  EXPECT_EQ(table->partition(1)->delta_row_count(), 0u);
  // Cold rows are served from page loadable main fragments.
  EXPECT_TRUE(table->partition(1)->main(0)->is_paged());
  for (int id : {0, 49, 50, 99}) {
    auto rows = table->SelectByValue("id", OrderRow(id, 0, "", 0)[0], {});
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    ASSERT_EQ(rows->rows.size(), 1u) << "id " << id;
    EXPECT_EQ(rows->rows[0][3].AsInt64(), id * 100);
  }
  // Cold pages go to the cold paged pool.
  EXPECT_GT(rm_->pool_bytes(PoolId::kColdPagedPool), 0u);
}

TEST_F(TableTest, AgingRequiresColdPartition) {
  auto table = MakeOrders(false, 10);
  auto moved = table->AgeRows(Value(int64_t{5}));
  EXPECT_FALSE(moved.ok());
  EXPECT_EQ(moved.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(TableTest, AgingRequiresTemperatureColumn) {
  TableSchema schema;
  schema.name = "noage";
  schema.columns.push_back({"k", ValueType::kInt64, false, false, true});
  Table table(schema, storage_.get(), rm_.get());
  ASSERT_TRUE(table.AddColdPartition().ok());
  auto moved = table.AgeRows(Value(int64_t{5}));
  EXPECT_FALSE(moved.ok());
}

TEST_F(TableTest, DeletedRowsAreInvisibleAndCompactedByMerge) {
  auto table = MakeOrders(false, 10);
  ASSERT_TRUE(table->MergeAll().ok());
  ASSERT_TRUE(table->hot()->MarkDeleted(3).ok());
  ASSERT_TRUE(table->hot()->MarkDeleted(7).ok());
  EXPECT_EQ(table->visible_row_count(), 8u);
  auto rows = table->SelectByValue("id", OrderRow(3, 0, "", 0)[0], {});
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->rows.empty());
  ASSERT_TRUE(table->MergeAll().ok());
  EXPECT_EQ(table->hot()->main_row_count(), 8u);
  EXPECT_EQ(table->visible_row_count(), 8u);
  // Survivors keep their values.
  auto r4 = table->SelectByValue("id", OrderRow(4, 0, "", 0)[0], {});
  ASSERT_TRUE(r4.ok());
  ASSERT_EQ(r4->rows.size(), 1u);
  EXPECT_EQ(r4->rows[0][3].AsInt64(), 400);
}

TEST_F(TableTest, PagedVariantAnswersSameAsBase) {
  auto base = MakeOrders(false, 300, "orders_b");
  auto paged = MakeOrders(true, 300, "orders_p");
  ASSERT_TRUE(base->MergeAll().ok());
  ASSERT_TRUE(paged->MergeAll().ok());
  Random rng(3);
  for (int i = 0; i < 20; ++i) {
    int id = static_cast<int>(rng.Uniform(300));
    auto a = base->SelectByValue("id", OrderRow(id, 0, "", 0)[0], {});
    auto b = paged->SelectByValue("id", OrderRow(id, 0, "", 0)[0], {});
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a->rows.size(), 1u);
    ASSERT_EQ(b->rows.size(), 1u);
    for (size_t c = 0; c < a->rows[0].size(); ++c) {
      EXPECT_TRUE(a->rows[0][c] == b->rows[0][c]);
    }
  }
}

TEST_F(TableTest, UnloadAllReleasesMemory) {
  auto table = MakeOrders(true, 500);
  ASSERT_TRUE(table->MergeAll().ok());
  auto rows = table->SelectByValue("id", OrderRow(100, 0, "", 0)[0], {});
  ASSERT_TRUE(rows.ok());
  EXPECT_GT(table->ResidentBytes(), 0u);
  table->UnloadAll();
  EXPECT_EQ(table->ResidentBytes(), 0u);
  // Still queryable afterwards.
  auto again = table->SelectByValue("id", OrderRow(100, 0, "", 0)[0], {});
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(again->rows.size(), 1u);
}

TEST_F(TableTest, SelectColumnsSubset) {
  auto table = MakeOrders(false, 10);
  ASSERT_TRUE(table->MergeAll().ok());
  auto rows =
      table->SelectByValue("id", OrderRow(5, 0, "", 0)[0], {"amount", "status"});
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->rows.size(), 1u);
  ASSERT_EQ(rows->rows[0].size(), 2u);
  EXPECT_EQ(rows->rows[0][0].AsInt64(), 500);
  EXPECT_EQ(rows->rows[0][1].AsString(), "S0");
}

TEST_F(TableTest, UnknownColumnsAreRejected) {
  auto table = MakeOrders(false, 5);
  EXPECT_FALSE(table->CountByValue("nope", Value(int64_t{1})).ok());
  EXPECT_FALSE(
      table->SelectByValue("id", Value(std::string("x")), {"nope"}).ok());
  EXPECT_FALSE(table
                   ->SumRange("id", Value(std::string("a")),
                              Value(std::string("b")), "status")
                   .ok());  // SUM over string
}

TEST_F(TableTest, MergeVacuumsReplacedChains) {
  auto table = MakeOrders(true, 50, "vac");
  ASSERT_TRUE(table->MergeAll().ok());
  auto count_files = [&] {
    size_t n = 0;
    for (auto& e : std::filesystem::directory_iterator(dir_)) {
      if (e.path().filename().string().rfind("vac_", 0) == 0) ++n;
    }
    return n;
  };
  size_t after_first = count_files();
  ASSERT_GT(after_first, 0u);
  // More inserts and repeated merges must not accumulate chain files: each
  // merge replaces and vacuums the previous generation.
  for (int gen = 0; gen < 3; ++gen) {
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(
          table->Insert(OrderRow(1000 + gen * 10 + i, i, "S1", i)).ok());
    }
    ASSERT_TRUE(table->MergeAll().ok());
  }
  EXPECT_EQ(count_files(), after_first);
}

TEST_F(TableTest, DeferredIndexColumnThroughTable) {
  TableSchema schema;
  schema.name = "lazy";
  schema.columns.push_back({"k", ValueType::kString, true, true, true});
  schema.columns.push_back({.name = "v",
                            .type = ValueType::kInt64,
                            .page_loadable = true,
                            .with_index = true,
                            .primary_key = false,
                            .defer_index = true});
  Table table(schema, storage_.get(), rm_.get());
  for (int i = 0; i < 200; ++i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "K%04d", i);
    ASSERT_TRUE(
        table.Insert({Value(std::string(buf)), Value(int64_t{i % 10})}).ok());
  }
  ASSERT_TRUE(table.MergeAll().ok());
  EXPECT_FALSE(table.hot()->main(1)->has_index());
  // The first value lookup triggers the workload-driven rebuild.
  auto count = table.CountByValue("v", Value(int64_t{3}));
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 20u);
  EXPECT_TRUE(table.hot()->main(1)->has_index());
}

TEST_F(TableTest, MultipleColdPartitionsAgeIncrementally) {
  auto table = MakeOrders(true, 90);
  ASSERT_TRUE(table->MergeAll().ok());
  // First aging wave into cold partition 1.
  ASSERT_TRUE(table->AddColdPartition().ok());
  auto moved1 = table->AgeRows(Value(int64_t{29}));
  ASSERT_TRUE(moved1.ok());
  EXPECT_EQ(*moved1, 30u);
  ASSERT_TRUE(table->MergeAll().ok());
  // Second wave into a NEW cold partition (AgeRows targets the newest).
  ASSERT_TRUE(table->AddColdPartition().ok());
  auto moved2 = table->AgeRows(Value(int64_t{59}));
  ASSERT_TRUE(moved2.ok());
  EXPECT_EQ(*moved2, 30u);
  ASSERT_TRUE(table->MergeAll().ok());

  EXPECT_EQ(table->partition_count(), 3u);
  EXPECT_EQ(table->hot()->main_row_count(), 30u);
  EXPECT_EQ(table->partition(1)->main_row_count(), 30u);
  EXPECT_EQ(table->partition(2)->main_row_count(), 30u);
  // Every row remains reachable exactly once.
  for (int id = 0; id < 90; id += 7) {
    auto rows = table->SelectByValue("id", OrderRow(id, 0, "", 0)[0], {});
    ASSERT_TRUE(rows.ok());
    ASSERT_EQ(rows->rows.size(), 1u) << "id " << id;
  }
  // Re-aging with the same threshold moves nothing (already cold).
  auto moved3 = table->AgeRows(Value(int64_t{59}));
  ASSERT_TRUE(moved3.ok());
  EXPECT_EQ(*moved3, 0u);
}

TEST_F(TableTest, AgingMovesUnmergedDeltaRowsToo) {
  // Rows that are still in the hot delta when aging runs must move as well:
  // the aging predicate is evaluated across main AND delta (§4.2 — the move
  // is ordinary DML, independent of merge state).
  auto table = MakeOrders(true, 40);
  ASSERT_TRUE(table->MergeAll().ok());
  for (int i = 40; i < 60; ++i) {
    ASSERT_TRUE(
        table->Insert(OrderRow(i, i, "S" + std::to_string(i % 5), i * 100))
            .ok());
  }
  ASSERT_TRUE(table->AddColdPartition().ok());
  // Threshold 49 covers 40 merged rows and 10 delta rows.
  auto moved = table->AgeRows(Value(int64_t{49}));
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(*moved, 50u);
  ASSERT_TRUE(table->MergeAll().ok());
  EXPECT_EQ(table->hot()->main_row_count(), 10u);
  EXPECT_EQ(table->partition(1)->main_row_count(), 50u);
  for (int id : {0, 39, 45, 49, 50, 59}) {
    auto rows = table->SelectByValue("id", OrderRow(id, 0, "", 0)[0], {});
    ASSERT_TRUE(rows.ok());
    ASSERT_EQ(rows->rows.size(), 1u) << "id " << id;
    EXPECT_EQ(rows->rows[0][3].AsInt64(), id * 100);
  }
}

TEST_F(TableTest, SumRangeSkipsDeletedRows) {
  auto table = MakeOrders(false, 20);
  ASSERT_TRUE(table->MergeAll().ok());
  ASSERT_TRUE(table->hot()->MarkDeleted(5).ok());
  auto sum = table->SumRange("id", OrderRow(0, 0, "", 0)[0],
                             OrderRow(9, 0, "", 0)[0], "amount");
  ASSERT_TRUE(sum.ok());
  double expect = 0;
  for (int i = 0; i <= 9; ++i) {
    if (i != 5) expect += i * 100;
  }
  EXPECT_DOUBLE_EQ(*sum, expect);
}

TEST_F(TableTest, ColumnStatsView) {
  auto table = MakeOrders(true, 100);
  ASSERT_TRUE(table->MergeAll().ok());
  ASSERT_TRUE(table->AddColdPartition().ok());
  ASSERT_TRUE(table->AgeRows(Value(int64_t{49})).ok());
  ASSERT_TRUE(table->MergeAll().ok());

  auto stats = table->CollectColumnStats();
  // 2 partitions × 4 columns.
  ASSERT_EQ(stats.size(), 8u);
  uint64_t hot_rows = 0, cold_rows = 0;
  for (const auto& s : stats) {
    EXPECT_EQ(s.table, "orders");
    EXPECT_EQ(s.delta_rows, 0u);  // merged
    if (s.partition == 0) {
      EXPECT_FALSE(s.cold);
      hot_rows = s.main_rows;
    } else {
      EXPECT_TRUE(s.cold);
      cold_rows = s.main_rows;
    }
    if (s.column == "id") EXPECT_TRUE(s.has_index);
    EXPECT_GT(s.dict_size, 0u);
  }
  EXPECT_EQ(hot_rows, 50u);
  EXPECT_EQ(cold_rows, 50u);

  // After a query, the touched columns report resident bytes.
  auto r = table->SelectByValue("id", OrderRow(10, 0, "", 0)[0], {"amount"});
  ASSERT_TRUE(r.ok());
  uint64_t resident = 0;
  for (const auto& s : table->CollectColumnStats()) {
    resident += s.resident_bytes;
  }
  EXPECT_GT(resident, 0u);
}

TEST_F(TableTest, BulkLoadMatchesInsertPath) {
  TableSchema schema;
  schema.name = "bulk";
  schema.columns.push_back({"k", ValueType::kInt64, false, true, true});
  schema.columns.push_back({"v", ValueType::kInt64, true, false, false});
  Table table(schema, storage_.get(), rm_.get());
  std::vector<Value> dict_k, dict_v;
  for (int64_t i = 0; i < 100; ++i) dict_k.emplace_back(i);
  for (int64_t i = 0; i < 10; ++i) dict_v.emplace_back(i * 5);
  std::vector<ValueId> vids_k, vids_v;
  for (ValueId i = 0; i < 100; ++i) {
    vids_k.push_back(i);
    vids_v.push_back(i % 10);
  }
  ASSERT_TRUE(table.hot()->BulkLoadColumn(0, dict_k, vids_k).ok());
  ASSERT_TRUE(table.hot()->BulkLoadColumn(1, dict_v, vids_v).ok());
  EXPECT_EQ(table.row_count(), 100u);
  auto rows = table.SelectByValue("k", Value(int64_t{42}), {"v"});
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->rows.size(), 1u);
  EXPECT_EQ(rows->rows[0][0].AsInt64(), (42 % 10) * 5);
}

// S25 multi-probe path: element i of RunBatch must equal Run with the i-th
// probe, for the rows and the count aggregate, over a table with a paged
// main, a cold partition and live delta rows. The CI codec matrix re-runs
// this test with PAYG_FORCE_CODEC=plain/for/rle, which is what proves
// equivalence on all three codecs (the knob is parsed once per process).
TEST_F(TableTest, RunBatchMatchesIndividualRuns) {
  auto table = MakeOrders(true, 300);
  ASSERT_TRUE(table->MergeAll().ok());
  ASSERT_TRUE(table->AddColdPartition().ok());
  ASSERT_TRUE(table->AgeRows(Value(int64_t{99})).ok());
  ASSERT_TRUE(table->MergeAll().ok());
  // Fresh delta rows on top of both mains.
  for (int i = 300; i < 330; ++i) {
    ASSERT_TRUE(
        table->Insert(OrderRow(i, i, "S" + std::to_string(i % 5), i * 100))
            .ok());
  }

  // Duplicates, absent values and an indexed unique column probe mix.
  std::vector<Value> probes;
  for (const char* s : {"S3", "S0", "S3", "S9", "S4", "S1", "S0"}) {
    probes.emplace_back(std::string(s));
  }
  for (Aggregate aggregate : {Aggregate::kRows, Aggregate::kCount}) {
    Query shape{.where = {Predicate::Eq("status", Value())},
                .select = {"id", "amount"},
                .aggregate = aggregate};
    auto batch = table->RunBatch(shape, probes);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    ASSERT_EQ(batch->size(), probes.size());
    for (size_t i = 0; i < probes.size(); ++i) {
      shape.where[0].value = probes[i];
      auto single = table->Run(shape);
      ASSERT_TRUE(single.ok()) << single.status().ToString();
      EXPECT_EQ((*batch)[i], *single) << "probe " << i;
    }
  }

  // The unique indexed column works through the same path.
  std::vector<Value> id_probes = {OrderRow(7, 0, "", 0)[0],
                                  OrderRow(310, 0, "", 0)[0],
                                  OrderRow(7, 0, "", 0)[0],
                                  Value(std::string("ORD99999999"))};
  auto by_id = table->RunBatch(
      {.where = {Predicate::Eq("id", Value())}, .select = {"amount"}},
      id_probes);
  ASSERT_TRUE(by_id.ok()) << by_id.status().ToString();
  ASSERT_EQ((*by_id)[0].result.rows.size(), 1u);
  EXPECT_EQ((*by_id)[0].result.rows[0][0].AsInt64(), 700);
  ASSERT_EQ((*by_id)[1].result.rows.size(), 1u);
  EXPECT_EQ((*by_id)[1].result.rows[0][0].AsInt64(), 31000);
  EXPECT_EQ((*by_id)[2], (*by_id)[0]);
  EXPECT_TRUE((*by_id)[3].result.rows.empty());

  const Query count_status{.where = {Predicate::Eq("status", Value())},
                           .aggregate = Aggregate::kCount};
  // A mistyped probe is rejected at the API boundary, not asserted deeper.
  auto bad = table->RunBatch(count_status, {Value(int64_t{3})});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  // So are shapes that are not one Eq conjunct with rows or count.
  EXPECT_EQ(table->RunBatch({.where = {Predicate::Prefix("status", "S")},
                             .aggregate = Aggregate::kCount},
                            probes)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(table->RunBatch({.where = {Predicate::Eq("amount", Value())},
                             .aggregate = Aggregate::kSum,
                             .sum_column = "amount"},
                            {Value(int64_t{100})})
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  // Empty probe set is a no-op, not an error.
  auto empty = table->RunBatch(count_status, {});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

}  // namespace
}  // namespace payg
