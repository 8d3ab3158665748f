// Fig. 8: single read of the unique paged inverted index on the primary key.
// Workload Q_pk^rid — SELECT ROWID() FROM T WHERE C_pk = value — on T_pp
// (only the pk page loadable) vs. T_b (§6.2.3).
//
// For a unique column the paged index stores no directory; a pk search
// decodes exactly one posting, so the runtime stays close to the non-paged
// index (the paper reports ~29% average overhead), while the minimum memory
// footprint of the paged index is one page.

#include "bench/bench_common.h"

int main() {
  using namespace payg;
  using namespace payg::bench;
  BenchEnv env = ReadEnv("fig8");
  std::printf("# Fig 8 — Q_pk^rid on T_b vs T_pp: rows=%llu queries=%llu "
              "latency_us=%u\n",
              static_cast<unsigned long long>(env.rows),
              static_cast<unsigned long long>(env.queries), env.latency_us);
  RunFigure("fig8", env, TableVariant::kBase, TableVariant::kPagedPkOnly,
            /*with_indexes=*/false, /*query_seed=*/801,
            [](Table* table, ErpWorkload& w) {
              auto r = table->Run(
                  {.where = {Predicate::Eq("pk", w.PkOfRow(w.RandomRow()))},
                   .aggregate = Aggregate::kRowIds});
              BENCH_CHECK_OK(r);
              if (r->row_ids.size() != 1) std::abort();
            });
  return 0;
}
