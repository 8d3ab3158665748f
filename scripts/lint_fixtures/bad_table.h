// Lint self-test fixture: deliberately violates metric-name — the field
// table row below generates "cache.fixture_unlisted", which the fixture
// inventory does not list, so the row must be flagged. Never compiled;
// scanned by --self-test.
#define FIXTURE_BAD_COUNTERS(X) \
  X(fixture_unlisted)

namespace payg_fixture {

void RegisterTableMetrics(Registry* reg) {
#define FIXTURE_X(name) reg->counter("cache." #name);
  FIXTURE_BAD_COUNTERS(FIXTURE_X)
#undef FIXTURE_X
}

}  // namespace payg_fixture
