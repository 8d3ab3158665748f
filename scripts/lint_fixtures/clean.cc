// Lint self-test fixture: fully compliant — must produce zero findings so
// the self-test catches a linter that over-flags. Never compiled.
// A field table whose generated names are all in the inventory.
#define FIXTURE_CLEAN_COUNTERS(X) \
  X(fixture_generated)

namespace payg_fixture {

class Clean {
 public:
  void Touch() {
    MutexLock lock(mu_);
    ++counter_;
  }

  void RegisterMetrics(Registry* reg) {
    touches_ = reg->counter("cache.fixture_touches");
#define FIXTURE_X(name) reg->counter("cache." #name);
    FIXTURE_CLEAN_COUNTERS(FIXTURE_X)
#undef FIXTURE_X
  }

 private:
  mutable Mutex mu_;
  int counter_ GUARDED_BY(mu_) = 0;
  Counter* touches_ = nullptr;
};

}  // namespace payg_fixture
