#include "spans.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace perfbench {

namespace {

// Enough for every operation of a traced run; later spans are counted as
// dropped instead of growing memory without bound.
constexpr size_t kMaxSpans = 1u << 20;

struct Record {
  const char* name;
  uint64_t id;
  uint64_t parent;
  uint64_t root;
  uint64_t start_ns;
  uint64_t end_ns;
  uint32_t tid;
};

struct Store {
  std::mutex mu;
  std::vector<Record> records;
  uint64_t dropped = 0;
};

Store& GetStore() {
  static Store* store = new Store();
  return *store;
}

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_id{1};
std::atomic<uint32_t> g_next_tid{1};

struct ThreadState {
  uint32_t tid = g_next_tid.fetch_add(1);
  uint64_t current = 0;  // innermost open span on this thread
  uint64_t root = 0;
};
thread_local ThreadState t_state;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

void EnableSpans() {
  GetStore().records.reserve(1u << 16);
  g_enabled.store(true, std::memory_order_relaxed);
}

bool SpansEnabled() { return g_enabled.load(std::memory_order_relaxed); }

Span::Span(const char* name) : name_(name) {
  if (!SpansEnabled()) return;
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = t_state.current;
  root_ = parent_ == 0 ? id_ : t_state.root;
  t_state.current = id_;
  t_state.root = root_;
  start_ns_ = NowNs();
}

Span::~Span() {
  if (id_ == 0) return;
  const uint64_t end = NowNs();
  t_state.current = parent_;
  Store& store = GetStore();
  std::lock_guard<std::mutex> lock(store.mu);
  if (store.records.size() >= kMaxSpans) {
    ++store.dropped;
    return;
  }
  store.records.push_back(
      {name_, id_, parent_, root_, start_ns_, end, t_state.tid});
}

std::map<std::string, LayerTime> LayerSelfTimes() {
  Store& store = GetStore();
  std::lock_guard<std::mutex> lock(store.mu);
  std::unordered_map<uint64_t, uint64_t> child_ns;  // parent id -> covered
  for (const Record& r : store.records) {
    if (r.parent != 0) child_ns[r.parent] += r.end_ns - r.start_ns;
  }
  std::map<std::string, LayerTime> out;
  for (const Record& r : store.records) {
    std::string name(r.name);
    LayerTime& lt = out[name.substr(0, name.find('.'))];
    const uint64_t dur = r.end_ns - r.start_ns;
    auto it = child_ns.find(r.id);
    const uint64_t covered = it == child_ns.end() ? 0 : it->second;
    ++lt.spans;
    lt.total_ms += dur / 1e6;
    lt.self_ms += (dur > covered ? dur - covered : 0) / 1e6;
  }
  return out;
}

uint64_t SpansDropped() {
  Store& store = GetStore();
  std::lock_guard<std::mutex> lock(store.mu);
  return store.dropped;
}

bool WriteChromeTrace(const std::string& path) {
  Store& store = GetStore();
  std::lock_guard<std::mutex> lock(store.mu);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  uint64_t base = UINT64_MAX;
  for (const Record& r : store.records) base = std::min(base, r.start_ns);
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  std::fprintf(f,
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
               "\"args\":{\"name\":\"perfbench\"}}");
  for (const Record& r : store.records) {
    std::fprintf(f,
                 ",\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                 "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                 "\"span\":%llu,\"parent\":%llu,\"op\":%llu}}",
                 r.name, r.tid, (r.start_ns - base) / 1e3,
                 (r.end_ns - r.start_ns) / 1e3,
                 static_cast<unsigned long long>(r.id),
                 static_cast<unsigned long long>(r.parent),
                 static_cast<unsigned long long>(r.root));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
