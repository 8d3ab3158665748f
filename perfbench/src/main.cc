// perfbench: the store's benchmark. One workload per invocation:
//
//   perfbench --workload <cold_lookup|warm_analytics|served_lookup|ingest_age>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Prints the host fingerprint, notes, and as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}. Exits non-zero when an
// answer was wrong or a checked property did not hold.

#include <cpuid.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.h"
#include "encoding/simd_dispatch.h"
#include "obs/metrics.h"
#include "spans.h"
#include "storage/io_backend.h"

extern char** environ;

namespace perfbench {
namespace {

std::string CpuModel() {
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) < 0x80000004) return "unknown";
  for (unsigned int i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002 + i, &regs[i * 4], &regs[i * 4 + 1],
                &regs[i * 4 + 2], &regs[i * 4 + 3]);
  }
  std::string model(reinterpret_cast<const char*>(regs), sizeof(regs));
  model = model.c_str();
  const size_t b = model.find_first_not_of(' ');
  return b == std::string::npos ? "unknown" : model.substr(b);
}

std::string FilesystemOf(const std::string& dir) {
  struct statfs st;
  if (statfs(dir.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

// Every run measures the program's defaults: a PAYG_* override (kernel
// tier, codec, I/O backend, readahead, ...) would make two sides of a
// comparison run different code.
bool CheckEnvironment() {
  bool clean = true;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "PAYG_", 5) == 0) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", *e);
      clean = false;
    }
  }
  return clean;
}

void PrintFingerprint(const RunConfig& cfg) {
  (void)payg::CurrentIoBackend();  // resolves the backend, sets io.backend
  const int64_t backend =
      payg::obs::MetricsRegistry::Global().gauge("io.backend")->value();
  std::printf(
      "host: cores=%u cpu=\"%s\" simd=%s io_backend=%s build=%s "
      "compiler=\"%s\" fs=%s\n",
      std::thread::hardware_concurrency(), CpuModel().c_str(),
      payg::SimdLevelName(payg::ActiveSimdLevel()),
      backend == 1 ? "uring" : "sync", PERFBENCH_BUILD_TYPE, __VERSION__,
      FilesystemOf(cfg.run_dir).c_str());
  std::printf("run: workload=%s seed=%llu seconds=%g trace=%d\n",
              cfg.workload.c_str(),
              static_cast<unsigned long long>(cfg.seed), cfg.seconds,
              cfg.trace ? 1 : 0);
}

std::string Json(const RunResult& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <cold_lookup|warm_analytics|"
               "served_lookup|ingest_age> --seed <n> --seconds <s> "
               "--trace <0|1>\n");
  return 2;
}

int Main(int argc, char** argv) {
  RunConfig cfg;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      cfg.workload = val;
      have_workload = true;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(val, &end, 10);
      if (*end != '\0') return Usage();
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(val, &end);
      if (*end != '\0' || !(cfg.seconds > 0)) return Usage();
    } else if (flag == "--trace") {
      cfg.trace = std::strcmp(val, "1") == 0;
    } else {
      return Usage();
    }
  }
  if (!have_workload || argc % 2 == 0) return Usage();
  RunResult (*run)(const RunConfig&) = nullptr;
  if (cfg.workload == "cold_lookup") run = RunColdLookup;
  if (cfg.workload == "warm_analytics") run = RunWarmAnalytics;
  if (cfg.workload == "served_lookup") run = RunServedLookup;
  if (cfg.workload == "ingest_age") run = RunIngestAge;
  if (run == nullptr) return Usage();
  if (!CheckEnvironment()) return 3;

  // Stores live under the working directory, one directory per process.
  cfg.run_dir = ".perfbench_run/" + cfg.workload + "-" +
                std::to_string(static_cast<long>(getpid()));
  std::filesystem::remove_all(cfg.run_dir);
  std::filesystem::create_directories(cfg.run_dir);
  PrintFingerprint(cfg);

  const RunResult r = run(cfg);

  for (const std::string& line : r.notes) std::printf("%s\n", line.c_str());
  if (cfg.trace) {
    for (const auto& [layer, t] : LayerSelfTimes()) {
      std::printf("self time %-10s spans=%-8llu total=%.1f ms self=%.1f ms\n",
                  layer.c_str(), static_cast<unsigned long long>(t.spans),
                  t.total_ms, t.self_ms);
    }
    const std::string trace_path =
        ".perfbench_run/trace_" + cfg.workload + ".json";
    std::printf("trace: %s (%s, %llu spans dropped)\n", trace_path.c_str(),
                WriteChromeTrace(trace_path) ? "written" : "NOT written",
                static_cast<unsigned long long>(SpansDropped()));
  }
  std::error_code ec;
  std::filesystem::remove_all(cfg.run_dir, ec);
  std::printf("%s\n", Json(r).c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
