#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Scratch directory of this run, inside the working directory; every
  // store lives under it and it is removed at the end.
  std::string run_dir;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  // False when any answer differed from the reference or a stated property
  // of the method did not hold.
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  // Human-readable lines printed before the JSON result: ratio bases,
  // layer self times, the first mismatches.
  std::vector<std::string> notes;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Note(const std::string& line) { notes.push_back(line); }
  // Records a wrong answer: the operation counts as failed, the run as
  // incorrect. Only the first few are described.
  void Mismatch(const std::string& what) {
    ++failed;
    correct = false;
    if (mismatches_noted_++ < 8) notes.push_back("MISMATCH: " + what);
  }

 private:
  int mismatches_noted_ = 0;
};

// Latency samples of one kind of operation, in microseconds, each tagged
// with the segment of the run it fell in (a stretch of time, or one write
// cycle).
class Samples {
 public:
  void Add(double us, uint32_t segment = 0) {
    v_.push_back(us);
    seg_.push_back(segment);
  }
  void Append(const Samples& other) {
    v_.insert(v_.end(), other.v_.begin(), other.v_.end());
    seg_.insert(seg_.end(), other.seg_.begin(), other.seg_.end());
  }
  size_t size() const { return v_.size(); }
  bool empty() const { return v_.empty(); }
  // Nearest-rank quantile, q in [0, 1]; 0 when empty.
  double Quantile(double q) const { return QuantileOf(v_, q); }
  double P50() const { return Quantile(0.5); }
  double P99() const { return Quantile(0.99); }

  // The interquartile mean over segments of each segment's q-quantile:
  // the mean of the middle half of the segments' values. The host's slower
  // stretches (other tenants) move it only by the share of the middle half
  // they reach, where they move a plain quantile of all samples as soon as
  // they cover a few percent of the run; and unlike a median over segments
  // it does not jump between two groups of segments. Segments with fewer
  // than kMinPerSegment samples are left out; with none left, the plain
  // quantile.
  double SegmentQuantile(double q) const {
    std::map<uint32_t, std::vector<double>> by_seg;
    for (size_t i = 0; i < v_.size(); ++i) by_seg[seg_[i]].push_back(v_[i]);
    std::vector<double> per_seg;
    for (const auto& [seg, vals] : by_seg) {
      if (vals.size() >= kMinPerSegment) per_seg.push_back(QuantileOf(vals, q));
    }
    return per_seg.empty() ? Quantile(q) : MidMean(per_seg);
  }

  // Mean of the values left after dropping the lowest and the highest
  // quarter; 0 when empty.
  static double MidMean(std::vector<double> s) {
    if (s.empty()) return 0;
    std::sort(s.begin(), s.end());
    const size_t cut = s.size() / 4;
    double sum = 0;
    for (size_t i = cut; i < s.size() - cut; ++i) sum += s[i];
    return sum / static_cast<double>(s.size() - 2 * cut);
  }

  static double QuantileOf(std::vector<double> s, double q) {
    if (s.empty()) return 0;
    const size_t idx = static_cast<size_t>(q * (s.size() - 1) + 0.5);
    std::nth_element(s.begin(), s.begin() + idx, s.end());
    return s[idx];
  }

 private:
  static constexpr size_t kMinPerSegment = 40;
  std::vector<double> v_;
  std::vector<uint32_t> seg_;
};

RunResult RunColdLookup(const RunConfig& cfg);
RunResult RunWarmAnalytics(const RunConfig& cfg);
RunResult RunServedLookup(const RunConfig& cfg);
RunResult RunIngestAge(const RunConfig& cfg);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
