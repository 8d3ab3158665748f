#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

// Spans the benchmark records around its own calls into each layer of the
// store (traced runs only). They are kept in memory and written out as a
// Chrome-trace JSON when the run ends; each layer's self time is its spans'
// time minus the part covered by their child spans.

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

// Turns recording on for the rest of the process. Off, a Span costs one
// relaxed load.
void EnableSpans();
bool SpansEnabled();

class Span {
 public:
  // `name` is "<layer>.<call>", e.g. "table.SelectByValue"; it must be a
  // string literal (only the pointer is kept).
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  uint64_t root_ = 0;
  uint64_t start_ns_ = 0;
};

struct LayerTime {
  uint64_t spans = 0;
  double total_ms = 0;
  double self_ms = 0;
};

// Per-layer span count, total and self time over everything recorded.
std::map<std::string, LayerTime> LayerSelfTimes();
uint64_t SpansDropped();

// Writes every recorded span as Chrome trace events ("X" events with the
// span id, its parent and the root operation's id as args).
bool WriteChromeTrace(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
