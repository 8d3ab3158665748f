#include "obs/query_profile.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>

namespace payg::obs {

namespace {

void Append(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) {
    size_t len = static_cast<size_t>(n);
    if (len > sizeof(buf) - 1) len = sizeof(buf) - 1;
    out->append(buf, len);
  }
}

}  // namespace

std::string QueryProfile::ToText() const {
  std::string out;
  Append(&out,
         "qid=%" PRIu64 " wall_us=%" PRIu64 " queue_us=%" PRIu64
         " scan_us=%" PRIu64 " parts=%" PRIu64,
         query_id, wall_us, queue_wait_us, scan_us, partitions);
#define PAYG_X(name, text) Append(&out, text, name);
  PAYG_QUERY_COUNTERS(PAYG_X)
#undef PAYG_X
  if (deadline_exceeded) out += " DEADLINE";
  return out;
}

std::string QueryProfile::ToJson() const {
  std::string out;
  Append(&out,
         "{\"query_id\":%" PRIu64 ",\"wall_us\":%" PRIu64
         ",\"queue_wait_us\":%" PRIu64 ",\"scan_us\":%" PRIu64
         ",\"partitions\":%" PRIu64,
         query_id, wall_us, queue_wait_us, scan_us, partitions);
#define PAYG_X(name, text) Append(&out, ",\"" #name "\":%" PRIu64, name);
  PAYG_QUERY_COUNTERS(PAYG_X)
#undef PAYG_X
  out += deadline_exceeded ? ",\"deadline_exceeded\":true"
                           : ",\"deadline_exceeded\":false";
  out += ",\"partition_us\":[";
  for (size_t i = 0; i < partition_us.size(); ++i) {
    Append(&out, "%s%" PRIu64, i == 0 ? "" : ",", partition_us[i]);
  }
  out += "]}";
  return out;
}

}  // namespace payg::obs
