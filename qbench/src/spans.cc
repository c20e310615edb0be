#include "spans.h"

#include <time.h>

#include <cstdio>

namespace qbench {

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double CpuSeconds() {
  struct timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

void SpanLog::Add(const std::string& name, Clock::time_point start,
                  Clock::time_point end, int depth) {
  double dur = Seconds(end - start);
  events_.push_back({name, start, dur, 1});
  if (depth == 0) {
    op_s_ += dur;
  } else {
    totals_[name] += dur;
    if (depth == 1) layer_s_ += dur;
  }
}

void SpanLog::AddDerived(const std::string& name, Clock::time_point op_start,
                         double dur_s) {
  events_.push_back({name, op_start, dur_s, 2});
  totals_[name] += dur_s;
}

std::string SpanLog::ChromeJson(Clock::time_point epoch,
                                const std::string& meta_json) const {
  std::string out = "{\"traceEvents\": [\n";
  char buf[256];
  for (size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, "
                  "\"dur\": %.3f, \"pid\": 1, \"tid\": %d}%s\n",
                  e.name.c_str(), Seconds(e.start - epoch) * 1e6,
                  e.dur_s * 1e6, e.lane,
                  i + 1 < events_.size() ? "," : "");
    out += buf;
  }
  out += "],\n\"meta\": " + meta_json + "}\n";
  return out;
}

}  // namespace qbench
