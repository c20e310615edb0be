#ifndef QBENCH_SPANS_H_
#define QBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace qbench {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::duration d);

/// CPU seconds used so far by the whole process (every thread, user and
/// system), counted from process creation. Unlike wall time it does not
/// grow while the process waits for a core; it still grows faster when
/// the core itself runs slower (see yardstick.h).
double CpuSeconds();

/// The traced pass's bench-side spans. Every span is recorded by the
/// benchmark around a call into one qimap layer; nothing is recorded
/// inside the library. Spans on lane 1 are measured around calls; spans
/// on lane 2 are derived from deltas of the obs metrics registry (the
/// `*.latency_us` histograms) for layers only reached inside another
/// call, and are placed at the start of their enclosing op.
class SpanLog {
 public:
  struct Event {
    std::string name;
    Clock::time_point start;
    double dur_s = 0;
    int lane = 1;
  };

  /// Records a measured span. `depth` 0 is an op; 1 is a layer call
  /// directly inside it; 2 is a replay timed after the op, which counts
  /// toward its layer's total but not toward span coverage.
  void Add(const std::string& name, Clock::time_point start,
           Clock::time_point end, int depth);
  /// Records a registry-derived span of `dur_s` seconds inside the op
  /// that started at `op_start`.
  void AddDerived(const std::string& name, Clock::time_point op_start,
                  double dur_s);

  /// Total seconds per span name (measured and derived).
  const std::map<std::string, double>& totals() const { return totals_; }
  /// Seconds of depth-0 spans, and of the depth-1 spans inside them.
  double op_seconds() const { return op_s_; }
  double layer_seconds() const { return layer_s_; }

  /// The spans as a Chrome trace-event document (complete "X" events,
  /// microseconds since `epoch`), with `meta_json` spliced in as "meta".
  std::string ChromeJson(Clock::time_point epoch,
                         const std::string& meta_json) const;

 private:
  std::vector<Event> events_;
  std::map<std::string, double> totals_;
  double op_s_ = 0;
  double layer_s_ = 0;
};

/// Times one call into a layer and records it when `log` is non-null.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int depth = 1)
      : log_(log), name_(name), depth_(depth), start_(Clock::now()) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Add(name_, start_, Clock::now(), depth_);
  }

 private:
  SpanLog* log_;
  const char* name_;
  int depth_;
  Clock::time_point start_;
};

}  // namespace qbench

#endif  // QBENCH_SPANS_H_
