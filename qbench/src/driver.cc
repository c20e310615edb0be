// qimap_bench: the closed-loop benchmark driver.
//
//   qimap_bench --workload exchange|invert|roundtrip --seed N --seconds S
//               --trace 0|1 --expected qbench/expected.txt
//               [--trace-out FILE]
//   qimap_bench --emit-expected exchange|invert --seed N
//
// One process, one client, one op at a time, chase threads pinned to 1.
// Set-up (input generation from the seed plus one untimed warm-up op) is
// timed once, from process start. The timed loop runs whole cycles of
// the workload's ops, at least five and until `--seconds` of wall-clock op
// time have passed; every op's output is checked after the op, outside the
// timed window. Set-up and ops are timed in process CPU seconds (every op
// is single-threaded and CPU-bound, so on a quiet host CPU time equals
// wall time) and reported scaled by the yardstick read next to them (see
// yardstick.h), so that the host's changing speed cancels out.
// `--trace 0` prints the end-to-end metrics; `--trace 1` additionally
// runs a traced pass and prints the per-layer metrics. The last line of
// stdout is the result JSON.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "base/version.h"
#include "chase/match_plan.h"
#include "chase/solution_cache.h"
#include "obs/metrics.h"
#include "relational/hom_cache.h"
#include "spans.h"
#include "workloads.h"
#include "yardstick.h"

namespace qbench {
namespace {

const Clock::time_point kProcessStart = Clock::now();

// At least this many cycles, so that each op's time is taken over at
// least this many samples.
constexpr size_t kMinCycles = 5;
constexpr size_t kMinTracedPairs = 2;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = 0;
  std::string expected;
  std::string trace_out;
  std::string emit;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return false;
      have_seed = true;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args->seconds > 0)) return false;
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--expected") {
      args->expected = value;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else if (flag == "--emit-expected") {
      args->emit = value;
    } else {
      return false;
    }
  }
  if (!have_seed) return false;
  if (!args->emit.empty()) return true;
  return !args->workload.empty() && have_seconds && !args->expected.empty();
}

// Refuses builds whose timings mean nothing: unoptimized or sanitized.
std::string BuildProblem() {
  std::string type = QBENCH_BUILD_TYPE;
  std::string flags = QBENCH_CXX_FLAGS;
  if (type != "Release" && type != "RelWithDebInfo" && type != "MinSizeRel") {
    return "build type '" + type + "' is not an optimized build";
  }
  if (flags.find("-fsanitize") != std::string::npos) {
    return "sanitizer build (CMAKE_CXX_FLAGS: " + flags + ")";
  }
#if !defined(__OPTIMIZE__)
  return "compiled without optimization";
#endif
  return "";
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Registry deltas summed over the ops of the traced pass.
struct RegistryDelta {
  std::map<std::string, double> counters;
  std::map<std::string, double> hist_sum_us;
  std::map<std::string, double> hist_count;

  void Add(const qimap::obs::MetricsSnapshot& before,
           const qimap::obs::MetricsSnapshot& after) {
    for (const auto& [name, value] : after.counters) {
      auto it = before.counters.find(name);
      counters[name] += static_cast<double>(
          value - (it == before.counters.end() ? 0 : it->second));
    }
    for (const auto& [name, h] : after.histograms) {
      auto it = before.histograms.find(name);
      bool had = it != before.histograms.end();
      hist_sum_us[name] +=
          static_cast<double>(h.sum - (had ? it->second.sum : 0));
      hist_count[name] +=
          static_cast<double>(h.count - (had ? it->second.count : 0));
    }
  }
  double Counter(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

struct Pass {
  std::vector<double> op_s;  // CPU seconds of each op, in run order
  std::vector<double> yard;  // yardstick reading taken before each op
  size_t attempted = 0;
  size_t failed = 0;
  size_t cycles = 0;
  double op_time = 0;  // wall seconds of all ops: what the window counts
  double op_cpu = 0;   // CPU seconds of all ops
  std::vector<std::string> failures;
  // Over the first cycle's outputs, so that it does not depend on how
  // many cycles fit in the window.
  uint64_t output_digest = 0xcbf29ce484222325ULL;
};

// Runs one cycle of the workload's ops and appends them to `pass`.
// `spans`/`delta` are non-null on the traced pass.
void RunCycle(Workload* wl, SpanLog* spans, RegistryDelta* delta,
              Pass* pass) {
  for (size_t i = 0; i < wl->CycleSize(); ++i) {
    // Every op pays for its own work: nothing cached by an earlier op (or
    // cycle) may serve it, compiled match plans included.
    qimap::SolutionCacheClear();
    qimap::HomCacheClear();
    qimap::ClearMatchPlanCache();
    qimap::obs::MetricsSnapshot before;
    if (spans != nullptr) before = qimap::obs::SnapshotMetrics();
    pass->yard.push_back(YardstickSeconds());
    Clock::time_point start = Clock::now();
    double cpu_start = CpuSeconds();
    std::string why = wl->Run(i, spans);
    double cpu = CpuSeconds() - cpu_start;
    Clock::time_point end = Clock::now();
    if (spans != nullptr) {
      spans->Add("op", start, end, 0);
      qimap::obs::MetricsSnapshot after = qimap::obs::SnapshotMetrics();
      delta->Add(before, after);
      for (const auto& [histogram, span] : wl->Derived()) {
        auto a = after.histograms.find(histogram);
        auto b = before.histograms.find(histogram);
        uint64_t sum = a == after.histograms.end() ? 0 : a->second.sum;
        uint64_t base = b == before.histograms.end() ? 0 : b->second.sum;
        spans->AddDerived(span, start,
                          static_cast<double>(sum - base) * 1e-6);
      }
      if (why.empty()) wl->TraceAfter(i, spans);
    }
    uint64_t out = 0;
    if (why.empty()) why = wl->Check(i, &out);
    ++pass->attempted;
    if (!why.empty()) {
      ++pass->failed;
      if (pass->failures.size() < 8) pass->failures.push_back(why);
    }
    if (pass->cycles == 0) {
      pass->output_digest = (pass->output_digest ^ out) * 0x100000001b3ULL;
    }
    pass->op_s.push_back(cpu);
    pass->op_time += Seconds(end - start);
    pass->op_cpu += cpu;
  }
  ++pass->cycles;
}

// Each op's mean CPU time over the cycles run, scaled by the yardstick's
// median reading over the same ops. Means and the median are taken over
// the whole run: a slow spell that lasts part of a run slows the ops and
// the readings taken between them alike, so the ratio of run-wide figures
// cancels it, while any single sample, or a per-op best or median of a
// few, carries its own reading error. Over seven runs of each workload on
// a noisy host, per-op figures (best, or mean of the faster half, of
// samples scaled by nearby readings) varied between runs by 4-9% (as a
// coefficient of variation), and this ratio by 2-3%.
std::vector<double> OpTimes(const Pass& pass, size_t cycle_size) {
  double scale = kYardstickRefSeconds / Median(pass.yard);
  std::vector<double> sums(cycle_size, 0);
  for (size_t k = 0; k < pass.op_s.size(); ++k) {
    sums[k % cycle_size] += pass.op_s[k];
  }
  for (double& sum : sums) sum *= scale / static_cast<double>(pass.cycles);
  return sums;
}

double Sum(const std::vector<double>& v) {
  double total = 0;
  for (double x : v) total += x;
  return total;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string ResultJson(bool correct, size_t attempted, size_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", " : "") + std::string("\"") + metrics[i].name +
           "\": {\"value\": " + Num(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  return out + "}}";
}

// Per-layer metrics of the traced pass; every workload reports every
// name, 0 where the workload does not reach the layer.
std::vector<Metric> LayerMetrics(const SpanLog& spans,
                                 const RegistryDelta& d, size_t ops,
                                 double traced_s, double untraced_s,
                                 double parallel_speedup) {
  auto span_s = [&](const std::string& name) {
    auto it = spans.totals().find(name);
    return it == spans.totals().end() ? 0.0 : it->second;
  };
  double n = static_cast<double>(std::max<size_t>(1, ops));
  double chase_runs = d.Counter("chase.runs");
  double qinv = span_s("core.quasi_inverse");
  double sigma = span_s("core.sigma_star");
  double mingen = span_s("core.mingen");
  double roundtrip = span_s("core.roundtrip");
  double chase = span_s("chase.chase");
  double dchase = span_s("chase.dchase");
  double hom = span_s("relational.hom");
  auto hist_us_per_run = [&](const std::string& name) {
    auto s = d.hist_sum_us.find(name);
    auto c = d.hist_count.find(name);
    if (s == d.hist_sum_us.end() || c == d.hist_count.end()) return 0.0;
    return Ratio(s->second, c->second);
  };
  return {
      {"workload.load_s", span_s("workload.load") / n, "s"},
      {"relational.render_s", span_s("relational.render") / n, "s"},
      {"chase.chase_s", chase / n, "s"},
      {"chase.steps", d.Counter("chase.steps") / n, "count/op"},
      {"chase.fire_ratio",
       Ratio(d.Counter("chase.triggers_fired"), d.Counter("chase.steps")),
       "ratio"},
      {"chase.index_rows_per_step",
       Ratio(d.Counter("chase.index.rows"), d.Counter("chase.steps")),
       "count"},
      {"chase.parallel_speedup", parallel_speedup, "x"},
      {"chase.runs", chase_runs / n, "count/op"},
      {"chase.us_per_run", hist_us_per_run("chase.latency_us"), "us"},
      {"chase.plan_compiles_per_run",
       Ratio(d.Counter("chase.plan.compiles"), chase_runs), "count"},
      {"core.sigma_star_s", sigma / n, "s"},
      {"core.mingen_s", mingen / n, "s"},
      {"core.qinv_rest_s", qinv > 0 ? (qinv - sigma - mingen) / n : 0, "s"},
      {"core.inverse_s", span_s("core.inverse") / n, "s"},
      {"mingen.candidates", d.Counter("mingen.candidates") / n, "count/op"},
      {"mingen.generator_tests", d.Counter("mingen.generator_tests") / n,
       "count/op"},
      {"mingen.useful_ratio",
       Ratio(d.Counter("mingen.generators"),
             d.Counter("mingen.generator_tests")),
       "ratio"},
      {"mingen.dedup_ratio",
       Ratio(d.Counter("mingen.dedup_pruned"), d.Counter("mingen.candidates")),
       "ratio"},
      {"chase.dchase_s", dchase / n, "s"},
      {"chase.dchase_steps", d.Counter("dchase.steps") / n, "count/op"},
      {"chase.dchase_branch_factor",
       Ratio(d.Counter("dchase.branches"), d.Counter("dchase.steps")),
       "ratio"},
      {"chase.dchase_leaf_ratio",
       Ratio(d.Counter("dchase.leaves"), d.Counter("dchase.nodes")), "ratio"},
      {"relational.hom_s", hom / n, "s"},
      {"hom.searches", d.Counter("hom.searches") / n, "count/op"},
      {"hom.backtracks_per_search",
       Ratio(d.Counter("hom.backtracks"), d.Counter("hom.searches")),
       "count"},
      {"core.roundtrip_rest_s",
       roundtrip > 0 ? (roundtrip - chase - dchase - hom) / n : 0, "s"},
      {"obs.span_coverage", Ratio(spans.layer_seconds(), spans.op_seconds()),
       "ratio"},
      {"obs.trace_overhead", Ratio(traced_s, untraced_s) - 1, "ratio"},
  };
}

int Run(const Args& args) {
  std::string problem = BuildProblem();
  if (!problem.empty()) {
    std::fprintf(stderr, "qimap_bench: refusing to report: %s\n",
                 problem.c_str());
    return 3;
  }
  bool expected_ok = false;
  Expected expected = LoadExpected(args.expected, &expected_ok);
  if (!expected_ok) {
    std::fprintf(stderr, "qimap_bench: cannot read %s\n",
                 args.expected.c_str());
    return 2;
  }

  // Set-up, timed from process start. The warm-up op counts as an
  // attempted op, so a failing one shows in the result.
  size_t attempted = 1;
  size_t failed = 0;
  std::vector<std::string> failures;
  std::unique_ptr<Workload> wl =
      MakeWorkload(args.workload, args.seed, &expected);
  if (wl == nullptr) {
    std::fprintf(stderr, "qimap_bench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  uint64_t ignored = 0;
  std::string why = wl->Run(wl->WarmupOp(), nullptr);
  if (why.empty()) why = wl->Check(wl->WarmupOp(), &ignored);
  if (!why.empty()) {
    ++failed;
    failures.push_back("warm-up: " + why);
  }
  double setup_cpu_s = CpuSeconds();
  double setup_wall_s = Seconds(Clock::now() - kProcessStart);
  // The set-up is one sample, scaled by the median of readings taken
  // right after it.
  std::vector<double> setup_yard;
  for (int k = 0; k < 5; ++k) setup_yard.push_back(YardstickSeconds());
  double setup_s = setup_cpu_s * kYardstickRefSeconds / Median(setup_yard);

  Pass plain;
  while (plain.cycles < kMinCycles || plain.op_time < args.seconds) {
    RunCycle(wl.get(), nullptr, nullptr, &plain);
  }
  attempted += plain.attempted;
  failed += plain.failed;
  failures.insert(failures.end(), plain.failures.begin(),
                  plain.failures.end());

  std::vector<Metric> metrics;
  double ok_frac = 1.0 - Ratio(static_cast<double>(failed),
                               static_cast<double>(attempted));
  // ops_per_s is the ops of a cycle over the sum of their times;
  // op_p50_s the median of those times.
  std::vector<double> op_times = OpTimes(plain, wl->CycleSize());
  std::vector<Metric> end_to_end = {
      {"setup_s", setup_s, "s"},
      {"ops_per_s",
       Ratio(static_cast<double>(op_times.size()), Sum(op_times)), "1/s"},
      {"op_p50_s", Median(op_times), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"ok_frac", ok_frac, "ratio"},
  };

  std::string first_cycle;
  for (size_t i = 0; i < wl->CycleSize(); ++i) {
    first_cycle += (i ? ", " : "") + Num(plain.op_s[i]);
  }
  std::string meta =
      "{\"workload\": \"" + args.workload + "\", \"seed\": " +
      std::to_string(args.seed) + ", \"seconds\": " + Num(args.seconds) +
      ", \"qimap_version\": \"" + qimap::VersionString() +
      "\", \"build_type\": \"" + QBENCH_BUILD_TYPE + "\", \"nproc\": " +
      std::to_string(std::thread::hardware_concurrency()) +
      ", \"chase_threads\": 1, \"clients\": 1, \"loop\": \"closed\"" +
      ", \"cycle_ops\": " + std::to_string(wl->CycleSize()) +
      ", \"cycles\": " + std::to_string(plain.cycles) +
      ", \"ops\": " + std::to_string(plain.op_s.size()) +
      ", \"failed_frac\": " + Num(1.0 - ok_frac) +
      ", \"setup_cpu_s\": " + Num(setup_cpu_s) +
      ", \"setup_wall_s\": " + Num(setup_wall_s) +
      ", \"op_wall_s\": " + Num(plain.op_time) +
      ", \"op_cpu_s\": " + Num(plain.op_cpu) +
      ", \"yardstick_ref_s\": " + Num(kYardstickRefSeconds) +
      ", \"yardstick_median_s\": " + Num(Median(plain.yard)) + ", " +
      wl->SizesJson() +
      ", \"first_cycle_op_s\": [" + first_cycle + "]" +
      ", \"input_digest\": \"" + Hex(wl->InputDigest()) +
      "\", \"output_digest\": \"" + Hex(plain.output_digest) + "\"";

  if (args.trace == 0) {
    metrics = end_to_end;
  } else {
    SpanLog spans;
    RegistryDelta delta;
    // Traced and untraced cycles alternate, so that drift between passes
    // does not read as overhead: at least kMinTracedPairs pairs, and until
    // the traced cycles add up to half the window. Per-layer figures are
    // means over ops and need no per-op estimator, and a shorter traced pass
    // keeps a traced run of a slow cycle (invert: ~6 s) well in time.
    Clock::time_point traced_start = Clock::now();
    Pass untraced, traced;
    while (traced.cycles < kMinTracedPairs ||
           traced.op_time < args.seconds / 2) {
      RunCycle(wl.get(), nullptr, nullptr, &untraced);
      RunCycle(wl.get(), &spans, &delta, &traced);
    }
    for (const Pass* p : {&untraced, &traced}) {
      attempted += p->attempted;
      failed += p->failed;
      failures.insert(failures.end(), p->failures.begin(), p->failures.end());
    }
    metrics = LayerMetrics(spans, delta, traced.op_s.size(), traced.op_cpu,
                           untraced.op_cpu, wl->ParallelSpeedup());
    if (!args.trace_out.empty()) {
      std::string trace_meta = meta + ", \"pass\": \"traced\"}";
      std::ofstream out(args.trace_out);
      out << spans.ChromeJson(traced_start, trace_meta);
      if (!out) {
        std::fprintf(stderr, "qimap_bench: cannot write %s\n",
                     args.trace_out.c_str());
        return 1;
      }
    }
  }

  std::string failure_list;
  for (const std::string& f : failures) {
    failure_list += (failure_list.empty() ? "\"" : ", \"") + JsonEscape(f) +
                    "\"";
  }
  std::printf("{\"qbench_meta\": %s, \"failures\": [%s]", meta.c_str(),
              failure_list.c_str());
  for (const Metric& m : end_to_end) {
    std::printf(", \"%s\": %s", m.name.c_str(), Num(m.value).c_str());
  }
  std::printf("}}\n");
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-30s %14.6g %s\n", m.name.c_str(), m.value,
                 m.unit);
  }
  std::printf("%s\n",
              ResultJson(failed == 0, attempted, failed, metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace qbench

int main(int argc, char** argv) {
  qbench::Args args;
  if (!qbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: qimap_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --expected FILE [--trace-out FILE]\n"
                 "       qimap_bench --emit-expected exchange|invert "
                 "--seed N\n");
    return 2;
  }
  if (!args.emit.empty()) {
    return qbench::EmitExpected(args.emit, args.seed) ? 0 : 1;
  }
  return qbench::Run(args);
}
