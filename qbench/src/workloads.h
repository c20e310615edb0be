#ifndef QBENCH_WORKLOADS_H_
#define QBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "spans.h"

namespace qbench {

/// 64-bit FNV-1a; the digest of every input and output the benchmark
/// reports or pins.
uint64_t Digest(const std::string& bytes);
std::string Hex(uint64_t v);

/// Committed expected output digests (qbench/expected.txt), keyed
/// "<workload> <key>".
using Expected = std::map<std::string, std::string>;
Expected LoadExpected(const std::string& path, bool* ok);

/// One workload of the closed loop: a fixed cycle of ops built from the
/// seed. An op is one user-visible operation, timed as a whole; its output
/// is checked afterwards, outside the timed window, against a reference
/// that is not the code path under test.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Ops in one cycle; the loop runs whole cycles.
  virtual size_t CycleSize() const = 0;
  /// The op run once, untimed, at the end of set-up.
  virtual size_t WarmupOp() const = 0;
  /// The timed work of op `i`. `spans` is null on the untraced pass.
  /// Returns an empty string on success, else why the op failed.
  virtual std::string Run(size_t i, SpanLog* spans) = 0;
  /// Checks the output of the last Run(i) and releases it. Empty on a
  /// pass, else what was wrong. `output_digest` receives the digest of
  /// the op's output.
  virtual std::string Check(size_t i, uint64_t* output_digest) = 0;
  /// Traced pass only, after op `i`'s Run and outside its timing: re-times
  /// the pieces of the op that the registry cannot attribute.
  virtual void TraceAfter(size_t /*i*/, SpanLog* /*spans*/) {}
  /// Layers reached only inside an op's calls: (obs histogram, span name)
  /// pairs. The driver turns each histogram's per-op sum delta into a
  /// derived span.
  using DerivedSpans = std::vector<std::pair<std::string, std::string>>;
  virtual DerivedSpans Derived() const { return {}; }
  /// Traced run only: the serial over the parallel chase time of the
  /// workload's bulk chase, or 0 when it has none.
  virtual double ParallelSpeedup() { return 0; }

  /// Digest of every input of the cycle, in cycle order.
  virtual uint64_t InputDigest() const = 0;
  /// Input sizes, as `"key": value` JSON members.
  virtual std::string SizesJson() const = 0;
};

/// Builds the named workload's inputs from `seed`; null for an unknown
/// name. `expected` must outlive the workload.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed,
                                       const Expected* expected);

/// Prints the `expected.txt` lines of `workload`: for exchange, the target
/// digest at `seed`; for invert, the seed-independent digests, each
/// reverse mapping first validated with the bounded FrameworkChecker.
/// Returns false if a check fails. The exchange digest depends on the
/// order in which the process interned values, so it is only valid from a
/// fresh process that emits one seed — the state a benchmark run is in.
bool EmitExpected(const std::string& workload, uint64_t seed);

}  // namespace qbench

#endif  // QBENCH_WORKLOADS_H_
