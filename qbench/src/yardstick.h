#ifndef QBENCH_YARDSTICK_H_
#define QBENCH_YARDSTICK_H_

namespace qbench {

/// The shared host's speed changes by up to 1.7x, in spells from a
/// fraction of a second to many minutes, because other tenants compete
/// for the same cores, caches and memory; CPU time slows with wall time,
/// since the cores themselves run slower. The yardstick is a fixed,
/// library-free kernel (hash-map inserts and lookups, a sort, string
/// building; ~1.5 ms) whose CPU time tracks that speed. The driver reads it
/// before every op and reports CPU times scaled by kYardstickRefSeconds
/// over the median reading: CPU seconds of a host on which the kernel
/// takes kYardstickRefSeconds.

/// The kernel's CPU time on the host the benchmark was tuned on, at its
/// fastest. Only a unit: changing it rescales every timing alike.
constexpr double kYardstickRefSeconds = 0.0015;

/// CPU seconds of one yardstick reading: the fastest of three kernel runs.
double YardstickSeconds();

}  // namespace qbench

#endif  // QBENCH_YARDSTICK_H_
