#include "yardstick.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "spans.h"

namespace qbench {
namespace {

// Keeps the kernel's result live, so that the compiler cannot drop it.
volatile uint64_t g_sink = 0;

void Kernel() {
  std::unordered_map<uint64_t, uint64_t> map;
  std::vector<uint64_t> keys;
  keys.reserve(8000);
  uint64_t x = 88172645463325252ULL;  // xorshift64
  for (uint64_t i = 0; i < 8000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    keys.push_back(x % 20000);
    map[x % 20000] += i;
  }
  uint64_t acc = 0;
  for (uint64_t r = 0; r < 4; ++r) {
    for (uint64_t k : keys) {
      auto it = map.find(k ^ r);
      if (it != map.end()) acc += it->second;
    }
  }
  std::sort(keys.begin(), keys.end());
  std::string text;
  for (uint64_t k : keys) text += std::to_string(k);
  g_sink = g_sink + acc + text.size() + keys[keys.size() / 2];
}

}  // namespace

double YardstickSeconds() {
  double best = 0;
  for (int run = 0; run < 3; ++run) {
    double start = CpuSeconds();
    Kernel();
    double s = CpuSeconds() - start;
    if (run == 0 || s < best) best = s;
  }
  return best;
}

}  // namespace qbench
