#ifndef XMLAC_PERFBENCH_COMMON_H_
#define XMLAC_PERFBENCH_COMMON_H_

// Small helpers shared by the benchmark driver: a steady clock, exact
// order statistics over client-side samples, peak RSS, and the result
// object printed as the driver's last line.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Nearest-rank percentile (q in (0, 1]) of exact samples; 0 when empty.
inline double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  size_t rank = static_cast<size_t>(std::ceil(q * samples.size()));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

inline double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double s : samples) sum += s;
  return sum / samples.size();
}

// Peak resident set size of this process so far, in MB.
inline double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Machine-speed gauge.  On the 4-core Xeon VM the reference figures come
// from, the host's speed swings by up to 1.7x on a cycle of 10-20 s (a
// fixed CPU-and-memory loop and real xmlac work slow down together; their
// ratio stays within a few percent), which is longer than one run but
// shorter than a set of runs, so raw run medians disagree by more than any
// useful bound.  The gauge times a fixed kernel -- random reads over an
// 8 MB table, about 1 ms on that VM -- every 100 ms between
// operations, and each operation's latency is scaled by the kernel's
// nominal/measured time around it: times are reported at the speed at
// which the kernel takes exactly kNominalSeconds.  The kernel is the
// benchmark's own code, so a change to xmlac moves the scaled times as it
// moves the raw ones.
class SpeedGauge {
 public:
  static constexpr double kNominalSeconds = 1e-3;
  static constexpr double kIntervalSeconds = 0.1;

  SpeedGauge() : table_(1u << 20) {
    for (size_t i = 0; i < table_.size(); ++i) table_[i] = i * 2654435761u;
  }

  void Sample() {
    const double start = NowSeconds();
    uint64_t x = 88172645463325252ull;
    for (int i = 0; i < 170000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      sink_ += table_[x & (table_.size() - 1)];
    }
    last_ = NowSeconds();
    durations_.push_back(last_ - start);
  }

  // Samples when the last sample is older than kIntervalSeconds.
  void MaybeSample() {
    if (durations_.empty() || NowSeconds() - last_ >= kIntervalSeconds) {
      Sample();
    }
  }

  // nominal / the median kernel time over every sample so far, 1 without
  // samples.
  double RunScale() const {
    return durations_.empty() ? 1.0 : kNominalSeconds / Median(durations_);
  }

  // Samples taken so far: an operation timed now lies in this block.
  size_t block() const { return durations_.size(); }

  // nominal / measured kernel time around block `b` (the median of the
  // three samples on each side), 1 without samples.
  double Scale(size_t b) const {
    if (durations_.empty()) return 1.0;
    const size_t lo = b >= 3 ? b - 3 : 0;
    const size_t hi = std::min(durations_.size(), b + 3);
    std::vector<double> window(durations_.begin() + std::min(lo, hi - 1),
                               durations_.begin() + hi);
    return kNominalSeconds / Median(window);
  }

 private:
  std::vector<uint64_t> table_;
  std::vector<double> durations_;
  double last_ = 0.0;
  uint64_t sink_ = 0;  // keeps the kernel's loads from being optimized out
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  // First failed check, for stderr; empty when every check passed.
  std::string failure;

  void Fail(const std::string& why) {
    if (correct) failure = why;
    correct = false;
  }
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
};

inline std::string ResultJson(const RunResult& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.9g", m.value);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench

#endif  // XMLAC_PERFBENCH_COMMON_H_
