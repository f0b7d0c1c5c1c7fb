#ifndef XMLAC_PERFBENCH_DRIVER_H_
#define XMLAC_PERFBENCH_DRIVER_H_

// Entry points of the benchmark driver's modes (driver.cc, traced.cc,
// selftest.cc) and the store configuration they share.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/checks.h"
#include "perfbench/common.h"
#include "perfbench/inputs.h"
#include "serve/server.h"

namespace perfbench {

// Every server the driver starts: explicit thread budget, program defaults
// otherwise (flight recorder on; WAL at fdatasync when `data_dir` is set).
xmlac::serve::ServerOptions ServeOptions(const std::string& data_dir);

// Every stand-alone AccessController the driver builds: explicit shard
// budget, program defaults otherwise.
xmlac::engine::ControllerOptions EngineOptions();

// Client-side latency samples of the timed operations, each with the
// speed-gauge block it was taken in.
struct Samples {
  struct Sample {
    double seconds;
    size_t block;
    uint64_t request = 0;     // reads: subject << 32 | query
    bool throughput = false;  // counts toward ops_s
  };
  std::vector<Sample> reads;
  std::vector<Sample> updates;

  void Add(const Op& op, double seconds, size_t block) {
    if (!op.timed) return;
    const uint64_t request =
        static_cast<uint64_t>(op.subject) << 32 | op.query;
    (op.kind == OpKind::kRead ? reads : updates)
        .push_back({seconds, block, request, op.throughput});
  }

  // The end-to-end metrics, named alike on every workload, at the gauge's
  // nominal speed.  Raw figures go to stderr.
  //
  // Every timed read counts at its request's typical latency: the median,
  // over the run, of the scaled latencies of its (subject, query) pair.
  // Each pair is read once per pass and the passes span the whole timed
  // phase, so a few seconds of host contention, which add milliseconds to
  // the reads they catch, leave every median alone.  Single samples do not
  // hold still: on hospital-mixed, 0.1-0.5% of reads take over 500 us on an
  // idle host, so their p99 doubles whenever the host gets busier; three
  // busy processes competing for 3 s of xmark-read's 2 s read phase halved
  // its throughput over single samples (and cut this one by 10%).
  //
  // setup_s is scaled by the gauge's median over the whole run.  Samples
  // taken back to back next to the set-up find the kernel's table still
  // cached; their scale ranged over 0.45-1.15 from run to run (the run's
  // median over 0.4-0.5) while the raw set-up time held within 10%.
  // Scaled by them, setup_s spread by 0.3-0.45 of its median over five
  // seeds; scaled by the run's median, by 0.1-0.15.
  //
  // Updates are not repeated, so their percentiles and ops_s are medians
  // over kWindows consecutive parts of the timed sequence whenever each
  // part holds at least kMinWindowUpdates updates (hospital-mixed and
  // xmark-relational): contention that catches less than half the timed
  // phase then moves none of them.
  static constexpr size_t kWindows = 4;
  static constexpr size_t kMinWindowUpdates = 100;

  void Report(const SpeedGauge& gauge, double setup_seconds,
              double peak_rss_mb, RunResult* r) const {
    auto scaled = [&](const std::vector<Sample>& in) {
      std::vector<double> out;
      for (const Sample& s : in) {
        out.push_back(s.seconds * gauge.Scale(s.block));
      }
      return out;
    };
    auto raw = [](const std::vector<Sample>& in) {
      std::vector<double> out;
      for (const Sample& s : in) out.push_back(s.seconds);
      return out;
    };
    const std::vector<double> read_s = scaled(reads);
    const std::vector<double> update_s = scaled(updates);
    std::map<uint64_t, std::vector<double>> by_request;
    for (size_t i = 0; i < reads.size(); ++i) {
      by_request[reads[i].request].push_back(read_s[i]);
    }
    std::map<uint64_t, double> typical;
    for (const auto& [request, samples] : by_request) {
      typical[request] = Median(samples);
    }
    std::vector<double> typical_s;
    for (const Sample& s : reads) typical_s.push_back(typical[s.request]);

    const size_t windows =
        updates.size() >= kWindows * kMinWindowUpdates ? kWindows : 1;
    std::vector<double> ops_w, update_p50_w, update_p90_w;
    for (size_t w = 0; w < windows; ++w) {
      double busy_s = 0.0;
      size_t busy_ops = 0;
      for (size_t i = w * reads.size() / windows;
           i < (w + 1) * reads.size() / windows; ++i) {
        if (reads[i].throughput) busy_s += typical_s[i];
        busy_ops += reads[i].throughput ? 1 : 0;
      }
      std::vector<double> window;
      for (size_t i = w * updates.size() / windows;
           i < (w + 1) * updates.size() / windows; ++i) {
        window.push_back(update_s[i]);
        if (updates[i].throughput) busy_s += update_s[i];
        busy_ops += updates[i].throughput ? 1 : 0;
      }
      ops_w.push_back(busy_ops / busy_s);
      update_p50_w.push_back(Median(window));
      update_p90_w.push_back(Percentile(window, 0.90));
    }
    r->Set("setup_s", setup_seconds * gauge.RunScale(), "s");
    r->Set("ops_s", Median(ops_w), "ops/s");
    r->Set("read_p50_us", Median(typical_s) * 1e6, "us");
    r->Set("read_p99_us", Percentile(typical_s, 0.99) * 1e6, "us");
    r->Set("update_p50_ms", Median(update_p50_w) * 1e3, "ms");
    r->Set("update_p90_ms", Median(update_p90_w) * 1e3, "ms");
    r->Set("peak_rss_mb", peak_rss_mb, "MB");
    std::fprintf(stderr,
                 "perfbench: raw setup %.4f s, read p50 %.1f us, update p50 "
                 "%.3f ms; run gauge scale %.3f; single scaled reads p50 %.1f "
                 "us, p99 %.1f us\n",
                 setup_seconds, Median(raw(reads)) * 1e6,
                 Median(raw(updates)) * 1e3, gauge.RunScale(),
                 Median(read_s) * 1e6, Percentile(read_s, 0.99) * 1e6);
  }
};

// One untraced serve run: set-up, the operation sequence, and (with a data
// directory) a stop and restart from that directory alone.  With
// `torn_copy_dir` set, the data directory is copied there before restart.
struct ServeSession {
  std::string error;  // set-up or restart failure
  SpeedGauge gauge;
  double setup_seconds = 0.0;
  double peak_rss_mb = 0.0;
  double recovery_s = 0.0;
  Samples samples;
  std::vector<OpRecord> records;
  uint64_t committed = 0;
  xmlac::serve::SnapshotPtr final_snapshot;
  ServedState before_stop;
  ServedState after_restart;
};
ServeSession RunServeSession(const Inputs& in, const std::string& data_dir,
                             const std::string& torn_copy_dir);

// One untraced relational run; the controller is kept for sign checks.
struct RelationalSession {
  std::string error;
  SpeedGauge gauge;
  double setup_seconds = 0.0;
  double peak_rss_mb = 0.0;
  Samples samples;
  std::vector<OpRecord> records;
  std::string signs_after_setup;  // CheckRelationalSigns right after set-up
  std::unique_ptr<xmlac::engine::AccessController> controller;
};
RelationalSession RunRelationalSession(const Inputs& in);

// Untraced runs, checked: the end-to-end metrics.
RunResult RunServe(const Inputs& in, const std::string& work_dir);
RunResult RunRelational(const Inputs& in);

// Traced run: the same operations, each layer's public call timed from the
// driver; reports the per-layer metrics.
RunResult RunTraced(const Inputs& in, const std::string& work_dir);

// Feeds every correctness check a known-wrong answer; true when each one
// reports the failure (and passes on the untouched answer).
bool RunSelfTest(const std::string& work_dir);

}  // namespace perfbench

#endif  // XMLAC_PERFBENCH_DRIVER_H_
