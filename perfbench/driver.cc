// End-to-end benchmark driver.
//
//   perfbench_driver --workload xmark-read|hospital-mixed|xmark-relational
//                    --seed N --seconds S --trace 0|1 [--work-dir DIR]
//   perfbench_driver --self-test [--work-dir DIR]
//
// One closed-loop client replays a fixed, seeded operation sequence
// (inputs.h) against the workload's store, times every operation on the
// client side, checks every answer against the brute-force oracle, and
// prints one JSON object as its last line: end-to-end metrics with
// --trace 0, per-layer metrics (traced.cc) with --trace 1.  perfbench/run.py
// builds this driver and forwards its arguments; README.md has the
// workloads, metrics and reference figures.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>

#include "engine/relational_backend.h"
#include "perfbench/checks.h"
#include "perfbench/driver.h"

namespace perfbench {

namespace {

using xmlac::serve::ServeResponse;
using xmlac::serve::Server;

OpRecord FromResponse(const ServeResponse& resp) {
  OpRecord rec;
  rec.ok = resp.status.ok();
  rec.granted = resp.granted;
  rec.selected = resp.selected;
  rec.accessible = resp.accessible;
  rec.epoch = resp.epoch;
  return rec;
}

void Require(const std::string& failure, const char* check, RunResult* r) {
  if (!failure.empty()) r->Fail(std::string(check) + ": " + failure);
}

}  // namespace

xmlac::serve::ServerOptions ServeOptions(const std::string& data_dir) {
  xmlac::serve::ServerOptions options;
  options.workers = kServerWorkers;
  options.parallel_subjects = kParallelSubjects;
  options.shard_threads = kShardThreads;
  options.durability.data_dir = data_dir;
  return options;
}

xmlac::engine::ControllerOptions EngineOptions() {
  xmlac::engine::ControllerOptions options;
  options.shard_threads = kShardThreads;
  return options;
}

ServeSession RunServeSession(const Inputs& in, const std::string& data_dir,
                             const std::string& torn_copy_dir) {
  ServeSession out;
  if (!data_dir.empty()) std::filesystem::remove_all(data_dir);

  // Cold set-up: Load from text, AddSubject per subject, Start.
  const double setup_start = NowSeconds();
  auto server = std::make_unique<Server>(ServeOptions(data_dir));
  xmlac::Status st = server->Load(in.dtd_text, in.doc_text);
  for (size_t s = 0; st.ok() && s < in.subjects.size(); ++s) {
    st = server->AddSubject(in.subjects[s].name, in.subjects[s].policy_text);
  }
  if (st.ok()) st = server->Start();
  out.setup_seconds = NowSeconds() - setup_start;
  if (!st.ok()) {
    out.error = "set-up: " + st.ToString();
    return out;
  }

  out.records.reserve(in.ops.size());
  for (const Op& op : in.ops) {
    out.gauge.MaybeSample();
    const double start = NowSeconds();
    ServeResponse resp;
    if (op.kind == OpKind::kRead) {
      resp = server->Query(in.subjects[op.subject].name, in.queries[op.query]);
    } else if (op.kind == OpKind::kDelete) {
      resp = server->Update(in.pairs[op.pair].Delete().xpath);
    } else {
      const UpdatePair& pair = in.pairs[op.pair];
      resp = server->Insert(pair.parent_xpath, pair.fragment_xml);
    }
    out.samples.Add(op, NowSeconds() - start, out.gauge.block());
    out.records.push_back(FromResponse(resp));
    if (op.kind != OpKind::kRead && resp.status.ok()) ++out.committed;
  }
  out.peak_rss_mb = PeakRssMb();
  out.final_snapshot = server->CurrentSnapshot();
  server.reset();
  if (data_dir.empty()) return out;

  // Restart from the data directory alone.
  out.before_stop = CaptureState(*out.final_snapshot);
  if (!torn_copy_dir.empty()) {
    std::filesystem::remove_all(torn_copy_dir);
    std::filesystem::copy(data_dir, torn_copy_dir);
  }
  const double restart = NowSeconds();
  Server restarted(ServeOptions(data_dir));
  st = restarted.Start();
  ServeResponse probe = restarted.Query(in.subjects[0].name, in.queries[0]);
  out.recovery_s = NowSeconds() - restart;
  if (!st.ok() || !restarted.recovered() || !probe.status.ok()) {
    out.error = "restart: " + (st.ok() ? probe.status.ToString()
                                       : st.ToString());
    return out;
  }
  out.after_restart = CaptureState(*restarted.CurrentSnapshot());
  restarted.Stop();
  std::filesystem::remove_all(data_dir);
  return out;
}

RunResult RunServe(const Inputs& in, const std::string& work_dir) {
  RunResult result;
  const std::string data_dir =
      in.durable ? work_dir + "/" + in.workload + "-wal" : "";
  ServeSession run = RunServeSession(in, data_dir, "");
  result.attempted = run.records.size();
  for (const OpRecord& rec : run.records) result.failed += rec.ok ? 0 : 1;
  if (!run.error.empty()) {
    result.Fail(run.error);
    if (run.final_snapshot == nullptr) return result;
  }
  if (in.durable) {
    std::fprintf(stderr, "perfbench: restart served again after %.4f s\n",
                 run.recovery_s);
    Require(CheckRecovery(run.before_stop, run.after_restart, run.committed),
            "recovery", &result);
  }
  auto oracle = LoadOracle(in);
  if (!oracle.ok()) {
    result.Fail("oracle: " + oracle.status().ToString());
  } else {
    const auto policies = ParsePolicies(in);
    Require(CheckHistory(in, policies, run.records, &*oracle), "reads",
            &result);
    Require(CheckSnapshotSigns(*run.final_snapshot, in, policies,
                               oracle->document()),
            "final signs", &result);
    Require(CheckNodeCount(*run.final_snapshot, oracle->document()),
            "node count", &result);
  }
  run.samples.Report(run.gauge, run.setup_seconds, run.peak_rss_mb, &result);
  return result;
}

RelationalSession RunRelationalSession(const Inputs& in) {
  RelationalSession out;
  const double setup_start = NowSeconds();
  out.controller = std::make_unique<xmlac::engine::AccessController>(
      std::make_unique<xmlac::engine::RelationalBackend>(), EngineOptions());
  xmlac::engine::AccessController& ac = *out.controller;
  xmlac::Status st = ac.Load(in.dtd_text, in.doc_text);
  if (st.ok()) st = ac.SetPolicy(in.subjects[0].policy_text);
  out.setup_seconds = NowSeconds() - setup_start;
  if (!st.ok()) {
    out.error = "set-up: " + st.ToString();
    return out;
  }
  auto oracle = LoadOracle(in);
  if (!oracle.ok()) {
    out.error = "oracle: " + oracle.status().ToString();
    return out;
  }
  out.signs_after_setup = CheckRelationalSigns(
      ac.backend(), ParsePolicies(in)[0], oracle->document());

  out.records.reserve(in.ops.size());
  for (const Op& op : in.ops) {
    out.gauge.MaybeSample();
    OpRecord rec;
    const double start = NowSeconds();
    if (op.kind == OpKind::kRead) {
      auto outcome = ac.Query(in.queries[op.query]);
      // A denial is an answer (kAccessDenied), not a failed operation.
      rec.ok = outcome.ok() || outcome.status().code() ==
                                   xmlac::StatusCode::kAccessDenied;
      rec.granted = outcome.ok() && outcome->granted;
      if (outcome.ok()) rec.selected = outcome->ids.size();
    } else {
      const UpdatePair& pair = in.pairs[op.pair];
      auto stats = op.kind == OpKind::kDelete
                       ? ac.Update(pair.Delete().xpath)
                       : ac.Insert(pair.parent_xpath, pair.fragment_xml);
      rec.ok = stats.ok();
    }
    out.samples.Add(op, NowSeconds() - start, out.gauge.block());
    out.records.push_back(rec);
  }
  out.peak_rss_mb = PeakRssMb();
  return out;
}

RunResult RunRelational(const Inputs& in) {
  RunResult result;
  RelationalSession run = RunRelationalSession(in);
  result.attempted = run.records.size();
  for (const OpRecord& rec : run.records) result.failed += rec.ok ? 0 : 1;
  if (!run.error.empty()) {
    result.Fail(run.error);
    return result;
  }
  Require(run.signs_after_setup, "signs after annotation", &result);
  auto oracle = LoadOracle(in);
  if (!oracle.ok()) {
    result.Fail("oracle: " + oracle.status().ToString());
  } else {
    const auto policies = ParsePolicies(in);
    Require(CheckHistory(in, policies, run.records, &*oracle), "requests",
            &result);
    Require(CheckRelationalSigns(run.controller->backend(), policies[0],
                                 oracle->document()),
            "signs after the run", &result);
  }
  run.samples.Report(run.gauge, run.setup_seconds, run.peak_rss_mb, &result);
  return result;
}

}  // namespace perfbench

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload NAME --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR]\n"
               "       perfbench_driver --self-test [--work-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
  bool self_test = false;
  std::string work_dir = ".bench_build/work";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--self-test") {
      self_test = true;
      continue;
    }
    if ((v = value()) == nullptr) return Usage();
    if (arg == "--workload") {
      workload = v;
    } else if (arg == "--seed") {
      seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::atoi(v);
    } else if (arg == "--trace") {
      trace = std::atoi(v);
    } else if (arg == "--work-dir") {
      work_dir = v;
    } else {
      return Usage();
    }
  }
  work_dir += "/" + std::to_string(getpid());
  std::filesystem::create_directories(work_dir);
  if (self_test) {
    bool ok = perfbench::RunSelfTest(work_dir);
    std::filesystem::remove_all(work_dir);
    std::printf("self-test %s\n", ok ? "passed" : "FAILED");
    return ok ? 0 : 1;
  }
  if (!perfbench::KnownWorkload(workload) || seconds < 1 ||
      (trace != 0 && trace != 1)) {
    return Usage();
  }

  const double start = perfbench::NowSeconds();
  auto inputs = perfbench::MakeInputs(workload, seed, seconds);
  if (!inputs.ok()) {
    std::fprintf(stderr, "perfbench: inputs: %s\n",
                 inputs.status().ToString().c_str());
    return 1;
  }
  perfbench::RunResult result =
      trace == 1 ? perfbench::RunTraced(*inputs, work_dir)
      : inputs->store == perfbench::Store::kServe
          ? perfbench::RunServe(*inputs, work_dir)
          : perfbench::RunRelational(*inputs);
  std::filesystem::remove_all(work_dir);
  std::fprintf(stderr, "perfbench: %s seed %llu: %.1f s in all\n",
               workload.c_str(), static_cast<unsigned long long>(seed),
               perfbench::NowSeconds() - start);
  if (!result.correct) {
    std::fprintf(stderr, "perfbench: check failed: %s\n",
                 result.failure.c_str());
  }
  std::printf("%s\n", perfbench::ResultJson(result).c_str());
  return 0;
}
