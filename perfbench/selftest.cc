// Self-test of the benchmark's correctness checks: each check is first run
// on a short, real run's answers (it must pass), then fed the same answers
// with one known fault injected (it must fail).
//
//   flipped sign          one sign flipped in a copy of the final snapshot
//   dropped element       one element deleted from that copy (node count)
//   dropped update        one update left out of the oracle replay
//   altered request       one relational request's grant flipped
//   lost batch            recovery from a data directory whose last WAL
//                         record is torn, i.e. one committed batch missing

#include <filesystem>
#include <memory>

#include "perfbench/checks.h"
#include "perfbench/driver.h"
#include "serve/server.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;

// Short inputs: the first `ops` operations of the workload's sequence.
xmlac::Result<Inputs> ShortInputs(const std::string& workload, size_t ops) {
  XMLAC_ASSIGN_OR_RETURN(Inputs in, MakeInputs(workload, 1, 1));
  if (in.ops.size() > ops) in.ops.resize(ops);
  return in;
}

struct Tally {
  bool ok = true;

  // `clean` is the check on the untouched answers, `injected` on the
  // faulty ones.
  void Expect(const char* name, const std::string& clean,
              const std::string& injected) {
    const bool pass = clean.empty() && !injected.empty();
    std::fprintf(stderr, "self-test %-16s %s%s%s\n", name,
                 pass ? "detected: " : "MISSED",
                 pass ? injected.c_str() : "",
                 clean.empty() ? "" : (" (clean run failed: " + clean +
                                       ")").c_str());
    ok = ok && pass;
  }
};

// A copy of `snapshot` whose first subject's document went through `edit`.
xmlac::serve::Snapshot EditedCopy(
    const xmlac::serve::Snapshot& snapshot,
    const std::function<void(xmlac::xml::Document&)>& edit) {
  xmlac::serve::Snapshot copy = snapshot;
  auto& view = copy.subjects.begin()->second;
  xmlac::xml::Document doc = view.doc->Clone();
  edit(doc);
  view.doc = std::make_shared<const xmlac::xml::Document>(std::move(doc));
  view.index = nullptr;
  return copy;
}

// Cuts the last byte off the newest non-empty WAL segment in `dir`.
bool TearLastRecord(const std::string& dir) {
  fs::path newest;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("wal-", 0) != 0 || fs::file_size(entry.path()) == 0) {
      continue;
    }
    if (newest.empty() || name > newest.filename().string()) {
      newest = entry.path();
    }
  }
  if (newest.empty()) return false;
  fs::resize_file(newest, fs::file_size(newest) - 1);
  return true;
}

void ServeChecks(const std::string& work_dir, Tally* tally) {
  auto in = ShortInputs("hospital-mixed", 120);
  if (!in.ok()) {
    tally->Expect("serve inputs", in.status().ToString(), "");
    return;
  }
  const std::string data_dir = work_dir + "/selftest-wal";
  const std::string torn_dir = work_dir + "/selftest-torn";
  ServeSession run = RunServeSession(*in, data_dir, torn_dir);
  if (!run.error.empty()) {
    tally->Expect("serve run", run.error, "");
    return;
  }
  const auto policies = ParsePolicies(*in);
  auto oracle = LoadOracle(*in);
  if (!oracle.ok()) {
    tally->Expect("oracle", oracle.status().ToString(), "");
    return;
  }
  const std::string history = CheckHistory(*in, policies, run.records,
                                           &*oracle);
  const xmlac::xml::Document& want = oracle->document();
  const xmlac::serve::Snapshot& snap = *run.final_snapshot;

  // Flip the sign of the last element.
  const char flip_from = snap.subjects.begin()->second.default_sign;
  xmlac::serve::Snapshot flipped =
      EditedCopy(snap, [&](xmlac::xml::Document& doc) {
        xmlac::xml::NodeId id = doc.AllElements().back();
        auto attr = doc.GetAttribute(id, "sign");
        char sign = attr.has_value() && !attr->empty() ? (*attr)[0]
                                                       : flip_from;
        doc.SetAttribute(id, "sign", sign == '+' ? "-" : "+");
      });
  tally->Expect("flipped sign",
                CheckSnapshotSigns(snap, *in, policies, want),
                CheckSnapshotSigns(flipped, *in, policies, want));

  xmlac::serve::Snapshot shrunk =
      EditedCopy(snap, [](xmlac::xml::Document& doc) {
        doc.DeleteSubtree(doc.AllElements().back());
      });
  tally->Expect("dropped element", CheckNodeCount(snap, want),
                CheckNodeCount(shrunk, want));

  int64_t first_delete = -1;
  for (size_t i = 0; i < in->ops.size() && first_delete < 0; ++i) {
    if (in->ops[i].kind == OpKind::kDelete) first_delete = i;
  }
  auto replay = LoadOracle(*in);
  tally->Expect("dropped update", history,
                replay.ok() ? CheckHistory(*in, policies, run.records,
                                           &*replay, first_delete)
                            : "");

  std::string lost = "could not tear the WAL copy";
  if (TearLastRecord(torn_dir)) {
    xmlac::serve::Server torn(ServeOptions(torn_dir));
    xmlac::Status st = torn.Start();
    lost = st.ok() ? CheckRecovery(run.before_stop,
                                   CaptureState(*torn.CurrentSnapshot()),
                                   run.committed)
                   : "restart failed: " + st.ToString();
    torn.Stop();
  }
  tally->Expect("lost batch",
                CheckRecovery(run.before_stop, run.after_restart,
                              run.committed),
                lost);
  fs::remove_all(torn_dir);
}

void RelationalChecks(Tally* tally) {
  auto in = ShortInputs("xmark-relational", 120);
  if (!in.ok()) {
    tally->Expect("relational inputs", in.status().ToString(), "");
    return;
  }
  RelationalSession run = RunRelationalSession(*in);
  if (!run.error.empty()) {
    tally->Expect("relational run", run.error, "");
    return;
  }
  const auto policies = ParsePolicies(*in);
  auto oracle = LoadOracle(*in);
  auto again = LoadOracle(*in);
  if (!oracle.ok() || !again.ok()) {
    tally->Expect("oracle", "oracle does not load", "");
    return;
  }
  std::vector<OpRecord> altered = run.records;
  for (size_t i = 0; i < in->ops.size(); ++i) {
    if (in->ops[i].kind != OpKind::kRead) continue;
    altered[i].granted = !altered[i].granted;
    break;
  }
  tally->Expect("altered request",
                CheckHistory(*in, policies, run.records, &*oracle),
                CheckHistory(*in, policies, altered, &*again));
}

}  // namespace

bool RunSelfTest(const std::string& work_dir) {
  Tally tally;
  ServeChecks(work_dir, &tally);
  RelationalChecks(&tally);
  return tally.ok;
}

}  // namespace perfbench
