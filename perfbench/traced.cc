// Traced run: replays the workload's inputs and operation sequence with the
// driver calling each layer's public function itself and timing it, so
// every per-layer metric comes from a span around one call.  Nothing
// inside the program is instrumented for this; the only program counters
// read are the ones it already keeps (xpath.*, reldb.rows_scanned, the
// rule cache's stats).
//
// Every workload runs every stage on its own inputs, in four phases that
// each free their stores before the next starts (bounding peak memory):
//   1. xml + policy: parse, clone, optimize, native annotation, Trigger;
//   2. serve reads: Server::Query vs QuerySnapshot vs xpath::Evaluate;
//   3. writer path: fleet ApplyBatch, WAL record/append/sync, snapshot
//      build, checkpoint write, recovery;
//   4. relational: shred load, Fig. 5 annotation set, SetSigns,
//      XPath->SQL, DeleteWhere, controller ApplyBatch and requests.

#include <filesystem>
#include <memory>

#include "engine/multi_subject.h"
#include "engine/native_backend.h"
#include "engine/relational_backend.h"
#include "obs/metrics.h"
#include "perfbench/checks.h"
#include "perfbench/driver.h"
#include "policy/optimizer.h"
#include "policy/semantics.h"
#include "policy/trigger.h"
#include "shred/xpath_to_sql.h"
#include "storage/checkpoint.h"
#include "storage/recovery.h"
#include "storage/wal.h"
#include "xml/dtd.h"
#include "xml/parser.h"
#include "xml/schema_graph.h"
#include "xpath/evaluator.h"
#include "xpath/parser.h"
#include "xpath/structural_index.h"

namespace perfbench {

namespace {

namespace engine = xmlac::engine;
namespace storage = xmlac::storage;
using xmlac::Status;
using xmlac::policy::Policy;
using xmlac::xml::Document;

// Caps on the reads replayed stage by stage (the first ones in sequence
// order); per-layer figures are medians, and the cap keeps a traced run of
// the largest workload well inside its time limit.
constexpr size_t kTracedServeReads = 2000;
constexpr size_t kTracedRelationalReads = 300;
constexpr int kRepeats = 3;

// Times `fn` once, in seconds.
template <typename Fn>
double Time(Fn&& fn) {
  const double start = NowSeconds();
  fn();
  return NowSeconds() - start;
}

engine::BatchOp OpFor(const Inputs& in, const Op& op) {
  const UpdatePair& pair = in.pairs[op.pair];
  return op.kind == OpKind::kDelete ? pair.Delete() : pair.Insert();
}

struct Context {
  const Inputs& in;
  const std::string& work_dir;
  RunResult* result;
  xmlac::xml::Dtd dtd;
  Document doc;
  std::vector<Policy> policies;
  std::vector<xmlac::xpath::Path> queries;

  void Check(const Status& st, const char* what) {
    ++result->attempted;
    if (!st.ok()) {
      ++result->failed;
      result->Fail(std::string(what) + ": " + st.ToString());
    }
  }
};

void XmlAndPolicy(Context& c) {
  RunResult& r = *c.result;
  std::vector<double> parse_s, clone_s;
  for (int i = 0; i < kRepeats; ++i) {
    parse_s.push_back(
        Time([&] { c.Check(xmlac::xml::ParseDocument(c.in.doc_text).status(),
                           "parse"); }));
    clone_s.push_back(Time([&] { Document copy = c.doc.Clone(); }));
  }
  r.Set("xml.parse_ms", Median(parse_s) * 1e3, "ms");
  r.Set("xml.clone_ms", Median(clone_s) * 1e3, "ms");

  xmlac::xml::SchemaGraph schema(c.dtd);
  std::vector<double> optimize_s, annotate_s, trigger_s;
  std::vector<Policy> optimized;
  for (const Policy& policy : c.policies) {
    xmlac::xpath::ContainmentCache cold;
    optimize_s.push_back(Time([&] {
      optimized.push_back(xmlac::policy::EliminateRedundantRules(
          policy, nullptr, &cold));
    }));
    engine::AccessController ac(std::make_unique<engine::NativeXmlBackend>(),
                                EngineOptions());
    c.Check(ac.LoadParsed(c.dtd, c.doc), "native load");
    annotate_s.push_back(
        Time([&] { c.Check(ac.SetPolicyParsed(policy), "annotate"); }));
  }
  for (const Policy& policy : optimized) {
    xmlac::xpath::ContainmentCache cache;
    xmlac::policy::TriggerOptions topt;
    topt.containment_cache = &cache;
    xmlac::policy::TriggerIndex index(policy, &schema, topt);
    for (const Op& op : c.in.ops) {
      if (op.kind != OpKind::kDelete || !op.timed) continue;
      auto u = xmlac::xpath::ParsePath(OpFor(c.in, op).xpath);
      if (!u.ok()) continue;
      trigger_s.push_back(Time([&] { index.Trigger(*u); }));
    }
  }
  r.Set("policy.optimize_ms", Median(optimize_s) * 1e3, "ms");
  r.Set("engine.annotate_ms", Median(annotate_s) * 1e3, "ms");
  r.Set("policy.trigger_us", Median(trigger_s) * 1e6, "us");
}

void ServeReads(Context& c) {
  RunResult& r = *c.result;
  xmlac::serve::Server server(ServeOptions(""));
  Status st = server.LoadParsed(c.dtd, c.doc);
  for (const Subject& s : c.in.subjects) {
    if (st.ok()) st = server.AddSubject(s.name, s.policy_text);
  }
  if (st.ok()) st = server.Start();
  c.Check(st, "serve set-up");
  if (!st.ok()) return;

  xmlac::obs::MetricsRegistry registry;
  xmlac::obs::Counter* visited = registry.counter("xpath.nodes_visited");
  xmlac::obs::Counter* fanouts = registry.counter("xpath.shard.fanouts");
  std::vector<double> query_s, snapshot_s, handoff_s, eval_s, serial_s;
  size_t timed_reads = 0;
  uint64_t visits = 0, fanouts_total = 0;
  for (const Op& op : c.in.ops) {
    if (timed_reads == kTracedServeReads) break;
    if (op.kind != OpKind::kRead) {
      const engine::BatchOp u = OpFor(c.in, op);
      auto resp = u.kind == engine::BatchOp::Kind::kDelete
                      ? server.Update(u.xpath)
                      : server.Insert(u.xpath, u.fragment_xml);
      c.Check(resp.status, "serve update");
      continue;
    }
    const std::string& name = c.in.subjects[op.subject].name;
    const xmlac::xpath::Path& query = c.queries[op.query];
    xmlac::serve::ServeResponse resp;
    const double query_t = Time([&] {
      resp = server.Query(name, c.in.queries[op.query]);
    });
    c.Check(resp.status, "serve read");
    xmlac::serve::SnapshotPtr snap = server.CurrentSnapshot();
    xmlac::Result<engine::RequestOutcome> outcome =
        Status::Internal("not run");
    const double snapshot_t = Time([&] {
      outcome = xmlac::serve::QuerySnapshot(*snap, name, query);
    });
    c.Check(outcome.status(), "QuerySnapshot");
    if (outcome.ok() && (outcome->granted != resp.granted ||
                         outcome->selected != resp.selected ||
                         outcome->accessible != resp.accessible)) {
      r.Fail("QuerySnapshot disagrees with Server::Query on " +
             c.in.queries[op.query]);
    }
    const xmlac::serve::SubjectView& view = snap->subjects.find(name)->second;
    xmlac::xpath::EvaluatorOptions options;
    options.use_structural_index =
        view.index != nullptr && view.index->Matches(*view.doc);
    options.index = view.index.get();
    std::vector<xmlac::xml::NodeId> sharded, serial;
    const uint64_t visited_before = visited->value();
    const uint64_t fanouts_before = fanouts->value();
    double eval_t = 0.0;
    {
      xmlac::obs::ScopedMetrics scoped(&registry);
      eval_t = Time([&] {
        sharded = xmlac::xpath::Evaluate(query, *view.doc, options);
      });
    }
    options.shard.enabled = false;
    const double serial_t = Time([&] {
      serial = xmlac::xpath::Evaluate(query, *view.doc, options);
    });
    if (sharded != serial) {
      r.Fail("sharded and serial evaluation differ on " +
             c.in.queries[op.query]);
    }
    if (!op.timed) continue;
    ++timed_reads;
    query_s.push_back(query_t);
    snapshot_s.push_back(snapshot_t);
    handoff_s.push_back(query_t - snapshot_t);
    eval_s.push_back(eval_t);
    serial_s.push_back(serial_t);
    visits += visited->value() - visited_before;
    fanouts_total += fanouts->value() - fanouts_before;
  }
  server.Stop();
  const double reads = static_cast<double>(std::max<size_t>(timed_reads, 1));
  r.Set("serve.query_snapshot_us", Median(snapshot_s) * 1e6, "us");
  r.Set("serve.read_handoff_us", Median(handoff_s) * 1e6, "us");
  r.Set("xpath.eval_us", Median(eval_s) * 1e6, "us");
  r.Set("xpath.eval_serial_us", Median(serial_s) * 1e6, "us");
  r.Set("xpath.nodes_visited_per_read", visits / reads, "count");
  r.Set("xpath.shard_fanouts_per_read", fanouts_total / reads, "count");
}

void WriterPath(Context& c) {
  RunResult& r = *c.result;
  engine::MultiSubjectOptions mopt;
  mopt.parallel_subjects = kParallelSubjects;
  mopt.shard_threads = kShardThreads;
  auto factory = [] { return std::make_unique<engine::NativeXmlBackend>(); };
  const std::string wal_dir = c.work_dir + "/traced-wal";
  const std::string ckpt_dir = c.work_dir + "/traced-checkpoint";
  std::filesystem::remove_all(wal_dir);
  std::filesystem::remove_all(ckpt_dir);
  std::filesystem::create_directories(ckpt_dir);

  ServedState final_state;
  uint64_t epoch = 1;
  {
    engine::MultiSubjectController fleet(factory, mopt);
    Status st = fleet.LoadParsed(c.dtd, c.doc);
    for (const Subject& s : c.in.subjects) {
      if (st.ok()) st = fleet.AddSubject(s.name, s.policy_text);
    }
    c.Check(st, "fleet set-up");
    if (!st.ok()) return;
    storage::WalOptions wopt;
    wopt.dir = wal_dir;
    auto wal = storage::Wal::Open(wopt);
    c.Check(wal.status(), "WAL open");
    if (!wal.ok()) return;

    // Genesis, as the server writes it at Start.
    storage::InstallRecord install;
    install.rule_cache_epoch = fleet.rule_cache().epoch();
    install.dtd_text = c.in.dtd_text;
    fleet.document().AppendBinary(&install.master_binary);
    for (const Subject& s : c.in.subjects) {
      engine::AccessController* ac = fleet.subject(s.name);
      install.subjects.push_back({s.name, s.policy_text,
                                  ac->CurrentDefaultSign(),
                                  ac->ExportMarkedSigns()});
    }
    c.Check((*wal)->Append(1, storage::EncodeInstallRecord(install)),
            "WAL genesis");
    c.Check((*wal)->Sync(), "WAL genesis sync");

    std::vector<double> batch_s, append_s, sync_s, build_s, bytes, rules,
        resigned;
    const auto cache_before = fleet.rule_cache().GetStats();
    for (const Op& op : c.in.ops) {
      if (op.kind == OpKind::kRead) continue;
      const std::vector<engine::BatchOp> ops = {OpFor(c.in, op)};
      engine::CommitCapture capture;
      xmlac::Result<std::map<std::string, engine::BatchStats>> stats =
          Status::Internal("not run");
      const double batch_t =
          Time([&] { stats = fleet.ApplyBatch(ops, &capture); });
      c.Check(stats.status(), "fleet ApplyBatch");
      if (!stats.ok()) return;
      storage::BatchRecord record;
      record.epoch = ++epoch;
      record.ops = ops;
      record.master_mutations = std::move(capture.master_mutations);
      record.deltas = std::move(capture.subjects);
      const std::string payload = storage::EncodeBatchRecord(record);
      const double append_t = Time(
          [&] { c.Check((*wal)->Append(epoch, payload), "WAL append"); });
      const double sync_t =
          Time([&] { c.Check((*wal)->Sync(), "WAL sync"); });
      xmlac::Result<xmlac::serve::SnapshotPtr> snap =
          Status::Internal("not run");
      const double build_t =
          Time([&] { snap = xmlac::serve::BuildSnapshot(fleet, epoch); });
      c.Check(snap.status(), "BuildSnapshot");
      if (!op.timed) continue;
      batch_s.push_back(batch_t);
      append_s.push_back(append_t);
      sync_s.push_back(sync_t);
      build_s.push_back(build_t);
      bytes.push_back(static_cast<double>(payload.size()));
      size_t triggered = 0, changed = 0;
      for (const auto& [name, s] : *stats) {
        triggered += s.rules_triggered;
        changed += s.reannotation.marked + s.reannotation.reset;
      }
      rules.push_back(static_cast<double>(triggered));
      resigned.push_back(static_cast<double>(changed));
    }
    const auto cache_after = fleet.rule_cache().GetStats();
    const double hits = static_cast<double>(cache_after.hits -
                                            cache_before.hits);
    const double misses = static_cast<double>(cache_after.misses -
                                              cache_before.misses);
    r.Set("engine.fleet_batch_ms", Median(batch_s) * 1e3, "ms");
    r.Set("engine.rule_cache_hit_rate",
          hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
    r.Set("engine.nodes_resigned_per_update", Mean(resigned), "count");
    r.Set("policy.rules_triggered_per_update", Mean(rules), "count");
    r.Set("storage.wal_append_us", Median(append_s) * 1e6, "us");
    r.Set("storage.wal_sync_us", Median(sync_s) * 1e6, "us");
    r.Set("storage.record_bytes", Mean(bytes), "bytes");
    r.Set("serve.snapshot_build_ms", Median(build_s) * 1e3, "ms");

    auto final_snap = xmlac::serve::BuildSnapshot(fleet, epoch);
    c.Check(final_snap.status(), "BuildSnapshot");
    if (final_snap.ok()) final_state = CaptureState(**final_snap);

    // A checkpoint of the final state, written the way the checkpointer
    // writes one (interval labels aside: the fleet does not expose them).
    storage::CheckpointData data;
    data.epoch = epoch;
    data.rule_cache_epoch = fleet.rule_cache().epoch();
    data.dtd_text = c.in.dtd_text;
    fleet.document().AppendBinary(&data.master_binary);
    for (const Subject& s : c.in.subjects) {
      engine::AccessController* ac = fleet.subject(s.name);
      data.subjects.push_back({s.name, s.policy_text, ac->CurrentDefaultSign(),
                               ac->ExportMarkedSigns()});
    }
    std::vector<double> ckpt_s;
    for (int i = 0; i < kRepeats; ++i) {
      ckpt_s.push_back(Time([&] {
        c.Check(storage::WriteCheckpoint(ckpt_dir, data), "WriteCheckpoint");
      }));
    }
    r.Set("storage.checkpoint_write_ms", Median(ckpt_s) * 1e3, "ms");
  }

  std::vector<double> recover_s;
  for (int i = 0; i < kRepeats; ++i) {
    engine::MultiSubjectController fresh(factory, mopt);
    xmlac::Result<storage::RecoveredState> rec = Status::Internal("not run");
    recover_s.push_back(
        Time([&] { rec = storage::RecoverState(wal_dir, &fresh); }));
    c.Check(rec.status(), "RecoverState");
    if (i > 0 || !rec.ok()) continue;
    auto snap = xmlac::serve::BuildSnapshot(fresh, rec->epoch);
    c.Check(snap.status(), "BuildSnapshot after recovery");
    if (snap.ok()) {
      const std::string diff =
          CheckRecovery(final_state, CaptureState(**snap), epoch - 1);
      if (!diff.empty()) r.Fail("traced recovery: " + diff);
    }
  }
  r.Set("storage.recover_ms", Median(recover_s) * 1e3, "ms");
  std::filesystem::remove_all(wal_dir);
  std::filesystem::remove_all(ckpt_dir);
}

void Relational(Context& c) {
  RunResult& r = *c.result;
  const Policy& policy = c.policies[0];
  xmlac::xpath::ContainmentCache cache;
  const Policy optimized =
      xmlac::policy::EliminateRedundantRules(policy, nullptr, &cache);
  {
    engine::RelationalBackend store;
    const double load_t =
        Time([&] { c.Check(store.Load(c.dtd, c.doc), "shred load"); });
    r.Set("shred.load_ms", load_t * 1e3, "ms");
    const auto plan = xmlac::policy::PlanFor(optimized.default_semantics(),
                                             optimized.conflict_resolution());
    std::vector<size_t> all(optimized.size());
    for (size_t i = 0; i < all.size(); ++i) all[i] = i;
    const char mark = plan.mark == xmlac::policy::Effect::kAllow ? '+' : '-';
    const char fallback = mark == '+' ? '-' : '+';
    std::vector<double> set_s, signs_s, translate_s, delete_s;
    for (int i = 0; i < kRepeats; ++i) {
      xmlac::Result<std::vector<engine::UniversalId>> ids =
          Status::Internal("not run");
      set_s.push_back(Time([&] {
        ids = store.EvaluateAnnotationSet(optimized, all, plan.combine);
      }));
      c.Check(ids.status(), "EvaluateAnnotationSet");
      if (!ids.ok()) return;
      c.Check(store.ResetAllSigns(fallback), "ResetAllSigns");
      signs_s.push_back(
          Time([&] { c.Check(store.SetSigns(*ids, mark), "SetSigns"); }));
    }
    for (const xmlac::xpath::Path& q : c.queries) {
      translate_s.push_back(Time([&] {
        c.Check(xmlac::shred::TranslateXPath(q, *store.mapping()).status(),
                "TranslateXPath");
      }));
    }
    for (const Op& op : c.in.ops) {
      if (op.kind == OpKind::kRead) continue;
      const engine::BatchOp u = OpFor(c.in, op);
      auto path = xmlac::xpath::ParsePath(u.xpath);
      c.Check(path.status(), "update path");
      if (!path.ok()) return;
      if (u.kind == engine::BatchOp::Kind::kInsert) {
        auto fragment = xmlac::xml::ParseDocument(u.fragment_xml);
        c.Check(fragment.status(), "fragment");
        if (fragment.ok()) {
          c.Check(store.InsertUnder(*path, *fragment).status(), "InsertUnder");
        }
        continue;
      }
      const double t = Time([&] {
        c.Check(store.DeleteWhere(*path).status(), "DeleteWhere");
      });
      if (op.timed) delete_s.push_back(t);
    }
    r.Set("reldb.annotation_set_ms", Median(set_s) * 1e3, "ms");
    r.Set("reldb.set_signs_ms", Median(signs_s) * 1e3, "ms");
    r.Set("reldb.delete_ms", Median(delete_s) * 1e3, "ms");
    r.Set("shred.translate_us", Median(translate_s) * 1e6, "us");
  }

  engine::AccessController ac(std::make_unique<engine::RelationalBackend>(),
                              EngineOptions());
  c.Check(ac.LoadParsed(c.dtd, c.doc), "relational load");
  c.Check(ac.SetPolicyParsed(policy), "relational annotate");
  std::vector<double> full_s, batch_s, rows;
  for (int i = 0; i < kRepeats; ++i) {
    full_s.push_back(Time(
        [&] { c.Check(ac.ReannotateFull().status(), "ReannotateFull"); }));
  }
  xmlac::obs::Counter* scanned = ac.metrics().counter("reldb.rows_scanned");
  size_t timed_reads = 0;
  for (const Op& op : c.in.ops) {
    if (op.kind == OpKind::kRead) {
      if (!op.timed || timed_reads == kTracedRelationalReads) continue;
      ++timed_reads;
      const uint64_t before = scanned->value();
      auto outcome = ac.Query(c.in.queries[op.query]);
      c.Check(outcome.ok() || outcome.status().code() ==
                                  xmlac::StatusCode::kAccessDenied
                  ? Status::OK()
                  : outcome.status(),
              "relational request");
      rows.push_back(static_cast<double>(scanned->value() - before));
      continue;
    }
    const std::vector<engine::BatchOp> ops = {OpFor(c.in, op)};
    xmlac::Result<engine::BatchStats> stats = Status::Internal("not run");
    const double t = Time([&] { stats = ac.ApplyBatch(ops); });
    c.Check(stats.status(), "relational ApplyBatch");
    if (op.timed) batch_s.push_back(t);
  }
  r.Set("engine.reannotate_full_ms", Median(full_s) * 1e3, "ms");
  r.Set("engine.subject_batch_ms", Median(batch_s) * 1e3, "ms");
  r.Set("reldb.rows_scanned_per_query", Mean(rows), "count");

  // The replayed store must still match the oracle after every update.
  auto oracle = LoadOracle(c.in);
  c.Check(oracle.status(), "oracle");
  if (!oracle.ok()) return;
  for (const Op& op : c.in.ops) {
    if (op.kind != OpKind::kRead) c.Check(oracle->Apply(OpFor(c.in, op)),
                                          "oracle update");
  }
  const std::string diff =
      CheckRelationalSigns(ac.backend(), policy, oracle->document());
  if (!diff.empty()) r.Fail("traced relational signs: " + diff);
}

}  // namespace

RunResult RunTraced(const Inputs& in, const std::string& work_dir) {
  RunResult result;
  auto dtd = xmlac::xml::ParseDtd(in.dtd_text);
  auto doc = xmlac::xml::ParseDocument(in.doc_text);
  if (!dtd.ok() || !doc.ok()) {
    result.Fail("inputs do not parse");
    return result;
  }
  Context c{in, work_dir, &result, std::move(*dtd), std::move(*doc),
            ParsePolicies(in), {}};
  for (const std::string& q : in.queries) {
    auto parsed = xmlac::xpath::ParsePath(q);
    if (!parsed.ok()) {
      result.Fail("query does not parse: " + q);
      return result;
    }
    c.queries.push_back(std::move(*parsed));
  }
  XmlAndPolicy(c);
  ServeReads(c);
  WriterPath(c);
  Relational(c);
  return result;
}

}  // namespace perfbench
