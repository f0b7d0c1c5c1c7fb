#include "perfbench/checks.h"

#include <algorithm>

#include "xml/parser.h"
#include "xpath/parser.h"

namespace perfbench {

namespace {

using xmlac::policy::Policy;
using xmlac::testing::OracleModel;
using xmlac::xml::Document;
using xmlac::xml::NodeId;

constexpr char kSignAttr[] = "sign";

std::string Describe(const Inputs& in, size_t index) {
  const Op& op = in.ops[index];
  std::string what = "op " + std::to_string(index) + " (";
  if (op.kind == OpKind::kRead) {
    what += "read " + in.subjects[op.subject].name + " " + in.queries[op.query];
  } else {
    const UpdatePair& pair = in.pairs[op.pair];
    what += op.kind == OpKind::kDelete ? "delete " : "insert under ";
    what += op.kind == OpKind::kDelete ? pair.Delete().xpath
                                       : pair.parent_xpath;
  }
  return what + ")";
}

// OracleRequest's answer, with OracleSigns computed once per subject and
// document state instead of once per request.
struct OracleReads {
  const std::vector<Policy>* policies;
  std::map<size_t, std::map<NodeId, char>> signs;  // by subject

  xmlac::testing::OracleOutcome Request(size_t subject, const Document& doc,
                                        const xmlac::xpath::Path& query) {
    auto it = signs.find(subject);
    if (it == signs.end()) {
      it = signs.emplace(subject, xmlac::testing::OracleSigns(
                                      (*policies)[subject], doc))
               .first;
    }
    xmlac::testing::OracleOutcome out;
    for (NodeId id : xmlac::testing::OracleEval(query, doc)) {
      ++out.selected;
      if (it->second.at(id) == '+') ++out.accessible;
    }
    out.granted = out.accessible == out.selected;
    return out;
  }
};

}  // namespace

std::vector<Policy> ParsePolicies(const Inputs& in) {
  std::vector<Policy> out;
  for (const Subject& s : in.subjects) {
    auto parsed = xmlac::policy::ParsePolicy(s.policy_text);
    out.push_back(parsed.ok() ? std::move(*parsed) : Policy());
  }
  return out;
}

xmlac::Result<OracleModel> LoadOracle(const Inputs& in) {
  XMLAC_ASSIGN_OR_RETURN(Document doc, xmlac::xml::ParseDocument(in.doc_text));
  OracleModel oracle;
  oracle.Load(doc);
  return oracle;
}

std::string CheckHistory(const Inputs& in, const std::vector<Policy>& policies,
                         const std::vector<OpRecord>& records,
                         OracleModel* oracle, int64_t skip_update) {
  if (records.size() != in.ops.size()) {
    return "recorded " + std::to_string(records.size()) + " of " +
           std::to_string(in.ops.size()) + " operations";
  }
  const bool serve = in.store == Store::kServe;
  std::vector<xmlac::xpath::Path> queries;
  for (const std::string& q : in.queries) {
    auto parsed = xmlac::xpath::ParsePath(q);
    if (!parsed.ok()) return "query does not parse: " + q;
    queries.push_back(std::move(*parsed));
  }
  OracleReads reads{&policies, {}};
  // Per query and subject at the current document state.
  std::map<std::pair<size_t, size_t>, xmlac::testing::OracleOutcome> memo;
  uint64_t epoch = 1;
  const size_t stride = std::max<size_t>(in.read_check_stride, 1);
  for (size_t i = 0; i < in.ops.size(); ++i) {
    const Op& op = in.ops[i];
    const OpRecord& got = records[i];
    if (!got.ok) return Describe(in, i) + " failed";
    if (op.kind != OpKind::kRead) {
      ++epoch;
      if (serve && got.epoch != epoch) {
        return Describe(in, i) + " committed at epoch " +
               std::to_string(got.epoch) + ", oracle expects " +
               std::to_string(epoch);
      }
      if (static_cast<int64_t>(i) == skip_update) continue;
      const UpdatePair& pair = in.pairs[op.pair];
      xmlac::Status st = oracle->Apply(op.kind == OpKind::kDelete
                                           ? pair.Delete()
                                           : pair.Insert());
      if (!st.ok()) return Describe(in, i) + " oracle: " + st.ToString();
      reads.signs.clear();
      memo.clear();
      continue;
    }
    if ((epoch - 1) % stride != 0) continue;
    auto key = std::make_pair(op.subject, op.query);
    auto it = memo.find(key);
    if (it == memo.end()) {
      it = memo.emplace(key, reads.Request(op.subject, oracle->document(),
                                           queries[op.query]))
               .first;
    }
    const xmlac::testing::OracleOutcome& want = it->second;
    bool same = got.granted == want.granted;
    if (serve) {
      same = same && got.selected == want.selected &&
             got.accessible == want.accessible && got.epoch == epoch;
    } else if (got.granted) {
      same = same && got.selected == want.selected;
    }
    if (!same) {
      return Describe(in, i) + ": got granted=" +
             std::to_string(got.granted) + " selected=" +
             std::to_string(got.selected) + " accessible=" +
             std::to_string(got.accessible) + " epoch=" +
             std::to_string(got.epoch) + ", oracle granted=" +
             std::to_string(want.granted) + " selected=" +
             std::to_string(want.selected) + " accessible=" +
             std::to_string(want.accessible) + " epoch=" +
             std::to_string(epoch);
    }
  }
  return "";
}

ServedState CaptureState(const xmlac::serve::Snapshot& snapshot) {
  ServedState state;
  state.epoch = snapshot.epoch;
  for (const auto& [name, view] : snapshot.subjects) {
    std::vector<char>& signs = state.signs[name];
    for (NodeId id : view.doc->AllElements()) {
      auto attr = view.doc->GetAttribute(id, kSignAttr);
      signs.push_back(attr.has_value() && !attr->empty() ? (*attr)[0]
                                                         : view.default_sign);
    }
  }
  return state;
}

std::string CheckSnapshotSigns(const xmlac::serve::Snapshot& snapshot,
                               const Inputs& in,
                               const std::vector<Policy>& policies,
                               const Document& oracle_doc) {
  const std::vector<NodeId> want_ids = oracle_doc.AllElements();
  for (size_t s = 0; s < in.subjects.size(); ++s) {
    const std::string& name = in.subjects[s].name;
    auto it = snapshot.subjects.find(name);
    if (it == snapshot.subjects.end()) return "snapshot lacks subject " + name;
    const Document& doc = *it->second.doc;
    const std::vector<NodeId> got_ids = doc.AllElements();
    if (got_ids.size() != want_ids.size()) {
      return name + ": snapshot has " + std::to_string(got_ids.size()) +
             " elements, oracle " + std::to_string(want_ids.size());
    }
    std::map<NodeId, char> want = xmlac::testing::OracleSigns(policies[s],
                                                              oracle_doc);
    for (size_t k = 0; k < got_ids.size(); ++k) {
      auto attr = doc.GetAttribute(got_ids[k], kSignAttr);
      char got = attr.has_value() && !attr->empty() ? (*attr)[0]
                                                    : it->second.default_sign;
      const std::string& label = doc.node(got_ids[k]).label;
      if (label != oracle_doc.node(want_ids[k]).label ||
          got != want.at(want_ids[k])) {
        return name + ": element " + std::to_string(k) + " <" + label +
               "> sign " + got + ", oracle <" +
               oracle_doc.node(want_ids[k]).label + "> " +
               want.at(want_ids[k]);
      }
    }
  }
  return "";
}

std::string CheckNodeCount(const xmlac::serve::Snapshot& snapshot,
                           const Document& oracle_doc) {
  const size_t want = oracle_doc.AllElements().size();
  for (const auto& [name, view] : snapshot.subjects) {
    size_t got = view.doc->AllElements().size();
    if (got != want) {
      return name + ": " + std::to_string(got) + " elements, oracle " +
             std::to_string(want);
    }
  }
  return "";
}

std::string CheckRecovery(const ServedState& before, const ServedState& after,
                          uint64_t committed_updates) {
  if (before.epoch != 1 + committed_updates) {
    return "epoch before stop " + std::to_string(before.epoch) + " but " +
           std::to_string(committed_updates) + " updates committed";
  }
  if (after.epoch != before.epoch) {
    return "recovered epoch " + std::to_string(after.epoch) + ", expected " +
           std::to_string(before.epoch);
  }
  if (after.signs.size() != before.signs.size()) return "subject set differs";
  for (const auto& [name, signs] : before.signs) {
    auto it = after.signs.find(name);
    if (it == after.signs.end()) return "recovered state lacks " + name;
    if (it->second != signs) return name + ": recovered signs differ";
  }
  return "";
}

std::string CheckRelationalSigns(xmlac::engine::Backend* store,
                                 const Policy& policy,
                                 const Document& oracle_doc) {
  std::map<NodeId, char> want = xmlac::testing::OracleSigns(policy, oracle_doc);
  if (store->NodeCount() != want.size()) {
    return "store holds " + std::to_string(store->NodeCount()) +
           " elements, oracle " + std::to_string(want.size());
  }
  for (const auto& [id, sign] : want) {
    auto got = store->GetSign(static_cast<xmlac::engine::UniversalId>(id));
    if (!got.ok()) return "id " + std::to_string(id) + ": " +
                          got.status().ToString();
    if (*got != sign) {
      return "id " + std::to_string(id) + " <" + oracle_doc.node(id).label +
             "> sign " + *got + ", oracle " + sign;
    }
  }
  return "";
}

}  // namespace perfbench
