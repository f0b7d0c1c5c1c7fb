#ifndef XMLAC_PERFBENCH_CHECKS_H_
#define XMLAC_PERFBENCH_CHECKS_H_

// Correctness checks of a run's outputs against the brute-force oracle in
// src/testing/oracle.h, which shares no evaluation code with the fast
// paths.  Each check returns an empty string when it holds, otherwise a
// description of the first difference.  They take plain recorded values so
// the self-test can feed them known-wrong answers.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "engine/backend.h"
#include "perfbench/inputs.h"
#include "policy/policy.h"
#include "serve/snapshot.h"
#include "testing/oracle.h"
#include "xml/document.h"

namespace perfbench {

// What the client saw for one operation of Inputs::ops (same index).
struct OpRecord {
  bool ok = true;
  bool granted = false;
  size_t selected = 0;
  size_t accessible = 0;
  uint64_t epoch = 0;  // serve only
};

// Parsed subject policies, in Inputs::subjects order.
std::vector<xmlac::policy::Policy> ParsePolicies(const Inputs& in);

// The oracle's starting point: the workload document parsed from its text.
xmlac::Result<xmlac::testing::OracleModel> LoadOracle(const Inputs& in);

// Replays `in.ops` on `oracle` in order.  Serve runs: every read's granted,
// selected and accessible values and epoch, and every update's commit
// epoch (one batch per update, starting from epoch 1), must match.
// Relational runs: every request's grant, and the selected count of a
// granted one, must match.  Reads are checked per Inputs::read_check_stride.
// `skip_update` (self-test) leaves that op index out of the replay.
std::string CheckHistory(const Inputs& in,
                         const std::vector<xmlac::policy::Policy>& policies,
                         const std::vector<OpRecord>& records,
                         xmlac::testing::OracleModel* oracle,
                         int64_t skip_update = -1);

// Each subject's sign per alive element, in document order.
struct ServedState {
  uint64_t epoch = 0;
  std::map<std::string, std::vector<char>> signs;
};
ServedState CaptureState(const xmlac::serve::Snapshot& snapshot);

// Every subject's signs in `snapshot` equal OracleSigns on `oracle_doc`,
// element by element in document order.
std::string CheckSnapshotSigns(
    const xmlac::serve::Snapshot& snapshot, const Inputs& in,
    const std::vector<xmlac::policy::Policy>& policies,
    const xmlac::xml::Document& oracle_doc);

// Every subject's element count in `snapshot` equals the oracle's.
std::string CheckNodeCount(const xmlac::serve::Snapshot& snapshot,
                           const xmlac::xml::Document& oracle_doc);

// The restarted server's state equals the state before it stopped, and its
// epoch is 1 plus the updates the client saw committed.
std::string CheckRecovery(const ServedState& before, const ServedState& after,
                          uint64_t committed_updates);

// The relational store's signs equal OracleSigns on `oracle_doc` (ids are
// shared: the store is shredded from the same parse, and inserts allocate
// ids in the same order as the oracle's), and its tuple count matches.
std::string CheckRelationalSigns(xmlac::engine::Backend* store,
                                 const xmlac::policy::Policy& policy,
                                 const xmlac::xml::Document& oracle_doc);

}  // namespace perfbench

#endif  // XMLAC_PERFBENCH_CHECKS_H_
