#ifndef XMLAC_PERFBENCH_INPUTS_H_
#define XMLAC_PERFBENCH_INPUTS_H_

// Seeded workload inputs.  Everything a run does is fixed here, before any
// timing starts: the document text, the subjects' policy texts, the query
// set, the delete/re-insert update pairs and the exact operation sequence
// the single closed-loop client replays.

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/access_controller.h"

namespace perfbench {

enum class Store { kServe, kRelational };

enum class OpKind { kRead, kDelete, kInsert };

struct Op {
  OpKind kind = OpKind::kRead;
  size_t subject = 0;  // reads
  size_t query = 0;    // reads
  size_t pair = 0;     // deletes and inserts
  // Warm-up operations run (and are checked) but are not timed.
  bool timed = true;
  // Timed operations that count toward ops_s.  On xmark-read only the
  // read-only phase does; its trailing update phase only feeds the update
  // latencies, so a write-path change leaves its throughput alone.
  bool throughput = true;
};

// One delete paired with a re-insert of the same subtree under the same,
// uniquely selected parent, so document size and sign counts stay level
// however long the run is.
struct UpdatePair {
  std::string parent_xpath;  // selects exactly one element
  std::string child_label;   // the deleted subtree's root (a last child)
  std::string fragment_xml;  // the subtree as generated

  xmlac::engine::BatchOp Delete() const {
    return xmlac::engine::BatchOp::Delete(parent_xpath + "/" + child_label);
  }
  xmlac::engine::BatchOp Insert() const {
    return xmlac::engine::BatchOp::Insert(parent_xpath, fragment_xml);
  }
};

struct Subject {
  std::string name;
  std::string policy_text;
};

struct Inputs {
  std::string workload;
  Store store = Store::kServe;
  bool durable = false;  // WAL at the default fdatasync level
  // Reads are checked against the oracle at every document state reached
  // after a multiple of this many updates (1 = every read).  Brute-force
  // signs cost one naive evaluation of every rule per state, too slow for
  // every state of the relational workload's document.
  size_t read_check_stride = 1;
  std::string dtd_text;
  std::string doc_text;
  std::vector<Subject> subjects;
  std::vector<std::string> queries;
  std::vector<UpdatePair> pairs;
  std::vector<Op> ops;
};

// Thread settings shared by every store the driver builds (4-core host:
// one client thread plus at most this many engine threads).
inline constexpr size_t kServerWorkers = 2;
inline constexpr size_t kParallelSubjects = 2;
inline constexpr size_t kShardThreads = 2;

bool KnownWorkload(const std::string& name);

// Deterministic in (workload, seed, seconds).  `seconds` scales the number
// of timed operations; it never bounds a run by wall time.
xmlac::Result<Inputs> MakeInputs(const std::string& workload, uint64_t seed,
                                 int seconds);

}  // namespace perfbench

#endif  // XMLAC_PERFBENCH_INPUTS_H_
