#pragma once

/// bladed::mc — extracted protocol models of the engine's concurrency.
///
/// Each model is a faithful, finite extraction of one protocol in
/// src/simnet/cluster.cpp + src/hostperf/hostperf.hpp, built directly on the
/// checked_* shims so `bladed-mc` can explore it in any build configuration.
/// The corresponding code paths are annotated with matching `[mc:<model>]`
/// comments so model and code can be diffed when either changes.
///
///  handshake      The dispatch/compute Dekker handshake (the horizon publish
///                 in Cluster::dispatch_locked racing the ranks' clock
///                 stores), with no scheduler actor: every rank thread that
///                 changes engine state dispatches. Three scenarios:
///                 "handshake-order" proves grant order in (virtual time,
///                 rank id) on a terminating run with a tie;
///                 "handshake-progress" proves a crossing's dispatch cannot
///                 be lost, using a diverging-compute abstraction (the rank
///                 thread exits while logically still computing, standing in
///                 for unbounded host work) so a missed grant is a reachable
///                 deadlock; "handshake-race" races a leaving rank's
///                 dispatch against a crossing rank's for the same grant.
///  recv-fastpath  Comm::recv's locked mailbox fast path: scan and park must
///                 happen under one hold of eng.mu or a delivery's notify is
///                 lost.
///  slot-pool      hostperf::ComputeSlots composed with the dispatch:
///                 a rank must release its compute slot before parking for a
///                 grant, release must notify, and at most `slots` ranks may
///                 compute at once.
///
/// Bugs deliberately seeded into the models (--selftest corpus): each must
/// be refuted by the explorer with a counterexample, demonstrating that the
/// checker actually distinguishes the shipped protocol from its plausible
/// but broken variants.

#include <string>
#include <vector>

#include "mc/executor.hpp"

namespace bladed::mc {

enum class Protocol {
  kHandshake,
  kRecvFastpath,
  kSlotPool,
};

enum class Bug {
  kNone,
  // handshake
  kWeakPublish,       ///< sched_threshold published relaxed, not seq_cst
  kWeakClock,         ///< rank clock stored relaxed, not seq_cst
  kNoRecheck,         ///< no clock re-read after publishing the threshold
  kStrictCompare,     ///< min_lb < horizon instead of <= (ties race)
  kNoCrossingNotify,  ///< compute fast path never dispatches on a crossing
  // recv-fastpath
  kRecheckGap,    ///< lock dropped between mailbox scan and cv wait
  kPlainMailbox,  ///< mailbox scanned without holding eng.mu
  // slot-pool
  kEarlyRelease,     ///< slot released before the compute segment finishes
  kHoldWhileParked,  ///< rank parks for its grant still holding the slot
  kLostRelease,      ///< slot release skips the cv notify
  // handshake (dispatch)
  kDoubleGrant,  ///< dispatch grants while another rank is kRunning
};

const char* protocol_name(Protocol p);
const char* bug_name(Bug b);
bool parse_protocol(const std::string& s, Protocol* out);
bool parse_bug(const std::string& s, Bug* out);

struct ModelConfig {
  Protocol protocol = Protocol::kHandshake;
  Bug bug = Bug::kNone;
  int ranks = 2;  ///< total ranks in the model (2-4)
  int slots = 1;  ///< compute slots (slot-pool only, 1-2)
};

/// Build the model(s) for a protocol variant. The handshake expands to its
/// three scenarios; the others yield one model each.
std::vector<Model> build_models(const ModelConfig& cfg);

/// One entry of the seeded-bug corpus: exploring `protocol` with `bug` must
/// produce a violation (the checker refutes the broken variant).
struct SeededBug {
  Bug bug;
  Protocol protocol;
  const char* name;
  const char* description;
};

const std::vector<SeededBug>& seeded_bug_corpus();

}  // namespace bladed::mc
