#include "commcheck/analyze.hpp"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

namespace bladed::commcheck {

namespace {

std::string src_name(int src) {
  return src == kAnySrc ? std::string("any") : std::to_string(src);
}

/// "recv(src=1, tag=7)" / "barrier" — how a pending op reads in a report.
std::string pending_op_name(const CommEvent& e) {
  if (e.kind == EventKind::kRecv) {
    return "recv(src=" + src_name(e.peer) + ", tag=" + std::to_string(e.tag) +
           ")";
  }
  return to_string(e.coll);
}

/// The blocking operation rank r never finished: its last incomplete recv
/// or barrier (open non-barrier collective markers only wrap it).
const CommEvent* pending_block(const std::vector<CommEvent>& events) {
  for (auto it = events.rbegin(); it != events.rend(); ++it) {
    if (it->completed) continue;
    if (it->kind == EventKind::kRecv) return &*it;
    if (it->kind == EventKind::kCollective &&
        it->coll == CollectiveKind::kBarrier) {
      return &*it;
    }
  }
  return nullptr;
}

/// Tarjan strongly-connected components over the rank wait-for graph.
class Scc {
 public:
  explicit Scc(const std::vector<std::vector<int>>& adj) : adj_(adj) {
    const int n = static_cast<int>(adj.size());
    index_.assign(static_cast<std::size_t>(n), -1);
    low_.assign(static_cast<std::size_t>(n), 0);
    on_stack_.assign(static_cast<std::size_t>(n), false);
    for (int v = 0; v < n; ++v) {
      if (index_[static_cast<std::size_t>(v)] < 0) visit(v);
    }
  }
  [[nodiscard]] const std::vector<std::vector<int>>& components() const {
    return components_;
  }

 private:
  void visit(int v) {  // NOLINT(misc-no-recursion) — ranks are few
    index_[static_cast<std::size_t>(v)] =
        low_[static_cast<std::size_t>(v)] = counter_++;
    stack_.push_back(v);
    on_stack_[static_cast<std::size_t>(v)] = true;
    for (int w : adj_[static_cast<std::size_t>(v)]) {
      if (index_[static_cast<std::size_t>(w)] < 0) {
        visit(w);
        low_[static_cast<std::size_t>(v)] =
            std::min(low_[static_cast<std::size_t>(v)],
                     low_[static_cast<std::size_t>(w)]);
      } else if (on_stack_[static_cast<std::size_t>(w)]) {
        low_[static_cast<std::size_t>(v)] =
            std::min(low_[static_cast<std::size_t>(v)],
                     index_[static_cast<std::size_t>(w)]);
      }
    }
    if (low_[static_cast<std::size_t>(v)] ==
        index_[static_cast<std::size_t>(v)]) {
      std::vector<int> comp;
      int w;
      do {
        w = stack_.back();
        stack_.pop_back();
        on_stack_[static_cast<std::size_t>(w)] = false;
        comp.push_back(w);
      } while (w != v);
      std::sort(comp.begin(), comp.end());
      components_.push_back(std::move(comp));
    }
  }

  const std::vector<std::vector<int>>& adj_;
  std::vector<int> index_, low_;
  std::vector<bool> on_stack_;
  std::vector<int> stack_;
  std::vector<std::vector<int>> components_;
  int counter_ = 0;
};

void check_deadlock(const Trace& trace, Verdict& v) {
  const int n = trace.ranks;
  std::vector<const CommEvent*> pending(static_cast<std::size_t>(n), nullptr);
  bool any = false;
  for (int r = 0; r < n; ++r) {
    pending[static_cast<std::size_t>(r)] =
        pending_block(trace.events[static_cast<std::size_t>(r)]);
    any = any || pending[static_cast<std::size_t>(r)] != nullptr;
  }
  if (!any) return;

  // Wait-for edges: recv(src) -> src; recv(any) and barrier -> every rank
  // that is not itself blocked in the same kind of wait.
  std::vector<std::vector<int>> adj(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    const CommEvent* e = pending[static_cast<std::size_t>(r)];
    if (e == nullptr) continue;
    if (e->kind == EventKind::kRecv && e->peer >= 0) {
      adj[static_cast<std::size_t>(r)].push_back(e->peer);
    } else if (e->kind == EventKind::kRecv) {  // wildcard: any sender frees us
      for (int q = 0; q < n; ++q) {
        if (q != r) adj[static_cast<std::size_t>(r)].push_back(q);
      }
    } else {  // barrier: waiting on every rank that has not entered it
      for (int q = 0; q < n; ++q) {
        const CommEvent* p = pending[static_cast<std::size_t>(q)];
        const bool in_barrier = p != nullptr &&
                                p->kind == EventKind::kCollective &&
                                p->coll == CollectiveKind::kBarrier;
        if (q != r && !in_barrier) adj[static_cast<std::size_t>(r)].push_back(q);
      }
    }
  }

  const Scc scc(adj);
  std::vector<bool> in_cycle(static_cast<std::size_t>(n), false);
  for (const std::vector<int>& comp : scc.components()) {
    // Only blocked ranks form deadlock components.
    std::vector<int> blocked;
    for (int r : comp) {
      if (pending[static_cast<std::size_t>(r)] != nullptr) blocked.push_back(r);
    }
    if (blocked.size() < 2) continue;
    std::string msg = "wait-for cycle:";
    for (std::size_t i = 0; i < blocked.size(); ++i) {
      const int r = blocked[i];
      const CommEvent* e = pending[static_cast<std::size_t>(r)];
      char buf[96];
      std::snprintf(buf, sizeof buf, "%s rank %d blocked in %s since t=%.6g",
                    i == 0 ? "" : " ->", r, pending_op_name(*e).c_str(),
                    e->time);
      msg += buf;
      in_cycle[static_cast<std::size_t>(r)] = true;
    }
    msg += " -> back to rank " + std::to_string(blocked.front());
    v.add("deadlock-cycle", std::move(msg), blocked);
  }

  // Blocked ranks outside any cycle: waiting on ranks that already
  // terminated (or on a barrier nobody else will reach).
  for (int r = 0; r < n; ++r) {
    const CommEvent* e = pending[static_cast<std::size_t>(r)];
    if (e == nullptr || in_cycle[static_cast<std::size_t>(r)]) continue;
    char buf[160];
    if (e->kind == EventKind::kRecv && e->peer >= 0 &&
        pending[static_cast<std::size_t>(e->peer)] == nullptr) {
      std::snprintf(buf, sizeof buf,
                    "rank %d blocked in %s since t=%.6g but rank %d "
                    "terminated without a matching send",
                    r, pending_op_name(*e).c_str(), e->time, e->peer);
      v.add("orphan-recv", buf, {r, e->peer});
    } else {
      std::snprintf(buf, sizeof buf,
                    "rank %d blocked in %s since t=%.6g with no possible "
                    "sender",
                    r, pending_op_name(*e).c_str(), e->time);
      v.add("orphan-recv", buf, {r});
    }
  }
}

void check_matching(const Trace& trace, const AnalyzeOptions& opt,
                    Verdict& v) {
  const int n = trace.ranks;
  // Mark every send a completed receive consumed.
  std::vector<std::vector<bool>> consumed(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    consumed[static_cast<std::size_t>(r)].assign(
        trace.events[static_cast<std::size_t>(r)].size(), false);
  }
  for (int r = 0; r < n; ++r) {
    for (const CommEvent& e : trace.events[static_cast<std::size_t>(r)]) {
      if (e.kind == EventKind::kRecv && e.completed && !e.timed_out &&
          e.matched_event != kNoEvent && e.matched_src >= 0) {
        consumed[static_cast<std::size_t>(e.matched_src)][e.matched_event] =
            true;
      }
    }
  }

  for (int r = 0; r < n; ++r) {
    const auto& events = trace.events[static_cast<std::size_t>(r)];
    for (std::size_t i = 0; i < events.size(); ++i) {
      const CommEvent& e = events[i];
      if (e.kind != EventKind::kSend ||
          consumed[static_cast<std::size_t>(r)][i]) {
        continue;
      }
      // Tag near-miss: the destination is blocked waiting on this sender
      // with a different tag — almost certainly the same logical message.
      const CommEvent* blocked =
          pending_block(trace.events[static_cast<std::size_t>(e.peer)]);
      if (blocked != nullptr && blocked->kind == EventKind::kRecv &&
          (blocked->peer == r || blocked->peer == kAnySrc) &&
          blocked->tag != e.tag) {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "rank %d blocked in recv(src=%s, tag=%d) while rank "
                      "%d's send to it carries tag %d — tag mismatch",
                      e.peer, src_name(blocked->peer).c_str(), blocked->tag,
                      r, e.tag);
        v.add("tag-mismatch", buf, {r, e.peer});
        continue;
      }
      if (!opt.orphan_sends) continue;
      // Collective-internal leftovers on an aborted run are consequences of
      // the abort, not root causes; skip them to keep reports readable.
      if (trace.aborted && e.in_collective) continue;
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "rank %d sent %llu bytes to rank %d (tag %d) at t=%.6g "
                    "but no receive ever consumed the message",
                    r, static_cast<unsigned long long>(e.bytes), e.peer,
                    e.tag, e.time);
      v.add("orphan-send", buf, {r, e.peer});
    }
  }

  // Typed receives whose payload cannot be reinterpreted as sent.
  for (int r = 0; r < n; ++r) {
    for (const CommEvent& e : trace.events[static_cast<std::size_t>(r)]) {
      if (e.kind != EventKind::kRecv || !e.completed || e.timed_out ||
          e.elem_bytes == 0) {
        continue;
      }
      const bool bad = e.elems == 1 ? e.bytes != e.elem_bytes
                                    : e.bytes % e.elem_bytes != 0;
      if (!bad) continue;
      char buf[192];
      std::snprintf(
          buf, sizeof buf,
          "rank %d recv(src=%s, tag=%d) matched rank %d's %llu-byte payload "
          "but expects %s%llu-byte elements — size mismatch",
          r, src_name(e.peer).c_str(), e.tag, e.matched_src,
          static_cast<unsigned long long>(e.bytes),
          e.elems == 1 ? "exactly one " : "",
          static_cast<unsigned long long>(e.elem_bytes));
      v.add("size-mismatch", buf, {r, e.matched_src});
    }
  }
}

void check_wildcard_races(const Trace& trace, Verdict& v) {
  const int n = trace.ranks;
  for (int d = 0; d < n; ++d) {
    for (const CommEvent& recv : trace.events[static_cast<std::size_t>(d)]) {
      if (recv.kind != EventKind::kRecv || recv.peer != kAnySrc ||
          !recv.completed || recv.timed_out ||
          recv.matched_event == kNoEvent) {
        continue;
      }
      const CommEvent& matched =
          trace.events[static_cast<std::size_t>(recv.matched_src)]
                      [recv.matched_event];
      for (int q = 0; q < n; ++q) {
        if (q == recv.matched_src) continue;  // same-channel FIFO: no race
        for (const CommEvent& cand :
             trace.events[static_cast<std::size_t>(q)]) {
          if (cand.kind != EventKind::kSend || cand.peer != d ||
              cand.tag != recv.tag || cand.in_collective) {
            continue;
          }
          // A send caused by the receive's completion could never have
          // matched it; anything concurrent with the matched send could.
          if (happens_before(recv.clock, cand.clock)) continue;
          if (!concurrent(cand.clock, matched.clock)) continue;
          // Sized for the literal plus four ints and two %.6g doubles at
          // their widest, so the message is never truncated.
          char buf[320];
          std::snprintf(
              buf, sizeof buf,
              "rank %d recv(src=any, tag=%d) at t=%.6g matched rank %d's "
              "send, but rank %d's send (tag %d, t=%.6g) is concurrent "
              "under happens-before — the match is schedule-dependent",
              d, recv.tag, recv.time, recv.matched_src, q, cand.tag,
              cand.time);
          v.add("wildcard-race", buf, {d, recv.matched_src, q});
        }
      }
    }
  }
}

void check_collectives(const Trace& trace, Verdict& v) {
  const int n = trace.ranks;
  std::vector<std::vector<const CommEvent*>> seq(static_cast<std::size_t>(n));
  std::size_t longest = 0;
  for (int r = 0; r < n; ++r) {
    for (const CommEvent& e : trace.events[static_cast<std::size_t>(r)]) {
      if (e.kind == EventKind::kCollective) {
        seq[static_cast<std::size_t>(r)].push_back(&e);
      }
    }
    longest = std::max(longest, seq[static_cast<std::size_t>(r)].size());
  }
  if (longest == 0) return;

  for (std::size_t i = 0; i < longest; ++i) {
    // Ranks that reached collective #i.
    std::vector<int> present;
    for (int r = 0; r < n; ++r) {
      if (seq[static_cast<std::size_t>(r)].size() > i) present.push_back(r);
    }
    if (present.size() < 2) continue;
    const CommEvent* first = seq[static_cast<std::size_t>(present[0])][i];

    std::vector<int> differs;
    for (int r : present) {
      if (seq[static_cast<std::size_t>(r)][i]->coll != first->coll) {
        differs.push_back(r);
      }
    }
    if (!differs.empty()) {
      std::string msg = "collective #" + std::to_string(i) + ": rank " +
                        std::to_string(present[0]) + " entered " +
                        to_string(first->coll);
      for (int r : differs) {
        msg += ", rank " + std::to_string(r) + " entered " +
               to_string(seq[static_cast<std::size_t>(r)][i]->coll);
      }
      std::vector<int> involved = differs;
      involved.push_back(present[0]);
      v.add("collective-mismatch", std::move(msg), std::move(involved));
      continue;  // root/size comparisons are meaningless across kinds
    }

    const CollectiveKind kind = first->coll;
    if (kind == CollectiveKind::kBcast || kind == CollectiveKind::kReduce ||
        kind == CollectiveKind::kGather) {
      for (int r : present) {
        const CommEvent* e = seq[static_cast<std::size_t>(r)][i];
        if (e->root != first->root) {
          char buf[160];
          std::snprintf(buf, sizeof buf,
                        "%s #%zu: rank %d passed root=%d but rank %d passed "
                        "root=%d — collectives must agree on the root",
                        to_string(kind), i, present[0], first->root, r,
                        e->root);
          v.add("collective-root", buf, {present[0], r});
        }
      }
    }
    if (kind == CollectiveKind::kAllreduceVec) {
      for (int r : present) {
        const CommEvent* e = seq[static_cast<std::size_t>(r)][i];
        if (e->elems != first->elems) {
          char buf[160];
          std::snprintf(buf, sizeof buf,
                        "allreduce_vec #%zu: rank %d holds %llu elements but "
                        "rank %d holds %llu — element counts must match",
                        i, present[0],
                        static_cast<unsigned long long>(first->elems), r,
                        static_cast<unsigned long long>(e->elems));
          v.add("collective-size", buf, {present[0], r});
        }
      }
    }
    if (kind == CollectiveKind::kAlltoall) {
      for (int r : present) {
        const CommEvent* e = seq[static_cast<std::size_t>(r)][i];
        if (e->elems != static_cast<std::uint64_t>(n)) {
          char buf[160];
          std::snprintf(buf, sizeof buf,
                        "alltoall #%zu: rank %d passed %llu blocks for %d "
                        "ranks",
                        i, r, static_cast<unsigned long long>(e->elems), n);
          v.add("collective-size", buf, {r});
        }
      }
    }
  }

  // On a clean run every rank must have entered the same number of
  // collectives; on an aborted run trailing differences are a consequence.
  if (!trace.aborted) {
    std::size_t shortest = seq[0].size();
    int lo = 0, hi = 0;
    for (int r = 0; r < n; ++r) {
      const std::size_t len = seq[static_cast<std::size_t>(r)].size();
      if (len < shortest) {
        shortest = len;
        lo = r;
      }
      if (len > seq[static_cast<std::size_t>(hi)].size()) hi = r;
    }
    if (seq[static_cast<std::size_t>(hi)].size() != shortest) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "rank %d entered %zu collectives but rank %d entered "
                    "%zu — every rank must call each collective",
                    hi, seq[static_cast<std::size_t>(hi)].size(), lo,
                    shortest);
      v.add("collective-mismatch", buf, {lo, hi});
    }
  }
}

}  // namespace

Verdict analyze(const Trace& trace, const AnalyzeOptions& opt) {
  Verdict v;
  if (trace.ranks <= 0) return v;
  if (trace.aborted) check_deadlock(trace, v);
  check_matching(trace, opt, v);
  check_wildcard_races(trace, v);
  check_collectives(trace, v);
  return v;
}

}  // namespace bladed::commcheck
