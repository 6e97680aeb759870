#pragma once

/// Rank-side message-passing API, deliberately shaped like the small MPI
/// subset most programs use (LLNL tutorial: "most MPI programs can be written
/// using a dozen or less routines"): send/recv, barrier, broadcast, reduce,
/// allreduce, allgather, gather and alltoall. Payloads are real data; the
/// collectives are built from point-to-point messages (binomial trees, rings,
/// pairwise exchange) so their cost emerges from the network model rather
/// than being asserted.

#include <cstring>
#include <exception>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "commcheck/event.hpp"
#include "common/error.hpp"
#include "simnet/cluster.hpp"
#include "simnet/payload.hpp"

namespace bladed::simnet {

class Comm {
 public:
  Comm(Cluster& cluster, int rank) : cluster_(cluster), rank_(rank) {}

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const { return cluster_.ranks(); }
  /// This rank's virtual clock, seconds.
  [[nodiscard]] double now() const { return cluster_.op_now(rank_); }

  /// Advance this rank's clock by `seconds` of computation.
  void compute(double seconds) { cluster_.op_compute(rank_, seconds); }

  // --- point-to-point -----------------------------------------------------
  // Every send hands the engine an immutable Payload; the typed wrappers
  // make exactly one copy on each side (into the payload, out of it) and
  // never zero-fill. recv_payload / recv_bytes return the payload itself,
  // shared with the sender and any rank it was forwarded to: read it in
  // place with view<T>() while the Payload is alive, never write through it.

  /// Send a shared payload; no bytes are copied.
  void send(int dst, int tag, Payload payload) {
    cluster_.op_send(rank_, dst, tag, std::move(payload));
  }
  void send_bytes(int dst, int tag, std::span<const std::byte> bytes) {
    send(dst, tag, Payload::copy_of(bytes));
  }
  /// Blocking receive; src may be kAnySource. With fault injection enabled
  /// this can throw RecvTimeoutError (transport-policy receive timeout) or
  /// PeerFailureError (the failure detector declared the peer dead).
  Payload recv_bytes(int src, int tag) { return recv_checked(src, tag, 0, 0); }

  /// Receive with an explicit timeout (virtual seconds); returns nullopt on
  /// expiry instead of throwing. `timeout` <= 0 waits forever.
  std::optional<Payload> recv_bytes_for(int src, int tag, double timeout) {
    return cluster_.op_recv(rank_, src, tag, timeout > 0.0 ? timeout : 0.0,
                            /*timeout_throws=*/false);
  }

  /// Blocking receive of a payload of T elements, without copying it. The
  /// element size is checked here and recorded for commcheck exactly as
  /// recv<T> does.
  template <class T>
    requires std::is_trivially_copyable_v<T>
  Payload recv_payload(int src, int tag) {
    Payload p = recv_checked(src, tag, sizeof(T), 0);
    check_multiple<T>("recv", p, src, tag);
    return p;
  }

  template <class T>
    requires std::is_trivially_copyable_v<T>
  void send(int dst, int tag, const std::vector<T>& v) {
    send(dst, tag, Payload::copy_of(std::span<const T>(v)));
  }

  template <class T>
    requires std::is_trivially_copyable_v<T>
  std::vector<T> recv(int src, int tag) {
    return to_vector<T>(recv_payload<T>(src, tag));
  }

  /// Timed typed receive; nullopt on expiry. `timeout` <= 0 waits forever.
  template <class T>
    requires std::is_trivially_copyable_v<T>
  std::optional<std::vector<T>> recv_for(int src, int tag, double timeout) {
    std::optional<Payload> p =
        cluster_.op_recv(rank_, src, tag, timeout > 0.0 ? timeout : 0.0,
                         /*timeout_throws=*/false, sizeof(T), 0);
    if (!p) return std::nullopt;
    check_multiple<T>("recv_for", *p, src, tag);
    return to_vector<T>(*p);
  }

  template <class T>
    requires std::is_trivially_copyable_v<T>
  void send_value(int dst, int tag, const T& value) {
    send(dst, tag, Payload::copy_of(std::span<const T>(&value, 1)));
  }

  template <class T>
    requires std::is_trivially_copyable_v<T>
  T recv_value(int src, int tag) {
    const Payload p = recv_checked(src, tag, sizeof(T), 1);
    BLADED_REQUIRE_MSG(
        p.size() == sizeof(T),
        "Comm::recv_value payload size mismatch: src=" + src_name(src) +
            " dst=" + std::to_string(rank_) + " tag=" + std::to_string(tag) +
            ": got " + std::to_string(p.size()) + " bytes, expected " +
            std::to_string(sizeof(T)));
    T value;
    std::memcpy(&value, p.bytes().data(), sizeof(T));
    return value;
  }

  // --- collectives ----------------------------------------------------------
  // Every rank must call each collective in the same order; an internal
  // per-rank sequence number keeps concurrent collectives' messages apart.
  // Each collective drops an entry marker into the commcheck recorder (when
  // attached) so the offline analyzer can verify every rank entered the
  // same collective with the same root; the barrier records engine-side,
  // where its completion joins all participants' vector clocks.

  void barrier() { cluster_.op_barrier(rank_); }

  /// Binomial-tree broadcast of a vector from `root`. Each rank forwards the
  /// payload it received to its children without copying it.
  template <class T>
    requires std::is_trivially_copyable_v<T>
  std::vector<T> bcast(std::vector<T> v, int root) {
    const CollectiveScope scope(*this, commcheck::CollectiveKind::kBcast,
                                root, v.size());
    const int tag = next_tag();
    const int n = size();
    if (n == 1) return v;
    // Work in root-relative rank space so any root uses the rank-0 tree.
    const int rel = (rank() - root + n) % n;
    int rounds = 0;
    while ((1 << rounds) < n) ++rounds;
    Payload p;
    int first_round = 0;
    if (rel != 0) {
      int hb = 0;
      while ((1 << (hb + 1)) <= rel) ++hb;
      p = recv_payload<T>((rel - (1 << hb) + root) % n, tag);
      first_round = hb + 1;
    } else {
      p = Payload::copy_of(std::span<const T>(v));
    }
    for (int k = first_round; k < rounds; ++k) {
      const int child = rel + (1 << k);
      if (child < n) send((child + root) % n, tag, p);
    }
    if (rel == 0) return v;
    return to_vector<T>(p);
  }

  /// Binomial-tree reduction of a scalar to `root`; every rank must pass the
  /// same op. Returns the reduced value on root, the partial elsewhere.
  template <class T, class Op>
    requires std::is_trivially_copyable_v<T>
  T reduce(T value, Op op, int root) {
    const CollectiveScope scope(*this, commcheck::CollectiveKind::kReduce,
                                root, 1);
    const int tag = next_tag();
    const int n = size();
    const int rel = (rank() - root + n) % n;
    for (int mask = 1; mask < n; mask <<= 1) {
      if (rel & mask) {
        send_value((rel - mask + root) % n, tag, value);
        break;
      }
      if (rel + mask < n) {
        value = op(value, recv_value<T>((rel + mask + root) % n, tag));
      }
    }
    return value;
  }

  /// Reduce-to-0 followed by broadcast; every rank gets the total.
  template <class T, class Op>
  T allreduce(T value, Op op) {
    const CollectiveScope scope(*this, commcheck::CollectiveKind::kAllreduce,
                                0, 1);
    value = reduce(value, op, 0);
    std::vector<T> v = bcast(rank() == 0 ? std::vector<T>{value}
                                         : std::vector<T>{},
                             0);
    return v.at(0);
  }

  /// Elementwise allreduce over equally-sized vectors (binomial reduce to 0,
  /// then broadcast).
  template <class T, class Op>
  std::vector<T> allreduce_vec(std::vector<T> v, Op op) {
    const CollectiveScope scope(*this,
                                commcheck::CollectiveKind::kAllreduceVec, 0,
                                v.size());
    const int tag = next_tag();
    const int n = size();
    const int r = rank();
    for (int mask = 1; mask < n; mask <<= 1) {
      if (r & mask) {
        send(r - mask, tag, v);
        break;
      }
      if (r + mask < n) {
        const std::vector<T> other = recv<T>(r + mask, tag);
        BLADED_REQUIRE_MSG(
            other.size() == v.size(),
            "Comm::allreduce_vec length mismatch: rank " + std::to_string(r) +
                " holds " + std::to_string(v.size()) + " elements but rank " +
                std::to_string(r + mask) + " sent " +
                std::to_string(other.size()));
        for (std::size_t i = 0; i < v.size(); ++i) v[i] = op(v[i], other[i]);
      }
    }
    return bcast(std::move(v), 0);
  }

  /// Ring allgather of shared payloads: element i is rank i's block, read
  /// in place with view<T>(). Each step forwards the payload received on
  /// the previous one, so every block is copied once, by its owner.
  template <class T>
    requires std::is_trivially_copyable_v<T>
  std::vector<Payload> allgather_payloads(std::span<const T> mine) {
    const CollectiveScope scope(*this, commcheck::CollectiveKind::kAllgather,
                                -1, mine.size());
    const int tag = next_tag();
    const int n = size();
    std::vector<Payload> all(n);
    all[rank()] = Payload::copy_of(mine);
    const int right = (rank() + 1) % n;
    const int left = (rank() - 1 + n) % n;
    int have = rank();  // the block we forward this step
    for (int step = 0; step < n - 1; ++step) {
      send(right, tag, all[have]);
      const int incoming = (have - 1 + n) % n;
      all[incoming] = recv_payload<T>(left, tag);
      have = incoming;
    }
    return all;
  }

  /// Ring allgather: returns every rank's vector in rank order (ranks may
  /// contribute different lengths).
  template <class T>
    requires std::is_trivially_copyable_v<T>
  std::vector<std::vector<T>> allgather(const std::vector<T>& mine) {
    const std::vector<Payload> blocks =
        allgather_payloads(std::span<const T>(mine));
    std::vector<std::vector<T>> all;
    all.reserve(blocks.size());
    for (const Payload& b : blocks) all.push_back(to_vector<T>(b));
    return all;
  }

  /// Gather every rank's vector at `root` (empty results elsewhere).
  template <class T>
  std::vector<std::vector<T>> gather(const std::vector<T>& mine, int root) {
    const CollectiveScope scope(*this, commcheck::CollectiveKind::kGather,
                                root, mine.size());
    const int tag = next_tag();
    const int n = size();
    std::vector<std::vector<T>> all;
    if (rank() == root) {
      all.resize(n);
      all[root] = mine;
      for (int i = 0; i < n; ++i) {
        if (i != root) all[i] = recv<T>(i, tag);
      }
    } else {
      send(root, tag, mine);
    }
    return all;
  }

  /// Pairwise-exchange alltoall: blocks[i] goes to rank i; returns the
  /// blocks received (blocks[rank()] is kept as-is).
  template <class T>
  std::vector<std::vector<T>> alltoall(const std::vector<std::vector<T>>& blocks) {
    const int n = size();
    BLADED_REQUIRE_MSG(static_cast<int>(blocks.size()) == n,
                       "Comm::alltoall on rank " + std::to_string(rank_) +
                           ": got " + std::to_string(blocks.size()) +
                           " blocks for " + std::to_string(n) + " ranks");
    const CollectiveScope scope(*this, commcheck::CollectiveKind::kAlltoall,
                                -1, blocks.size());
    const int tag = next_tag();
    std::vector<std::vector<T>> out(n);
    out[rank()] = blocks[rank()];
    for (int step = 1; step < n; ++step) {
      const int dst = (rank() + step) % n;
      const int src = (rank() - step + n) % n;
      send(dst, tag, blocks[dst]);
      out[src] = recv<T>(src, tag);
    }
    return out;
  }

 private:
  /// RAII collective entry/exit marker for the commcheck recorder. The exit
  /// marker is skipped while unwinding an exception, so a collective a rank
  /// never finished stays visibly open in the trace.
  class CollectiveScope {
   public:
    CollectiveScope(Comm& comm, commcheck::CollectiveKind kind, int root,
                    std::uint64_t elems)
        : comm_(comm),
          active_(comm.cluster_.recording()),
          exceptions_(std::uncaught_exceptions()) {
      if (active_) {
        comm_.cluster_.op_collective_begin(comm_.rank_, kind, root, elems);
      }
    }
    CollectiveScope(const CollectiveScope&) = delete;
    CollectiveScope& operator=(const CollectiveScope&) = delete;
    ~CollectiveScope() {
      if (active_ && std::uncaught_exceptions() == exceptions_) {
        comm_.cluster_.op_collective_end(comm_.rank_);
      }
    }

   private:
    Comm& comm_;
    bool active_;
    int exceptions_;
  };

  /// Shared blocking-receive core; `elem_bytes`/`elems` describe the typed
  /// wrapper's expectation for the commcheck recorder.
  Payload recv_checked(int src, int tag, std::uint64_t elem_bytes,
                       std::uint64_t elems) {
    std::optional<Payload> got =
        cluster_.op_recv(rank_, src, tag, /*timeout=*/-1.0,
                         /*timeout_throws=*/true, elem_bytes, elems);
    BLADED_REQUIRE_MSG(got.has_value(),
                       "Comm::recv on rank " + std::to_string(rank_) +
                           ": engine returned no payload without throwing");
    return std::move(*got);
  }

  template <class T>
  void check_multiple(const char* op, const Payload& p, int src,
                      int tag) const {
    BLADED_REQUIRE_MSG(
        p.size() % sizeof(T) == 0,
        std::string("Comm::") + op + " payload size mismatch: src=" +
            src_name(src) + " dst=" + std::to_string(rank_) +
            " tag=" + std::to_string(tag) + ": " + std::to_string(p.size()) +
            " bytes is not a multiple of element size " +
            std::to_string(sizeof(T)));
  }

  /// The one copy out of a payload into caller-owned storage (no
  /// zero-fill: the vector is built straight from the payload's elements).
  template <class T>
  static std::vector<T> to_vector(const Payload& p) {
    const std::span<const T> elems = p.view<T>();
    return std::vector<T>(elems.begin(), elems.end());
  }

  static std::string src_name(int src) {
    return src == kAnySource ? std::string("any") : std::to_string(src);
  }

  /// Tags >= kCollectiveBase are reserved for collectives.
  static constexpr int kCollectiveBase = 1 << 20;

  int next_tag() {
    return kCollectiveBase + (collective_seq_++ % kCollectiveBase);
  }

  Cluster& cluster_;
  int rank_;
  int collective_seq_ = 0;
};

}  // namespace bladed::simnet
