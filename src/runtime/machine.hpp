// Simulated distributed-memory machine: P ranks, one std::thread each,
// running an SPMD body. Substitutes for MPI + RDMA in this environment
// (see DESIGN.md §1): collectives and passive-target window gets move real
// bytes between rank address spaces and are instrumented exactly; network
// time is derived from those counts by CostModel.
//
// Failure containment (DESIGN.md §9): every barrier is a poisonable,
// watchdog-guarded FaultBarrier registered with a per-run FailureHub. A
// rank that fails raises a typed fault on the hub, which wakes every peer
// blocked in *any* barrier — machine-level or sub-communicator — so the
// machine always unwinds with the same structured error on every surviving
// rank instead of hanging. Before any comm-layer exception propagates, the
// throwing rank parks on the hub's unwind quiesce until every peer has also
// reached a throw path (or finished its body): since zero-copy windows and
// collective slots point into rank-owned memory, unwinding early would free
// buffers a peer's in-flight memcpy is still reading. An optional FaultInjector scripts deterministic
// rank aborts, payload corruption, and stragglers against the comm-op
// counter; opt-in integrity mode checksums every received payload so
// corruption is detected, not silently folded into results. With injection
// and integrity off, every byte/message counter and result is bit-identical
// to the plain runtime.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/cost_model.hpp"
#include "runtime/fault.hpp"
#include "runtime/stats.hpp"
#include "util/common.hpp"
#include "util/timer.hpp"

namespace sa1d {

namespace detail {

struct RawBuf {
  const std::byte* ptr = nullptr;
  std::size_t bytes = 0;
};

/// One in-flight nonblocking operation. The payload is *op-owned*: senders
/// copy (ibcast) or move (ialltoallv) their chunks into this record at
/// issue time, so a receiver never reads rank-owned frames — the ownership
/// discipline that makes the unwind quiesce sound for blocking collectives
/// extends to outstanding requests automatically (a rank that unwinds with
/// requests in flight leaves every published payload alive in the shared
/// record). Ops are keyed by a per-communicator issue sequence number:
/// SPMD bodies issue nonblocking ops in identical order on every rank, so
/// sequence k names the same logical operation everywhere without any
/// extra agreement traffic.
struct AsyncOp {
  explicit AsyncOp(int nranks)
      : posted(static_cast<std::size_t>(nranks), 0),
        keepalive(static_cast<std::size_t>(nranks)),
        chunks(static_cast<std::size_t>(nranks)) {}

  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::uint8_t> posted;              // source rank published its payload
  std::vector<std::shared_ptr<void>> keepalive;  // op-owned payload storage per source
  std::vector<std::vector<RawBuf>> chunks;       // chunks[src][dst], views into keepalive
  int finished = 0;                              // participants done (drives GC)
};

/// State shared by all ranks of one communicator.
struct CommShared {
  CommShared(int nranks, FailureHub& hub)
      : n(nranks), bar(hub.make_barrier(nranks)), slots(static_cast<std::size_t>(nranks)),
        split_ck(static_cast<std::size_t>(nranks)) {}

  int n;
  std::shared_ptr<FaultBarrier> bar;
  std::vector<RawBuf> slots;                 // per-rank staging for collectives
  std::vector<std::vector<RawBuf>> windows;  // windows[id][rank]
  std::mutex mu;
  std::map<int, std::shared_ptr<CommShared>> split_groups;
  std::vector<std::pair<int, int>> split_ck;  // (color, key) staging

  // The progress queue of outstanding nonblocking ops, keyed by issue
  // sequence. Entries are created by the first rank to touch a sequence
  // number and unlinked by the last participant to finish it; a rank that
  // unwinds mid-op abandons its entry, which is reclaimed with the
  // communicator (never while a peer could still read it).
  std::mutex async_mu;
  std::map<std::uint64_t, std::shared_ptr<AsyncOp>> async_ops;
};

}  // namespace detail

/// Opaque handle to an exposed RDMA window (collectively created).
class Window {
 public:
  Window() = default;

 private:
  friend class Comm;
  explicit Window(std::size_t id) : id_(id) {}
  std::size_t id_ = static_cast<std::size_t>(-1);
};

/// Handle to one outstanding nonblocking operation (Comm::ibcast, iget).
/// test() is a non-blocking completion attempt; wait() blocks until done.
/// Completion performs the receive-side copy and the modeled-time
/// attribution, so the destination buffer must stay alive until then.
/// Waits are fault-aware exactly like blocking collectives: a fault raised
/// anywhere in the machine wakes the waiter, which parks on the unwind
/// quiesce and rethrows the identical typed error. Move-only (completing a
/// request twice would corrupt the progress queue); destroying an
/// incomplete request abandons the op, which is reclaimed with the
/// communicator — only unwind paths do that.
class CommRequest {
 public:
  CommRequest() = default;
  CommRequest(const CommRequest&) = delete;
  CommRequest& operator=(const CommRequest&) = delete;
  CommRequest(CommRequest&&) = default;
  CommRequest& operator=(CommRequest&&) = default;

  /// True once the operation completed (payload delivered and accounted).
  [[nodiscard]] bool done() const { return poll_ == nullptr; }

  /// Non-blocking completion attempt; returns done().
  bool test() {
    if (poll_ != nullptr && poll_(false)) poll_ = nullptr;
    return poll_ == nullptr;
  }

  /// Blocks until completion (fault-aware, watchdog-bounded).
  void wait() {
    if (poll_ != nullptr) {
      poll_(true);
      poll_ = nullptr;
    }
  }

 private:
  friend class Comm;
  explicit CommRequest(std::function<bool(bool block)> poll) : poll_(std::move(poll)) {}
  std::function<bool(bool block)> poll_;
};

template <typename T>
class AlltoallvRequest;

/// Per-rank communicator handle (the MPI_Comm analogue).
class Comm {
 public:
  Comm(int rank, std::vector<int> global_ranks, std::shared_ptr<detail::CommShared> sh,
       RankReport* report, const CostModel* cost, std::shared_ptr<FailureHub> hub,
       FaultInjector* injector, bool integrity)
      : rank_(rank),
        global_ranks_(std::move(global_ranks)),
        sh_(std::move(sh)),
        report_(report),
        cost_(cost),
        hub_(std::move(hub)),
        inj_(injector),
        integrity_(integrity) {}

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const { return sh_->n; }
  /// Global (machine-level) rank of a member of this communicator.
  [[nodiscard]] int global_rank(int r) const {
    return global_ranks_[static_cast<std::size_t>(r)];
  }

  /// Accumulates thread-CPU time of the enclosed scope into the given phase.
  [[nodiscard]] PhaseScope phase(Phase p) { return PhaseScope(*report_, p); }
  [[nodiscard]] RankReport& report() { return *report_; }
  /// The machine's cost model (algorithm selection reads α/β from here so
  /// its predictions are coherent with the modeled report times).
  [[nodiscard]] const CostModel& cost() const { return *cost_; }
  /// The run's fault injector (nullptr when no FaultPlan is installed).
  [[nodiscard]] const FaultInjector* injector() const { return inj_; }
  /// True when integrity mode (payload checksums) is on for this run.
  [[nodiscard]] bool integrity() const { return integrity_; }

  void barrier() {
    begin_op("barrier");
    sync();
  }

  /// Raises `cls` on the machine's FailureHub with this rank's context (so
  /// every peer unwinds with the identical typed error instead of hanging)
  /// and throws it here. The containment entry point for rank-local
  /// detections ahead of a collective: corruption, plan mismatches.
  [[noreturn]] void fail(FaultClass cls, const char* op, const std::string& msg,
                         bool recoverable = true) {
    hub_->raise(cls, ErrorContext{global_rank(rank_), report_->comm_ops, op}, msg, recoverable);
    hub_->park_unwind();
    hub_->throw_fault();
  }

  /// Collective, machine-wide recovery rendezvous: clears a recoverable
  /// fault and resets every barrier once all ranks have unwound. Every
  /// machine rank must call this (the self-healing retry loop does).
  void recover() {
    // Outstanding nonblocking ops from before the fault are garbage, and
    // ranks may have issued different numbers of them before unwinding —
    // drop the queue and realign the issue counter so the retry's first
    // issue matches on every rank again. This must happen before the hub
    // rendezvous releases anyone: no rank can be issuing a fresh op (all
    // are unwound, heading here) while the queues are being cleared.
    {
      std::scoped_lock lk(sh_->async_mu);
      sh_->async_ops.clear();
    }
    async_seq_ = 0;
    hub_->recover();
  }

  // ---- collectives -------------------------------------------------------

  /// Gathers one value from each rank; result indexed by rank.
  template <typename T>
  std::vector<T> allgather(const T& mine) {
    const std::uint64_t op = begin_op("allgather");
    publish(&mine, sizeof(T));
    for (int p = 0; p < size(); ++p)
      if (p != rank_) record_send(p, sizeof(T));
    sync();
    std::vector<T> out(static_cast<std::size_t>(size()));
    for (int p = 0; p < size(); ++p) {
      std::memcpy(&out[static_cast<std::size_t>(p)], sh_->slots[static_cast<std::size_t>(p)].ptr,
                  sizeof(T));
      if (p != rank_)
        post_copy("allgather", op, p, sh_->slots[static_cast<std::size_t>(p)].ptr,
                  &out[static_cast<std::size_t>(p)], sizeof(T), /*rdma=*/false);
      record_recv(p, sizeof(T));
    }
    sync();
    return out;
  }

  /// Gathers a variable-length array from each rank.
  template <typename T>
  std::vector<std::vector<T>> allgatherv(std::span<const T> mine) {
    const std::uint64_t op = begin_op("allgatherv");
    publish(mine.data(), mine.size_bytes());
    for (int p = 0; p < size(); ++p)
      if (p != rank_) record_send(p, mine.size_bytes());
    sync();
    std::vector<std::vector<T>> out(static_cast<std::size_t>(size()));
    for (int p = 0; p < size(); ++p) {
      const auto& b = sh_->slots[static_cast<std::size_t>(p)];
      out[static_cast<std::size_t>(p)].resize(b.bytes / sizeof(T));
      if (b.bytes > 0) {
        std::memcpy(out[static_cast<std::size_t>(p)].data(), b.ptr, b.bytes);
        if (p != rank_)
          post_copy("allgatherv", op, p, b.ptr, out[static_cast<std::size_t>(p)].data(),
                    b.bytes, /*rdma=*/false);
      }
      record_recv(p, b.bytes);
    }
    sync();
    return out;
  }

  /// allgatherv with results concatenated in rank order.
  template <typename T>
  std::vector<T> allgatherv_concat(std::span<const T> mine) {
    auto parts = allgatherv(mine);
    std::vector<T> out;
    std::size_t total = 0;
    for (const auto& p : parts) total += p.size();
    out.reserve(total);
    for (const auto& p : parts) out.insert(out.end(), p.begin(), p.end());
    return out;
  }

  /// Personalized all-to-all: send[i] goes to rank i; returns recv[i] from rank i.
  template <typename T>
  std::vector<std::vector<T>> alltoallv(const std::vector<std::vector<T>>& send) {
    require(send.size() == static_cast<std::size_t>(size()), "alltoallv: send.size() != P");
    const std::uint64_t op = begin_op("alltoallv");
    // The staging slot shares a pointer to the whole send table; the bytes
    // field is the *payload* volume (summed per-destination chunks), not the
    // outer vector header size, so volume accounting matches what moves.
    std::size_t payload = 0;
    for (int p = 0; p < size(); ++p) {
      const auto& chunk = send[static_cast<std::size_t>(p)];
      payload += chunk.size() * sizeof(T);
      if (p != rank_ && !chunk.empty()) record_send(p, chunk.size() * sizeof(T));
    }
    publish(&send, payload);
    sync();
    std::vector<std::vector<T>> recv(static_cast<std::size_t>(size()));
    for (int p = 0; p < size(); ++p) {
      const auto* peer_send = static_cast<const std::vector<std::vector<T>>*>(
          static_cast<const void*>(sh_->slots[static_cast<std::size_t>(p)].ptr));
      const auto& chunk = (*peer_send)[static_cast<std::size_t>(rank_)];
      recv[static_cast<std::size_t>(p)] = chunk;
      if (p != rank_ && !chunk.empty()) {
        post_copy("alltoallv", op, p, chunk.data(), recv[static_cast<std::size_t>(p)].data(),
                  chunk.size() * sizeof(T), /*rdma=*/false);
        record_recv(p, chunk.size() * sizeof(T));
      } else if (!chunk.empty()) {
        record_recv(p, chunk.size() * sizeof(T));
      }
    }
    sync();
    return recv;
  }

  template <typename T, typename Op>
  T allreduce(const T& mine, Op op) {
    auto all = allgather(mine);
    T acc = all[0];
    for (std::size_t i = 1; i < all.size(); ++i) acc = op(acc, all[i]);
    return acc;
  }
  template <typename T>
  T allreduce_sum(const T& mine) {
    return allreduce(mine, [](T a, T b) { return a + b; });
  }
  template <typename T>
  T allreduce_max(const T& mine) {
    return allreduce(mine, [](T a, T b) { return a > b ? a : b; });
  }

  /// Control-plane agreement exchange: every rank publishes a small string
  /// (an error verdict, an options digest) and receives all of them, rank-
  /// indexed. Deliberately *uncounted* — validation/agreement metadata is
  /// not data-plane payload, so enabling it keeps every byte/message
  /// counter bit-identical to the plain runtime. Collective.
  std::vector<std::string> exchange_control(const std::string& mine) {
    begin_op("control");
    publish(mine.data(), mine.size());
    sync();
    std::vector<std::string> out(static_cast<std::size_t>(size()));
    for (int p = 0; p < size(); ++p) {
      const auto& b = sh_->slots[static_cast<std::size_t>(p)];
      out[static_cast<std::size_t>(p)].assign(reinterpret_cast<const char*>(b.ptr), b.bytes);
    }
    sync();
    return out;
  }

  /// Splits into sub-communicators by color; ranks ordered by (key, rank).
  Comm split(int color, int key);

  // ---- passive-target RDMA windows ---------------------------------------

  /// Collectively exposes a local array; every rank must call this.
  /// The buffer must stay alive (and unmodified) until a barrier/collective
  /// separates the last remote get from buffer destruction — the same
  /// discipline MPI_Win_free imposes.
  template <typename T>
  Window expose(std::span<const T> data) {
    begin_op("expose");
    sync();  // entry barrier: no rank can be in get() while the table grows
    if (rank_ == 0) {
      std::scoped_lock lk(sh_->mu);
      sh_->windows.emplace_back(static_cast<std::size_t>(size()));
    }
    sync();
    std::size_t id = sh_->windows.size() - 1;
    sh_->windows[id][static_cast<std::size_t>(rank_)] = {
        reinterpret_cast<const std::byte*>(data.data()), data.size_bytes()};
    sync();
    return Window(id);
  }

  /// Number of T elements in `target`'s exposed window.
  template <typename T>
  [[nodiscard]] index_t window_nelems(const Window& w, int target) const {
    return static_cast<index_t>(
        sh_->windows[w.id_][static_cast<std::size_t>(target)].bytes / sizeof(T));
  }

  /// One-sided get (the MPI_Get analogue): copies `count` elements starting
  /// at `elem_offset` from target's window into dst. Counts as one RDMA
  /// message unless target == self (local access, not a network message).
  template <typename T>
  void get(const Window& w, int target, index_t elem_offset, index_t count, T* dst) {
    const std::uint64_t op = begin_op("rdma_get");
    const auto& b = sh_->windows[w.id_][static_cast<std::size_t>(target)];
    std::size_t off = static_cast<std::size_t>(elem_offset) * sizeof(T);
    std::size_t len = static_cast<std::size_t>(count) * sizeof(T);
    require(off + len <= b.bytes, "Window::get: out of range");
    if (len > 0) std::memcpy(dst, b.ptr + off, len);
    if (target == rank_) {
      report_->bytes_local += len;
    } else {
      if (len > 0) post_copy("rdma_get", op, target, b.ptr + off, dst, len, /*rdma=*/true);
      record_recv(target, len);
      report_->rdma_bytes += len;
      report_->rdma_msgs += 1;
      if (cost_->node_of(global_rank(target)) != cost_->node_of(global_rank(rank_))) {
        report_->rdma_bytes_inter += len;
        report_->rdma_msgs_inter += 1;
      }
    }
  }

  // ---- nonblocking operations --------------------------------------------
  //
  // The overlap engine (DESIGN.md §10). Issue order must be identical on
  // every rank of the communicator (SPMD, like the blocking collectives);
  // completion order is free. Byte/message counters are recorded exactly
  // like the blocking counterparts, so overlap changes *when* time is
  // attributed, never *what* moved: for every received message of modeled
  // cost alpha + beta*bytes, the thread-CPU time the receiver spent between
  // issue and completion (minus windows already credited to other requests)
  // counts as hidden (RankReport::overlap_s) and only the remainder as
  // waited (comm_s).

  /// Nonblocking broadcast from `root`. The root's payload is copied into
  /// the op-owned record at issue, so the root's `data` is free to reuse
  /// immediately; a receiver's `data` is resized and filled at completion
  /// and must stay alive until then.
  template <typename T>
  CommRequest ibcast(std::vector<T>& data, int root) {
    const std::uint64_t op_idx = begin_op("ibcast");
    const std::uint64_t seq = async_seq_++;
    auto op = async_slot(seq);
    if (rank_ == root) {
      auto owned = std::make_shared<std::vector<T>>(data);
      {
        std::scoped_lock lk(op->mu);
        op->keepalive[static_cast<std::size_t>(root)] = owned;
        op->chunks[static_cast<std::size_t>(root)].assign(
            static_cast<std::size_t>(sh_->n),
            detail::RawBuf{reinterpret_cast<const std::byte*>(owned->data()),
                           owned->size() * sizeof(T)});
        op->posted[static_cast<std::size_t>(root)] = 1;
      }
      op->cv.notify_all();
      for (int p = 0; p < size(); ++p)
        if (p != root) record_send(p, data.size() * sizeof(T));
      // The root's side is complete at issue: the payload is op-owned, so
      // its request only has to check in with the progress queue's GC.
      return CommRequest([this, seq, op](bool) {
        async_finish(seq, op);
        return true;
      });
    }
    const double t0 = CpuTimer::now_s();
    return CommRequest([this, seq, op, root, &data, op_idx, t0](bool block) {
      {
        std::unique_lock lk(op->mu);
        if (op->posted[static_cast<std::size_t>(root)] == 0) {
          if (!block && !hub_->faulted()) return false;
          async_wait(lk, *op, "ibcast",
                     [&] { return op->posted[static_cast<std::size_t>(root)] != 0; });
        }
      }
      const detail::RawBuf b =
          op->chunks[static_cast<std::size_t>(root)][static_cast<std::size_t>(rank_)];
      data.resize(b.bytes / sizeof(T));
      if (b.bytes > 0) {
        std::memcpy(data.data(), b.ptr, b.bytes);
        post_copy("ibcast", op_idx, root, b.ptr, data.data(), b.bytes, /*rdma=*/false);
      }
      credit_async(record_recv_counters(root, b.bytes), t0);
      async_finish(seq, op);
      return true;
    });
  }

  /// Nonblocking personalized all-to-all: send[i] goes to rank i. The send
  /// table is *moved* into the op-owned record; each source's chunk is
  /// retrieved with take_from(), so a caller can fold chunks in a
  /// deterministic order while later ones are still in flight. Counters
  /// mirror alltoallv() exactly (empty chunks move no message).
  template <typename T>
  AlltoallvRequest<T> ialltoallv(std::vector<std::vector<T>> send);

  /// Nonblocking one-sided get. The copy itself happens eagerly (the target
  /// is passive and its window immutable for the whole epoch, so there is
  /// no data dependence to defer), but the modeled network time is
  /// attributed at completion: issue a batch, do useful work, then wait —
  /// the work counts as overlap. Counters match get() exactly.
  template <typename T>
  CommRequest iget(const Window& w, int target, index_t elem_offset, index_t count, T* dst) {
    const std::uint64_t op_idx = begin_op("irdma_get");
    const auto& b = sh_->windows[w.id_][static_cast<std::size_t>(target)];
    std::size_t off = static_cast<std::size_t>(elem_offset) * sizeof(T);
    std::size_t len = static_cast<std::size_t>(count) * sizeof(T);
    require(off + len <= b.bytes, "Window::iget: out of range");
    if (len > 0) std::memcpy(dst, b.ptr + off, len);
    if (target == rank_) {
      report_->bytes_local += len;
      return CommRequest([](bool) { return true; });
    }
    if (len > 0) post_copy("irdma_get", op_idx, target, b.ptr + off, dst, len, /*rdma=*/true);
    const double model_s = record_recv_counters(target, len);
    report_->rdma_bytes += len;
    report_->rdma_msgs += 1;
    if (cost_->node_of(global_rank(target)) != cost_->node_of(global_rank(rank_))) {
      report_->rdma_bytes_inter += len;
      report_->rdma_msgs_inter += 1;
    }
    const double t0 = CpuTimer::now_s();
    return CommRequest([this, model_s, t0](bool) {
      credit_async(model_s, t0);
      return true;
    });
  }

 private:
  void publish(const void* p, std::size_t bytes) {
    sh_->slots[static_cast<std::size_t>(rank_)] = {static_cast<const std::byte*>(p), bytes};
  }

  /// Counts one communication op and runs the injector's op hooks (abort,
  /// straggler delay). Returns the op's index in this rank's counter.
  std::uint64_t begin_op(const char* opname) {
    const std::uint64_t idx = report_->comm_ops++;
    if (inj_ != nullptr) inj_->on_op(global_rank(rank_), idx, opname, *hub_);
    return idx;
  }

  /// Post-receive hook: applies scripted corruption to the landed payload,
  /// then (integrity mode) verifies the received bytes against the source —
  /// the simulated analogue of an end-to-end transport checksum. On
  /// mismatch raises Corruption machine-wide and throws CorruptionDetected.
  void post_copy(const char* opname, std::uint64_t op, int from, const void* src, void* dst,
                 std::size_t bytes, bool rdma) {
    if (inj_ != nullptr) inj_->maybe_corrupt(global_rank(rank_), op, dst, bytes, rdma);
    if (integrity_ && fnv1a64(src, bytes) != fnv1a64(dst, bytes)) {
      fail(FaultClass::Corruption, opname,
           "sa1d: payload checksum mismatch in " + std::string(opname) + " (rank " +
               std::to_string(global_rank(rank_)) + " receiving from rank " +
               std::to_string(global_rank(from)) + ", op " + std::to_string(op) + ", " +
               std::to_string(bytes) + " bytes)");
    }
  }

  /// Hub check that quiesces before throwing: with a fault recorded, this
  /// rank is about to unwind frames that hold exposed windows and published
  /// collective payloads — park on the hub's unwind rendezvous until every
  /// peer has stopped copying (parked or finished its body), then throw.
  void check_quiesced() {
    if (hub_->faulted()) {
      hub_->park_unwind();
      hub_->throw_fault();
    }
  }

  /// Deadlock-free rank rendezvous: checks the hub fault record before and
  /// after the barrier, wakes on poison (a fault raised while blocked), and
  /// converts a barrier stuck past the watchdog into a machine-wide
  /// PeerFailure — a rank that throws while peers are blocked (in this or
  /// any sub-communicator barrier) can never hang the machine. Every throw
  /// path quiesces on the hub's unwind rendezvous first so a peer still
  /// mid-copy never reads freed memory.
  void sync() {
    check_quiesced();
    switch (sh_->bar->arrive_and_wait()) {
      case detail::FaultBarrier::Outcome::Completed:
        break;
      case detail::FaultBarrier::Outcome::Poisoned:
        hub_->park_unwind();
        hub_->check();
        // Poison without a hub record (cascade from a timed-out peer whose
        // raise has not landed yet): surface it as a peer failure.
        throw PeerFailure(ErrorContext{global_rank(rank_), report_->comm_ops, "barrier"},
                          "sa1d: a peer rank failed during a collective");
      case detail::FaultBarrier::Outcome::TimedOut:
        hub_->raise(FaultClass::Peer,
                    ErrorContext{global_rank(rank_), report_->comm_ops, "barrier"},
                    "sa1d: barrier watchdog — a rank stopped arriving (stuck or dead peer)",
                    /*recoverable=*/false);
        hub_->park_unwind();
        hub_->throw_fault();
    }
    check_quiesced();
  }

  /// Sender-side accounting for two-sided collectives: the payload bytes
  /// this rank addressed to `to`. Mirrors record_recv so machine-wide
  /// collective sent == collective received, byte for byte and message for
  /// message (the alltoallv regression in test_runtime).
  void record_send(int to, std::size_t bytes) {
    bool same_node = cost_->node_of(global_rank(to)) == cost_->node_of(global_rank(rank_));
    if (same_node) {
      report_->sent_bytes_intra += bytes;
      report_->sent_msgs_intra += 1;
    } else {
      report_->sent_bytes_inter += bytes;
      report_->sent_msgs_inter += 1;
    }
  }

  /// Receiver-side counter accounting; intra/inter split uses *global* rank
  /// ids. Returns the message's modeled network seconds (alpha + beta*bytes
  /// on the matching link class; 0 for self-access) — the same per-message
  /// formula CostModel::comm_seconds sums from the counters, so
  /// comm_s + overlap_s always reconciles with the counter-derived total.
  double record_recv_counters(int from, std::size_t bytes) {
    if (from == rank_) {
      report_->bytes_local += bytes;
      return 0.0;
    }
    const CostParams& p = cost_->params();
    bool same_node = cost_->node_of(global_rank(from)) == cost_->node_of(global_rank(rank_));
    if (same_node) {
      report_->bytes_intra += bytes;
      report_->msgs_intra += 1;
      return p.alpha_intra + p.beta_intra * static_cast<double>(bytes);
    }
    report_->bytes_inter += bytes;
    report_->msgs_inter += 1;
    return p.alpha_inter + p.beta_inter * static_cast<double>(bytes);
  }

  /// Blocking receive: the rank waited for the whole modeled message time.
  void record_recv(int from, std::size_t bytes) {
    report_->comm_s += record_recv_counters(from, bytes);
  }

  /// Attribution for a nonblocking message completing now: thread-CPU time
  /// elapsed since issue (`issue_cpu_s`), minus windows already credited to
  /// other in-flight requests (the overlap_mark_s high-water mark), is work
  /// this rank provably did while the message was in flight — up to the
  /// modeled cost it counts as hidden, the rest as waited.
  void credit_async(double model_s, double issue_cpu_s) {
    if (model_s <= 0.0) return;
    const double now = CpuTimer::now_s();
    const double from =
        issue_cpu_s > report_->overlap_mark_s ? issue_cpu_s : report_->overlap_mark_s;
    double window = now - from;
    if (window < 0.0) window = 0.0;
    const double hidden = window < model_s ? window : model_s;
    report_->overlap_s += hidden;
    report_->comm_s += model_s - hidden;
    report_->overlap_mark_s = from + hidden;
  }

  /// Finds or creates the progress-queue record for nonblocking op `seq`.
  std::shared_ptr<detail::AsyncOp> async_slot(std::uint64_t seq) {
    std::scoped_lock lk(sh_->async_mu);
    auto& slot = sh_->async_ops[seq];
    if (!slot) slot = std::make_shared<detail::AsyncOp>(sh_->n);
    return slot;
  }

  /// Marks this rank's participation in op `seq` complete; the last
  /// finisher unlinks the record. An op only reaches finished == n after
  /// every rank issued and completed it, so an unlink can never race a
  /// late issuer re-creating the same sequence; participants still holding
  /// the shared_ptr keep the payload alive.
  void async_finish(std::uint64_t seq, const std::shared_ptr<detail::AsyncOp>& op) {
    bool last = false;
    {
      std::scoped_lock lk(op->mu);
      last = ++op->finished == sh_->n;
    }
    if (last) {
      std::scoped_lock lk(sh_->async_mu);
      sh_->async_ops.erase(seq);
    }
  }

  /// Fault-aware wait on an async op's condition: returns when `pred`
  /// holds; wakes on any machine-wide fault (polled — the op's cv is local,
  /// so the hub cannot signal it directly) and on the watchdog, which
  /// converts a publisher that never arrives into the same machine-wide
  /// PeerFailure a stuck barrier becomes. Every throw path parks on the
  /// unwind quiesce first, exactly like sync().
  template <typename Pred>
  void async_wait(std::unique_lock<std::mutex>& lk, detail::AsyncOp& op, const char* what,
                  Pred&& pred) {
    const auto deadline = std::chrono::steady_clock::now() + hub_->watchdog();
    for (;;) {
      if (pred()) return;
      if (hub_->faulted()) {
        lk.unlock();
        hub_->park_unwind();
        hub_->throw_fault();
      }
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) {
        lk.unlock();
        hub_->raise(FaultClass::Peer,
                    ErrorContext{global_rank(rank_), report_->comm_ops, what},
                    std::string("sa1d: nonblocking ") + what +
                        " watchdog — a peer never published its payload (stuck or dead rank)",
                    /*recoverable=*/false);
        hub_->park_unwind();
        hub_->throw_fault();
      }
      const auto tick = now + std::chrono::milliseconds(2);
      op.cv.wait_until(lk, tick < deadline ? tick : deadline);
    }
  }

  template <typename U>
  friend class AlltoallvRequest;

  int rank_;
  std::vector<int> global_ranks_;
  std::shared_ptr<detail::CommShared> sh_;
  RankReport* report_;
  const CostModel* cost_;
  std::shared_ptr<FailureHub> hub_;
  FaultInjector* inj_;
  bool integrity_;
  // Issue sequence for nonblocking ops on this handle. Per-handle, not
  // per-rank: sub-communicators from split() get their own CommShared and
  // their own counter, so sequences can never collide across communicators.
  std::uint64_t async_seq_ = 0;
};

/// Handle to one outstanding personalized all-to-all (Comm::ialltoallv).
/// Unlike CommRequest, delivery is per source: take_from(p) blocks until
/// rank p published its table, copies out the chunk addressed to this rank
/// and attributes its modeled time (hidden vs waited against the issue
/// point), so a caller can ⊕-fold chunks in a deterministic order while
/// later ones are still in flight. The op finishes when every source has
/// been taken; wait() drains the remainder in rank order. Move-only.
template <typename T>
class AlltoallvRequest {
 public:
  AlltoallvRequest() = default;
  AlltoallvRequest(const AlltoallvRequest&) = delete;
  AlltoallvRequest& operator=(const AlltoallvRequest&) = delete;
  AlltoallvRequest(AlltoallvRequest&&) = default;
  AlltoallvRequest& operator=(AlltoallvRequest&&) = default;

  /// Blocks until source `src` published, then returns the chunk it
  /// addressed to this rank. Each source may be taken exactly once.
  std::vector<T> take_from(int src) {
    require(comm_ != nullptr, "ialltoallv: take_from on an empty request");
    const auto s = static_cast<std::size_t>(src);
    require(taken_[s] == 0, "ialltoallv: source chunk taken twice");
    std::vector<T> out;
    if (src == comm_->rank_) {
      out = (*mine_)[s];
      if (!out.empty()) comm_->record_recv_counters(src, out.size() * sizeof(T));
    } else {
      {
        std::unique_lock lk(op_->mu);
        if (op_->posted[s] == 0)
          comm_->async_wait(lk, *op_, "ialltoallv", [&] { return op_->posted[s] != 0; });
      }
      const detail::RawBuf b = op_->chunks[s][static_cast<std::size_t>(comm_->rank_)];
      out.resize(b.bytes / sizeof(T));
      if (b.bytes > 0) {
        std::memcpy(out.data(), b.ptr, b.bytes);
        comm_->post_copy("ialltoallv", op_idx_, src, b.ptr, out.data(), b.bytes,
                         /*rdma=*/false);
        comm_->credit_async(comm_->record_recv_counters(src, b.bytes), t0_);
      }
    }
    taken_[s] = 1;
    if (--remaining_ == 0) comm_->async_finish(seq_, op_);
    return out;
  }

  /// Takes (and discards) every source not yet taken, finishing the op.
  void wait() {
    for (int p = 0; remaining_ > 0 && p < static_cast<int>(taken_.size()); ++p)
      if (taken_[static_cast<std::size_t>(p)] == 0) take_from(p);
  }

  [[nodiscard]] bool done() const { return comm_ != nullptr && remaining_ == 0; }

 private:
  friend class Comm;
  Comm* comm_ = nullptr;
  std::shared_ptr<detail::AsyncOp> op_;
  std::shared_ptr<std::vector<std::vector<T>>> mine_;  // the moved-in send table
  std::uint64_t seq_ = 0;
  std::uint64_t op_idx_ = 0;
  double t0_ = 0.0;  // issue timestamp on the thread-CPU clock
  std::vector<std::uint8_t> taken_;
  int remaining_ = 0;
};

template <typename T>
AlltoallvRequest<T> Comm::ialltoallv(std::vector<std::vector<T>> send) {
  require(send.size() == static_cast<std::size_t>(size()), "ialltoallv: send.size() != P");
  const std::uint64_t op_idx = begin_op("ialltoallv");
  const std::uint64_t seq = async_seq_++;
  auto op = async_slot(seq);
  auto owned = std::make_shared<std::vector<std::vector<T>>>(std::move(send));
  {
    std::scoped_lock lk(op->mu);
    op->keepalive[static_cast<std::size_t>(rank_)] = owned;
    auto& row = op->chunks[static_cast<std::size_t>(rank_)];
    row.resize(static_cast<std::size_t>(sh_->n));
    for (int p = 0; p < size(); ++p) {
      const auto& chunk = (*owned)[static_cast<std::size_t>(p)];
      row[static_cast<std::size_t>(p)] = {reinterpret_cast<const std::byte*>(chunk.data()),
                                          chunk.size() * sizeof(T)};
    }
    op->posted[static_cast<std::size_t>(rank_)] = 1;
  }
  op->cv.notify_all();
  for (int p = 0; p < size(); ++p) {
    const auto& chunk = (*owned)[static_cast<std::size_t>(p)];
    if (p != rank_ && !chunk.empty()) record_send(p, chunk.size() * sizeof(T));
  }
  AlltoallvRequest<T> req;
  req.comm_ = this;
  req.op_ = std::move(op);
  req.mine_ = std::move(owned);
  req.seq_ = seq;
  req.op_idx_ = op_idx;
  req.t0_ = CpuTimer::now_s();
  req.taken_.assign(static_cast<std::size_t>(size()), 0);
  req.remaining_ = size();
  return req;
}

/// Result of one Machine::run.
struct RunReport {
  std::vector<RankReport> ranks;
  double wall_s = 0.0;

  [[nodiscard]] std::uint64_t total_bytes_network() const {
    std::uint64_t b = 0;
    for (const auto& r : ranks) b += r.bytes_network();
    return b;
  }
  [[nodiscard]] std::uint64_t total_msgs_network() const {
    std::uint64_t m = 0;
    for (const auto& r : ranks) m += r.msgs_network();
    return m;
  }
  /// Machine-wide collective sent volume; equals total_coll_bytes_received()
  /// on every run (the send/recv mirror invariant).
  [[nodiscard]] std::uint64_t total_sent_bytes() const {
    std::uint64_t b = 0;
    for (const auto& r : ranks) b += r.sent_bytes_network();
    return b;
  }
  [[nodiscard]] std::uint64_t total_sent_msgs() const {
    std::uint64_t m = 0;
    for (const auto& r : ranks) m += r.sent_msgs_network();
    return m;
  }
  [[nodiscard]] std::uint64_t total_coll_bytes_received() const {
    std::uint64_t b = 0;
    for (const auto& r : ranks) b += r.coll_bytes_received();
    return b;
  }
  [[nodiscard]] std::uint64_t total_coll_msgs_received() const {
    std::uint64_t m = 0;
    for (const auto& r : ranks) m += r.coll_msgs_received();
    return m;
  }
  [[nodiscard]] std::uint64_t total_rdma_bytes() const {
    std::uint64_t b = 0;
    for (const auto& r : ranks) b += r.rdma_bytes;
    return b;
  }
  [[nodiscard]] std::uint64_t total_rdma_msgs() const {
    std::uint64_t m = 0;
    for (const auto& r : ranks) m += r.rdma_msgs;
    return m;
  }
};

/// Per-run fault/robustness knobs. Defaults are the zero-overhead plain
/// runtime: no injector, no integrity checksums, a watchdog long enough to
/// never fire on healthy workloads.
struct MachineOptions {
  /// Watchdog: a barrier (or recovery rendezvous) stuck longer than this
  /// converts into a machine-wide PeerFailure instead of hanging.
  std::chrono::milliseconds barrier_timeout{60000};
  /// Checksums every received collective chunk and window get against the
  /// sender's bytes; mismatches raise CorruptionDetected on every rank.
  bool integrity = false;
  /// Scripted faults; empty = no injector is constructed at all.
  FaultPlan faults;
};

/// The simulated machine. Construct with the rank count and cost parameters,
/// then run one or more SPMD bodies. Refitted rates from a cost_params.json
/// named by the SA1D_COST_PARAMS environment variable override the passed
/// parameters (cost_params_from_env), so `bench_local.sh --refit` output
/// feeds back into every run automatically.
class Machine {
 public:
  explicit Machine(int nranks, CostParams cost = {}, MachineOptions opts = {});

  [[nodiscard]] int nranks() const { return n_; }
  [[nodiscard]] const CostModel& cost() const { return cost_; }
  [[nodiscard]] const MachineOptions& options() const { return opts_; }

  /// Runs `body` on every rank (one thread each); rethrows the first rank
  /// exception after all threads joined.
  RunReport run(const std::function<void(Comm&)>& body);

 private:
  int n_;
  CostModel cost_;
  MachineOptions opts_;
};

}  // namespace sa1d
