// Per-rank communication and computation accounting. Byte and message
// counts are exact properties of the executed algorithm; times are split
// into measured CPU phases and (separately) model-derived network time.
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "util/timer.hpp"

namespace sa1d {

/// Phase classification mirroring the paper's Fig 4 breakdown, refined by
/// the inspector–executor split: the one-time planning work (metadata
/// exchange, H∩D masks, block-fetch planning, symbolic analysis) is
/// accounted separately from per-execute bookkeeping, so iterated
/// multiplies can show the plan cost amortizing to zero.
enum class Phase {
  Comp,     // local SpGEMM numeric pass (parallelizable across threads)
  Plan,     // inspector: metadata, needed masks, fetch plan, symbolic pass
  Other,    // per-execute bookkeeping: value copies, DCSC assembly, merges
  Comm,     // time attributed to waiting on communication (modeled + measured)
  Reorder,  // ordering stage: graph partitioning + permutation pack/unpack
};

/// Everything one simulated rank did during a Machine::run.
struct RankReport {
  // Measured thread-CPU seconds per phase.
  double comp_s = 0.0;
  double plan_s = 0.0;
  double other_s = 0.0;
  // Ordering-stage CPU: partitioner runs and permutation pack/unpack (the
  // paper's "permutation time" when it reports 2D/3D with preprocessing).
  // One-shot per plan — replays of a cached permuted plan charge nothing
  // here beyond the inverse value scatter.
  double reorder_s = 0.0;

  // Modeled network seconds, split by whether the rank actually waited for
  // the message or hid it behind useful work. Every received message costs
  // alpha + beta*bytes on the model clock (the same formula as
  // CostModel::comm_seconds, so comm_s + overlap_s always reconciles with
  // the counter-derived total). Blocking ops charge the full message to
  // comm_s; nonblocking ops charge min(model cost, thread-CPU time elapsed
  // between issue and completion) to overlap_s — communication the rank
  // provably covered with its own work — and only the remainder to comm_s.
  double comm_s = 0.0;
  double overlap_s = 0.0;
  // Internal high-water mark of the thread-CPU clock up to which overlap
  // credit has been granted; concurrent in-flight requests cannot claim the
  // same compute window twice. Not a reportable statistic.
  double overlap_mark_s = 0.0;

  // Exact transport counters (receiver side).
  std::uint64_t bytes_inter = 0;  // from ranks on other nodes
  std::uint64_t bytes_intra = 0;  // from ranks on the same node
  std::uint64_t bytes_local = 0;  // self-access (not a network message)
  std::uint64_t msgs_inter = 0;
  std::uint64_t msgs_intra = 0;

  // Sender-side counters for two-sided collectives (allgather/alltoallv/
  // ibcast): the per-destination payload this rank injected into the
  // network. One-sided window gets have no active sender, so machine-wide
  // collective sent bytes must equal collective received bytes
  // (bytes_network() - rdma_bytes); test_runtime asserts this invariant.
  std::uint64_t sent_bytes_inter = 0;
  std::uint64_t sent_bytes_intra = 0;
  std::uint64_t sent_msgs_inter = 0;
  std::uint64_t sent_msgs_intra = 0;

  // RDMA-only counters (subset of the above; Figs 5/6 report these).
  std::uint64_t rdma_bytes = 0;
  std::uint64_t rdma_msgs = 0;
  std::uint64_t rdma_bytes_inter = 0;
  std::uint64_t rdma_msgs_inter = 0;

  // Ordinal of communication operations this rank has started (barriers,
  // collectives, window exposes/gets, splits). Not a transport counter —
  // it is the replay coordinate system for fault injection (runtime/
  // fault.hpp): deterministic SPMD programs hit identical (rank, comm_ops)
  // sequences on every run, so a FaultAction at (rank, op_index) is exactly
  // reproducible from a seed.
  std::uint64_t comm_ops = 0;

  // Self-healing replay accounting: times this rank abandoned a cached plan
  // after CorruptionDetected/PlanMismatch, ran the collective recovery
  // rendezvous, and rebuilt (dist/dist_plan.hpp's bounded retry loop).
  std::uint64_t plan_recoveries = 0;

  // Ordinal of top-level iterated entry points (spgemm_dist_cached /
  // spgemm_dist_batched) this rank has started. Read only by the
  // post-recovery alignment vote: recover() proves every rank unwound, not
  // that they unwound from the SAME logical call, and an iterated workload
  // can have one rank faulted mid-call #n while a peer already sits in call
  // #n+1 — each would restart its own call and the collective sequences
  // would desync into a watchdog hang. Comparing these ordinals right after
  // the rendezvous turns that hang into a uniform typed error.
  std::uint64_t toplevel_calls = 0;

  // Inspector–executor reuse accounting, indexed by the Algo enum's integer
  // value (runtime/cost_model.hpp; 0 = Auto counts cached cost-decision
  // reuses, the concrete backends count their plan builds vs. value-only
  // replays; the last slot has no backend and stays zero, so readers that
  // bind the five-slot array type keep working). Incremented by
  // DistSpgemmPlan (dist/dist_plan.hpp).
  std::array<std::uint64_t, 5> plan_builds{};
  std::array<std::uint64_t, 5> plan_replays{};

  // Multi-tenant plan-cache accounting (runtime/plan_cache.hpp). Counters
  // are pure functions of the SPMD request sequence — independent of
  // thread timing and the cost model — so every rank of a
  // deterministic program reports identical values (test_plan_cache
  // asserts it per rank). `cache_bytes_resident` is a gauge:
  // the cache's agreed residency after the last cache operation.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_bytes_resident = 0;
  // Per-backend split, indexed like plan_builds (slot 0 = Auto unused).
  std::array<std::uint64_t, 5> cache_hits_by_algo{};
  std::array<std::uint64_t, 5> cache_evictions_by_algo{};

  // Peak-memory gauge (DESIGN.md §13). The execution layer charges its
  // transient triple-shaped allocations — COO accumulators, stage-broadcast
  // staging, redistribution receive chunks, merge scratch — as it makes
  // them and releases them as they die; the high-water marks are what
  // DistSpgemmOptions::max_peak_triples budgets against.
  // mem_cur_* are the live gauges, peak_* the high-water since the last
  // outermost budget scope opened (MemGaugeScope resets the peaks to the
  // current level per top-level call, so each DistSpgemmStats reports its
  // own call's peak, not the session maximum). hwm_* are the machine-
  // lifetime high-water marks — never reset by any scope — so a RunReport
  // read after several calls (e.g. a fresh build followed by replays)
  // bounds ALL of them: a budgeted run holds iff hwm_triples ≤ budget.
  std::uint64_t mem_cur_triples = 0;
  std::uint64_t mem_cur_bytes = 0;
  std::uint64_t peak_triples = 0;
  std::uint64_t peak_bytes = 0;
  std::uint64_t hwm_triples = 0;
  std::uint64_t hwm_bytes = 0;
  // Nesting depth of open MemGaugeScopes: only the outermost scope resets
  // the peaks, so panel sub-calls cannot erase their parent's high water.
  int mem_scope_depth = 0;

  void mem_charge(std::uint64_t triples, std::uint64_t bytes) {
    mem_cur_triples += triples;
    mem_cur_bytes += bytes;
    if (mem_cur_triples > peak_triples) peak_triples = mem_cur_triples;
    if (mem_cur_bytes > peak_bytes) peak_bytes = mem_cur_bytes;
    if (mem_cur_triples > hwm_triples) hwm_triples = mem_cur_triples;
    if (mem_cur_bytes > hwm_bytes) hwm_bytes = mem_cur_bytes;
  }
  /// Releasing more than is charged is a bookkeeping bug at the release
  /// site, so it throws instead of clamping the gauge at zero.
  void mem_release(std::uint64_t triples, std::uint64_t bytes) {
    if (triples > mem_cur_triples || bytes > mem_cur_bytes)
      throw std::logic_error("RankReport::mem_release: releases " + std::to_string(triples) +
                             " triples / " + std::to_string(bytes) + " B but only " +
                             std::to_string(mem_cur_triples) + " / " +
                             std::to_string(mem_cur_bytes) + " are charged");
    mem_cur_triples -= triples;
    mem_cur_bytes -= bytes;
  }

  [[nodiscard]] std::uint64_t bytes_network() const { return bytes_inter + bytes_intra; }
  [[nodiscard]] std::uint64_t msgs_network() const { return msgs_inter + msgs_intra; }
  [[nodiscard]] std::uint64_t sent_bytes_network() const {
    return sent_bytes_inter + sent_bytes_intra;
  }
  [[nodiscard]] std::uint64_t sent_msgs_network() const {
    return sent_msgs_inter + sent_msgs_intra;
  }
  /// Receiver-side bytes that arrived through two-sided collectives (the
  /// counterpart of the sent_* counters).
  [[nodiscard]] std::uint64_t coll_bytes_received() const { return bytes_network() - rdma_bytes; }
  [[nodiscard]] std::uint64_t coll_msgs_received() const { return msgs_network() - rdma_msgs; }
};

/// RAII phase timer: accumulates thread-CPU time into the report on exit.
class PhaseScope {
 public:
  PhaseScope(RankReport& r, Phase p) : report_(r), phase_(p) {}
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;
  ~PhaseScope() {
    double s = timer_.seconds();
    switch (phase_) {
      case Phase::Comp: report_.comp_s += s; break;
      case Phase::Plan: report_.plan_s += s; break;
      case Phase::Other: report_.other_s += s; break;
      case Phase::Comm: report_.comm_s += s; break;
      case Phase::Reorder: report_.reorder_s += s; break;
    }
  }

 private:
  RankReport& report_;
  Phase phase_;
  CpuTimer timer_;
};

/// RAII peak-gauge scope: the outermost instance resets the high-water
/// marks to the current gauge level, so peak_triples/peak_bytes describe
/// exactly one top-level distributed call (monotone within the call, reset
/// at the next). Nested scopes — panel sub-multiplies, plan builds inside
/// cached entry points — are no-ops, so inner calls accumulate into their
/// parent's peak instead of erasing it.
class MemGaugeScope {
 public:
  explicit MemGaugeScope(RankReport& r) : report_(r) {
    if (report_.mem_scope_depth++ == 0) {
      report_.peak_triples = report_.mem_cur_triples;
      report_.peak_bytes = report_.mem_cur_bytes;
    }
  }
  MemGaugeScope(const MemGaugeScope&) = delete;
  MemGaugeScope& operator=(const MemGaugeScope&) = delete;
  ~MemGaugeScope() { --report_.mem_scope_depth; }

 private:
  RankReport& report_;
};

}  // namespace sa1d
