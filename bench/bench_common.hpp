// Shared helpers for the experiment harness: dataset loading at the bench
// scale, modeled-time aggregation, and table printing. Every bench binary
// prints the rows/series of one table or figure from the paper; see
// DESIGN.md §3 for the index and EXPERIMENTS.md for recorded results.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "runtime/cost_model.hpp"
#include "runtime/machine.hpp"
#include "sparse/datasets.hpp"

namespace sa1d::bench {

/// SA1D_SCALE environment scaling (default 1.0 ≈ 20-40k-row instances).
inline double bench_scale() {
  if (const char* s = std::getenv("SA1D_SCALE")) return std::atof(s);
  return 1.0;
}

inline CscMatrix<double> load(Dataset d) { return make_dataset(d, bench_scale()); }

/// Modeled elapsed seconds of one phase-accounted run (DESIGN.md §5):
/// max over ranks of comp/threads + plan + other + modeled network time.
/// `plan` is the inspector side of the plan/execute split — one-shot runs
/// pay it once, iterated runs amortize it toward zero.
struct Breakdown {
  double comm = 0, comp = 0, plan = 0, other = 0;
  /// Ordering-stage CPU (Phase::Reorder): partitioner runs + permutation
  /// pack/unpack. One-shot like plan — replays of a permuted plan amortize
  /// it toward zero.
  double reorder = 0;
  /// Modeled comm seconds hidden behind compute by overlapped execution —
  /// informational, NOT part of total() (hidden time costs no wall time).
  double overlap = 0;
  /// The slowest rank's comm_s + overlap_s: the comm time of the same run
  /// with nothing hidden, i.e. waited in lockstep as the blocking primitives
  /// charge it.
  double lockstep_comm = 0;
  /// The slowest rank's counters priced by the α–β model
  /// (CostModel::comm_seconds); lockstep_comm must reconcile with it.
  double counter_comm = 0;
  [[nodiscard]] double total() const { return comm + comp + plan + other + reorder; }
  /// total() with every message waited for in full (lockstep_comm).
  [[nodiscard]] double lockstep_total() const {
    return lockstep_comm + comp + plan + other + reorder;
  }
  /// Fraction of modeled comm time hidden behind compute.
  [[nodiscard]] double overlap_efficiency() const {
    const double t = comm + overlap;
    return t > 0 ? overlap / t : 0;
  }
};

/// The runtime attributes modeled network seconds per received message as
/// it records them: waited time → RankReport::comm_s, time hidden behind
/// compute by nonblocking requests → overlap_s. The comm column is
/// therefore the *waited* modeled time of all traffic, collective and RDMA
/// alike — the seed mispriced collective waiting into `other`, which
/// reported comm = 0 for the ring/2D/3D backends at small scale.
inline Breakdown modeled(const RunReport& rep, const CostModel& cm,
                         int threads_per_rank = 1) {
  Breakdown b;
  for (const auto& r : rep.ranks) {
    b.comp = std::max(b.comp, r.comp_s / threads_per_rank);
    b.plan = std::max(b.plan, r.plan_s);
    b.other = std::max(b.other, r.other_s);
    b.reorder = std::max(b.reorder, r.reorder_s);
    b.comm = std::max(b.comm, r.comm_s);
    b.overlap = std::max(b.overlap, r.overlap_s);
    b.lockstep_comm = std::max(b.lockstep_comm, r.comm_s + r.overlap_s);
    b.counter_comm = std::max(b.counter_comm, cm.comm_seconds(r));
  }
  return b;
}

/// Per-rank modeled breakdown (Fig 4/8/10 style).
inline std::vector<Breakdown> per_rank_modeled(const RunReport& rep, const CostModel& /*cm*/,
                                               int threads_per_rank = 1) {
  std::vector<Breakdown> out;
  out.reserve(rep.ranks.size());
  for (const auto& r : rep.ranks) {
    Breakdown b;
    b.comp = r.comp_s / threads_per_rank;
    b.plan = r.plan_s;
    b.other = r.other_s;
    b.reorder = r.reorder_s;
    b.comm = r.comm_s;
    b.overlap = r.overlap_s;
    out.push_back(b);
  }
  return out;
}

inline void print_rank_breakdown(const char* label, const std::vector<Breakdown>& ranks) {
  std::printf("  %-28s rank:  comm(ms)  comp(ms)  plan(ms) other(ms) reord(ms)\n", label);
  for (std::size_t r = 0; r < ranks.size(); ++r)
    std::printf("  %-28s %5zu  %9.3f %9.3f %9.3f %9.3f %9.3f\n", "", r, 1e3 * ranks[r].comm,
                1e3 * ranks[r].comp, 1e3 * ranks[r].plan, 1e3 * ranks[r].other,
                1e3 * ranks[r].reorder);
}

inline void print_rank_summary(const char* label, const std::vector<Breakdown>& ranks) {
  Breakdown mx, sum;
  for (const auto& b : ranks) {
    mx.comm = std::max(mx.comm, b.comm);
    mx.comp = std::max(mx.comp, b.comp);
    mx.plan = std::max(mx.plan, b.plan);
    mx.other = std::max(mx.other, b.other);
    mx.reorder = std::max(mx.reorder, b.reorder);
    sum.comm += b.comm;
    sum.comp += b.comp;
    sum.plan += b.plan;
    sum.other += b.other;
    sum.reorder += b.reorder;
  }
  auto n = static_cast<double>(ranks.size());
  std::printf(
      "  %-28s comm max/avg %8.3f/%8.3f ms  comp max/avg %8.3f/%8.3f ms  plan max/avg "
      "%8.3f/%8.3f ms  other max/avg %8.3f/%8.3f ms  reorder max/avg %8.3f/%8.3f ms\n",
      label, 1e3 * mx.comm, 1e3 * sum.comm / n, 1e3 * mx.comp, 1e3 * sum.comp / n,
      1e3 * mx.plan, 1e3 * sum.plan / n, 1e3 * mx.other, 1e3 * sum.other / n,
      1e3 * mx.reorder, 1e3 * sum.reorder / n);
}

inline double mib(std::uint64_t bytes) { return static_cast<double>(bytes) / (1024.0 * 1024.0); }

/// Serving-cache observability line (companion to the breakdown printers):
/// the RankReport cache counters plus the per-backend hit split. Every
/// cache decision is collective — admission, eviction, and demotion are
/// voted before anyone moves — so the counters are rank-uniform by
/// construction and rank 0 speaks for the run; the gauge is the agreed
/// (max-over-ranks) residency.
inline void print_cache_counters(const char* label, const RunReport& rep) {
  const auto& r = rep.ranks.front();
  std::printf(
      "  %-28s cache %llu hits / %llu misses, %llu evictions, %llu demotions, resident %.2f "
      "MiB\n",
      label, static_cast<unsigned long long>(r.cache_hits),
      static_cast<unsigned long long>(r.cache_misses),
      static_cast<unsigned long long>(r.cache_evictions),
      static_cast<unsigned long long>(r.cache_demotions), mib(r.cache_bytes_resident));
  const Algo algos[] = {Algo::SparseAware1D, Algo::Ring1D, Algo::Summa2D, Algo::Split3D};
  std::printf("  %-28s hits by backend:", "");
  for (Algo a : algos)
    std::printf(" %s %llu", algo_name(a),
                static_cast<unsigned long long>(
                    r.cache_hits_by_algo[static_cast<std::size_t>(a)]));
  std::printf("\n");
}

/// Peak-memory observability line (companion to the breakdown printers):
/// the high-water execution gauge of DESIGN.md §13 — live triples and bytes
/// charged by workspaces, comm staging, and partial-C accumulators. Peaks
/// are rank-shaped (each rank stages its own routes), so the line reports
/// the max and mean over ranks; `budget` (0 = unbounded) prints alongside
/// so a table row shows at a glance whether the bound held. Uses the
/// machine-lifetime hwm_* marks (never reset between calls), so a report
/// taken after fresh+replay sequences covers every call in the run.
inline void print_peak_memory(const char* label, const RunReport& rep,
                              std::uint64_t budget = 0) {
  std::uint64_t mx_t = 0, mx_b = 0, sum_t = 0;
  for (const auto& r : rep.ranks) {
    mx_t = std::max(mx_t, r.hwm_triples);
    mx_b = std::max(mx_b, r.hwm_bytes);
    sum_t += r.hwm_triples;
  }
  const auto n = static_cast<double>(rep.ranks.size());
  std::printf("  %-28s peak %llu triples max (%.0f avg), %.2f MiB max", label,
              static_cast<unsigned long long>(mx_t), static_cast<double>(sum_t) / n,
              mib(mx_b));
  if (budget > 0)
    std::printf("  [budget %llu: %s]", static_cast<unsigned long long>(budget),
                mx_t <= budget ? "held" : "EXCEEDED");
  std::printf("\n");
}

/// Standard header naming the experiment and environment substitutions.
inline void banner(const char* experiment, const char* paper_ref, const char* note) {
  std::printf("==================================================================\n");
  std::printf("%s  (reproduces %s)\n", experiment, paper_ref);
  std::printf("%s\n", note);
  std::printf("scale=%.2f (SA1D_SCALE); simulated ranks, alpha-beta network model\n",
              bench_scale());
  std::printf("==================================================================\n");
}

}  // namespace sa1d::bench
