// Shared driver for the betweenness-centrality benches (Fig 13/14):
// runs the forward multi-source BFS + backward sweep level-by-level with a
// pluggable SpGEMM backend (sparsity-aware 1D, 2D SUMMA, Split-3D) and
// reports the per-iteration SpGEMM time series the paper plots.
//
// The 2D/3D backends operate on replicated frontier operands (their block
// distributions are internal); only the SpGEMM calls are timed, mirroring
// the paper's "SpGEMM time of each loop iteration".
#pragma once

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "apps/bc.hpp"
#include "bench_common.hpp"
#include "dist/dist_spgemm.hpp"

namespace sa1d::bench {

struct LevelSeries {
  std::vector<double> forward_ms;   // modeled max-over-ranks per level
  std::vector<double> backward_ms;
  double comm_ms = 0;               // network-only share of the totals
  std::uint64_t peak_replicated_bytes = 0;  // memory proxy for the OOM guard
};

/// Per-level BC multiplication series with the sparsity-aware 1D backend
/// (uses the library's betweenness_batch level stats).
inline LevelSeries bc_series_1d(Machine& m, const CscMatrix<double>& a,
                                std::span<const index_t> sources,
                                const BcOptions& opt = {}) {
  LevelSeries out;
  std::vector<double> fwd, bwd;
  double comm_total = 0;
  m.run([&](Comm& c) {
    auto res = betweenness_batch(c, a, sources, opt);
    // Modeled per-level time = comp + modeled rdma; reduce max over ranks.
    std::vector<double> f, b;
    double comm_acc = 0;
    for (const auto& s : res.level_stats) {
      RankReport rr;
      rr.rdma_bytes = s.rdma_bytes;
      rr.rdma_msgs = s.rdma_msgs;
      rr.rdma_bytes_inter = s.rdma_bytes_inter;
      rr.rdma_msgs_inter = s.rdma_msgs_inter;
      double comm = m.cost().rdma_seconds(rr);
      // plan_s keeps the series comparable to the baselines (their one-shot
      // local multiplies charge symbolic work to Comp); on reused plans it
      // is zero and the amortization shows up directly in the series.
      double t = s.comp_s + s.plan_s + comm;
      double mx = c.allreduce_max(t);
      comm_acc += c.allreduce_max(comm);
      if (c.rank() == 0) (s.forward ? f : b).push_back(1e3 * mx);
    }
    if (c.rank() == 0) {
      fwd = f;
      bwd = b;
      comm_total = 1e3 * comm_acc;
    }
  });
  out.forward_ms = fwd;
  out.backward_ms = bwd;
  out.comm_ms = comm_total;
  return out;
}

/// Replicated-operand BFS driver for the 2D/3D baselines. `mult` runs one
/// distributed multiply (collective) and returns the gathered result.
using BaselineMult = std::function<CscMatrix<double>(Comm&, const CscMatrix<double>&,
                                                     const CscMatrix<double>&)>;

inline LevelSeries bc_series_baseline(Machine& m, const CscMatrix<double>& a_in,
                                      std::span<const index_t> sources,
                                      const BaselineMult& mult) {
  LevelSeries out;
  std::vector<double> fwd, bwd;
  double comm_total = 0;
  std::uint64_t peak = 0;
  m.run([&](Comm& c) {
    const index_t n = a_in.ncols();
    const auto b = static_cast<index_t>(sources.size());
    auto a = to_pattern(a_in);
    auto at = transpose(a);

    CooMatrix<double> seed(n, b);
    for (index_t j = 0; j < b; ++j) seed.push(sources[static_cast<std::size_t>(j)], j, 1.0);
    seed.canonicalize();
    auto f = CscMatrix<double>::from_coo(seed);
    auto sigma = f;
    auto visited = f;
    std::vector<CscMatrix<double>> frontiers{f};

    std::vector<double> fl, bl;
    double comm_acc = 0;
    std::uint64_t pk = std::uint64_t{24} * static_cast<std::uint64_t>(a.nnz());
    while (f.nnz() > 0) {
      RankReport before = c.report();
      auto next = mult(c, a, f);
      double comm = m.cost().comm_seconds(c.report()) - m.cost().comm_seconds(before);
      double t = (c.report().comp_s - before.comp_s) + comm;
      fl.push_back(1e3 * c.allreduce_max(t));
      comm_acc += c.allreduce_max(comm);
      pk = std::max(pk, std::uint64_t{24} * static_cast<std::uint64_t>(a.nnz() + f.nnz() + next.nnz()));
      f = ewise_mask_not(next, visited);
      sigma = ewise_add(sigma, f);
      visited = ewise_add(visited, to_pattern(f));
      frontiers.push_back(f);
    }

    CscMatrix<double> delta(n, b);
    for (int l = static_cast<int>(frontiers.size()) - 1; l >= 1; --l) {
      const auto& fr = frontiers[static_cast<std::size_t>(l)];
      auto one_plus = ewise_apply(fr, [](double) { return 1.0; });
      auto with_delta =
          ewise_add(one_plus, ewise_intersect(fr, delta, [](double, double d) { return d; }));
      auto w = ewise_intersect(with_delta, sigma,
                               [](double num, double sg) { return num / sg; });
      RankReport before = c.report();
      auto u = mult(c, at, w);
      double comm = m.cost().comm_seconds(c.report()) - m.cost().comm_seconds(before);
      double t = (c.report().comp_s - before.comp_s) + comm;
      bl.push_back(1e3 * c.allreduce_max(t));
      comm_acc += c.allreduce_max(comm);
      pk = std::max(pk, std::uint64_t{24} * static_cast<std::uint64_t>(at.nnz() + w.nnz() + u.nnz()));
      auto masked = ewise_intersect(
          ewise_intersect(u, frontiers[static_cast<std::size_t>(l - 1)],
                          [](double uu, double) { return uu; }),
          sigma, [](double uu, double sg) { return uu * sg; });
      delta = ewise_add(delta, masked);
    }
    if (c.rank() == 0) {
      fwd = fl;
      bwd = bl;
      comm_total = 1e3 * comm_acc;
      peak = pk;
    }
  });
  out.forward_ms = fwd;
  out.backward_ms = bwd;
  out.comm_ms = comm_total;
  out.peak_replicated_bytes = peak;
  return out;
}

/// A replicated-operand baseline multiply through spgemm_dist on one grid
/// backend: both operands are distributed from the globals every rank
/// holds, and C is gathered back onto every rank.
inline BaselineMult make_grid_mult(Algo algo, int layers = 0) {
  return [algo, layers](Comm& c, const CscMatrix<double>& a, const CscMatrix<double>& b) {
    auto da = DistMatrix1D<double>::from_global(c, a);
    auto db = DistMatrix1D<double>::from_global(c, b);
    DistSpgemmOptions opt;
    opt.algo = algo;
    opt.layers = layers;
    return spgemm_dist(c, da, db, opt).gather(c);
  };
}

inline BaselineMult make_summa2d_mult() { return make_grid_mult(Algo::Summa2D); }

inline BaselineMult make_split3d_mult(int layers) {
  return make_grid_mult(Algo::Split3D, layers);
}

inline void print_series(const char* algo, const LevelSeries& s) {
  std::printf("  %-18s forward :", algo);
  double ftot = 0, btot = 0;
  for (auto v : s.forward_ms) {
    std::printf(" %8.3f", v);
    ftot += v;
  }
  std::printf("  | sum %.3f ms\n", ftot);
  std::printf("  %-18s backward:", algo);
  for (auto v : s.backward_ms) {
    std::printf(" %8.3f", v);
    btot += v;
  }
  std::printf("  | sum %.3f ms\n", btot);
  std::printf("  %-18s network-only share of total: %.3f ms\n", "", s.comm_ms);
}

}  // namespace sa1d::bench
