// Fig 13: betweenness centrality on eukarya-like — per-iteration SpGEMM
// time of the forward search and backward sweep of the first batch,
// comparing the partitioned sparsity-aware 1D algorithm against 2D/3D.
// Paper result (64 ranks, METIS permutation): 1D is ~1.7x faster than the
// best baseline (3D).
#include <cstdio>

#include "bc_compare.hpp"
#include "part/partitioner.hpp"

int main() {
  using namespace sa1d;
  bench::banner("fig13_bc_eukarya", "Fig 13",
                "batch of sources; partitioner permutation applied for the 1D algorithm");
  // Smaller than the squaring benches: the 2D/3D comparison drivers hold
  // replicated frontier operands on every rank-thread, so the footprint is
  // P x (matrix + frontiers). Paper runs 64 ranks on 4 nodes.
  const int P = 16;
  const index_t batch = 128;
  CostParams cp;
  cp.ranks_per_node = 4;
  Machine m(P, cp);

  auto a0 = make_dataset(Dataset::EukaryaLike, 0.3 * bench::bench_scale());
  auto sources = pick_sources(a0.ncols(), batch, 21);

  // Partition (the recommended preprocessing for eukarya; cost excluded as
  // in the paper — BC runs thousands of SpGEMMs per partitioning).
  auto g = graph_from_matrix(a0);
  auto w = flops_vertex_weights(a0);
  PartitionOptions popt;
  popt.nparts = P;
  auto layout = partition_to_layout(partition_graph(g, w, popt).part, P);
  auto a = permute_symmetric(a0, layout.perm);
  std::vector<index_t> psources;
  for (auto s : sources) psources.push_back(layout.perm(s));

  std::printf("\n-- eukarya-like, batch=%lld, %d ranks (per-level SpGEMM ms) --\n",
              static_cast<long long>(batch), P);
  // Default fetch planner: the α–β optimum per owner adapts the
  // message:volume balance to the instance scale, so no K is hand-set
  // (cf. fig06's "α–β optimal" row).
  BcOptions bopt;
  auto s1d = bench::bc_series_1d(m, a, psources, bopt);
  bench::print_series("1D (partitioned)", s1d);
  auto s2d = bench::bc_series_baseline(m, a, psources, bench::make_summa2d_mult());
  bench::print_series("2D SUMMA", s2d);
  auto s3d = bench::bc_series_baseline(m, a, psources, bench::make_split3d_mult(4));
  bench::print_series("3D split (c=4)", s3d);

  auto total = [](const bench::LevelSeries& s) {
    double t = 0;
    for (auto v : s.forward_ms) t += v;
    for (auto v : s.backward_ms) t += v;
    return t;
  };
  std::printf("\n  totals: 1D %.3f ms, 2D %.3f ms, 3D %.3f ms -> 1D speedup vs best "
              "baseline: %.2fx (paper: 1.74x vs 3D)\n",
              total(s1d), total(s2d), total(s3d),
              std::min(total(s2d), total(s3d)) / total(s1d));
  return 0;
}
