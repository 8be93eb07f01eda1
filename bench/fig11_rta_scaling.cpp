// Fig 11: strong scaling of RᵀA on the four datasets, plus the full
// restriction pipeline (RᵀA + (RᵀA)R) algorithm comparison on queen-like.
// Paper result: the 1D variant beats 2D/3D; scaling flattens once the
// restriction workload is too small (after ~8192 cores there).
#include <cstdio>

#include "apps/amg.hpp"
#include "bench_common.hpp"
#include "dist/dist_spgemm.hpp"
#include "part/permutation.hpp"

int main() {
  using namespace sa1d;
  bench::banner("fig11_rta_scaling", "Fig 11",
                "R from MIS-2; R^T A via sparsity-aware 1D vs 2D/3D baselines");

  std::printf("-- R^T A strong scaling (modeled ms) --\n");
  std::printf("%-13s %8s %8s %8s\n", "dataset", "P=4", "P=16", "P=64");
  for (auto d : {Dataset::QueenLike, Dataset::StokesLike, Dataset::Hv15rLike,
                 Dataset::NlpkktLike}) {
    auto a = bench::load(d);
    auto r = restriction_operator(symmetrize(a), 11);
    auto rt = transpose(r);
    std::printf("%-13s", dataset_name(d));
    for (int P : {4, 16, 64}) {
      CostParams cp;
      cp.ranks_per_node = 16;
      Machine m(P, cp);
      auto rep = m.run([&](Comm& c) {
        auto drt = DistMatrix1D<double>::from_global(c, rt);
        auto da = DistMatrix1D<double>::from_global(c, a);
        spgemm_1d(c, drt, da);
      });
      std::printf(" %8.2f", 1e3 * bench::modeled(rep, m.cost()).total());
    }
    std::printf("\n");
  }

  std::printf("\n-- queen-like: full restriction R^T A + (R^T A)R, algorithm comparison --\n");
  std::printf("%5s %-22s %12s\n", "P", "algorithm", "modeled ms");
  auto a = bench::load(Dataset::QueenLike);
  auto r = restriction_operator(a, 11);
  auto rt = transpose(r);
  auto perm = random_permutation(a.ncols(), 13);
  auto aperm = permute_symmetric(a, perm);
  auto rperm = permute(r, perm, Permutation::identity(r.ncols()));
  auto rtperm = transpose(rperm);
  // Replicated-operand grid multiply: both globals distributed, C left in
  // B's 1D column distribution.
  auto grid_product = [](Comm& c, const CscMatrix<double>& x, const CscMatrix<double>& y,
                         Algo algo, int layers) {
    auto dx = DistMatrix1D<double>::from_global(c, x);
    auto dy = DistMatrix1D<double>::from_global(c, y);
    DistSpgemmOptions opt;
    opt.algo = algo;
    opt.layers = layers;
    return spgemm_dist(c, dx, dy, opt);
  };

  for (int P : {4, 16, 64}) {
    CostParams cp;
    cp.ranks_per_node = 16;
    Machine m(P, cp);
    {
      auto rep = m.run([&](Comm& c) {
        auto res = galerkin_product(c, a, r, {}, RightMultAlgo::OuterProduct1d);
        (void)res;
      });
      std::printf("%5d %-22s %12.2f\n", P, "1D (outer right)",
                  1e3 * bench::modeled(rep, m.cost()).total());
    }
    {
      auto rep = m.run([&](Comm& c) {
        auto rta = grid_product(c, rtperm, aperm, Algo::Summa2D, 0).gather(c);
        grid_product(c, rta, rperm, Algo::Summa2D, 0);
      });
      std::printf("%5d %-22s %12.2f\n", P, "2D SUMMA (rand)",
                  1e3 * bench::modeled(rep, m.cost()).total());
    }
    for (int layers : valid_layer_counts(P)) {
      if (layers == 1 || layers == P) continue;
      auto rep = m.run([&](Comm& c) {
        auto rta = grid_product(c, rtperm, aperm, Algo::Split3D, layers).gather(c);
        grid_product(c, rta, rperm, Algo::Split3D, layers);
      });
      char label[64];
      std::snprintf(label, sizeof label, "3D split c=%d (rand)", layers);
      std::printf("%5d %-22s %12.2f\n", P, label, 1e3 * bench::modeled(rep, m.cost()).total());
      break;  // smallest non-trivial layer count is representative here
    }
  }
  std::printf("\n(paper: 1D variant best; scaling stalls when the restriction workload "
              "is too small per rank)\n");
  return 0;
}
