// Fig 12: the right multiplication (RᵀA)·R — sparsity-aware 1D vs the
// outer-product 1D algorithm (Algorithm 3). Paper result: outer-product
// wins for this use case (R is tall-skinny with one nonzero per row, so
// the outer-product's redistribution is cheap and its partial results tiny).
#include <cstdio>
#include <string>

#include "apps/amg.hpp"
#include "bench_common.hpp"
#include "dist/dist_spgemm.hpp"

int main() {
  using namespace sa1d;
  bench::banner("fig12_outer_product", "Fig 12",
                "(R^T A) R with Algorithm 1 vs Algorithm 3 for the right multiply");
  std::printf("%-13s %5s %-22s %12s\n", "dataset", "P", "right-multiply algo", "modeled ms");

  for (auto d : {Dataset::QueenLike, Dataset::StokesLike, Dataset::Hv15rLike,
                 Dataset::NlpkktLike}) {
    auto a = bench::load(d);
    auto r = restriction_operator(symmetrize(a), 11);
    auto rt = transpose(r);
    for (int P : {4, 16, 64}) {
      CostParams cp = calibrate_cost_params();
      cp.ranks_per_node = 16;
      Machine m(P, cp);
      // Isolate the right multiplication: precompute RtA once, then time
      // only (RtA) x R.
      auto rta_serial = spgemm(rt, a, LocalKernel::Hybrid);
      for (auto algo : {RightMultAlgo::SparsityAware1d, RightMultAlgo::OuterProduct1d}) {
        auto rep = m.run([&](Comm& c) {
          auto drta = DistMatrix1D<double>::from_global(c, rta_serial);
          auto dr = DistMatrix1D<double>::from_global(c, r);
          if (algo == RightMultAlgo::SparsityAware1d) {
            spgemm_1d(c, drta, dr);
          } else {
            spgemm_outer_product_1d(c, drta, dr);
          }
        });
        std::printf("%-13s %5d %-22s %12.2f\n", dataset_name(d), P,
                    algo == RightMultAlgo::SparsityAware1d ? "1D sparsity-aware"
                                                           : "1D outer-product",
                    1e3 * bench::modeled(rep, m.cost()).total());
      }
      // The unified front-end's pick for the same multiply (cost-model Auto
      // over SA-1D / SUMMA / 3D; the outer product is AMG-specific
      // and stays outside the generic dispatcher).
      {
        DistSpgemmStats st;
        auto rep = m.run([&](Comm& c) {
          auto drta = DistMatrix1D<double>::from_global(c, rta_serial);
          auto dr = DistMatrix1D<double>::from_global(c, r);
          DistSpgemmStats local;
          spgemm_dist(c, drta, dr, {}, &local);
          if (c.rank() == 0) st = local;
        });
        std::string label = std::string("spgemm_dist auto=") + algo_name(st.chosen);
        std::printf("%-13s %5d %-22s %12.2f\n", dataset_name(d), P, label.c_str(),
                    1e3 * bench::modeled(rep, m.cost()).total());
      }
    }
  }
  std::printf("\n(paper: outer-product is the better 1D algorithm for the right multiply)\n");
  return 0;
}
