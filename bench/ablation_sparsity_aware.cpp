// Ablation of the design choices DESIGN.md calls out for Algorithm 1:
//   (a) H ∩ D sparsity filter on vs off (sparsity-aware vs oblivious 1D)
//   (b) the α–β-optimal fetch planner vs Algorithm 2 at the paper's K = 2048
//   (c) block-fetch K at the extremes
// on the structured (hv15r-like) and scattered (random-permuted) inputs.
#include <cstdio>

#include "bench_common.hpp"
#include "core/spgemm1d.hpp"
#include "part/permutation.hpp"

namespace {

using namespace sa1d;

void run_case(Machine& m, const char* label, const CscMatrix<double>& a,
              const Spgemm1dOptions& opt) {
  auto rep = m.run([&](Comm& c) {
    auto da = DistMatrix1D<double>::from_global(c, a);
    spgemm_1d(c, da, da, opt);
  });
  auto b = bench::modeled(rep, m.cost());
  std::printf("  %-34s total %8.3f ms  comm %8.3f ms  rdma %9.2f MiB in %8llu msgs\n", label,
              1e3 * b.total(), 1e3 * b.comm, bench::mib(rep.total_rdma_bytes()),
              static_cast<unsigned long long>(rep.total_rdma_msgs()));
}

}  // namespace

int main() {
  using namespace sa1d;
  bench::banner("ablation_sparsity_aware", "DESIGN.md ablations",
                "isolates the H-filter, the fetch planner, and K extremes");
  const int P = 64;
  CostParams cp;
  cp.ranks_per_node = 16;
  Machine m(P, cp);

  auto structured = bench::load(Dataset::Hv15rLike);
  auto scattered = permute_symmetric(structured, random_permutation(structured.ncols(), 3));

  for (auto [name, mat] :
       {std::pair<const char*, const CscMatrix<double>*>{"hv15r-like (structured)",
                                                         &structured},
        std::pair<const char*, const CscMatrix<double>*>{"random-permuted (scattered)",
                                                         &scattered}}) {
    std::printf("\n-- %s --\n", name);
    run_case(m, "sparsity-aware (default, α–β optimal)", *mat, {});
    run_case(m, "K=2048 (Algorithm 2)", *mat, {.block_fetch_k = 2048});
    run_case(m, "oblivious (no H filter)", *mat, {.sparsity_aware = false});
    run_case(m, "K=1 (one block per peer)", *mat, {.block_fetch_k = 1});
    run_case(m, "K=65536 (per-column fetches)", *mat, {.block_fetch_k = 65536});
  }
  std::printf("\n(expected: the H filter only helps when structure exists; tiny K saves "
              "messages but overshoots volume; the α–β plan never models more comm time "
              "than any K)\n");
  return 0;
}
