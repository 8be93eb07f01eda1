// Quickstart: multiply two sparse matrices with the sparsity-aware 1D
// algorithm on a simulated 8-rank machine, verify against a serial
// reference, and inspect the communication the algorithm actually did.
//
//   ./quickstart
#include <cstdio>

#include "sa1d.hpp"

int main() {
  using namespace sa1d;

  // A structured sparse matrix: 16 clustered diagonal blocks, the shape the
  // sparsity-aware algorithm exploits (hv15r-like; see DESIGN.md §4).
  auto a = block_clustered<double>(4096, 16, 8.0, 0.5, /*seed=*/42);
  std::printf("A: %lld x %lld, %lld nonzeros\n", static_cast<long long>(a.nrows()),
              static_cast<long long>(a.ncols()), static_cast<long long>(a.nnz()));

  // A simulated distributed machine: 8 ranks, 4 ranks per node, with a
  // Slingshot-like alpha-beta cost model (see runtime/cost_model.hpp).
  CostParams cost;
  cost.ranks_per_node = 4;
  Machine machine(8, cost);

  CscMatrix<double> c_dist;
  auto report = machine.run([&](Comm& comm) {
    // 1D column distribution: rank i owns a contiguous slice of columns.
    auto da = DistMatrix1D<double>::from_global(comm, a);

    // Before communicating, the paper's Sec. V advisor: planned fetch
    // volume over the size of A. Above ~0.3, partition first.
    double cv = cv_over_mem_a(comm, da, da);
    if (comm.rank() == 0) std::printf("CV/memA advisor: %.3f (<0.3: use natural order)\n", cv);

    // C = A * A with Algorithm 1 (windows + H-filter + block fetch).
    Spgemm1dInfo info;
    auto dc = spgemm_1d(comm, da, da, {}, &info);

    if (comm.rank() == 0)
      std::printf("rank 0 fetched %lld of %lld needed columns (%lld elements) into an "
                  "A-tilde of %lld nonzeros\n",
                  static_cast<long long>(info.fetched_cols),
                  static_cast<long long>(info.needed_cols),
                  static_cast<long long>(info.fetched_elems),
                  static_cast<long long>(info.atilde_nnz));

    // Gather to verify (only sensible at example scale).
    c_dist = dc.gather(comm);
  });

  auto c_ref = spgemm(a, a);
  std::printf("distributed result %s the serial reference\n",
              approx_equal(c_dist, c_ref, 1e-9) ? "matches" : "DIFFERS FROM");

  std::printf("total RDMA: %.2f MiB in %llu messages\n",
              static_cast<double>(report.total_rdma_bytes()) / (1 << 20),
              static_cast<unsigned long long>(report.total_rdma_msgs()));
  CostModel cm(cost);
  ModeledTime t = cm.run_time(report.ranks);
  std::printf("modeled time: %.3f ms (comp %.3f + comm %.3f + plan %.3f + other %.3f)\n",
              1e3 * t.total(), 1e3 * t.comp, 1e3 * t.comm, 1e3 * t.plan, 1e3 * t.other);
  return 0;
}
