// Multi-tenant serving example: three applications share one cluster and
// one plan cache, each re-multiplying a *fixed* sparsity structure with
// fresh values per request (edge-weight refreshes on a clustered graph, a
// road-like mesh, and a power-law community graph). Requests arrive as a
// mixed stream and are served in batches through spgemm_dist_batched: the
// structure is fingerprinted, the per-tenant plan is built once, and every
// later request replays it with the batch's collectives fused — so a batch
// of k small multiplies pays roughly one per-phase latency instead of k.
//
// A deliberately tight memory budget forces the cache to evict
// least-recently-used plans, showing the serving runtime degrading
// gracefully instead of failing admission.
//
//   ./serving_mixed [n] [batch]
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "sa1d.hpp"

int main(int argc, char** argv) {
  using namespace sa1d;
  index_t n = argc > 1 ? std::atoll(argv[1]) : 1024;
  const int batch = argc > 2 ? std::atoi(argv[2]) : 8;

  // The tenant structures: frozen sparsity, values refreshed per request.
  std::vector<CscMatrix<double>> tenants;
  tenants.push_back(block_clustered<double>(n, 8, 5.0, 0.4, 91));       // CFD-ish
  tenants.push_back(mesh3d<double>(static_cast<index_t>(8)));           // stencil
  tenants.push_back(hidden_community<double>(n, 8, 5.0, 0.5, 93));     // social
  std::printf("3 tenants: %lld/%lld/%lld rows, %lld/%lld/%lld nnz\n",
              static_cast<long long>(tenants[0].nrows()),
              static_cast<long long>(tenants[1].nrows()),
              static_cast<long long>(tenants[2].nrows()),
              static_cast<long long>(tenants[0].nnz()),
              static_cast<long long>(tenants[1].nnz()),
              static_cast<long long>(tenants[2].nnz()));

  Machine machine(16);
  std::uint64_t hits = 0, misses = 0, evictions = 0, resident = 0;
  int served = 0;
  auto report = machine.run([&](Comm& comm) {
    DistSpgemmOptions opt;
    opt.algo = Algo::Auto;
    opt.expected_batch = batch;
    // Budget two tenants' worth of plans: the third admission must evict
    // the least-recently-used plan instead of growing.
    PlanCache<double> cache(/*budget_bytes=*/0);
    std::uint64_t two_tenant_bytes = 0;

    for (int round = 0; round < 6; ++round) {
      // The mixed request stream: tenants interleaved round-robin, values
      // keyed by request ordinal (a weight refresh, not a new structure).
      std::vector<CscMatrix<double>> reqs;
      for (int i = 0; i < batch; ++i) {
        const auto& base = tenants[static_cast<std::size_t>(i) % tenants.size()];
        std::vector<double> vals(base.vals().size());
        for (std::size_t v = 0; v < vals.size(); ++v)
          vals[v] = 0.5 + 0.01 * static_cast<double>((round * batch + i + static_cast<int>(v)) % 97);
        reqs.emplace_back(base.nrows(), base.ncols(), base.colptr(), base.rowids(),
                          std::move(vals));
      }
      std::vector<DistMatrix1D<double>> ops;
      ops.reserve(reqs.size());
      for (const auto& r : reqs) ops.push_back(DistMatrix1D<double>::from_global(comm, r));
      std::vector<std::pair<const DistMatrix1D<double>*, const DistMatrix1D<double>*>> items;
      for (const auto& op : ops) items.push_back({&op, &op});

      auto results = spgemm_dist_batched(comm, cache, items, opt);
      if (comm.rank() == 0) served += static_cast<int>(results.size());

      if (round == 1) {
        // After two unbounded rounds every tenant's plan is resident;
        // shrink the budget below that to put admission under pressure.
        two_tenant_bytes = cache.stats().bytes_resident * 2 / 3;
        cache.set_budget(two_tenant_bytes);
      }
    }
    if (comm.rank() == 0) {
      hits = cache.stats().hits;
      misses = cache.stats().misses;
      evictions = cache.stats().evictions;
      resident = cache.stats().bytes_resident;
    }
  });

  std::printf("served %d multiplies in batches of %d through one plan cache\n", served, batch);
  std::printf("cache: %llu hits / %llu misses (hit rate %.2f), %llu evictions\n",
              static_cast<unsigned long long>(hits), static_cast<unsigned long long>(misses),
              hits + misses > 0
                  ? static_cast<double>(hits) / static_cast<double>(hits + misses)
                  : 0.0,
              static_cast<unsigned long long>(evictions));
  std::printf("resident plan bytes under budget: %.2f KiB\n",
              static_cast<double>(resident) / 1024.0);
  std::printf("modeled network time: %.3f ms across %d ranks\n",
              1e3 * report.ranks[0].comm_s, machine.nranks());
  return 0;
}
