// Fig 8: strong-scaling per-rank breakdown of the sparsity-aware 1D
// algorithm on hv15r-like squaring, extended across the unified spgemm_dist
// backends: the same squaring through SA-1D, SUMMA-2D and Split-3D, every
// one phase-accounted on the same runtime, so the per-rank
// comm/comp/plan/other spread is comparable apples-to-apples.
//
// --json[=PATH] writes the BENCH_dist_backends fragment: per-backend phase
// breakdown (max over ranks), exact comm volumes (RDMA + collective +
// sent-side), and the load-imbalance factor, at P=16.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "dist/dist_spgemm.hpp"

namespace {

using namespace sa1d;

struct BackendRow {
  std::string name;
  bench::Breakdown bd;
  double imbalance = 1.0;
  std::uint64_t rdma_bytes = 0;
  std::uint64_t coll_bytes = 0;
  std::uint64_t sent_bytes = 0;
};

BackendRow measure_backend(Machine& m, const CscMatrix<double>& a, Algo algo) {
  BackendRow row;
  row.name = algo_name(algo);
  auto rep = m.run([&](Comm& c) {
    auto da = DistMatrix1D<double>::from_global(c, a);
    DistSpgemmOptions opt;
    opt.algo = algo;
    spgemm_dist(c, da, da, opt);
  });
  row.bd = bench::modeled(rep, m.cost());
  auto ranks = bench::per_rank_modeled(rep, m.cost());
  double mx = 0, sum = 0;
  for (const auto& b : ranks) {
    mx = std::max(mx, b.total());
    sum += b.total();
  }
  row.imbalance = sum > 0 ? mx / (sum / static_cast<double>(ranks.size())) : 1.0;
  row.rdma_bytes = rep.total_rdma_bytes();
  row.coll_bytes = rep.total_coll_bytes_received();
  row.sent_bytes = rep.total_sent_bytes();
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sa1d;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json_path = "BENCH_dist_backends_fig08.json";
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
  }

  auto a = bench::load(Dataset::Hv15rLike);
  CostParams cp = calibrate_cost_params();
  cp.ranks_per_node = 16;

  if (json_path != nullptr) {
    const int P = 16;
    Machine m(P, cp);
    // lockstep_total_ms is the same run with its hidden comm counted as
    // waited (Breakdown::lockstep_total).
    std::vector<BackendRow> rows;
    for (Algo algo : {Algo::SparseAware1D, Algo::Summa2D, Algo::Split3D})
      rows.push_back(measure_backend(m, a, algo));

    std::FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", json_path);
      return 1;
    }
    std::fprintf(f, "{\n  \"dataset\": \"%s\", \"P\": %d,\n  \"backends\": {\n",
                 dataset_name(Dataset::Hv15rLike), P);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto& r = rows[i];
      std::fprintf(f,
                   "    \"%s\": {\"comm_ms\": %.3f, \"comp_ms\": %.3f, \"plan_ms\": %.3f, "
                   "\"other_ms\": %.3f, \"total_ms\": %.3f, \"overlap_ms\": %.3f, "
                   "\"overlap_eff\": %.4f, \"lockstep_total_ms\": %.3f, \"imbalance\": %.3f, "
                   "\"rdma_bytes\": %llu, \"coll_bytes\": %llu, \"sent_bytes\": %llu}%s\n",
                   r.name.c_str(), 1e3 * r.bd.comm, 1e3 * r.bd.comp, 1e3 * r.bd.plan,
                   1e3 * r.bd.other, 1e3 * r.bd.total(), 1e3 * r.bd.overlap,
                   r.bd.overlap_efficiency(), 1e3 * r.bd.lockstep_total(), r.imbalance,
                   static_cast<unsigned long long>(r.rdma_bytes),
                   static_cast<unsigned long long>(r.coll_bytes),
                   static_cast<unsigned long long>(r.sent_bytes),
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  }\n}\n");
    std::fclose(f);
    std::fprintf(stderr, "wrote %s\n", json_path);
    return 0;
  }

  bench::banner("fig08_strong_scaling_breakdown", "Fig 8",
                "per-rank bars -> per-rank rows (P=16) and max/avg summaries; "
                "plus the same squaring through every spgemm_dist backend");

  for (int P : {16, 32, 64, 128}) {
    Machine m(P, cp);
    auto rep = m.run([&](Comm& c) {
      auto da = DistMatrix1D<double>::from_global(c, a);
      spgemm_1d(c, da, da);
    });
    auto ranks = bench::per_rank_modeled(rep, m.cost());
    std::printf("\n-- P = %d --\n", P);
    if (P <= 16) bench::print_rank_breakdown("per-rank", ranks);
    bench::print_rank_summary("summary", ranks);
    bench::print_peak_memory("memory", rep);
    // Imbalance factor: max total over avg total across ranks.
    double mx = 0, sum = 0;
    for (const auto& b : ranks) {
      mx = std::max(mx, b.total());
      sum += b.total();
    }
    std::printf("  imbalance (max/avg total): %.2f\n",
                mx / (sum / static_cast<double>(ranks.size())));
  }

  // Cross-backend comparison at P=16: the same multiply through the unified
  // front-end, identical phase semantics.
  std::printf("\n-- backends at P = 16 (phase max over ranks) --\n");
  std::printf("  %-10s %9s %9s %9s %9s %9s %10s %6s %6s\n", "backend", "comm(ms)", "comp(ms)",
              "plan(ms)", "other(ms)", "total(ms)", "hidden(ms)", "eff", "imbal");
  Machine m16(16, cp);
  for (Algo algo : {Algo::SparseAware1D, Algo::Summa2D, Algo::Split3D}) {
    auto row = measure_backend(m16, a, algo);
    std::printf("  %-10s %9.3f %9.3f %9.3f %9.3f %9.3f %10.3f %6.2f %6.2f\n", row.name.c_str(),
                1e3 * row.bd.comm, 1e3 * row.bd.comp, 1e3 * row.bd.plan, 1e3 * row.bd.other,
                1e3 * row.bd.total(), 1e3 * row.bd.overlap, row.bd.overlap_efficiency(),
                row.imbalance);
  }
  return 0;
}
