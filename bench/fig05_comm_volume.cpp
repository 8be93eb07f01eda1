// Fig 5: communication-volume comparison across permutation strategies in
// the squaring operation (exact RDMA byte counts from the instrumented
// runtime, 64 ranks). Also prints the paper's §V CV/memA advisor ratio.
// Paper result: the right permutation cuts volume by ~96% on both datasets.
// The ordering sweep runs the paper's Algorithm 2 at K = 2048, the volume
// the figure reports: the default α–β planner trades volume for fewer gets
// and at this scale fetches most of every owner's slice whatever the
// ordering, which would hide the figure's effect.
//
// --json[=PATH] additionally writes the machine-readable BENCH_comm_1d
// fragment: per-ordering comm volume / RDMA call counts / CV, plus an
// iterated-multiply section comparing N fresh spgemm_1d calls against one
// SpgemmPlan1D replayed N times (plan-vs-execute time, amortized "other").
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/spgemm1d.hpp"
#include "part/partitioner.hpp"
#include "part/permutation.hpp"

namespace {

using namespace sa1d;

struct OrderingRow {
  std::string dataset;
  std::string label;
  std::uint64_t rdma_bytes = 0;
  std::uint64_t rdma_msgs = 0;
  double cv = 0;
};

OrderingRow measure(Machine& m, const char* dataset, const char* label,
                    const CscMatrix<double>& a, const std::vector<index_t>& bounds) {
  OrderingRow row;
  row.dataset = dataset;
  row.label = label;
  double cv = 0;
  auto rep = m.run([&](Comm& c) {
    auto da = DistMatrix1D<double>::from_global(c, a, bounds);
    const Spgemm1dOptions paper{.block_fetch_k = 2048};
    double cv_local = cv_over_mem_a(c, da, da, paper);
    if (c.rank() == 0) cv = cv_local;
    spgemm_1d(c, da, da, paper);
  });
  row.rdma_bytes = rep.total_rdma_bytes();
  row.rdma_msgs = rep.total_rdma_msgs();
  row.cv = cv;
  return row;
}

/// Aggregates of one iterated-squaring run (fresh-per-iter or plan-reused).
struct IterAgg {
  double plan_s_max = 0;    // max over ranks of accumulated Plan time
  double other_s_max = 0;
  double comp_s_max = 0;
  std::uint64_t rdma_bytes = 0;
  std::uint64_t rdma_msgs = 0;
  std::uint64_t coll_bytes = 0;  // non-RDMA (metadata collective) traffic
};

IterAgg aggregate(const RunReport& rep) {
  IterAgg g;
  for (const auto& r : rep.ranks) {
    g.plan_s_max = std::max(g.plan_s_max, r.plan_s);
    g.other_s_max = std::max(g.other_s_max, r.other_s);
    g.comp_s_max = std::max(g.comp_s_max, r.comp_s);
    g.rdma_bytes += r.rdma_bytes;
    g.rdma_msgs += r.rdma_msgs;
    g.coll_bytes += r.bytes_network() - r.rdma_bytes;
  }
  return g;
}

void print_iter_json(std::FILE* f, const char* key, const IterAgg& g, bool last) {
  std::fprintf(f,
               "    \"%s\": {\"plan_s_max\": %.6f, \"other_s_max\": %.6f, "
               "\"comp_s_max\": %.6f, \"rdma_bytes\": %llu, \"rdma_calls\": %llu, "
               "\"metadata_coll_bytes\": %llu}%s\n",
               key, g.plan_s_max, g.other_s_max, g.comp_s_max,
               static_cast<unsigned long long>(g.rdma_bytes),
               static_cast<unsigned long long>(g.rdma_msgs),
               static_cast<unsigned long long>(g.coll_bytes), last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sa1d;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json_path = "BENCH_comm_1d_fig05.json";
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
  }

  bench::banner("fig05_comm_volume", "Fig 5",
                "volumes are exact byte counts, not timings; CV/memA is the Sec. V advisor");
  const int P = 64;
  Machine m(P);
  std::vector<OrderingRow> rows;

  {
    auto a = bench::load(Dataset::Hv15rLike);
    auto randomized = permute_symmetric(a, random_permutation(a.ncols(), 7));
    auto r_rand = measure(m, "hv15r-like", "random-perm", randomized, {});
    auto r_orig = measure(m, "hv15r-like", "original", a, {});
    rows.push_back(r_rand);
    rows.push_back(r_orig);
    std::printf("\nhv15r-like (64 ranks):\n");
    std::printf("  %-14s %12.2f MiB   CV/memA=%.3f\n", "random-perm",
                bench::mib(r_rand.rdma_bytes), r_rand.cv);
    std::printf("  %-14s %12.2f MiB   CV/memA=%.3f\n", "original",
                bench::mib(r_orig.rdma_bytes), r_orig.cv);
    std::printf("  reduction: %.1f%% (paper: ~96%%)\n",
                100.0 * (1.0 - static_cast<double>(r_orig.rdma_bytes) /
                                   static_cast<double>(r_rand.rdma_bytes)));
  }
  {
    auto a = bench::load(Dataset::EukaryaLike);
    auto randomized = permute_symmetric(a, random_permutation(a.ncols(), 7));
    auto g = graph_from_matrix(a);
    auto w = flops_vertex_weights(a);
    PartitionOptions popt;
    popt.nparts = P;
    auto layout = partition_to_layout(partition_graph(g, w, popt).part, P);
    auto parted = permute_symmetric(a, layout.perm);
    auto r_rand = measure(m, "eukarya-like", "random-perm", randomized, {});
    auto r_orig = measure(m, "eukarya-like", "original", a, {});
    auto r_part = measure(m, "eukarya-like", "partitioned", parted, layout.bounds);
    rows.push_back(r_rand);
    rows.push_back(r_orig);
    rows.push_back(r_part);
    std::printf("\neukarya-like (64 ranks):\n");
    std::printf("  %-14s %12.2f MiB   CV/memA=%.3f\n", "random-perm",
                bench::mib(r_rand.rdma_bytes), r_rand.cv);
    std::printf("  %-14s %12.2f MiB   CV/memA=%.3f  (paper: 1.0 -> partition!)\n", "original",
                bench::mib(r_orig.rdma_bytes), r_orig.cv);
    std::printf("  %-14s %12.2f MiB   CV/memA=%.3f\n", "partitioned",
                bench::mib(r_part.rdma_bytes), r_part.cv);
    std::printf("  reduction vs random: %.1f%% (paper: ~96%%)\n",
                100.0 * (1.0 - static_cast<double>(r_part.rdma_bytes) /
                                   static_cast<double>(r_rand.rdma_bytes)));
  }

  // Iterated squaring A·A (the MCL/BC/AMG shape): N fresh spgemm_1d calls
  // pay the metadata collectives + symbolic pass every time; one cached
  // SpgemmPlan1D pays them once and replays value fetches + numeric only.
  const int iters = 5;
  IterAgg fresh, reused;
  {
    auto a = bench::load(Dataset::Hv15rLike);
    fresh = aggregate(m.run([&](Comm& c) {
      auto da = DistMatrix1D<double>::from_global(c, a);
      for (int i = 0; i < iters; ++i) spgemm_1d(c, da, da);
    }));
    reused = aggregate(m.run([&](Comm& c) {
      auto da = DistMatrix1D<double>::from_global(c, a);
      SpgemmPlan1D<double> plan(c, da, da);
      for (int i = 0; i < iters; ++i) plan.execute(c, da, da);
    }));
    std::printf("\niterated squaring, hv15r-like, %d iterations (64 ranks):\n", iters);
    std::printf("  %-12s plan %8.3f ms  other %8.3f ms  metadata-coll %10.2f MiB  rdma calls %llu\n",
                "fresh", 1e3 * fresh.plan_s_max, 1e3 * fresh.other_s_max,
                bench::mib(fresh.coll_bytes), static_cast<unsigned long long>(fresh.rdma_msgs));
    std::printf("  %-12s plan %8.3f ms  other %8.3f ms  metadata-coll %10.2f MiB  rdma calls %llu\n",
                "plan-reused", 1e3 * reused.plan_s_max, 1e3 * reused.other_s_max,
                bench::mib(reused.coll_bytes), static_cast<unsigned long long>(reused.rdma_msgs));
  }

  if (json_path != nullptr) {
    std::FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", json_path);
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"fig05_comm_volume\",\n  \"scale\": %.4f,\n  \"ranks\": %d,\n",
                 bench::bench_scale(), P);
    std::fprintf(f, "  \"orderings\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto& r = rows[i];
      std::fprintf(f,
                   "    {\"dataset\": \"%s\", \"ordering\": \"%s\", \"rdma_bytes\": %llu, "
                   "\"rdma_calls\": %llu, \"cv_over_mem_a\": %.6f}%s\n",
                   r.dataset.c_str(), r.label.c_str(),
                   static_cast<unsigned long long>(r.rdma_bytes),
                   static_cast<unsigned long long>(r.rdma_msgs), r.cv,
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"iterated\": {\n    \"dataset\": \"hv15r-like\", \"iters\": %d,\n", iters);
    print_iter_json(f, "fresh", fresh, false);
    print_iter_json(f, "plan_reused", reused, true);
    std::fprintf(f, "  }\n}\n");
    std::fclose(f);
    std::fprintf(stderr, "wrote %s\n", json_path);
  }
  return 0;
}
