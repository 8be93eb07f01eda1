// Fig 6: block-fetch strategy analysis on hv15r-like squaring. Sweeps the
// K parameter of Algorithm 2 and reports RDMA message counts, moved volume,
// and modeled communication time. Paper result: blocking cuts message count
// by orders of magnitude and improves RDMA time; very large K (fine
// messages) pays latency, very small K (coarse blocks) pays overshoot. Next
// to the sweep, the "α–β optimal" row runs the default planner, which
// minimizes every owner's modeled get cost at its link's rates, so its
// modeled comm time is at most every K row's.
//
// --json[=PATH] writes the machine-readable BENCH_comm_1d fragment: one row
// per K (and one with "k": null for the α–β planner) with exact
// message/byte counts, modeled comm time, overshoot, and the
// plan-vs-execute CPU split of the inspector–executor pipeline.
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/spgemm1d.hpp"

namespace {

struct KRow {
  std::optional<sa1d::index_t> k;  ///< unset: the α–β-optimal planner
  unsigned long long rdma_msgs = 0;
  unsigned long long rdma_bytes = 0;
  double comm_ms = 0;
  double overshoot_pct = 0;
  double plan_s_max = 0;
  double other_s_max = 0;
  double comp_s_max = 0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace sa1d;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json_path = "BENCH_comm_1d_fig06.json";
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
  }

  bench::banner("fig06_block_fetch", "Fig 6",
                "per-column fetching == very large K; message counts are exact");
  const int P = 64;
  CostParams cp;
  cp.ranks_per_node = 16;
  Machine m(P, cp);
  auto a = bench::load(Dataset::Hv15rLike);

  std::vector<KRow> rows;
  std::printf("%8s %14s %14s %16s %14s %12s %12s\n", "K", "rdma msgs", "moved MiB",
              "modeled comm ms", "overshoot %", "plan ms", "exec ms");
  const std::vector<std::optional<index_t>> ks{std::nullopt, 1, 4, 16, 64, 256, 1024, 4096, 16384};
  for (std::optional<index_t> k : ks) {
    Spgemm1dInfo info_acc{};
    auto rep = m.run([&](Comm& c) {
      auto da = DistMatrix1D<double>::from_global(c, a);
      Spgemm1dInfo info;
      spgemm_1d(c, da, da, {.block_fetch_k = k}, &info);
      auto needed = c.allreduce_sum(info.needed_cols);
      auto fetched = c.allreduce_sum(info.fetched_cols);
      if (c.rank() == 0) {
        info_acc.needed_cols = needed;
        info_acc.fetched_cols = fetched;
      }
    });
    KRow row;
    row.k = k;
    row.rdma_msgs = rep.total_rdma_msgs();
    row.rdma_bytes = rep.total_rdma_bytes();
    for (const auto& r : rep.ranks) {
      row.comm_ms = std::max(row.comm_ms, 1e3 * m.cost().rdma_seconds(r));
      row.plan_s_max = std::max(row.plan_s_max, r.plan_s);
      row.other_s_max = std::max(row.other_s_max, r.other_s);
      row.comp_s_max = std::max(row.comp_s_max, r.comp_s);
    }
    row.overshoot_pct =
        info_acc.needed_cols == 0
            ? 0.0
            : 100.0 * (static_cast<double>(info_acc.fetched_cols) /
                           static_cast<double>(info_acc.needed_cols) -
                       1.0);
    rows.push_back(row);
    const std::string label = row.k ? std::to_string(*row.k) : "α–β opt";
    std::printf("%8s %14llu %14.2f %16.3f %14.1f %12.3f %12.3f\n", label.c_str(), row.rdma_msgs,
                bench::mib(row.rdma_bytes), row.comm_ms, row.overshoot_pct,
                1e3 * row.plan_s_max, 1e3 * (row.other_s_max + row.comp_s_max));
  }
  std::printf("\n(paper: K ~ 2048 balances message count against block overshoot; the α–β "
              "row models no more comm time than any K)\n");

  if (json_path != nullptr) {
    std::FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", json_path);
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"fig06_block_fetch\",\n  \"scale\": %.4f,\n  \"ranks\": %d,\n",
                 bench::bench_scale(), P);
    std::fprintf(f, "  \"sweep\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto& r = rows[i];
      const std::string k = r.k ? std::to_string(*r.k) : "null";
      std::fprintf(f,
                   "    {\"k\": %s, \"rdma_calls\": %llu, \"rdma_bytes\": %llu, "
                   "\"modeled_comm_ms\": %.6f, \"overshoot_pct\": %.3f, \"plan_s_max\": %.6f, "
                   "\"exec_other_s_max\": %.6f, \"comp_s_max\": %.6f}%s\n",
                   k.c_str(), r.rdma_msgs, r.rdma_bytes, r.comm_ms, r.overshoot_pct, r.plan_s_max,
                   r.other_s_max, r.comp_s_max, i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::fprintf(stderr, "wrote %s\n", json_path);
  }
  return 0;
}
