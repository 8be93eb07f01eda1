// Fig 15 (serving extension): SpGEMM-as-a-service throughput. A multi-tenant
// request stream — per-tenant frozen structures, fresh values per request —
// is served through the LRU plan cache two ways: one-at-a-time
// (spgemm_dist_cached_mt, each hit paying the full per-phase message count)
// and batched (spgemm_dist_batched, each phase's collectives fused across
// the batch, ~1× alpha per phase for k multiplies). Reported per backend and
// batch size in multiplies/sec of modeled time, with an in-bench bit-identity
// check: every batched member must equal its sequential result exactly.
//
// Also records the cache-side serving behavior: the hot/cold trace hit rate
// (a warmed tenant set with a fraction of never-seen structures mixed in)
// and a budget-constrained section where eviction and the windowed-ring
// demotion fallback are forced.
//
// --json[=PATH] writes the BENCH_throughput fragment (CI smoke asserts
// hot hit-rate >= 0.8 and the batch-8 fused speedup >= 1.5x at scale 1).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "dist/batch_spgemm.hpp"
#include "sparse/generators.hpp"

namespace {

using namespace sa1d;

/// Serving trace values: tenant structure frozen, values re-derived per
/// request index. Non-integer so the bit-identity check pins fold order.
CscMatrix<double> with_values(const CscMatrix<double>& base, int t) {
  std::vector<double> vals(base.vals().size());
  for (std::size_t i = 0; i < vals.size(); ++i)
    vals[i] = 0.3 + 0.17 * static_cast<double>(t) + 0.013 * static_cast<double>(i % 89);
  return CscMatrix<double>(base.nrows(), base.ncols(), base.colptr(), base.rowids(),
                           std::move(vals));
}

/// The tenant set: small multiplies (the regime batching targets — each one
/// alpha-dominated at serving scale), mixed shapes so Auto's per-tenant
/// choices differ.
std::vector<CscMatrix<double>> make_tenants() {
  // Serving-sized tenants: small enough that per-request latency is
  // alpha-dominated (message counts are size-independent, local compute is
  // not) — the regime where batching per-phase collectives pays.
  const double scale = bench::bench_scale();
  const auto n = std::max<index_t>(160, static_cast<index_t>(320.0 * scale));
  std::vector<CscMatrix<double>> out;
  out.push_back(block_clustered<double>(n, 8, 5.0, 0.4, 4251));
  out.push_back(erdos_renyi<double>(n, 4.0, 4253));
  out.push_back(block_clustered<double>(n, 16, 6.0, 0.3, 4257));
  out.push_back(hidden_community<double>(n, 8, 5.0, 0.5, 4259));
  return out;
}

int json_nranks() {
  if (const char* s = std::getenv("SA1D_NP")) {
    const int np = std::atoi(s);
    if (np >= 1) return np;
  }
  return 16;
}

/// Modeled network seconds with nothing hidden: waited plus hidden comm.
/// At serving sizes there is too little compute to hide latency behind, so
/// the hidden share would only blur the alpha comparison.
double net_sum(const RankReport& r) { return r.comm_s + r.overlap_s; }

double phase_sum(const RankReport& r) { return r.comp_s + r.plan_s + r.other_s + net_sum(r); }

struct ThroughputPoint {
  int batch = 1;
  double seq_s = 0;       ///< modeled seconds, sequential hot section
  double bat_s = 0;       ///< modeled seconds, batched hot section
  double seq_comm_s = 0;  ///< modeled network share of seq_s
  double bat_comm_s = 0;  ///< modeled network share of bat_s
  bool identical = true;  ///< every batched member bit-equal to sequential
  std::uint64_t hits = 0, misses = 0;
  [[nodiscard]] double seq_mult_s(int total) const {
    return seq_s > 0 ? static_cast<double>(total) / seq_s : 0;
  }
  [[nodiscard]] double bat_mult_s(int total) const {
    return bat_s > 0 ? static_cast<double>(total) / bat_s : 0;
  }
  [[nodiscard]] double speedup() const { return bat_s > 0 ? seq_s / bat_s : 0; }
};

/// One (backend, batch size) measurement: warm both caches, then serve the
/// same hot trace sequentially and batched, taking per-rank modeled-time
/// deltas around each section (comm counted in full, net_sum) and
/// bit-comparing every result pair.
ThroughputPoint measure_point(Machine& m, const std::vector<CscMatrix<double>>& tenants,
                              Algo algo, int batch, int batches) {
  const int P = m.nranks();
  ThroughputPoint out;
  out.batch = batch;
  std::vector<double> seq_d(static_cast<std::size_t>(P), 0.0);
  std::vector<double> bat_d(static_cast<std::size_t>(P), 0.0);
  std::vector<double> seq_cd(static_cast<std::size_t>(P), 0.0);
  std::vector<double> bat_cd(static_cast<std::size_t>(P), 0.0);
  std::vector<int> same(static_cast<std::size_t>(P), 1);
  std::vector<std::uint64_t> hits(static_cast<std::size_t>(P), 0);
  std::vector<std::uint64_t> misses(static_cast<std::size_t>(P), 0);
  m.run([&](Comm& c) {
    DistSpgemmOptions opt;
    opt.algo = algo;
    opt.expected_batch = batch;  // fusion-aware Auto pricing
    if (algo == Algo::Split3D) opt.layers = distdetail::default_split3d_layers(c.size());
    PlanCache<double> seq_cache, bat_cache;

    // Materialize the whole trace up front (identical values for both
    // modes) and warm both caches with one request per tenant.
    std::vector<DistMatrix1D<double>> ops;
    ops.reserve(static_cast<std::size_t>(batches * batch));
    for (int b = 0; b < batches; ++b)
      for (int i = 0; i < batch; ++i) {
        const auto tn = static_cast<std::size_t>(i) % tenants.size();
        ops.push_back(
            DistMatrix1D<double>::from_global(c, with_values(tenants[tn], b * batch + i)));
      }
    std::vector<DistMatrix1D<double>> warm;
    for (std::size_t tn = 0; tn < tenants.size(); ++tn)
      warm.push_back(DistMatrix1D<double>::from_global(c, with_values(tenants[tn], 9000)));
    for (const auto& w : warm) {
      spgemm_dist_cached_mt(c, seq_cache, w, w, opt);
      std::vector<std::pair<const DistMatrix1D<double>*, const DistMatrix1D<double>*>> one{
          {&w, &w}};
      spgemm_dist_batched(c, bat_cache, one, opt);
    }

    // Hot sections, best-of-3: the replayed traffic (and thus the modeled
    // network time) is identical across reps; the min strips wall-clock
    // compute noise from thread scheduling, exactly like fig09's reps.
    const int reps = 3;
    const auto me = static_cast<std::size_t>(c.rank());
    std::vector<DistMatrix1D<double>> seq_res, bat_res;
    seq_d[me] = bat_d[me] = 1e30;
    for (int rep = 0; rep < reps; ++rep) {
      seq_res.clear();
      seq_res.reserve(ops.size());
      const double t0 = phase_sum(c.report());
      const double c0 = net_sum(c.report());
      for (const auto& op : ops)
        seq_res.push_back(spgemm_dist_cached_mt(c, seq_cache, op, op, opt));
      const double t1 = phase_sum(c.report());
      const double c1 = net_sum(c.report());

      bat_res.clear();
      bat_res.reserve(ops.size());
      for (int b = 0; b < batches; ++b) {
        std::vector<std::pair<const DistMatrix1D<double>*, const DistMatrix1D<double>*>> items;
        for (int i = 0; i < batch; ++i) {
          const auto& op = ops[static_cast<std::size_t>(b * batch + i)];
          items.push_back({&op, &op});
        }
        auto got = spgemm_dist_batched(c, bat_cache, items, opt);
        for (auto& g : got) bat_res.push_back(std::move(g));
      }
      const double t2 = phase_sum(c.report());
      const double c2 = net_sum(c.report());
      if (t1 - t0 < seq_d[me]) {
        seq_d[me] = t1 - t0;
        seq_cd[me] = c1 - c0;
      }
      if (t2 - t1 < bat_d[me]) {
        bat_d[me] = t2 - t1;
        bat_cd[me] = c2 - c1;
      }
    }
    for (std::size_t i = 0; i < ops.size(); ++i)
      if (!(seq_res[i].local() == bat_res[i].local())) same[me] = 0;
    hits[me] = bat_cache.stats().hits;
    misses[me] = bat_cache.stats().misses;
  });
  for (int r = 0; r < P; ++r) {
    out.seq_s = std::max(out.seq_s, seq_d[static_cast<std::size_t>(r)]);
    out.bat_s = std::max(out.bat_s, bat_d[static_cast<std::size_t>(r)]);
    out.seq_comm_s = std::max(out.seq_comm_s, seq_cd[static_cast<std::size_t>(r)]);
    out.bat_comm_s = std::max(out.bat_comm_s, bat_cd[static_cast<std::size_t>(r)]);
    out.identical = out.identical && same[static_cast<std::size_t>(r)] == 1;
  }
  out.hits = hits[0];
  out.misses = misses[0];
  return out;
}

struct HotColdStats {
  std::uint64_t hits = 0, misses = 0;
  RunReport rep;  ///< full run report (cache counters for the printer)
  [[nodiscard]] double hit_rate() const {
    const auto total = hits + misses;
    return total > 0 ? static_cast<double>(hits) / static_cast<double>(total) : 0.0;
  }
};

/// The serving-trace hit-rate experiment: warm the tenant set, then serve
/// batches where every 8th request is a never-seen structure (~12.5% cold).
HotColdStats measure_hot_cold(Machine& m, const std::vector<CscMatrix<double>>& tenants,
                              int requests) {
  HotColdStats out;
  std::vector<std::uint64_t> hits(static_cast<std::size_t>(m.nranks()), 0);
  std::vector<std::uint64_t> misses(static_cast<std::size_t>(m.nranks()), 0);
  out.rep = m.run([&](Comm& c) {
    DistSpgemmOptions opt;
    opt.algo = Algo::Summa2D;
    opt.expected_batch = 8;
    PlanCache<double> cache;
    std::vector<DistMatrix1D<double>> warm;
    for (std::size_t tn = 0; tn < tenants.size(); ++tn)
      warm.push_back(DistMatrix1D<double>::from_global(c, with_values(tenants[tn], 9000)));
    for (const auto& w : warm) spgemm_dist_cached_mt(c, cache, w, w, opt);
    const auto hits0 = cache.stats().hits;
    const auto misses0 = cache.stats().misses;

    const auto n = tenants.front().nrows();
    for (int r = 0; r < requests; r += 8) {
      std::vector<DistMatrix1D<double>> ops;
      for (int i = 0; i < 8 && r + i < requests; ++i) {
        if (i == 7) {
          // Cold request: a structure no tenant has served before.
          ops.push_back(DistMatrix1D<double>::from_global(
              c, erdos_renyi<double>(n, 3.5, 7000 + static_cast<std::uint64_t>(r))));
        } else {
          const auto tn = static_cast<std::size_t>(i) % tenants.size();
          ops.push_back(DistMatrix1D<double>::from_global(c, with_values(tenants[tn], r + i)));
        }
      }
      std::vector<std::pair<const DistMatrix1D<double>*, const DistMatrix1D<double>*>> items;
      for (const auto& op : ops) items.push_back({&op, &op});
      spgemm_dist_batched(c, cache, items, opt);
    }
    hits[static_cast<std::size_t>(c.rank())] = cache.stats().hits - hits0;
    misses[static_cast<std::size_t>(c.rank())] = cache.stats().misses - misses0;
  });
  out.hits = hits[0];
  out.misses = misses[0];
  return out;
}

struct EvictionStats {
  std::uint64_t budget = 0;
  std::uint64_t unbounded_bytes = 0;
  std::uint64_t evictions = 0;
  std::uint64_t demotions = 0;
  std::uint64_t resident = 0;
  bool correct = true;  ///< budget-constrained results still match fresh
};

/// The budget experiment: measure the tenant set's unbounded residency,
/// then serve under ~60% of it — evictions (grid plans) and windowed-ring
/// demotions must both fire, and every result must stay correct.
EvictionStats measure_eviction(int P, const CostParams& cp,
                               const std::vector<CscMatrix<double>>& tenants, Algo algo) {
  EvictionStats out;
  {
    Machine m(P, cp);
    std::vector<std::uint64_t> bytes(static_cast<std::size_t>(P), 0);
    m.run([&](Comm& c) {
      DistSpgemmOptions opt;
      opt.algo = algo;
      PlanCache<double> cache;
      for (std::size_t tn = 0; tn < tenants.size(); ++tn) {
        auto d = DistMatrix1D<double>::from_global(c, with_values(tenants[tn], 9000));
        spgemm_dist_cached_mt(c, cache, d, d, opt);
      }
      bytes[static_cast<std::size_t>(c.rank())] = cache.stats().bytes_resident;
    });
    out.unbounded_bytes = bytes[0];
  }
  out.budget = out.unbounded_bytes * 3 / 5;

  Machine m(P, cp);
  std::vector<std::uint64_t> ev(static_cast<std::size_t>(P), 0);
  std::vector<std::uint64_t> dm(static_cast<std::size_t>(P), 0);
  std::vector<std::uint64_t> res(static_cast<std::size_t>(P), 0);
  std::vector<int> ok(static_cast<std::size_t>(P), 1);
  m.run([&](Comm& c) {
    DistSpgemmOptions opt;
    opt.algo = algo;
    PlanCache<double> cache(out.budget, /*demote_window=*/2);
    for (int round = 0; round < 2; ++round) {
      for (std::size_t tn = 0; tn < tenants.size(); ++tn) {
        const int t = round * static_cast<int>(tenants.size()) + static_cast<int>(tn);
        auto d = DistMatrix1D<double>::from_global(c, with_values(tenants[tn], t));
        std::vector<std::pair<const DistMatrix1D<double>*, const DistMatrix1D<double>*>> one{
            {&d, &d}};
        auto got = spgemm_dist_batched(c, cache, one, opt);
        auto fresh = spgemm_dist(c, d, d, opt);
        if (!(got[0].local() == fresh.local())) ok[static_cast<std::size_t>(c.rank())] = 0;
      }
    }
    const auto me = static_cast<std::size_t>(c.rank());
    ev[me] = cache.stats().evictions;
    dm[me] = cache.stats().demotions;
    res[me] = cache.stats().bytes_resident;
  });
  out.evictions = ev[0];
  out.demotions = dm[0];
  out.resident = res[0];
  for (int r = 0; r < P; ++r) out.correct = out.correct && ok[static_cast<std::size_t>(r)] == 1;
  return out;
}

struct BackendRow {
  Algo algo;
  std::vector<ThroughputPoint> points;
};

std::vector<Algo> serving_backends(int P) {
  std::vector<Algo> out{Algo::SparseAware1D, Algo::Ring1D, Algo::Summa2D};
  if (split3d_has_nontrivial_layers(P)) out.push_back(Algo::Split3D);
  out.push_back(Algo::Auto);
  return out;
}

void run_json(const char* json_path) {
  const int P = json_nranks();
  CostParams cp = calibrate_cost_params();
  cp.ranks_per_node = 4;  // serving cluster: four 4-rank nodes at P=16
  auto tenants = make_tenants();
  const std::vector<int> batch_sizes{1, 2, 8, 32};
  const int batches = 3;

  std::vector<BackendRow> rows;
  for (Algo algo : serving_backends(P)) {
    BackendRow row{algo, {}};
    Machine m(P, cp);
    for (int k : batch_sizes) row.points.push_back(measure_point(m, tenants, algo, k, batches));
    rows.push_back(std::move(row));
  }
  Machine mh(P, cp);
  auto hot = measure_hot_cold(mh, tenants, 64);
  auto evict = measure_eviction(P, cp, tenants, Algo::Summa2D);
  auto demote = measure_eviction(P, cp, tenants, Algo::Ring1D);

  // Headline: the best batch-8 fused speedup across serving backends (the
  // deployment picks the backend that fuses best for its tenants).
  double speedup8 = 0;
  const char* headline = "";
  bool all_identical = true;
  for (const auto& row : rows) {
    for (const auto& pt : row.points) {
      all_identical = all_identical && pt.identical;
      if (pt.batch == 8 && pt.speedup() > speedup8) {
        speedup8 = pt.speedup();
        headline = algo_name(row.algo);
      }
    }
  }

  std::FILE* f = std::fopen(json_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", json_path);
    std::exit(1);
  }
  std::fprintf(f,
               "{\n  \"P\": %d, \"tenants\": %zu, \"batches_per_size\": %d,\n"
               "  \"rows\": [\n",
               P, tenants.size(), batches);
  for (std::size_t ri = 0; ri < rows.size(); ++ri) {
    const auto& row = rows[ri];
    std::fprintf(f, "    {\"backend\": \"%s\", \"series\": [\n", algo_name(row.algo));
    for (std::size_t pi = 0; pi < row.points.size(); ++pi) {
      const auto& pt = row.points[pi];
      const int total = batches * pt.batch;
      std::fprintf(f,
                   "      {\"batch\": %d, \"seq_ms\": %.3f, \"batched_ms\": %.3f, "
                   "\"seq_comm_ms\": %.3f, \"batched_comm_ms\": %.3f, "
                   "\"seq_mult_per_s\": %.1f, \"batched_mult_per_s\": %.1f, "
                   "\"speedup\": %.3f, \"bit_identical\": %s}%s\n",
                   pt.batch, 1e3 * pt.seq_s, 1e3 * pt.bat_s, 1e3 * pt.seq_comm_s,
                   1e3 * pt.bat_comm_s, pt.seq_mult_s(total), pt.bat_mult_s(total),
                   pt.speedup(), pt.identical ? "true" : "false",
                   pi + 1 < row.points.size() ? "," : "");
    }
    std::fprintf(f, "    ]}%s\n", ri + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"hot\": {\"hits\": %llu, \"misses\": %llu, \"hit_rate\": %.4f},\n",
               static_cast<unsigned long long>(hot.hits),
               static_cast<unsigned long long>(hot.misses), hot.hit_rate());
  std::fprintf(f,
               "  \"eviction\": {\"backend\": \"summa2d\", \"budget_bytes\": %llu, "
               "\"unbounded_bytes\": %llu, \"evictions\": %llu, \"demotions\": %llu, "
               "\"resident_bytes\": %llu, \"results_correct\": %s},\n",
               static_cast<unsigned long long>(evict.budget),
               static_cast<unsigned long long>(evict.unbounded_bytes),
               static_cast<unsigned long long>(evict.evictions),
               static_cast<unsigned long long>(evict.demotions),
               static_cast<unsigned long long>(evict.resident),
               evict.correct ? "true" : "false");
  std::fprintf(f,
               "  \"demotion\": {\"backend\": \"ring1d\", \"budget_bytes\": %llu, "
               "\"unbounded_bytes\": %llu, \"evictions\": %llu, \"demotions\": %llu, "
               "\"resident_bytes\": %llu, \"results_correct\": %s},\n",
               static_cast<unsigned long long>(demote.budget),
               static_cast<unsigned long long>(demote.unbounded_bytes),
               static_cast<unsigned long long>(demote.evictions),
               static_cast<unsigned long long>(demote.demotions),
               static_cast<unsigned long long>(demote.resident),
               demote.correct ? "true" : "false");
  std::fprintf(f,
               "  \"hot_hit_rate\": %.4f, \"speedup_batch8\": %.3f, "
               "\"speedup_batch8_backend\": \"%s\", \"all_bit_identical\": %s\n}\n",
               hot.hit_rate(), speedup8, headline, all_identical ? "true" : "false");
  std::fclose(f);
  std::fprintf(stderr, "wrote %s\n", json_path);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sa1d;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json_path = "BENCH_throughput.json";
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
  }
  if (json_path != nullptr) {
    run_json(json_path);
    return 0;
  }

  bench::banner("fig15_throughput", "serving extension",
                "multi-tenant plan cache + batched small-multiply fusion vs one-at-a-time");
  const int P = json_nranks();
  CostParams cp = calibrate_cost_params();
  cp.ranks_per_node = 4;  // serving cluster: four 4-rank nodes at P=16
  auto tenants = make_tenants();
  const int batches = 3;

  std::printf("%-16s %6s %12s %14s %9s %11s %11s %6s\n", "backend", "batch", "seq mult/s",
              "batched mult/s", "speedup", "seq comm%", "bat comm%", "bitid");
  for (Algo algo : serving_backends(P)) {
    Machine m(P, cp);
    for (int k : {1, 2, 8, 32}) {
      auto pt = measure_point(m, tenants, algo, k, batches);
      const int total = batches * k;
      std::printf("%-16s %6d %12.1f %14.1f %8.2fx %10.1f%% %10.1f%% %6s\n", algo_name(algo), k,
                  pt.seq_mult_s(total), pt.bat_mult_s(total), pt.speedup(),
                  100.0 * pt.seq_comm_s / std::max(pt.seq_s, 1e-30),
                  100.0 * pt.bat_comm_s / std::max(pt.bat_s, 1e-30),
                  pt.identical ? "yes" : "NO");
    }
  }

  Machine mh(P, cp);
  auto hot = measure_hot_cold(mh, tenants, 64);
  std::printf("\nhot/cold trace: %llu hits / %llu misses (hit rate %.3f)\n",
              static_cast<unsigned long long>(hot.hits),
              static_cast<unsigned long long>(hot.misses), hot.hit_rate());
  bench::print_cache_counters("hot/cold trace", hot.rep);
  bench::print_peak_memory("hot/cold trace", hot.rep);
  auto evict = measure_eviction(P, cp, tenants, Algo::Summa2D);
  std::printf("eviction @%0.f%% budget (summa2d): %llu evictions, resident %.2f/%.2f MiB, %s\n",
              100.0 * 3 / 5, static_cast<unsigned long long>(evict.evictions),
              bench::mib(evict.resident), bench::mib(evict.unbounded_bytes),
              evict.correct ? "results correct" : "RESULTS WRONG");
  auto demote = measure_eviction(P, cp, tenants, Algo::Ring1D);
  std::printf("demotion @%0.f%% budget (ring1d): %llu demotions, %llu evictions, %s\n",
              100.0 * 3 / 5, static_cast<unsigned long long>(demote.demotions),
              static_cast<unsigned long long>(demote.evictions),
              demote.correct ? "results correct" : "RESULTS WRONG");
  return 0;
}
