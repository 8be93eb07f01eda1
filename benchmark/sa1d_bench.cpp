// sa1d_bench: one process runs one workload of the sa1d benchmark.
//
//   sa1d_bench --workload NAME --seed N --seconds S [--trace-dir DIR] [--record FILE]
//
// The workload's inputs come from the seed alone. Set-up runs kSetupReps
// times, then the timed closed loop runs for S seconds, then peak RSS is
// read, then sampled calls are checked against a serial reference. The last
// stdout line is the result object; benchmark/README.md defines every metric.
// With --trace-dir the run reports the per-layer metrics instead and writes
// DIR/NAME.trace.json.
#include <array>
#include <cstdlib>
#include <exception>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "apps/bc.hpp"
#include "dist/batch_spgemm.hpp"
#include "harness.hpp"
#include "sparse/datasets.hpp"

namespace {

using namespace sa1d;
using bench::Fnv;
using bench::Harness;
using bench::kRanks;
using Dist = DistMatrix1D<double>;

// Workload sizes: one call stays under ~0.1 s, so a 20 s run holds well
// over the 100 calls call_ms_p90 needs on a 4-core host.
// replay-part uses the eukarya-like generator (hidden communities behind a
// random relabeling) at n = 10k with 128 communities, 32 per rank: with the
// dataset's 32 communities the partitioner's balance, and with it the call
// and network time, swings with the seed.
constexpr index_t kReplayN = 10000;
constexpr index_t kReplayCommunities = 128;
constexpr double kSummaScale = 0.1;  // hv15r-like n = 2.4k
constexpr double kBcScale = 0.15;    // eukarya-like n = 3k
constexpr index_t kBcSources = 64;
constexpr index_t kServeN = 640;
constexpr int kServeHotSlots = 7;  // + 1 cold member = batch of 8
constexpr int kServeColdPool = 64;

/// Copy of `g` with its values replaced by small integers keyed by `key`.
CscMatrix<double> with_values(const CscMatrix<double>& g, std::uint64_t vseed, std::int64_t key) {
  std::vector<double> vals(g.vals().size());
  for (std::size_t k = 0; k < vals.size(); ++k)
    vals[k] = bench::small_int(vseed, key, static_cast<std::int64_t>(k));
  return {g.nrows(), g.ncols(), g.colptr(), g.rowids(), std::move(vals)};
}

/// Overwrites a distributed slice's values in place with the values
/// with_values(g, vseed, key) holds there (from_global keeps global CSC order).
void refresh(Dist& d, const CscMatrix<double>& g, std::uint64_t vseed, std::int64_t key) {
  auto& v = d.mutable_local().mutable_vals();
  const index_t base = g.colptr()[static_cast<std::size_t>(d.col_lo())];
  for (std::size_t p = 0; p < v.size(); ++p)
    v[p] = bench::small_int(vseed, key, base + static_cast<std::int64_t>(p));
}

/// Adds each rank's share of a global result (even column split, as the
/// distributed outputs are laid out) to that rank's hash.
void hash_reference(std::array<Fnv, kRanks>& f, const CscMatrix<double>& c) {
  const auto b = even_split(c.ncols(), kRanks);
  for (std::size_t r = 0; r < kRanks; ++r)
    bench::hash_slice(f[r], DcscMatrix<double>::from_csc(extract_cols(c, b[r], b[r + 1])));
}

/// The per-call record of one distributed product: its slice hash and peak.
bench::CallResult hashed(const Dist& out, std::uint64_t peak_triples) {
  bench::CallResult r;
  Fnv f;
  bench::hash_slice(f, out.local());
  r.hash = f.value();
  r.peak_triples = peak_triples;
  return r;
}

std::vector<int> verify_set(int n) {
  std::vector<int> v;
  for (int i = 0; i < n; i += bench::kVerifyStride) v.push_back(i);
  if (n > 0 && v.back() != n - 1) v.push_back(n - 1);
  return v;
}

/// Checks the sampled calls: `expected(i)` returns the per-rank hashes of
/// the serial reference for call i. Returns the number of mismatching calls.
template <typename Expected>
int verify_hashes(Harness& h, Expected&& expected) {
  int failed = 0;
  for (int i : verify_set(h.calls())) {
    const double t0 = h.now();
    const std::array<Fnv, kRanks> want = expected(i);
    bool ok = true;
    for (int r = 0; r < kRanks; ++r)
      ok = ok && h.hash(r, i) == want[static_cast<std::size_t>(r)].value();
    h.host_span("verify", t0, h.now(), "\"call\": " + std::to_string(i));
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "sa1d_bench: %s call %d differs from the serial reference\n",
                   h.workload().c_str(), i);
    }
  }
  return failed;
}

/// kernels.symbolic_ms / numeric_ms / numeric_gflops: direct single-thread
/// calls on the squares of the workload's operands (host thread).
void kernel_layers(Harness& h, const std::vector<const CscMatrix<double>*>& ops) {
  using SR = PlusTimes<double>;
  std::vector<double> sym_ms, num_ms;
  double flops = 0.0;
  for (const auto* a : ops) flops += static_cast<double>(total_flops(*a, *a));
  for (int rep = 0; rep < bench::kLayerReps; ++rep) {
    double s = 0.0, n = 0.0;
    for (const auto* a : ops) {
      std::vector<detail::Workspace<SR>> ws;
      const double t0 = h.now();
      auto sym = spgemm_local_symbolic<SR, double>(*a, *a, LocalKernel::Hybrid, 1, &ws);
      const double t1 = h.now();
      auto c = spgemm_local_numeric<SR, double>(*a, *a, sym, &ws);
      const double t2 = h.now();
      h.host_span("spgemm_local_symbolic", t0, t1);
      h.host_span("spgemm_local_numeric", t1, t2);
      s += t1 - t0;
      n += t2 - t1;
    }
    sym_ms.push_back(1e3 * s);
    num_ms.push_back(1e3 * n);
  }
  const double num = bench::median(num_ms);
  h.set_layer("kernels.symbolic_ms", bench::median(sym_ms), sym_ms.size());
  h.set_layer("kernels.numeric_ms", num, num_ms.size());
  h.set_layer("kernels.numeric_gflops", num > 0.0 ? 2.0 * flops / (1e-3 * num) / 1e9 : 0.0,
              num_ms.size());
}

/// runtime.autoselect_ms: Auto's structural gather plus its joint
/// (backend × ordering) pricing, called directly on the operand.
void autoselect(Comm& c, const Dist& x, int batch) {
  auto in = gather_algo_cost_inputs(c, x, x);
  in.batch = batch;
  int layers = 1;
  std::vector<AlgoPrediction> preds;
  choose_algo_ordered(c.cost(), in, Ordering::Identity, false, Algo::Auto, 0, &layers, &preds);
}

// ---- replay-part ------------------------------------------------------------
// The paper's iterated use (AMG, MCL) on a graph with no natural locality:
// SA-1D under a partitioned ordering through one cached plan, values
// refreshed every call. Partitioning and the plan build happen in set-up.
int run_replay_part(Harness& h) {
  const std::uint64_t seed = h.seed();
  CscMatrix<double> g;  // the global operand, written by rank 0 in set-up only
  h.machine().run([&](Comm& c) {
    DistSpgemmOptions opt;
    opt.algo = Algo::SparseAware1D;
    opt.reorder = Ordering::Partitioned;
    opt.reorder_seed = seed;
    Dist a;
    DistSpgemmPlan<double> plan;
    h.setup(c, [&] {
      if (c.rank() == 0)
        g = with_values(hidden_community<double>(kReplayN, kReplayCommunities, 16.0, 1.0, seed),
                        seed, -1);
      c.barrier();
      a = h.scoped(c, "from_global", [&] { return Dist::from_global(c, g); });
      plan = DistSpgemmPlan<double>();
      DistSpgemmStats st;
      h.scoped(c, "spgemm_dist_cached:build",
               [&] { return spgemm_dist_cached(c, plan, a, a, opt, &st); });
      if (c.rank() == 0) {
        h.set_layer("part.partition_ms", 1e3 * st.partition_seconds, 1);
        h.set_layer("part.cut_fraction", st.reorder_cut_fraction, 1);
      }
    });
    Dist out;
    DistSpgemmStats st;
    h.timed_loop(
        c,
        [&](int i) {
          out = Dist();
          refresh(a, g, seed, i);
        },
        [&](int) {
          const auto m = h.mark(c);
          out = spgemm_dist_cached(c, plan, a, a, opt, &st);
          h.close(c, m, st.plan_reused ? "spgemm_dist_cached:replay" : "spgemm_dist_cached:build");
        },
        [&](int) { return hashed(out, st.peak_triples); });
    if (h.traced())
      h.layer_call(c, "runtime.autoselect_ms", "autoselect", bench::kLayerReps,
                   [&](int) { autoselect(c, a, 1); });
  });
  if (h.traced()) kernel_layers(h, {&g});
  const auto sym = spgemm_local_symbolic<PlusTimes<double>, double>(g, g);
  return verify_hashes(h, [&](int i) {
    std::array<Fnv, kRanks> f;
    const auto gi = with_values(g, seed, i);
    hash_reference(f, spgemm_local_numeric<PlusTimes<double>, double>(gi, gi, sym));
    return f;
  });
}

// ---- fresh-summa ------------------------------------------------------------
// The CombBLAS-style baseline: one-shot 2D SUMMA squaring with no plan, so
// grid routing, merges and rank imbalance dominate and the SA-1D paths idle.
int run_fresh_summa(Harness& h) {
  const std::uint64_t seed = h.seed();
  CscMatrix<double> g;
  h.machine().run([&](Comm& c) {
    DistSpgemmOptions opt;
    opt.algo = Algo::Summa2D;
    Dist a;
    h.setup(c, [&] {
      if (c.rank() == 0)
        g = with_values(make_dataset(Dataset::Hv15rLike, kSummaScale, seed), seed, -1);
      c.barrier();
      a = h.scoped(c, "from_global", [&] { return Dist::from_global(c, g); });
    });
    Dist out;
    DistSpgemmStats st;
    h.timed_loop(
        c, [&](int) { out = Dist(); },
        [&](int) {
          out = h.scoped(c, "spgemm_dist", [&] { return spgemm_dist(c, a, a, opt, &st); });
        },
        [&](int) { return hashed(out, st.peak_triples); });
    if (h.traced())
      h.layer_call(c, "runtime.autoselect_ms", "autoselect", bench::kLayerReps,
                   [&](int) { autoselect(c, a, 1); });
  });
  if (h.traced()) kernel_layers(h, {&g});
  std::array<Fnv, kRanks> want;
  hash_reference(want, spgemm(g, g));
  return verify_hashes(h, [&](int) { return want; });
}

// ---- bc ---------------------------------------------------------------------
// Batched betweenness centrality: tall-skinny BFS products whose frontier
// structure changes every level, so the SA-1D plan is rebuilt on every
// SpGEMM and RDMA block fetches make the call latency-bound.
int run_bc(Harness& h) {
  const std::uint64_t seed = h.seed();
  h.set_items_per_call(static_cast<double>(kBcSources));
  CscMatrix<double> g;
  auto sources = [&](int i) {
    return pick_sources(g.ncols(), kBcSources,
                        seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(i));
  };
  std::vector<std::pair<int, std::vector<double>>> kept;  // rank 0: scores of sampled calls
  std::vector<double> last;                               // rank 0: scores of the latest call
  h.machine().run([&](Comm& c) {
    const BcOptions opt;
    std::vector<index_t> src;
    h.setup(c, [&] {
      if (c.rank() == 0) g = to_pattern(make_dataset(Dataset::EukaryaLike, kBcScale, seed));
      c.barrier();
    });
    BcResult res;
    h.timed_loop(
        c,
        [&](int i) {
          res = BcResult();
          src = sources(i);
        },
        [&](int) {
          res = h.scoped(c, "betweenness_batch", [&] { return betweenness_batch(c, g, src, opt); });
        },
        [&](int i) {
          bench::CallResult r;
          Fnv f;
          f.words(res.scores);
          r.hash = f.value();
          r.peak_triples = c.report().peak_triples;
          r.bc_levels = res.nlevels;
          for (const auto& l : res.level_stats) r.bc_spgemm_s += l.comp_s + l.plan_s + l.other_s;
          if (c.rank() == 0) {
            if (i % bench::kVerifyStride == 0) kept.emplace_back(i, res.scores);
            last = res.scores;
          }
          return r;
        });
    if (h.traced()) {
      const auto d = Dist::from_global(c, g);
      h.layer_call(c, "runtime.autoselect_ms", "autoselect", bench::kLayerReps,
                   [&](int) { autoselect(c, d, 1); });
    }
  });
  if (h.traced()) kernel_layers(h, {&g});
  if (h.calls() > 0 && kept.back().first != h.calls() - 1) kept.emplace_back(h.calls() - 1, last);

  std::set<int> failed;
  // Scores are replicated: every rank must hold the same bits on every call.
  for (int i = 0; i < h.calls(); ++i)
    for (int r = 1; r < kRanks; ++r)
      if (h.hash(r, i) != h.hash(0, i)) {
        failed.insert(i);
        std::fprintf(stderr, "sa1d_bench: bc call %d scores differ across ranks\n", i);
        break;
      }
  for (const auto& [i, got] : kept) {
    const double t0 = h.now();
    const auto want = brandes_serial(g, sources(i));
    bool ok = got.size() == want.size();
    for (std::size_t v = 0; ok && v < want.size(); ++v)
      ok = std::abs(got[v] - want[v]) <= 1e-9 * std::max(1.0, std::abs(want[v]));
    h.host_span("verify", t0, h.now(), "\"call\": " + std::to_string(i));
    if (!ok) {
      failed.insert(i);
      std::fprintf(stderr, "sa1d_bench: bc call %d differs from brandes_serial\n", i);
    }
  }
  return static_cast<int>(failed.size());
}

// ---- serve ------------------------------------------------------------------
// SpGEMM as a service: batches of 8 small multiplies (7 from 4 hot tenants,
// 1 from a pool of 64 cold structures) through the LRU plan cache under a
// budget of 1.5x the warmed hot residency, with Auto pricing every miss.
// The kernels do almost no work; collectives, votes and the cache dominate.
int run_serve(Harness& h) {
  const std::uint64_t seed = h.seed();
  h.set_items_per_call(kServeHotSlots + 1);
  std::vector<CscMatrix<double>> hot, cold;  // written by rank 0 in set-up only
  auto tenant_of = [](int slot) { return static_cast<std::size_t>(slot % 4); };
  auto cold_of = [&](int i) {
    SplitMix64 r(seed * 0xbf58476d1ce4e5b9ULL + static_cast<std::uint64_t>(i));
    return static_cast<int>(r.below(kServeColdPool));
  };
  auto vseed = [&](int slot) { return seed + 1000003ULL * static_cast<std::uint64_t>(slot + 1); };
  h.machine().run([&](Comm& c) {
    DistSpgemmOptions opt;
    opt.algo = Algo::Auto;
    opt.expected_batch = kServeHotSlots + 1;
    std::vector<Dist> hs, cs;
    PlanCache<double> cache;
    std::vector<std::pair<const Dist*, const Dist*>> items;
    h.setup(c, [&] {
      if (c.rank() == 0) {
        // The hot tenants are the service's standing matrices: fixed, so
        // Auto's backend choice for them is too. The seed draws the cold
        // pool and the request stream.
        hot = {block_clustered<double>(kServeN, 8, 5.0, 0.4, 4251),
               erdos_renyi<double>(kServeN, 4.0, 4253),
               block_clustered<double>(kServeN, 16, 6.0, 0.3, 4257),
               hidden_community<double>(kServeN, 8, 5.0, 0.5, 4259)};
        cold.clear();
        for (std::uint64_t k = 0; k < kServeColdPool; ++k)
          cold.push_back(erdos_renyi<double>(kServeN, 3.5, seed * 0x94d049bb133111ebULL + k));
      }
      c.barrier();
      h.scoped(c, "from_global", [&] {
        hs.clear();
        cs.clear();
        for (int j = 0; j < kServeHotSlots; ++j)
          hs.push_back(Dist::from_global(c, with_values(hot[tenant_of(j)], vseed(j), -1)));
        for (int k = 0; k < kServeColdPool; ++k)
          cs.push_back(Dist::from_global(c, with_values(cold[static_cast<std::size_t>(k)],
                                                        vseed(kServeHotSlots), -1)));
      });
      cache = PlanCache<double>();
      items.clear();
      for (const auto& x : hs) items.push_back({&x, &x});
      h.scoped(c, "spgemm_dist_batched", [&] { return spgemm_dist_batched(c, cache, items, opt); });
      cache.set_budget(cache.bytes_resident() * 3 / 2);
    });
    std::vector<Dist> out;
    std::vector<DistSpgemmStats> st;
    h.timed_loop(
        c,
        [&](int i) {
          out.clear();
          items.clear();
          for (int j = 0; j < kServeHotSlots; ++j) {
            refresh(hs[static_cast<std::size_t>(j)], hot[tenant_of(j)], vseed(j), i);
            items.push_back({&hs[static_cast<std::size_t>(j)], &hs[static_cast<std::size_t>(j)]});
          }
          auto& x = cs[static_cast<std::size_t>(cold_of(i))];
          refresh(x, cold[static_cast<std::size_t>(cold_of(i))], vseed(kServeHotSlots), i);
          items.push_back({&x, &x});
        },
        [&](int) {
          out = h.scoped(c, "spgemm_dist_batched",
                         [&] { return spgemm_dist_batched(c, cache, items, opt, &st); });
        },
        [&](int) {
          bench::CallResult r;
          Fnv f;
          for (const auto& o : out) bench::hash_slice(f, o.local());
          r.hash = f.value();
          for (const auto& s : st) r.peak_triples = std::max(r.peak_triples, s.peak_triples);
          return r;
        });
    if (h.traced())
      h.layer_call(c, "runtime.autoselect_ms", "autoselect", kServeColdPool, [&](int k) {
        autoselect(c, cs[static_cast<std::size_t>(k)], opt.expected_batch);
      });
  });
  if (h.traced()) {
    std::vector<const CscMatrix<double>*> ops;
    for (const auto& t : hot) ops.push_back(&t);
    kernel_layers(h, ops);
  }
  return verify_hashes(h, [&](int i) {
    std::array<Fnv, kRanks> f;
    for (int j = 0; j <= kServeHotSlots; ++j) {
      const auto& base = j < kServeHotSlots ? hot[tenant_of(j)]
                                            : cold[static_cast<std::size_t>(cold_of(i))];
      const auto x = with_values(base, vseed(j), i);
      hash_reference(f, spgemm(x, x));
    }
    return f;
  });
}

int usage() {
  std::fprintf(stderr,
               "usage: sa1d_bench --workload replay-part|fresh-summa|bc|serve --seed N "
               "--seconds S [--trace-dir DIR] [--record FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, trace_dir, record;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") workload = v;
    else if (k == "--seed") seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace-dir") trace_dir = v;
    else if (k == "--record") record = v;
    else return usage();
  }
  if (argc % 2 == 0 || !(seconds > 0.0)) return usage();
  // Machine applies rates from this file over the pinned ones; a pinned
  // benchmark must not pick them up.
  if (std::getenv("SA1D_COST_PARAMS") != nullptr) {
    std::fprintf(stderr, "sa1d_bench: unset SA1D_COST_PARAMS (the benchmark pins its rates)\n");
    return 2;
  }
  int (*run)(Harness&) = nullptr;
  if (workload == "replay-part") run = run_replay_part;
  else if (workload == "fresh-summa") run = run_fresh_summa;
  else if (workload == "bc") run = run_bc;
  else if (workload == "serve") run = run_serve;
  else return usage();

  Harness h(workload, seed, seconds, trace_dir);
  int failed = 0;
  try {
    failed = run(h);
  } catch (const std::exception& e) {
    // A throw ends the workload: the call in flight counts as attempted and failed.
    std::fprintf(stderr, "sa1d_bench: %s failed: %s\n", workload.c_str(), e.what());
    std::printf("{\"correct\": false, \"attempted\": %d, \"failed\": 1, \"metrics\": {}}\n",
                h.calls() + 1);
    return 1;
  }
  return h.finish(failed, record, SA1D_BENCH_COMPILER);
}
