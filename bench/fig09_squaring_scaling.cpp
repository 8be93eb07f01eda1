// Fig 9: strong scaling of the squaring operation across the unified
// spgemm_dist backends — sparsity-aware 1D vs 2D sparse SUMMA vs Split-3D —
// on the four structured datasets plus the canonical ER and
// RMAT shapes. All backends run 1D-in/1D-out through the same front-end on
// the same runtime, so modeled times and comm volumes are apples-to-apples.
// Paper result: 1D is up to an order of magnitude faster on hv15r/queen and
// stays ahead on stokes/nlpkkt once permutation time is charged.
//
// --json[=PATH] writes the BENCH_dist_backends fragment at P=16 (SA1D_NP
// overrides — the CI rectangular-grid smoke runs P=6 → 2×3 grids): for every
// dataset, the per-backend modeled breakdown and exact comm bytes, plus
// Algo::Auto's pick, its per-backend cost predictions (with the flop_s /
// triple_s coefficients scripts/fit_cost_params.py refits from), the
// measured winner (acceptance: the pick matches the measurement on
// er/rmat), and an "iterated" section: per backend, the plan-vs-execute
// breakdown of a cached-plan squaring loop — the second iteration must
// record zero Phase::Plan time and zero metadata-collective bytes, with
// collective volume strictly below the build (CI asserts this for
// SUMMA-2D and split-3D).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "dist/dist_spgemm.hpp"
#include "part/permutation.hpp"

namespace {

using namespace sa1d;

struct NamedMatrix {
  std::string name;
  CscMatrix<double> a;
};

std::vector<NamedMatrix> bench_matrices() {
  std::vector<NamedMatrix> out;
  const double scale = bench::bench_scale();
  // Canonical random shapes (the paper's synthetic baselines).
  auto er_n = std::max<index_t>(256, static_cast<index_t>(20000.0 * scale));
  out.push_back({"er", erdos_renyi<double>(er_n, 8.0, 4242)});
  int rsc = std::clamp(static_cast<int>(std::lround(std::log2(16000.0 * scale))), 8, 24);
  out.push_back({"rmat", rmat<double>(rsc, 8, 4243)});
  for (auto d : {Dataset::QueenLike, Dataset::StokesLike, Dataset::Hv15rLike,
                 Dataset::NlpkktLike})
    out.push_back({dataset_name(d), bench::load(d)});
  return out;
}

struct BackendMeasure {
  Algo algo = Algo::Auto;
  bench::Breakdown bd;
  std::uint64_t rdma_bytes = 0;
  std::uint64_t coll_bytes = 0;
  /// Measured per-rank compute imbalance (max/mean of comp_s) — paired with
  /// CostModel::predicted_imbalance so fit_cost_params.py can fit imb_scale.
  double imb = 1.0;
};

/// `reps` takes the best-of-N modeled time (byte counts are exact and
/// identical across reps; CPU phase timings vary 5-15% on the shared
/// container, and the JSON path compares backends, so it smooths them).
BackendMeasure measure(Machine& m, const CscMatrix<double>& a, Algo algo, int reps = 1) {
  BackendMeasure out;
  out.algo = algo;
  for (int rep_i = 0; rep_i < reps; ++rep_i) {
    auto rep = m.run([&](Comm& c) {
      auto da = DistMatrix1D<double>::from_global(c, a);
      DistSpgemmOptions opt;
      opt.algo = algo;
      if (algo == Algo::Split3D) opt.layers = distdetail::default_split3d_layers(m.nranks());
      spgemm_dist(c, da, da, opt);
    });
    auto bd = bench::modeled(rep, m.cost());
    if (rep_i == 0 || bd.total() < out.bd.total()) {
      out.bd = bd;
      double mx = 0.0, sum = 0.0;
      for (const auto& r : rep.ranks) {
        mx = std::max(mx, r.comp_s);
        sum += r.comp_s;
      }
      const double mean = sum / static_cast<double>(rep.ranks.size());
      out.imb = mean > 0.0 ? mx / mean : 1.0;
    }
    out.rdma_bytes = rep.total_rdma_bytes();
    out.coll_bytes = rep.total_coll_bytes_received();
  }
  return out;
}

std::vector<Algo> feasible(int P) {
  // Rectangular grids make SUMMA-2D runnable at every P; Split-3D needs a
  // non-degenerate layering (some 1 < c < P), which only primes lack.
  std::vector<Algo> out{Algo::SparseAware1D, Algo::Summa2D};
  if (split3d_has_nontrivial_layers(P)) out.push_back(Algo::Split3D);
  return out;
}

/// Rank count for the --json run: SA1D_NP overrides the default 16 so the
/// CI smoke can exercise a non-square (rectangular-grid) machine.
int json_nranks() {
  if (const char* s = std::getenv("SA1D_NP")) {
    const int np = std::atoi(s);
    if (np >= 1) return np;
  }
  return 16;
}

/// One iteration of a cached-plan squaring loop, aggregated over ranks.
struct IterStat {
  double plan_ms = 0.0;   ///< max-rank Phase::Plan seconds of this call
  double exec_ms = 0.0;   ///< max-rank Comp+Other CPU of this call
  std::uint64_t coll_bytes = 0;       ///< total collective bytes received
  std::uint64_t meta_coll_bytes = 0;  ///< beyond the value-replay payload
  bool reused = false;
};

/// Runs `iters` squarings through one DistSpgemmPlan (the app-loop shape:
/// same structure, spgemm_dist_cached decides replay-vs-rebuild) and
/// aggregates the per-call stats: iteration 0 builds, 1+ must replay.
std::vector<IterStat> measure_iterated(Machine& m, const CscMatrix<double>& a, Algo algo,
                                       int iters) {
  const int P = m.nranks();
  std::vector<std::vector<DistSpgemmStats>> sts(
      static_cast<std::size_t>(P), std::vector<DistSpgemmStats>(static_cast<std::size_t>(iters)));
  std::vector<std::vector<double>> exec_s(
      static_cast<std::size_t>(P), std::vector<double>(static_cast<std::size_t>(iters), 0.0));
  m.run([&](Comm& c) {
    auto da = DistMatrix1D<double>::from_global(c, a);
    DistSpgemmPlan<double> plan;
    DistSpgemmOptions opt;
    opt.algo = algo;
    if (algo == Algo::Split3D) opt.layers = distdetail::default_split3d_layers(c.size());
    for (int t = 0; t < iters; ++t) {
      RankReport before = c.report();
      spgemm_dist_cached(c, plan, da, da, opt,
                         &sts[static_cast<std::size_t>(c.rank())][static_cast<std::size_t>(t)]);
      const RankReport& after = c.report();
      exec_s[static_cast<std::size_t>(c.rank())][static_cast<std::size_t>(t)] =
          (after.comp_s - before.comp_s) + (after.other_s - before.other_s);
    }
  });
  std::vector<IterStat> out(static_cast<std::size_t>(iters));
  for (int t = 0; t < iters; ++t) {
    auto& it = out[static_cast<std::size_t>(t)];
    it.reused = true;
    for (int r = 0; r < P; ++r) {
      const auto& st = sts[static_cast<std::size_t>(r)][static_cast<std::size_t>(t)];
      it.plan_ms = std::max(it.plan_ms, 1e3 * st.plan_seconds);
      it.exec_ms = std::max(
          it.exec_ms, 1e3 * exec_s[static_cast<std::size_t>(r)][static_cast<std::size_t>(t)]);
      it.coll_bytes += st.coll_recv_bytes;
      it.meta_coll_bytes += st.meta_coll_bytes;
      it.reused = it.reused && st.plan_reused;
    }
  }
  return out;
}

void run_json(const char* json_path) {
  const int P = json_nranks();
  CostParams cp = calibrate_cost_params();
  cp.ranks_per_node = 16;

  std::FILE* f = std::fopen(json_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", json_path);
    std::exit(1);
  }
  const GridShape grid = summa_grid_shape(P);
  std::fprintf(f,
               "{\n  \"P\": %d, \"split3d_layers\": %d, \"grid_rows\": %d, \"grid_cols\": %d,\n"
               "  \"rows\": [\n",
               P, distdetail::default_split3d_layers(P), grid.rows, grid.cols);

  auto mats = bench_matrices();
  for (std::size_t mi = 0; mi < mats.size(); ++mi) {
    const auto& nm = mats[mi];
    Machine m(P, cp);

    // One run per backend; its lockstep_* baseline is the same run with the
    // hidden comm counted as waited. The CI smoke asserts overlap_eff > 0
    // for the stage-pipelined backends and that the lockstep comm
    // reconciles with the counter-priced total (counter_comm_ms).
    std::vector<BackendMeasure> ms;
    for (Algo algo : feasible(P)) ms.push_back(measure(m, nm.a, algo, /*reps=*/2));
    Algo winner = ms.front().algo;
    double best = ms.front().bd.total();
    for (const auto& b : ms)
      if (b.bd.total() < best) {
        best = b.bd.total();
        winner = b.algo;
      }

    // Auto: record the dispatch decision and its per-backend predictions
    // (inputs + choose_algo only — the winning backend was already measured
    // above, so no extra multiply runs).
    DistSpgemmStats st;
    m.run([&](Comm& c) {
      auto da = DistMatrix1D<double>::from_global(c, nm.a);
      auto in = gather_algo_cost_inputs(c, da, da);
      int layers = 1;
      std::vector<AlgoPrediction> preds;
      Algo pick = choose_algo(c.cost(), in, 0, &layers, &preds);
      if (c.rank() == 0) {
        st.requested = Algo::Auto;
        st.chosen = pick;
        st.layers = layers;
        st.inputs = in;
        st.predictions = preds;
      }
    });

    // The imbalance query mirrors what measure() actually ran: split-3D at
    // the default layering (choose_algo's pick may differ or be absent).
    AlgoCostInputs imb_in = st.inputs;
    imb_in.layers = distdetail::default_split3d_layers(P);

    std::fprintf(f, "    {\"dataset\": \"%s\", \"nnz\": %lld,\n      \"backends\": {\n",
                 nm.name.c_str(), static_cast<long long>(nm.a.nnz()));
    for (std::size_t i = 0; i < ms.size(); ++i) {
      const auto& b = ms[i];
      // imb_measured / imb_predicted pair feeds the imb_scale refit;
      // lockstep_* counts the run's hidden comm as waited.
      std::fprintf(f,
                   "        \"%s\": {\"total_ms\": %.3f, \"comm_ms\": %.3f, \"comp_ms\": %.3f, "
                   "\"plan_ms\": %.3f, \"other_ms\": %.3f, \"overlap_ms\": %.3f, "
                   "\"overlap_eff\": %.4f, \"lockstep_total_ms\": %.3f, "
                   "\"lockstep_comm_ms\": %.3f, \"counter_comm_ms\": %.3f, "
                   "\"imb_measured\": %.4f, "
                   "\"imb_predicted\": %.4f, \"rdma_bytes\": %llu, "
                   "\"coll_bytes\": %llu}%s\n",
                   algo_name(b.algo), 1e3 * b.bd.total(), 1e3 * b.bd.comm, 1e3 * b.bd.comp,
                   1e3 * b.bd.plan, 1e3 * b.bd.other, 1e3 * b.bd.overlap,
                   b.bd.overlap_efficiency(), 1e3 * b.bd.lockstep_total(),
                   1e3 * b.bd.lockstep_comm, 1e3 * b.bd.counter_comm,
                   b.imb, m.cost().predicted_imbalance(imb_in, b.algo),
                   static_cast<unsigned long long>(b.rdma_bytes),
                   static_cast<unsigned long long>(b.coll_bytes),
                   i + 1 < ms.size() ? "," : "");
    }
    std::fprintf(f, "      },\n      \"auto\": {\"pick\": \"%s\", \"layers\": %d, "
                    "\"needed_fraction\": %.4f,\n        \"predicted_ms\": {",
                 algo_name(st.chosen), st.layers, st.inputs.needed_fraction);
    for (std::size_t i = 0; i < st.predictions.size(); ++i) {
      const auto& pr = st.predictions[i];
      std::fprintf(f, "\"%s\": %.3f%s", algo_name(pr.algo),
                   pr.feasible ? 1e3 * pr.total_s() : -1.0,
                   i + 1 < st.predictions.size() ? ", " : "");
    }
    // The flop_s/triple_s coefficients of each prediction's compute terms:
    // paired with the measured comp_ms/other_ms above, these are the
    // records scripts/fit_cost_params.py refits CostParams from.
    std::fprintf(f, "},\n        \"predicted_coeffs\": {");
    for (std::size_t i = 0; i < st.predictions.size(); ++i) {
      const auto& pr = st.predictions[i];
      std::fprintf(f, "\"%s\": {\"comp\": %.1f, \"other\": %.1f}%s", algo_name(pr.algo),
                   pr.feasible ? pr.comp_coeff : -1.0, pr.feasible ? pr.other_coeff : -1.0,
                   i + 1 < st.predictions.size() ? ", " : "");
    }
    std::fprintf(f, "},\n        \"measured_winner\": \"%s\", \"pick_matches_measured\": %s},\n",
                 algo_name(winner), st.chosen == winner ? "true" : "false");

    // Per-ordering imbalance pairs for the grid backends: the same
    // measured-vs-analytic pairing as the identity rows above, but run
    // under the reorder plan stage's permuted layouts so
    // fit_cost_params.py fits imb_scale from permuted and unpermuted
    // records alike (the ordering-adjusted analytic term substitutes the
    // measured part-weight imbalance for the even-split factor).
    std::fprintf(f, "      \"orderings\": {\n");
    std::vector<Algo> grid_algos{Algo::Summa2D};
    if (split3d_has_nontrivial_layers(P)) grid_algos.push_back(Algo::Split3D);
    for (std::size_t gi = 0; gi < grid_algos.size(); ++gi) {
      Algo algo = grid_algos[gi];
      std::fprintf(f, "        \"%s\": {", algo_name(algo));
      const Ordering ords[] = {Ordering::Partitioned, Ordering::Random};
      for (std::size_t oi = 0; oi < 2; ++oi) {
        DistSpgemmStats ost;
        auto rep = m.run([&](Comm& c) {
          auto da = DistMatrix1D<double>::from_global(c, nm.a);
          DistSpgemmOptions opt;
          opt.algo = algo;
          opt.reorder = ords[oi];
          if (algo == Algo::Split3D)
            opt.layers = distdetail::default_split3d_layers(m.nranks());
          DistSpgemmStats s;
          spgemm_dist(c, da, da, opt, &s);
          if (c.rank() == 0) ost = s;
        });
        double mx = 0.0, sum = 0.0;
        for (const auto& r : rep.ranks) {
          mx = std::max(mx, r.comp_s);
          sum += r.comp_s;
        }
        const double mean = sum / static_cast<double>(rep.ranks.size());
        AlgoCostInputs oin = imb_in;
        oin.ordering = ost.ordering;
        oin.reorder_cut_fraction = ost.reorder_cut_fraction;
        oin.reorder_part_imbalance = ost.reorder_part_imbalance;
        // Keyed by the *requested* ordering ("ran" records any degrade to
        // identity — those rows predict excess 0 and carry no fit signal).
        std::fprintf(f,
                     "\"%s\": {\"ran\": \"%s\", \"imb_measured\": %.4f, "
                     "\"imb_predicted\": %.4f}%s",
                     ordering_name(ords[oi]), ordering_name(ost.ordering),
                     mean > 0.0 ? mx / mean : 1.0, m.cost().predicted_imbalance(oin, algo),
                     oi == 0 ? ", " : "");
      }
      std::fprintf(f, "}%s\n", gi + 1 < grid_algos.size() ? "," : "");
    }
    std::fprintf(f, "      },\n");

    // Iterated squarings through one cached DistSpgemmPlan per backend: the
    // plan-vs-execute breakdown that pins the inspector–executor contract
    // (iteration 1+ must replay: zero Plan ms, zero metadata bytes).
    const int iters = 3;
    std::fprintf(f, "      \"iterated\": {\"iters\": %d,\n", iters);
    auto algos = feasible(P);
    for (std::size_t ai = 0; ai < algos.size(); ++ai) {
      auto series = measure_iterated(m, nm.a, algos[ai], iters);
      std::fprintf(f, "        \"%s\": [", algo_name(algos[ai]));
      for (int t = 0; t < iters; ++t) {
        const auto& it = series[static_cast<std::size_t>(t)];
        std::fprintf(f,
                     "{\"plan_ms\": %.3f, \"exec_ms\": %.3f, \"coll_bytes\": %llu, "
                     "\"meta_coll_bytes\": %llu, \"reused\": %s}%s",
                     it.plan_ms, it.exec_ms, static_cast<unsigned long long>(it.coll_bytes),
                     static_cast<unsigned long long>(it.meta_coll_bytes),
                     it.reused ? "true" : "false", t + 1 < iters ? ", " : "");
      }
      std::fprintf(f, "]%s\n", ai + 1 < algos.size() ? "," : "");
    }
    std::fprintf(f, "      }\n");
    std::fprintf(f, "    }%s\n", mi + 1 < mats.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "wrote %s\n", json_path);
}

/// Modeled seconds of the distributed random permutation (the 2D/3D
/// preprocessing the paper charges separately).
double permutation_cost(Machine& m, const CscMatrix<double>& a, const Permutation& perm) {
  auto rep = m.run([&](Comm& c) {
    auto da = DistMatrix1D<double>::from_global(c, a);
    permute_symmetric_dist(c, da, perm);
  });
  return bench::modeled(rep, m.cost()).total();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sa1d;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json_path = "BENCH_dist_backends_fig09.json";
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
  }
  if (json_path != nullptr) {
    run_json(json_path);
    return 0;
  }

  bench::banner("fig09_squaring_scaling", "Fig 9",
                "all backends 1D-in/1D-out through spgemm_dist on the same runtime");
  std::printf("%-13s %5s %-18s %12s %14s\n", "dataset", "P", "algorithm", "kernel ms",
              "kernel+perm ms");

  CostParams cp = calibrate_cost_params();
  cp.ranks_per_node = 16;
  for (auto d : {Dataset::QueenLike, Dataset::StokesLike, Dataset::Hv15rLike,
                 Dataset::NlpkktLike}) {
    auto a = bench::load(d);
    auto perm = random_permutation(a.ncols(), 7);
    auto aperm = permute_symmetric(a, perm);
    for (int P : {4, 16, 64}) {
      Machine m(P, cp);

      // Sparsity-aware 1D: original ordering, no permutation.
      {
        auto r = measure(m, a, Algo::SparseAware1D);
        double ms = 1e3 * r.bd.total();
        std::printf("%-13s %5d %-18s %12.2f %14.2f\n", dataset_name(d), P, "1D sparsity-aware",
                    ms, ms);
      }

      double perm_s = permutation_cost(m, a, perm);

      // 2D sparse SUMMA on the randomly permuted input (any P: the grid is
      // the nearest-square q_r × q_c factorization).
      {
        auto r = measure(m, aperm, Algo::Summa2D);
        double ms = 1e3 * r.bd.total();
        std::printf("%-13s %5d %-18s %12.2f %14.2f\n", dataset_name(d), P, "2D SUMMA (rand)",
                    ms, ms + 1e3 * perm_s);
      }

      // Split-3D: explore layer counts, report the best.
      double best_ms = -1;
      int best_c = 0;
      for (int layers : valid_layer_counts(P)) {
        if (layers == 1 || layers == P) continue;  // ==2D / degenerate extremes
        auto rep = m.run([&](Comm& c) {
          auto da = DistMatrix1D<double>::from_global(c, aperm);
          DistSpgemmOptions opt;
          opt.algo = Algo::Split3D;
          opt.layers = layers;
          spgemm_dist(c, da, da, opt);
        });
        double ms = 1e3 * bench::modeled(rep, m.cost()).total();
        if (best_ms < 0 || ms < best_ms) {
          best_ms = ms;
          best_c = layers;
        }
      }
      if (best_ms >= 0)
        std::printf("%-13s %5d %-18s %12.2f %14.2f  (c=%d)\n", dataset_name(d), P,
                    "3D split (rand)", best_ms, best_ms + 1e3 * perm_s, best_c);

      // What would Auto have run here?
      DistSpgemmStats st;
      m.run([&](Comm& c) {
        auto da = DistMatrix1D<double>::from_global(c, a);
        DistSpgemmStats local;
        spgemm_dist(c, da, da, {}, &local);
        if (c.rank() == 0) st = local;
      });
      std::printf("%-13s %5d auto -> %s\n", dataset_name(d), P, algo_name(st.chosen));
    }
  }
  return 0;
}
