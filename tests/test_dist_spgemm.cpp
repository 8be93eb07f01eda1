// The unified spgemm_dist front-end: cross-backend bit-identity over the
// differential operand suite (ER / RMAT / rectangular / hypersparse /
// empty-rank, both semirings), per-phase accounting for every backend,
// grid-shape validation errors, and the cost-model Auto dispatch.
#include <gtest/gtest.h>

#include <string>

#include "apps/triangle.hpp"
#include "dist/dist_spgemm.hpp"
#include "sparse/generators.hpp"
#include "sparse/ops.hpp"

namespace sa1d {
namespace {

// Small-integer values make every ⊕ order exact in doubles, so "the same
// result" is bit-for-bit identity, not approximate agreement — different
// backends associate the semiring reduction differently.
CscMatrix<double> with_integer_values(CscMatrix<double> a, std::uint64_t seed) {
  SplitMix64 g(seed);
  std::vector<double> v(a.vals().size());
  for (auto& x : v) x = static_cast<double>(1 + g.below(7));
  return CscMatrix<double>(a.nrows(), a.ncols(), a.colptr(), a.rowids(), std::move(v));
}

CscMatrix<double> random_rect(index_t m, index_t n, int edges, std::uint64_t seed) {
  CooMatrix<double> c(m, n);
  SplitMix64 g(seed);
  for (int e = 0; e < edges; ++e)
    c.push(static_cast<index_t>(g.below(static_cast<std::uint64_t>(m))),
           static_cast<index_t>(g.below(static_cast<std::uint64_t>(n))),
           static_cast<double>(1 + g.below(5)));
  c.canonicalize();
  return CscMatrix<double>::from_coo(c);
}

/// Hypersparse: nnz ≪ n, whole column ranges empty (some ranks hold nothing).
CscMatrix<double> hypersparse(index_t n, int edges, std::uint64_t seed) {
  CooMatrix<double> c(n, n);
  SplitMix64 g(seed);
  for (int e = 0; e < edges; ++e)
    c.push(static_cast<index_t>(g.below(static_cast<std::uint64_t>(n) / 3)),
           static_cast<index_t>(g.below(static_cast<std::uint64_t>(n) / 3)),
           static_cast<double>(1 + g.below(3)));
  c.canonicalize();
  return CscMatrix<double>::from_coo(c);
}

::testing::AssertionResult bit_equal(const CscMatrix<double>& got, const CscMatrix<double>& want) {
  if (got.nrows() != want.nrows() || got.ncols() != want.ncols())
    return ::testing::AssertionFailure() << "dimension mismatch";
  if (got.colptr() != want.colptr()) return ::testing::AssertionFailure() << "colptr differs";
  if (got.rowids() != want.rowids()) return ::testing::AssertionFailure() << "rowids differ";
  if (got.vals() != want.vals())
    return ::testing::AssertionFailure() << "values differ (not bit-identical)";
  return ::testing::AssertionSuccess();
}

// Every backend is feasible at every P now that the 2D/3D grids may be
// rectangular; the differential coverage deliberately includes *degenerate*
// Split-3D layerings (c = P, one rank per layer) and 1 × P grids that Auto
// would never dispatch: explicit backend requests run them, so they must be
// bit-correct too.
std::vector<Algo> feasible_backends(int) {
  return {Algo::SparseAware1D, Algo::Ring1D, Algo::Summa2D, Algo::Split3D};
}

/// Runs every feasible backend through spgemm_dist over both semirings and
/// asserts the gathered results are bit-identical to the serial reference.
void check_all_backends(const CscMatrix<double>& a, const CscMatrix<double>& b, int P,
                        const std::vector<index_t>& a_bounds = {},
                        const std::vector<index_t>& b_bounds = {}) {
  auto want_pt = spgemm_local<PlusTimes<double>, double>(a, b, LocalKernel::Spa);
  auto want_mp = spgemm_local<MinPlus<double>, double>(a, b, LocalKernel::Spa);
  Machine m(P);
  m.run([&](Comm& c) {
    auto da = DistMatrix1D<double>::from_global(c, a, a_bounds);
    auto db = DistMatrix1D<double>::from_global(c, b, b_bounds);
    for (Algo algo : feasible_backends(P)) {
      DistSpgemmOptions opt;
      opt.algo = algo;
      auto got = spgemm_dist(c, da, db, opt);
      // Every backend returns C in B's column distribution.
      EXPECT_EQ(got.bounds(), db.bounds()) << algo_name(algo);
      EXPECT_TRUE(bit_equal(got.gather(c), want_pt)) << "plus-times " << algo_name(algo);
      auto got_mp = spgemm_dist<MinPlus<double>>(c, da, db, opt);
      EXPECT_TRUE(bit_equal(got_mp.gather(c), want_mp)) << "min-plus " << algo_name(algo);
    }
  });
}

// ---- cross-backend differential suite ------------------------------------

TEST(DistSpgemmDifferential, ErdosRenyiSquare) {
  auto a = with_integer_values(erdos_renyi<double>(180, 5.0, 11), 1);
  auto b = with_integer_values(erdos_renyi<double>(180, 5.0, 12), 2);
  for (int P : {1, 4, 8, 9}) check_all_backends(a, b, P);
}

TEST(DistSpgemmDifferential, RectangularGridsPrimeAndCompositeP) {
  // The issue's rectangular-grid acceptance set: primes (2, 3, 5 → 1×P
  // grids), 6 → 2×3, 8 → 2×4, 12 → 3×4 — with uneven tails (180 does not
  // divide evenly by most of these) and all four backends at every P.
  auto a = with_integer_values(erdos_renyi<double>(180, 5.0, 13), 9);
  auto b = with_integer_values(erdos_renyi<double>(180, 5.0, 14), 10);
  for (int P : {2, 3, 5, 6, 8, 12}) check_all_backends(a, b, P);
}

TEST(DistSpgemmDifferential, PinnedGridShapeMatchesAutoShape) {
  // An explicitly pinned q_r × q_c (including the transposed and the
  // maximally skewed shapes) must agree bit-for-bit with the auto pick.
  auto a = with_integer_values(erdos_renyi<double>(150, 5.0, 15), 11);
  auto want = spgemm_local<PlusTimes<double>, double>(a, a, LocalKernel::Spa);
  Machine m(6);
  m.run([&](Comm& c) {
    auto da = DistMatrix1D<double>::from_global(c, a);
    const std::pair<int, int> shapes[] = {{2, 3}, {3, 2}, {1, 6}, {6, 1}};
    for (auto [r, cc] : shapes) {
      DistSpgemmOptions opt;
      opt.algo = Algo::Summa2D;
      opt.grid_rows = r;
      opt.grid_cols = cc;
      auto got = spgemm_dist(c, da, da, opt);
      EXPECT_TRUE(bit_equal(got.gather(c), want)) << r << "x" << cc;
    }
    // The per-layer grid of Split-3D honors the same pin: 6 = 2·(3×1).
    DistSpgemmOptions opt3;
    opt3.algo = Algo::Split3D;
    opt3.layers = 2;
    opt3.grid_rows = 3;
    opt3.grid_cols = 1;
    EXPECT_TRUE(bit_equal(spgemm_dist(c, da, da, opt3).gather(c), want));
  });
}

TEST(DistSpgemmDifferential, RmatSquaring) {
  auto a = with_integer_values(rmat<double>(8, 6, 21), 3);
  for (int P : {4, 16}) check_all_backends(a, a, P);
}

TEST(DistSpgemmDifferential, RectangularOperands) {
  auto a = random_rect(90, 60, 400, 31);
  auto b = random_rect(60, 75, 350, 32);
  for (int P : {4, 9}) check_all_backends(a, b, P);
}

TEST(DistSpgemmDifferential, HypersparseOperands) {
  auto a = hypersparse(600, 50, 41);
  auto b = hypersparse(600, 40, 42);
  for (int P : {4, 8}) check_all_backends(a, b, P);
}

TEST(DistSpgemmDifferential, EmptyRankSlices) {
  // All nonzeros live in the first third of the columns; with these skewed
  // bounds ranks 1 and 2 hold structurally empty A and B slices.
  auto a = hypersparse(500, 60, 51);
  auto b = hypersparse(500, 45, 52);
  std::vector<index_t> skew{0, 200, 400, 500};
  check_all_backends(a, b, 3, skew, skew);
  check_all_backends(a, b, 4);
}

TEST(DistSpgemmDifferential, UnevenBoundsReturnInBsDistribution) {
  auto a = with_integer_values(erdos_renyi<double>(120, 4.0, 61), 4);
  std::vector<index_t> ab{0, 10, 30, 70, 120};
  std::vector<index_t> bb{0, 50, 60, 100, 120};
  check_all_backends(a, a, 4, ab, bb);
}

// ---- per-phase accounting -------------------------------------------------

TEST(DistSpgemmPhases, EveryBackendAccountsComputeAndTraffic) {
  auto a = with_integer_values(erdos_renyi<double>(400, 8.0, 71), 5);
  const int P = 4;
  for (Algo algo : feasible_backends(P)) {
    Machine m(P);
    auto rep = m.run([&](Comm& c) {
      auto da = DistMatrix1D<double>::from_global(c, a);
      DistSpgemmOptions opt;
      opt.algo = algo;
      spgemm_dist(c, da, da, opt);
    });
    double comp = 0, other = 0, plan = 0;
    for (const auto& r : rep.ranks) {
      comp += r.comp_s;
      other += r.other_s;
      plan += r.plan_s;
    }
    EXPECT_GT(comp, 0.0) << algo_name(algo);
    EXPECT_GT(other, 0.0) << algo_name(algo);
    EXPECT_GT(rep.total_bytes_network(), 0u) << algo_name(algo);
    EXPECT_GT(rep.total_msgs_network(), 0u) << algo_name(algo);
    if (algo == Algo::SparseAware1D) {
      EXPECT_GT(plan, 0.0) << "inspector time must be accounted";
      EXPECT_GT(rep.total_rdma_bytes(), 0u);
    } else {
      // The send/recv mirror holds for the collective-only backends.
      EXPECT_EQ(rep.total_sent_bytes(), rep.total_coll_bytes_received()) << algo_name(algo);
    }
  }
}

// ---- grid-shape validation ------------------------------------------------

TEST(DistSpgemmValidation, PinnedGridRejectedWithActionableMessage) {
  Machine m(6);
  auto a = erdos_renyi<double>(30, 2.0, 2);
  try {
    m.run([&](Comm& c) {
      auto da = DistMatrix1D<double>::from_global(c, a);
      DistSpgemmOptions opt;
      opt.algo = Algo::Summa2D;
      opt.grid_rows = 4;  // 4 does not divide 6
      spgemm_dist(c, da, da, opt);
    });
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    std::string msg = e.what();
    EXPECT_NE(msg.find("grid_rows=4"), std::string::npos) << msg;
    EXPECT_NE(msg.find("P=6"), std::string::npos) << msg;
    EXPECT_NE(msg.find("{1, 2, 3, 6}"), std::string::npos) << msg;  // the divisors
  }
}

TEST(DistSpgemmValidation, Split3dRejectsBadLayersListingValidCounts) {
  Machine m(8);
  auto a = erdos_renyi<double>(30, 2.0, 2);
  try {
    m.run([&](Comm& c) {
      auto da = DistMatrix1D<double>::from_global(c, a);
      DistSpgemmOptions opt;
      opt.algo = Algo::Split3D;
      opt.layers = 3;
      spgemm_dist(c, da, da, opt);
    });
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    std::string msg = e.what();
    EXPECT_NE(msg.find("layers=3"), std::string::npos) << msg;
    EXPECT_NE(msg.find("P=8"), std::string::npos) << msg;
    EXPECT_NE(msg.find("{1, 2, 4, 8}"), std::string::npos) << msg;  // every divisor
  }
}

TEST(DistSpgemmValidation, FormerlyInfeasibleShapesNowRun) {
  // P=6 SUMMA (the old "not a perfect square" rejection) and P=6 layers=2
  // split-3D (the old "only the degenerate layering" rejection) both run on
  // rectangular grids now and agree with the serial reference.
  Machine m(6);
  auto a = erdos_renyi<double>(60, 3.0, 2);
  auto want = spgemm(a, a, LocalKernel::Spa);
  m.run([&](Comm& c) {
    auto da = DistMatrix1D<double>::from_global(c, a);
    DistSpgemmOptions opt;
    opt.algo = Algo::Summa2D;
    EXPECT_TRUE(approx_equal(spgemm_dist(c, da, da, opt).gather(c), want, 1e-9));
    opt.algo = Algo::Split3D;
    opt.layers = 2;
    EXPECT_TRUE(approx_equal(spgemm_dist(c, da, da, opt).gather(c), want, 1e-9));
  });
}

// ---- cost-model Auto dispatch ---------------------------------------------

TEST(DistSpgemmAuto, RecordsInputsAndPredictionsAndPicksArgmin) {
  auto a = with_integer_values(erdos_renyi<double>(300, 6.0, 81), 6);
  Machine m(16, calibrate_cost_params());
  auto want = spgemm_local<PlusTimes<double>, double>(a, a, LocalKernel::Spa);
  m.run([&](Comm& c) {
    auto da = DistMatrix1D<double>::from_global(c, a);
    DistSpgemmStats st;
    auto got = spgemm_dist(c, da, da, {}, &st);
    EXPECT_TRUE(bit_equal(got.gather(c), want));

    EXPECT_EQ(st.requested, Algo::Auto);
    ASSERT_EQ(st.predictions.size(), 4u);
    // The structural inputs were gathered and are globally consistent.
    EXPECT_EQ(st.inputs.P, 16);
    EXPECT_EQ(st.inputs.nnz_a, static_cast<std::uint64_t>(a.nnz()));
    EXPECT_GT(st.inputs.flops, 0u);
    EXPECT_GT(st.inputs.sa1d_fetch_elems, 0u);
    EXPECT_GT(st.inputs.needed_fraction, 0.0);
    EXPECT_LE(st.inputs.needed_fraction, 1.0);
    // The chosen backend is the cheapest feasible prediction.
    double best = -1;
    Algo argmin = Algo::SparseAware1D;
    for (const auto& pr : st.predictions) {
      EXPECT_NE(pr.algo, Algo::Auto);
      if (!pr.feasible) continue;
      EXPECT_GT(pr.total_s(), 0.0) << algo_name(pr.algo);
      if (best < 0 || pr.total_s() < best) {
        best = pr.total_s();
        argmin = pr.algo;
      }
    }
    EXPECT_EQ(st.chosen, argmin);
  });
}

TEST(DistSpgemmAuto, ExplicitBackendSkipsTheMetadataGather) {
  auto a = with_integer_values(erdos_renyi<double>(150, 4.0, 91), 7);
  Machine m(4);
  m.run([&](Comm& c) {
    auto da = DistMatrix1D<double>::from_global(c, a);
    DistSpgemmOptions opt;
    opt.algo = Algo::Ring1D;
    DistSpgemmStats st;
    spgemm_dist(c, da, da, opt, &st);
    EXPECT_EQ(st.requested, Algo::Ring1D);
    EXPECT_EQ(st.chosen, Algo::Ring1D);
    EXPECT_TRUE(st.predictions.empty());
  });
}

TEST(DistSpgemmAuto, AllBackendsFeasibleAtEveryP) {
  // The rectangular-grid acceptance regression: choose_algo must report all
  // four backends feasible at every P ≥ 2 — primes included — so Auto is a
  // total function of P and fig08/fig09 never lose a series.
  CostModel cm(calibrate_cost_params());
  AlgoCostInputs in;
  in.m = in.k = in.n = 4096;
  in.nnz_a = in.nnz_b = 40000;
  in.flops = 400000;
  in.max_rank_flops = 100000;
  for (int P : {2, 3, 5, 6, 7, 8, 12, 16}) {
    in.P = P;
    std::vector<AlgoPrediction> preds;
    int layers = 1;
    choose_algo(cm, in, 0, &layers, &preds);
    ASSERT_EQ(preds.size(), 4u);
    for (const auto& pr : preds) {
      if (pr.algo == Algo::Split3D && !split3d_has_nontrivial_layers(P)) {
        // Primes have no middle layering; Auto skips the degenerate ones.
        EXPECT_FALSE(pr.feasible) << "P=" << P;
        continue;
      }
      EXPECT_TRUE(pr.feasible) << algo_name(pr.algo) << " P=" << P;
      EXPECT_GT(pr.total_s(), 0.0) << algo_name(pr.algo) << " P=" << P;
    }
  }
  // Direct predictions (no dispatch policy): Summa2D at any P, Split3D at
  // any dividing layer count — including quotients that are not squares.
  in.P = 6;
  EXPECT_TRUE(cm.predict(in, Algo::Summa2D).feasible);
  in.layers = 2;  // layer grids of 3 ranks: 1×3
  EXPECT_TRUE(cm.predict(in, Algo::Split3D).feasible);
  in.layers = 4;  // 4 does not divide 6
  EXPECT_FALSE(cm.predict(in, Algo::Split3D).feasible);
  in.P = 16;
  in.layers = 4;
  EXPECT_TRUE(cm.predict(in, Algo::Split3D).feasible);
  // A pinned grid shape that does not factor P is the one remaining
  // infeasibility.
  in.grid_rows = 5;
  EXPECT_FALSE(cm.predict(in, Algo::Summa2D).feasible);
}

TEST(DistSpgemmAuto, ReplayPredictionsAreCheaperAndPlanFree) {
  // predict_replay prices the cached value-only replay: for every backend
  // it must undercut the one-shot prediction (less volume, no metadata, no
  // sort-side work) while keeping the same compute term.
  CostModel cm(calibrate_cost_params());
  AlgoCostInputs in;
  in.P = 6;
  in.m = in.k = in.n = 4096;
  in.nnz_a = in.nnz_b = 40000;
  in.nzc_a = 3000;
  in.flops = 400000;
  in.max_rank_flops = 100000;
  in.sa1d_fetch_elems = 20000;
  in.sa1d_fetch_msgs = 600;
  in.layers = 2;
  for (Algo algo : {Algo::SparseAware1D, Algo::Ring1D, Algo::Summa2D, Algo::Split3D}) {
    auto one_shot = cm.predict(in, algo);
    auto replay = cm.predict_replay(in, algo);
    ASSERT_TRUE(one_shot.feasible && replay.feasible) << algo_name(algo);
    EXPECT_LT(replay.total_s(), one_shot.total_s()) << algo_name(algo);
    EXPECT_DOUBLE_EQ(replay.comp_s, one_shot.comp_s) << algo_name(algo);
    EXPECT_LE(replay.comm_s, one_shot.comm_s) << algo_name(algo);
  }
}

TEST(DistSpgemmAuto, SparsityAdvantageFavorsSa1dOverRing) {
  // With a tiny needed fraction the SA-1D prediction must undercut the
  // ring's full-replication cost at every realistic size.
  CostModel cm;
  AlgoCostInputs in;
  in.P = 16;
  in.nnz_a = in.nnz_b = 1'000'000;
  in.nzc_a = 40'000;
  in.flops = 40'000'000;
  in.max_rank_flops = 3'000'000;
  in.sa1d_fetch_elems = 50'000;  // 5% of A moves
  in.sa1d_fetch_msgs = 1'000;
  EXPECT_LT(cm.predict(in, Algo::SparseAware1D).total_s(),
            cm.predict(in, Algo::Ring1D).total_s());
}

// ---- plan reuse through the front-end -------------------------------------

TEST(DistSpgemmCache, PlanPointerReplaysAcrossCalls) {
  auto a = with_integer_values(erdos_renyi<double>(200, 5.0, 95), 8);
  Machine m(4);
  m.run([&](Comm& c) {
    auto da = DistMatrix1D<double>::from_global(c, a);
    SpgemmPlan1D<double> plan;
    DistSpgemmOptions opt;
    opt.algo = Algo::SparseAware1D;
    auto c1 = spgemm_dist(c, da, da, opt, nullptr, &plan);
    EXPECT_EQ(plan.executions(), 1);
    auto c2 = spgemm_dist(c, da, da, opt, nullptr, &plan);
    EXPECT_EQ(plan.executions(), 2);  // same structure: replayed, not rebuilt
    EXPECT_TRUE(bit_equal(c1.gather(c), c2.gather(c)));
  });
}

// ---- apps accept every backend --------------------------------------------

TEST(DistSpgemmApps, TriangleCountAgreesAcrossBackends) {
  auto g = symmetrize(erdos_renyi<double>(120, 4.0, 97));
  auto want = count_triangles_serial(g);
  const int P = 4;
  Machine m(P);
  m.run([&](Comm& c) {
    for (Algo algo : feasible_backends(P)) {
      DistSpgemmOptions opt;
      opt.algo = algo;
      EXPECT_EQ(count_triangles_dist(c, g, opt), want) << algo_name(algo);
    }
  });
}

}  // namespace
}  // namespace sa1d
