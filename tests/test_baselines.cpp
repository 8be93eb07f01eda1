// Tests for the baseline distributed algorithms: outer-product 1D
// (Algorithm 3), 2D sparse SUMMA, Split-3D.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/outer_product.hpp"
#include "dist/dist_plan.hpp"
#include "dist/dist_spgemm.hpp"
#include "sparse/generators.hpp"

namespace sa1d {
namespace {

CscMatrix<double> random_rect(index_t m, index_t n, int edges, std::uint64_t seed) {
  CooMatrix<double> c(m, n);
  SplitMix64 g(seed);
  for (int e = 0; e < edges; ++e)
    c.push(static_cast<index_t>(g.below(static_cast<std::uint64_t>(m))),
           static_cast<index_t>(g.below(static_cast<std::uint64_t>(n))), 1.0 + g.uniform());
  c.canonicalize();
  return CscMatrix<double>::from_coo(c);
}

/// C = A·B through spgemm_dist on one grid backend, gathered on every rank.
CscMatrix<double> grid_product(Comm& c, const CscMatrix<double>& a, const CscMatrix<double>& b,
                               Algo algo, int layers = 0) {
  auto da = DistMatrix1D<double>::from_global(c, a);
  auto db = DistMatrix1D<double>::from_global(c, b);
  DistSpgemmOptions opt;
  opt.algo = algo;
  opt.layers = layers;
  return spgemm_dist(c, da, db, opt).gather(c);
}

// ---- Outer product (Algorithm 3) ----------------------------------------

TEST(OuterProduct1d, MatchesSerialSquare) {
  auto a = erdos_renyi<double>(120, 5.0, 3);
  auto want = spgemm(a, a, LocalKernel::Spa);
  for (int P : {1, 3, 5}) {
    Machine m(P);
    m.run([&](Comm& c) {
      auto da = DistMatrix1D<double>::from_global(c, a);
      auto got = spgemm_outer_product_1d(c, da, da).gather(c);
      EXPECT_TRUE(approx_equal(got, want, 1e-9)) << "P=" << P;
    });
  }
}

TEST(OuterProduct1d, MatchesSerialRectangular) {
  auto a = random_rect(60, 40, 250, 5);
  auto b = random_rect(40, 30, 180, 6);
  auto want = spgemm(a, b, LocalKernel::Spa);
  Machine m(4);
  m.run([&](Comm& c) {
    auto da = DistMatrix1D<double>::from_global(c, a);
    auto db = DistMatrix1D<double>::from_global(c, b);
    auto got = spgemm_outer_product_1d(c, da, db).gather(c);
    EXPECT_TRUE(approx_equal(got, want, 1e-9));
  });
}

TEST(OuterProduct1d, AgreesWithSparsityAware1d) {
  auto a = mesh2d<double>(11);
  Machine m(4);
  m.run([&](Comm& c) {
    auto da = DistMatrix1D<double>::from_global(c, a);
    auto c1 = spgemm_1d(c, da, da).gather(c);
    auto c2 = spgemm_outer_product_1d(c, da, da).gather(c);
    EXPECT_TRUE(approx_equal(c1, c2, 1e-9));
  });
}

TEST(OuterProduct1d, DimensionMismatchThrows) {
  Machine m(2);
  EXPECT_THROW(m.run([&](Comm& c) {
    auto a = DistMatrix1D<double>::from_global(c, erdos_renyi<double>(10, 2.0, 1));
    auto b = DistMatrix1D<double>::from_global(c, erdos_renyi<double>(12, 2.0, 1));
    spgemm_outer_product_1d(c, a, b);
  }),
               std::invalid_argument);
}

// ---- 2D sparse SUMMA -----------------------------------------------------

TEST(Summa2d, MatchesSerialOnAnyProcessCount) {
  // Square grids (1, 4, 9), rectangular factorizations (6 → 2×3, 8 → 2×4,
  // 12 → 3×4), and primes (5 → 1×5): every P forms a q_r × q_c grid.
  auto a = erdos_renyi<double>(80, 4.0, 21);
  auto want = spgemm(a, a, LocalKernel::Spa);
  for (int P : {1, 4, 9, 2, 3, 5, 6, 8, 12}) {
    Machine m(P);
    m.run([&](Comm& c) {
      auto got = grid_product(c, a, a, Algo::Summa2D);
      EXPECT_TRUE(approx_equal(got, want, 1e-9)) << "P=" << P;
    });
  }
}

TEST(Summa2d, GridShapeFactorsNearestSquare) {
  EXPECT_EQ(summa_grid_shape(1), (GridShape{1, 1, 1}));
  EXPECT_EQ(summa_grid_shape(4), (GridShape{2, 2, 2}));
  EXPECT_EQ(summa_grid_shape(6), (GridShape{2, 3, 6}));
  EXPECT_EQ(summa_grid_shape(8), (GridShape{2, 4, 4}));
  EXPECT_EQ(summa_grid_shape(12), (GridShape{3, 4, 12}));
  EXPECT_EQ(summa_grid_shape(16), (GridShape{4, 4, 4}));
  EXPECT_EQ(summa_grid_shape(5), (GridShape{1, 5, 5}));   // prime: 1 × P
  // Pinned shapes: one side derives the other; both pinned are verbatim.
  EXPECT_EQ(summa_grid_shape(6, 3, 0), (GridShape{3, 2, 6}));
  EXPECT_EQ(summa_grid_shape(6, 0, 2), (GridShape{3, 2, 6}));
  EXPECT_EQ(summa_grid_shape(12, 2, 6), (GridShape{2, 6, 6}));
  // A nonsensical pin (negative, or not dividing P) must yield an invalid
  // shape — never a silent fallback to the auto grid.
  EXPECT_EQ(summa_grid_shape(6, -3, 0).stages, 0);
  EXPECT_EQ(summa_grid_shape(6, -3, -2).stages, 0);
  EXPECT_EQ(summa_grid_shape(6, 0, 4).stages, 0);
  EXPECT_THROW(require_grid_shape(6, -3, 0, "test"), std::invalid_argument);
}

TEST(Summa2d, RectangularOperands) {
  auto a = random_rect(50, 36, 200, 7);
  auto b = random_rect(36, 44, 200, 8);
  auto want = spgemm(a, b, LocalKernel::Spa);
  Machine m(4);
  m.run([&](Comm& c) {
    auto got = grid_product(c, a, b, Algo::Summa2D);
    EXPECT_TRUE(approx_equal(got, want, 1e-9));
  });
}

TEST(Summa2d, PinnedGridShapeMustFactorP) {
  Machine m(6);
  auto a = erdos_renyi<double>(20, 2.0, 2);
  EXPECT_THROW(m.run([&](Comm& c) {
    auto da = DistMatrix1D<double>::from_global(c, a);
    spgemm_split_3d_dist(c, da, da, /*layers=*/1, LocalKernel::Hybrid, 1, nullptr,
                         /*grid_rows=*/4);
  }),
               std::invalid_argument);
}

TEST(Summa2d, RejectsSliceWithUnsortedRows) {
  // The grid route-in relies on the DCSC invariant (rows ascending within a
  // column) to receive canonical blocks without a sort; a hand-made slice
  // that breaks it is rejected, not silently mis-placed.
  Machine m(1);
  EXPECT_THROW(m.run([](Comm& c) {
    DcscMatrix<double> local(4, 4, {1}, {0, 2}, {3, 1}, {1.0, 2.0});
    DistMatrix1D<double> da(4, 4, {0, 4}, c.rank(), std::move(local));
    spgemm_split_3d_dist(c, da, da, /*layers=*/1, LocalKernel::Hybrid, 1);
  }),
               std::invalid_argument);
}

// ---- Split-3D --------------------------------------------------------------

TEST(Split3d, ValidLayerCounts) {
  // Every divisor of P is a layer count now that layer grids may be
  // rectangular (P/c always factors into some q_r × q_c).
  EXPECT_EQ(valid_layer_counts(16), (std::vector<int>{1, 2, 4, 8, 16}));
  EXPECT_EQ(valid_layer_counts(8), (std::vector<int>{1, 2, 4, 8}));
  EXPECT_EQ(valid_layer_counts(6), (std::vector<int>{1, 2, 3, 6}));
  EXPECT_EQ(valid_layer_counts(1), (std::vector<int>{1}));
}

TEST(Split3d, MatchesSerialAcrossLayerCounts) {
  // 8 = 1·(2×4) = 2·(2×2) = 4·(1×2) = 8·(1×1): every divisor layers, the
  // c=1 and c=4 cases on rectangular layer grids.
  auto a = erdos_renyi<double>(70, 4.0, 13);
  auto want = spgemm(a, a, LocalKernel::Spa);
  for (int layers : {1, 2, 4, 8}) {
    int P = 8;
    Machine m(P);
    m.run([&](Comm& c) {
      auto got = grid_product(c, a, a, Algo::Split3D, layers);
      EXPECT_TRUE(approx_equal(got, want, 1e-9)) << "layers=" << layers;
    });
  }
}

TEST(Split3d, LayersEqualOneMatchesSumma) {
  auto a = mesh2d<double>(9);
  Machine m(4);
  m.run([&](Comm& c) {
    auto c3 = grid_product(c, a, a, Algo::Split3D, 1);
    auto c2 = grid_product(c, a, a, Algo::Summa2D);
    EXPECT_TRUE(approx_equal(c3, c2, 1e-9));
  });
}

TEST(Split3d, RejectsBadLayerCount) {
  Machine m(8);
  auto a = erdos_renyi<double>(20, 2.0, 2);
  EXPECT_THROW(m.run([&](Comm& c) { grid_product(c, a, a, Algo::Split3D, 3); }),
               std::invalid_argument);
}

TEST(Split3d, RectangularOperands) {
  auto a = random_rect(48, 32, 180, 9);
  auto b = random_rect(32, 40, 180, 10);
  auto want = spgemm(a, b, LocalKernel::Spa);
  Machine m(8);
  m.run([&](Comm& c) {
    auto got = grid_product(c, a, b, Algo::Split3D, 2);
    EXPECT_TRUE(approx_equal(got, want, 1e-9));
  });
}

// ---- Fold order ------------------------------------------------------------
//
// The backends fold C's partials in a fixed order (DESIGN §8), so a captured
// program replays bit for bit. Non-integer values round differently under
// reassociation, so these cases pin that order exactly: each result must
// equal a serial fold in the documented order, bit for bit.

/// For each C column, the fold order as layers of stage ranges [klo, khi)
/// of the inner dimension.
using FoldPlan = std::vector<std::vector<std::pair<index_t, index_t>>>;

/// Serial C = A·B where each entry is the left fold, in layer order, of
/// layer partials; a layer partial is the left fold, in stage order, of
/// stage partials; a stage partial is the left fold of a_ik·b_kj over its
/// range, k ascending. A partial that holds no product is skipped, and the
/// first partial of a fold is taken as is.
CscMatrix<double> serial_fold(const CscMatrix<double>& a, const CscMatrix<double>& b,
                              const std::function<FoldPlan(index_t)>& plan_of_col) {
  const auto n = static_cast<std::size_t>(a.nrows());
  std::vector<double> stage(n), layer(n), total(n);
  std::vector<char> in_stage(n), in_layer(n), in_total(n);
  auto fold_into = [&](std::vector<double>& to, std::vector<char>& has,
                       const std::vector<double>& from, std::vector<char>& from_has) {
    for (std::size_t i = 0; i < n; ++i) {
      if (from_has[i] == 0) continue;
      to[i] = has[i] != 0 ? to[i] + from[i] : from[i];
      has[i] = 1;
      from_has[i] = 0;
    }
  };
  std::vector<index_t> colptr{0}, rows;
  std::vector<double> vals;
  for (index_t j = 0; j < b.ncols(); ++j) {
    for (const auto& stages : plan_of_col(j)) {
      for (auto [klo, khi] : stages) {
        auto brows = b.col_rows(j);
        auto bvals = b.col_vals(j);
        for (std::size_t p = 0; p < brows.size(); ++p) {
          const index_t k = brows[p];
          if (k < klo || k >= khi) continue;
          auto arows = a.col_rows(k);
          auto avals = a.col_vals(k);
          for (std::size_t q = 0; q < arows.size(); ++q) {
            const auto i = static_cast<std::size_t>(arows[q]);
            const double v = avals[q] * bvals[p];
            stage[i] = in_stage[i] != 0 ? stage[i] + v : v;
            in_stage[i] = 1;
          }
        }
        fold_into(layer, in_layer, stage, in_stage);
      }
      fold_into(total, in_total, layer, in_layer);
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (in_total[i] == 0) continue;
      rows.push_back(static_cast<index_t>(i));
      vals.push_back(total[i]);
      in_total[i] = 0;
    }
    colptr.push_back(static_cast<index_t>(rows.size()));
  }
  return CscMatrix<double>(a.nrows(), b.ncols(), std::move(colptr), std::move(rows),
                           std::move(vals));
}

bool bit_equal(const CscMatrix<double>& got, const CscMatrix<double>& want) {
  return got.colptr() == want.colptr() && got.rowids() == want.rowids() &&
         std::memcmp(got.vals().data(), want.vals().data(),
                     got.vals().size() * sizeof(double)) == 0;
}

/// The fresh call and one replay of `opt` through a cached plan, gathered.
std::pair<CscMatrix<double>, CscMatrix<double>> fresh_and_replay(int P, const CscMatrix<double>& a,
                                                                 const CscMatrix<double>& b,
                                                                 const DistSpgemmOptions& opt) {
  std::pair<CscMatrix<double>, CscMatrix<double>> out;
  Machine m(P);
  m.run([&](Comm& c) {
    auto da = DistMatrix1D<double>::from_global(c, a);
    auto db = DistMatrix1D<double>::from_global(c, b);
    DistSpgemmPlan<double> plan;
    auto fresh = spgemm_dist_cached(c, plan, da, db, opt).gather(c);
    auto replay = spgemm_dist_cached(c, plan, da, db, opt).gather(c);
    if (c.rank() == 0) out = {std::move(fresh), std::move(replay)};
  });
  return out;
}

/// Asserts the fresh result and one replay of `algo` equal `want` bit for
/// bit, and that `want` is not the plain k-ascending fold (else the case
/// pins nothing).
void expect_fold_order(int P, Algo algo, int layers, const CscMatrix<double>& a,
                       const CscMatrix<double>& b, const CscMatrix<double>& want) {
  SCOPED_TRACE(std::string(algo_name(algo)) + " P=" + std::to_string(P));
  const auto flat = serial_fold(a, b, [&](index_t) { return FoldPlan{{{0, a.ncols()}}}; });
  EXPECT_FALSE(bit_equal(flat, want)) << "the fold order under test is the flat one";
  DistSpgemmOptions opt;
  opt.algo = algo;
  opt.layers = layers;
  auto [fresh, replay] = fresh_and_replay(P, a, b, opt);
  EXPECT_TRUE(bit_equal(fresh, want));
  EXPECT_TRUE(bit_equal(replay, want));
}

TEST(FoldOrder, Summa2dFoldsStagePartialsInStageOrder) {
  auto a = random_rect(64, 60, 700, 31);
  auto b = random_rect(60, 56, 650, 32);
  for (int P : {4, 6}) {
    const auto kb = even_split(a.ncols(), summa_grid_shape(P).stages);
    FoldPlan stages(1);
    for (std::size_t k = 0; k + 1 < kb.size(); ++k) stages[0].push_back({kb[k], kb[k + 1]});
    auto want = serial_fold(a, b, [&](index_t) { return stages; });
    expect_fold_order(P, Algo::Summa2D, 0, a, b, want);
  }
}

TEST(FoldOrder, Split3dFoldsLayerPartialsInLayerOrder) {
  auto a = random_rect(64, 60, 700, 33);
  auto b = random_rect(60, 56, 650, 34);
  const int P = 8, layers = 2;
  const auto kl = even_split(a.ncols(), layers);
  const int s = summa_grid_shape(P / layers).stages;
  FoldPlan plan;
  for (int l = 0; l < layers; ++l) {
    const index_t klo = kl[static_cast<std::size_t>(l)];
    const auto fine = even_split(kl[static_cast<std::size_t>(l) + 1] - klo, s);
    plan.emplace_back();
    for (std::size_t k = 0; k + 1 < fine.size(); ++k)
      plan.back().push_back({klo + fine[k], klo + fine[k + 1]});
  }
  auto want = serial_fold(a, b, [&](index_t) { return plan; });
  expect_fold_order(P, Algo::Split3D, layers, a, b, want);
}

// ---- Cross-algorithm agreement -------------------------------------------

TEST(AllAlgorithms, AgreeOnOneInput) {
  auto a = block_clustered<double>(144, 6, 5.0, 0.5, 14);
  auto want = spgemm(a, a, LocalKernel::Spa);
  Machine m(4);
  m.run([&](Comm& c) {
    auto da = DistMatrix1D<double>::from_global(c, a);
    EXPECT_TRUE(approx_equal(spgemm_1d(c, da, da).gather(c), want, 1e-9));
    EXPECT_TRUE(approx_equal(spgemm_outer_product_1d(c, da, da).gather(c), want, 1e-9));
    EXPECT_TRUE(approx_equal(grid_product(c, a, a, Algo::Summa2D), want, 1e-9));
    EXPECT_TRUE(approx_equal(grid_product(c, a, a, Algo::Split3D, 4), want, 1e-9));
  });
}

}  // namespace
}  // namespace sa1d
