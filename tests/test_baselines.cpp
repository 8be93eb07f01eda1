// Tests for the baseline distributed algorithms: outer-product 1D
// (Algorithm 3), naive ring 1D, 2D sparse SUMMA, Split-3D.
#include <gtest/gtest.h>

#include "core/outer_product.hpp"
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

// ---- Naive ring 1D -------------------------------------------------------

TEST(NaiveRing1d, MatchesSerial) {
  auto a = erdos_renyi<double>(90, 4.0, 17);
  auto want = spgemm(a, a, LocalKernel::Spa);
  for (int P : {1, 2, 5}) {
    Machine m(P);
    m.run([&](Comm& c) {
      auto da = DistMatrix1D<double>::from_global(c, a);
      auto got = spgemm_naive_ring_1d(c, da, da).gather(c);
      EXPECT_TRUE(approx_equal(got, want, 1e-9)) << "P=" << P;
    });
  }
}

TEST(NaiveRing1d, MovesWholeAAcrossRing) {
  // Ballard's analysis: the ring circulates all of A through every rank, so
  // network traffic is ~(P-1) x nnz(A) triples — far above sparsity-aware.
  auto a = block_clustered<double>(256, 8, 6.0, 0.25, 9);
  const int P = 4;
  Machine m(P);
  auto ring = m.run([&](Comm& c) {
    auto da = DistMatrix1D<double>::from_global(c, a);
    spgemm_naive_ring_1d(c, da, da);
  });
  auto aware = m.run([&](Comm& c) {
    auto da = DistMatrix1D<double>::from_global(c, a);
    spgemm_1d(c, da, da);
  });
  EXPECT_GT(ring.total_bytes_network(), 2 * aware.total_bytes_network());
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
    spgemm_summa_2d_dist(c, da, da, LocalKernel::Hybrid, 1, nullptr, /*grid_rows=*/4);
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
    spgemm_summa_2d_dist(c, da, da, LocalKernel::Hybrid, 1);
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

// ---- Cross-algorithm agreement -------------------------------------------

TEST(AllAlgorithms, AgreeOnOneInput) {
  auto a = block_clustered<double>(144, 6, 5.0, 0.5, 14);
  auto want = spgemm(a, a, LocalKernel::Spa);
  Machine m(4);
  m.run([&](Comm& c) {
    auto da = DistMatrix1D<double>::from_global(c, a);
    EXPECT_TRUE(approx_equal(spgemm_1d(c, da, da).gather(c), want, 1e-9));
    EXPECT_TRUE(approx_equal(spgemm_outer_product_1d(c, da, da).gather(c), want, 1e-9));
    EXPECT_TRUE(approx_equal(spgemm_naive_ring_1d(c, da, da).gather(c), want, 1e-9));
    EXPECT_TRUE(approx_equal(grid_product(c, a, a, Algo::Summa2D), want, 1e-9));
    EXPECT_TRUE(approx_equal(grid_product(c, a, a, Algo::Split3D, 4), want, 1e-9));
  });
}

}  // namespace
}  // namespace sa1d
