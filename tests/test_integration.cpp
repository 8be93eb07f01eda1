// Cross-module integration tests: every distributed SpGEMM algorithm agrees
// with the serial reference on every dataset analogue across process
// counts; preprocessing pipelines compose end-to-end; results are
// bit-stable across P for deterministic inputs.
#include <gtest/gtest.h>

#include <tuple>

#include "sa1d.hpp"

namespace sa1d {
namespace {

enum class Algo { Aware1d, Outer1d, Summa2d, Split3d };

const char* algo_name(Algo a) {
  switch (a) {
    case Algo::Aware1d: return "aware1d";
    case Algo::Outer1d: return "outer1d";
    case Algo::Summa2d: return "summa2d";
    case Algo::Split3d: return "split3d";
  }
  return "?";
}

CscMatrix<double> run_algo(Comm& c, Algo algo, const CscMatrix<double>& a) {
  switch (algo) {
    case Algo::Aware1d: {
      auto da = DistMatrix1D<double>::from_global(c, a);
      return spgemm_1d(c, da, da).gather(c);
    }
    case Algo::Outer1d: {
      auto da = DistMatrix1D<double>::from_global(c, a);
      return spgemm_outer_product_1d(c, da, da).gather(c);
    }
    case Algo::Summa2d:
    case Algo::Split3d: {
      auto da = DistMatrix1D<double>::from_global(c, a);
      DistSpgemmOptions opt;
      opt.algo = algo == Algo::Summa2d ? sa1d::Algo::Summa2D : sa1d::Algo::Split3D;
      opt.layers = 2;  // Split-3D's layer count; SUMMA ignores it
      return spgemm_dist(c, da, da, opt).gather(c);
    }
  }
  throw std::logic_error("unknown algo");
}

using Case = std::tuple<Algo, Dataset>;
class SquaringEquivalence : public ::testing::TestWithParam<Case> {};

TEST_P(SquaringEquivalence, AllAlgorithmsMatchSerialOnAllDatasets) {
  auto [algo, ds] = GetParam();
  auto a = make_dataset(ds, 0.04);
  auto want = spgemm(a, a, LocalKernel::Spa);
  // 2D needs a perfect square; 3D with c=2 needs P/2 square. P=8 covers 3D
  // (8/2=4=2²) but not 2D; use P=4 for 2D, P=8 otherwise.
  int P = algo == Algo::Summa2d ? 4 : 8;
  Machine m(P);
  m.run([&, algo = algo](Comm& c) {
    auto got = run_algo(c, algo, a);
    EXPECT_TRUE(approx_equal(got, want, 1e-9));
  });
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SquaringEquivalence,
    ::testing::Combine(::testing::Values(Algo::Aware1d, Algo::Outer1d, Algo::Summa2d,
                                         Algo::Split3d),
                       ::testing::Values(Dataset::QueenLike, Dataset::StokesLike,
                                         Dataset::EukaryaLike, Dataset::Hv15rLike,
                                         Dataset::NlpkktLike)),
    [](const ::testing::TestParamInfo<Case>& info) {
      std::string d = dataset_name(std::get<1>(info.param));
      for (auto& ch : d)
        if (ch == '-') ch = '_';
      return std::string(algo_name(std::get<0>(info.param))) + "_" + d;
    });

TEST(Pipeline, PartitionThenSquareThenGalerkinThenBc) {
  // The full preprocessing + application chain on one graph.
  auto a0 = hidden_community<double>(300, 10, 7.0, 0.3, 21);

  // 1. Partition with flops weights; permute onto the induced layout.
  auto g = graph_from_matrix(a0);
  auto w = flops_vertex_weights(a0);
  PartitionOptions popt;
  popt.nparts = 6;
  auto layout = partition_to_layout(partition_graph(g, w, popt).part, 6);
  auto a = permute_symmetric(a0, layout.perm);

  Machine m(6);
  m.run([&](Comm& c) {
    // 2. Squaring on the partitioned layout matches serial.
    auto da = DistMatrix1D<double>::from_global(c, a, layout.bounds);
    auto sq = spgemm_1d(c, da, da).gather(c);
    EXPECT_TRUE(approx_equal(sq, spgemm(a, a, LocalKernel::Spa), 1e-9));

    // 3. AMG Galerkin product on the same matrix.
    auto r = restriction_operator(a, 5);
    auto gal = galerkin_product(c, a, r);
    auto want = spgemm(spgemm(transpose(r), a, LocalKernel::Spa), r, LocalKernel::Spa);
    EXPECT_TRUE(approx_equal(gal.rtar.gather(c), want, 1e-9));

    // 4. BC on the permuted graph equals BC on the original modulo relabel.
    auto sources0 = pick_sources(300, 10, 3);
    std::vector<index_t> sources;
    for (auto s : sources0) sources.push_back(layout.perm(s));
    auto res = betweenness_batch(c, a, sources);
    auto ref = brandes_serial(a0, sources0);
    for (index_t v = 0; v < 300; ++v)
      EXPECT_NEAR(res.scores[static_cast<std::size_t>(layout.perm(v))],
                  ref[static_cast<std::size_t>(v)], 1e-9);
  });
}

TEST(Pipeline, MmioRoundTripFeedsDistributedMultiply) {
  // Write a matrix to Matrix Market, read it back, square it distributed.
  auto a = mesh2d<double>(9);
  std::ostringstream buf;
  write_matrix_market(buf, a.to_coo());
  std::istringstream in(buf.str());
  auto back = CscMatrix<double>::from_coo(read_matrix_market(in));
  ASSERT_TRUE(approx_equal(back, a, 1e-12));
  Machine m(3);
  m.run([&](Comm& c) {
    auto da = DistMatrix1D<double>::from_global(c, back);
    EXPECT_TRUE(
        approx_equal(spgemm_1d(c, da, da).gather(c), spgemm(a, a, LocalKernel::Spa), 1e-9));
  });
}

TEST(Determinism, ResultsBitStableAcrossProcessCounts) {
  // The gathered product must be byte-identical for every P (same
  // floating-point addition order guaranteed by the column-merge kernels).
  auto a = make_dataset(Dataset::Hv15rLike, 0.03);
  CscMatrix<double> ref;
  for (int P : {1, 2, 4, 8}) {
    Machine m(P);
    m.run([&](Comm& c) {
      auto da = DistMatrix1D<double>::from_global(c, a);
      auto got = spgemm_1d(c, da, da).gather(c);
      if (c.rank() == 0) {
        if (ref.nnz() == 0)
          ref = got;
        else
          EXPECT_TRUE(approx_equal(got, ref, 1e-12)) << "P=" << P;
      }
    });
  }
}

TEST(Determinism, RepeatedRunsIdentical) {
  auto a = make_dataset(Dataset::QueenLike, 0.2);
  Machine m(4);
  std::uint64_t bytes1 = 0, bytes2 = 0;
  auto run_once = [&]() {
    return m.run([&](Comm& c) {
      auto da = DistMatrix1D<double>::from_global(c, a);
      spgemm_1d(c, da, da);
    });
  };
  bytes1 = run_once().total_rdma_bytes();
  bytes2 = run_once().total_rdma_bytes();
  EXPECT_EQ(bytes1, bytes2);  // communication is a pure function of input
}

TEST(Stress, ManySmallMultipliesOnOneMachine) {
  // Machine reuse across many runs must not leak window/collective state.
  auto a = mesh2d<double>(8);
  auto want = spgemm(a, a, LocalKernel::Spa);
  Machine m(8);
  for (int round = 0; round < 20; ++round) {
    m.run([&](Comm& c) {
      auto da = DistMatrix1D<double>::from_global(c, a);
      auto got = spgemm_1d(c, da, da, {.block_fetch_k = 1 + round % 7}).gather(c);
      EXPECT_TRUE(approx_equal(got, want, 1e-9));
    });
  }
}

TEST(Stress, WideMachineSquaring) {
  // More ranks than nonzero columns per slice; exercises empty H and empty
  // fetch plans.
  auto a = mesh2d<double>(5);  // 25 columns
  auto want = spgemm(a, a, LocalKernel::Spa);
  Machine m(40);
  m.run([&](Comm& c) {
    auto da = DistMatrix1D<double>::from_global(c, a);
    EXPECT_TRUE(approx_equal(spgemm_1d(c, da, da).gather(c), want, 1e-9));
  });
}

}  // namespace
}  // namespace sa1d
