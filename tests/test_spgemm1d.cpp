// Tests for Algorithm 1: the sparsity-aware 1D SpGEMM. Correctness against
// the serial reference across datasets, P, K, kernels; sparsity-awareness
// properties (volume reduction, Ã compaction); the CV/memA advisor.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <utility>

#include "core/spgemm1d.hpp"
#include "dist/dist_spgemm.hpp"
#include "kernels/spgemm_local.hpp"
#include "part/permutation.hpp"
#include "sparse/datasets.hpp"
#include "sparse/generators.hpp"

namespace sa1d {
namespace {

void expect_dist_equals_serial(int P, const CscMatrix<double>& a, const CscMatrix<double>& b,
                               const Spgemm1dOptions& opt = {}) {
  auto want = spgemm(a, b, LocalKernel::Spa);
  Machine m(P);
  m.run([&](Comm& c) {
    auto da = DistMatrix1D<double>::from_global(c, a);
    auto db = DistMatrix1D<double>::from_global(c, b);
    auto dc = spgemm_1d(c, da, db, opt);
    auto got = dc.gather(c);
    EXPECT_TRUE(approx_equal(got, want, 1e-9));
  });
}

TEST(Spgemm1d, SquareSmallKnown) {
  // C = A*A for the 2D mesh; compare to serial.
  expect_dist_equals_serial(4, mesh2d<double>(8), mesh2d<double>(8));
}

TEST(Spgemm1d, SingleRankDegenerate) {
  auto a = erdos_renyi<double>(60, 4.0, 7);
  expect_dist_equals_serial(1, a, a);
}

TEST(Spgemm1d, RectangularOperands) {
  // A: 40x30, B: 30x20.
  CooMatrix<double> ca(40, 30), cb(30, 20);
  SplitMix64 g(8);
  for (int e = 0; e < 200; ++e)
    ca.push(static_cast<index_t>(g.below(40)), static_cast<index_t>(g.below(30)),
            1.0 + g.uniform());
  for (int e = 0; e < 150; ++e)
    cb.push(static_cast<index_t>(g.below(30)), static_cast<index_t>(g.below(20)),
            1.0 + g.uniform());
  ca.canonicalize();
  cb.canonicalize();
  expect_dist_equals_serial(3, CscMatrix<double>::from_coo(ca), CscMatrix<double>::from_coo(cb));
}

TEST(Spgemm1d, EmptyB) {
  auto a = erdos_renyi<double>(30, 3.0, 2);
  CscMatrix<double> b(30, 30);
  expect_dist_equals_serial(4, a, b);
}

TEST(Spgemm1d, EmptyA) {
  CscMatrix<double> a(30, 30);
  auto b = erdos_renyi<double>(30, 3.0, 2);
  expect_dist_equals_serial(4, a, b);
}

TEST(Spgemm1d, DimensionMismatchThrows) {
  Machine m(2);
  EXPECT_THROW(m.run([&](Comm& c) {
    auto a = DistMatrix1D<double>::from_global(c, erdos_renyi<double>(10, 2.0, 1));
    auto b = DistMatrix1D<double>::from_global(c, erdos_renyi<double>(12, 2.0, 1));
    spgemm_1d(c, a, b);
  }),
               std::invalid_argument);
}

TEST(Spgemm1d, RejectsNonPositiveK) {
  Machine m(2);
  EXPECT_THROW(m.run([&](Comm& c) {
    auto a = DistMatrix1D<double>::from_global(c, erdos_renyi<double>(10, 2.0, 1));
    Spgemm1dOptions opt;
    opt.block_fetch_k = 0;
    spgemm_1d(c, a, a, opt);
  }),
               std::invalid_argument);
}

using SweepCase = std::tuple<int /*P*/, index_t /*K*/, LocalKernel, int /*gen*/>;
class Spgemm1dSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(Spgemm1dSweep, MatchesSerial) {
  auto [P, K, kernel, gen] = GetParam();
  CscMatrix<double> a;
  switch (gen) {
    case 0: a = erdos_renyi<double>(150, 4.0, 7); break;
    case 1: a = block_clustered<double>(160, 8, 5.0, 0.5, 11); break;
    case 2: a = mesh2d<double>(13); break;
    default: FAIL();
  }
  Spgemm1dOptions opt;
  opt.block_fetch_k = K;
  opt.kernel = kernel;
  expect_dist_equals_serial(P, a, a, opt);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Spgemm1dSweep,
    ::testing::Combine(::testing::Values(2, 4, 7), ::testing::Values<index_t>(1, 8, 2048),
                       ::testing::Values(LocalKernel::Heap, LocalKernel::Hash,
                                         LocalKernel::Hybrid),
                       ::testing::Values(0, 1, 2)));

TEST(Spgemm1d, ObliviousModeMatchesToo) {
  auto a = block_clustered<double>(120, 6, 5.0, 0.5, 4);
  Spgemm1dOptions opt;
  opt.sparsity_aware = false;
  expect_dist_equals_serial(4, a, a, opt);
}

TEST(Spgemm1d, AlphaBetaPlanAcrossLinkRegimes) {
  // The default planner's plan changes with the link rates: alpha = 0 gets
  // every needed run separately, beta = 0 gets one range per owner, and
  // ranks_per_node = 2 at P = 4 mixes intra- and inter-node thresholds.
  // Every regime must stay bit-identical to the serial product, and Auto's
  // inputs must price exactly the value gets one replay issues.
  CostParams zero_alpha, zero_beta, mixed;
  zero_alpha.alpha_inter = zero_alpha.alpha_intra = 0.0;
  zero_beta.beta_inter = zero_beta.beta_intra = 0.0;
  mixed.ranks_per_node = 2;
  const std::pair<const char*, CostParams> regimes[] = {
      {"alpha=0", zero_alpha},
      {"beta=0", zero_beta},
      {"defaults", {}},
      {"ranks_per_node=2", mixed}};
  const std::pair<const char*, CscMatrix<double>> operands[] = {
      {"er", erdos_renyi<double>(150, 4.0, 7)},
      {"block-clustered", block_clustered<double>(160, 8, 5.0, 0.5, 11)},
      {"mesh2d", mesh2d<double>(13)}};
  for (const auto& [regime, params] : regimes) {
    for (const auto& [name, a] : operands) {
      const auto want = spgemm(a, a, LocalKernel::Spa);
      for (int P : {2, 4, 7}) {
        Machine m(P, params);
        m.run([&](Comm& c) {
          auto da = DistMatrix1D<double>::from_global(c, a);
          const AlgoCostInputs in = gather_algo_cost_inputs(c, da, da);
          SpgemmPlan1D<double> plan(c, da, da);
          const std::uint64_t msgs0 = c.report().rdma_msgs, bytes0 = c.report().rdma_bytes;
          auto dc = plan.execute_verified(c, da, da);
          const std::uint64_t msgs = c.allreduce_sum(c.report().rdma_msgs - msgs0);
          const std::uint64_t bytes = c.allreduce_sum(c.report().rdma_bytes - bytes0);
          auto got = dc.gather(c);
          if (c.rank() != 0) return;
          SCOPED_TRACE(std::string(regime) + " " + name + " P=" + std::to_string(P));
          EXPECT_TRUE(got == want);
          EXPECT_EQ(msgs, in.sa1d_fetch_msgs);
          EXPECT_EQ(bytes / sizeof(double), in.sa1d_fetch_elems);
        });
      }
    }
  }
}

TEST(Spgemm1d, ThreadedLocalKernelMatches) {
  auto a = erdos_renyi<double>(200, 5.0, 19);
  Spgemm1dOptions opt;
  opt.threads = 3;
  expect_dist_equals_serial(4, a, a, opt);
}

TEST(Spgemm1d, SparsityAwareFetchesLessOnClusteredMatrix) {
  // On a block-clustered matrix in natural order, H ∩ D pruning must fetch
  // far fewer elements than the oblivious variant (the paper's core claim).
  auto a = block_clustered<double>(512, 16, 6.0, 0.25, 5);
  Machine m(8);
  std::uint64_t aware_bytes = 0, oblivious_bytes = 0;
  {
    auto rep = m.run([&](Comm& c) {
      auto da = DistMatrix1D<double>::from_global(c, a);
      spgemm_1d(c, da, da, {.block_fetch_k = 64});
    });
    aware_bytes = rep.total_rdma_bytes();
  }
  {
    auto rep = m.run([&](Comm& c) {
      auto da = DistMatrix1D<double>::from_global(c, a);
      spgemm_1d(c, da, da, {.block_fetch_k = 64, .sparsity_aware = false});
    });
    oblivious_bytes = rep.total_rdma_bytes();
  }
  EXPECT_LT(static_cast<double>(aware_bytes), 0.5 * static_cast<double>(oblivious_bytes));
}

TEST(Spgemm1d, RandomPermutationInflatesCommVolume) {
  // Fig 5's effect: random permutation destroys the clustered structure and
  // inflates RDMA volume.
  auto a = block_clustered<double>(512, 16, 6.0, 0.25, 6);
  auto perm = random_permutation(512, 99);
  auto aperm = permute_symmetric(a, perm);
  Machine m(8);
  std::uint64_t natural = 0, randomized = 0;
  natural = m.run([&](Comm& c) {
             auto da = DistMatrix1D<double>::from_global(c, a);
             spgemm_1d(c, da, da);
           }).total_rdma_bytes();
  randomized = m.run([&](Comm& c) {
                auto da = DistMatrix1D<double>::from_global(c, aperm);
                spgemm_1d(c, da, da);
              }).total_rdma_bytes();
  EXPECT_LT(static_cast<double>(natural), 0.6 * static_cast<double>(randomized));
}

TEST(Spgemm1d, InfoReportsCompaction) {
  auto a = block_clustered<double>(256, 8, 6.0, 0.25, 7);
  Machine m(4);
  m.run([&](Comm& c) {
    auto da = DistMatrix1D<double>::from_global(c, a);
    Spgemm1dInfo info;
    spgemm_1d(c, da, da, {}, &info);
    // Ã kept columns are a subset of fetched + local columns.
    EXPECT_GT(info.atilde_ncols, 0);
    EXPECT_LE(info.atilde_nnz, a.nnz());
    // 2 RDMA calls (ir + vals) per fetched block.
    EXPECT_EQ(info.rdma_calls % 2, 0);
    EXPECT_EQ(static_cast<std::uint64_t>(info.rdma_calls), c.report().rdma_msgs);
  });
}

TEST(Spgemm1d, BlockFetchKControlsMessageCount) {
  auto a = erdos_renyi<double>(400, 6.0, 23);  // scattered: most cols needed
  Machine m(4);
  auto msgs_at = [&](index_t k) {
    return m.run([&](Comm& c) {
              auto da = DistMatrix1D<double>::from_global(c, a);
              spgemm_1d(c, da, da, {.block_fetch_k = k});
            }).total_rdma_msgs();
  };
  auto m1 = msgs_at(1);
  auto m16 = msgs_at(16);
  auto m4096 = msgs_at(4096);
  EXPECT_LT(m1, m16);
  EXPECT_LT(m16, m4096);
  // K=1: one block (2 gets) per remote owner per rank = 2*P*(P-1).
  EXPECT_EQ(m1, 2u * 4u * 3u);
}

TEST(Spgemm1d, CvOverMemAAdvisor) {
  // Scattered matrix: every process needs nearly all of A -> ratio near 1.
  auto scattered = erdos_renyi<double>(300, 8.0, 31);
  // Clustered matrix in natural order: ratio far below the 0.3 threshold.
  auto clustered = block_clustered<double>(512, 16, 6.0, 0.1, 31);
  Machine m(8);
  m.run([&](Comm& c) {
    auto ds = DistMatrix1D<double>::from_global(c, scattered);
    double cv_s = cv_over_mem_a(c, ds, ds, {.block_fetch_k = 4096});
    EXPECT_GT(cv_s, 0.45);  // well above the paper's 0.3 partition threshold
    auto dc = DistMatrix1D<double>::from_global(c, clustered);
    double cv_c = cv_over_mem_a(c, dc, dc, {.block_fetch_k = 4096});
    EXPECT_LT(cv_c, 0.3);
  });
}

TEST(Spgemm1d, WorksOnAllDatasetsTiny) {
  for (auto d : all_datasets()) {
    auto a = make_dataset(d, 0.05);
    auto want = spgemm(a, a, LocalKernel::Spa);
    Machine m(4);
    m.run([&](Comm& c) {
      auto da = DistMatrix1D<double>::from_global(c, a);
      auto got = spgemm_1d(c, da, da).gather(c);
      EXPECT_TRUE(approx_equal(got, want, 1e-9)) << dataset_name(d);
    });
  }
}

}  // namespace
}  // namespace sa1d
