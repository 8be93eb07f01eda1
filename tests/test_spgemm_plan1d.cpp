// Tests for the inspector–executor split of Algorithm 1 (SpgemmPlan1D):
// plan+execute equals the one-shot wrapper bit for bit; a cached plan
// replayed N times over value-changing operands (the MCL/BC/AMG loop
// shapes) is bit-identical to N fresh spgemm_1d calls; reused executions
// record zero metadata-collective bytes and zero Plan-phase time and move
// only the value half of the RDMA traffic; the fingerprint catches
// structure changes, including pattern changes that preserve nzc/nnz.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "apps/amg.hpp"
#include "core/spgemm1d.hpp"
#include "sparse/generators.hpp"

namespace sa1d {
namespace {

/// Same sparsity pattern as `base`, values re-derived from (position, t):
/// the value-refresh shape of iterated app loops (time stepping, Jacobian
/// updates, BC frontier weights) with a frozen structure.
CscMatrix<double> with_values(const CscMatrix<double>& base, int t) {
  std::vector<double> vals(base.vals().size());
  for (std::size_t i = 0; i < vals.size(); ++i)
    vals[i] = 1.0 + 0.25 * static_cast<double>(t) + 0.001 * static_cast<double>(i % 97);
  return CscMatrix<double>(base.nrows(), base.ncols(), base.colptr(), base.rowids(),
                           std::move(vals));
}

using LocalsPerIter = std::vector<std::vector<DcscMatrix<double>>>;  // [rank][iter]

TEST(SpgemmPlan1d, PlanExecuteEqualsOneShotWrapper) {
  auto a = block_clustered<double>(160, 8, 5.0, 0.5, 11);
  Machine m(4);
  m.run([&](Comm& c) {
    auto da = DistMatrix1D<double>::from_global(c, a);
    Spgemm1dInfo wrap_info, exec_info;
    auto via_wrapper = spgemm_1d(c, da, da, {}, &wrap_info);
    SpgemmPlan1D<double> plan(c, da, da);
    auto via_plan = plan.execute(c, da, da, &exec_info);
    EXPECT_TRUE(via_wrapper.local() == via_plan.local());
    // Wrapper counts the inspector's structure gets and the executor's
    // value gets (2 per block, as before the split); a standalone execute
    // issues only the value half.
    EXPECT_EQ(wrap_info.rdma_calls % 2, 0);
    EXPECT_EQ(exec_info.rdma_calls, plan.plan_rdma_calls());
    EXPECT_EQ(wrap_info.rdma_calls, 2 * plan.plan_rdma_calls());
    EXPECT_EQ(wrap_info.atilde_nnz, exec_info.atilde_nnz);
  });
}

// The acceptance loop: for each app-style iteration shape, executing a
// cached plan N times must be bit-identical to N fresh spgemm_1d calls.
void expect_reuse_bit_identical(int P, const CscMatrix<double>& a_pat,
                                const CscMatrix<double>& b_pat, int iters,
                                const Spgemm1dOptions& opt = {}) {
  Machine m(P);
  LocalsPerIter fresh(static_cast<std::size_t>(P)), reused(static_cast<std::size_t>(P));
  m.run([&](Comm& c) {
    for (int t = 0; t < iters; ++t) {
      auto da = DistMatrix1D<double>::from_global(c, with_values(a_pat, t));
      auto db = DistMatrix1D<double>::from_global(c, with_values(b_pat, t));
      auto dc = spgemm_1d(c, da, db, opt);
      fresh[static_cast<std::size_t>(c.rank())].push_back(dc.local());
    }
  });
  m.run([&](Comm& c) {
    SpgemmPlan1D<double> plan;
    for (int t = 0; t < iters; ++t) {
      auto da = DistMatrix1D<double>::from_global(c, with_values(a_pat, t));
      auto db = DistMatrix1D<double>::from_global(c, with_values(b_pat, t));
      if (plan.empty()) plan = SpgemmPlan1D<double>(c, da, db, opt);
      RankReport before = c.report();
      auto dc = plan.execute(c, da, db);
      RankReport after = c.report();
      reused[static_cast<std::size_t>(c.rank())].push_back(dc.local());
      // Reused iterations: zero metadata-collective bytes, zero Plan time.
      EXPECT_EQ(after.bytes_network() - after.rdma_bytes,
                before.bytes_network() - before.rdma_bytes)
          << "metadata collective traffic on iteration " << t;
      if (t >= 1) EXPECT_DOUBLE_EQ(after.plan_s, before.plan_s) << "symbolic time, iter " << t;
    }
    EXPECT_EQ(plan.executions(), iters);
  });
  for (int r = 0; r < P; ++r) {
    ASSERT_EQ(fresh[static_cast<std::size_t>(r)].size(), static_cast<std::size_t>(iters));
    for (int t = 0; t < iters; ++t)
      EXPECT_TRUE(fresh[static_cast<std::size_t>(r)][static_cast<std::size_t>(t)] ==
                  reused[static_cast<std::size_t>(r)][static_cast<std::size_t>(t)])
          << "rank " << r << " iter " << t;
  }
}

TEST(SpgemmPlan1d, MclStyleExpansionReuse) {
  // MCL expansion M·M over a frozen pattern with per-round value refresh.
  auto mpat = block_clustered<double>(192, 8, 5.0, 0.4, 3);
  expect_reuse_bit_identical(4, mpat, mpat, 4);
}

TEST(SpgemmPlan1d, BcStyleLevelReuse) {
  // BC level shape: fixed square A, rectangular frontier operand.
  auto a = mesh2d<double>(12);  // 144 x 144
  CooMatrix<double> fr(144, 24);
  SplitMix64 g(17);
  for (int e = 0; e < 160; ++e)
    fr.push(static_cast<index_t>(g.below(144)), static_cast<index_t>(g.below(24)),
            1.0 + g.uniform());
  fr.canonicalize();
  expect_reuse_bit_identical(3, a, CscMatrix<double>::from_coo(fr), 4);
}

TEST(SpgemmPlan1d, ReuseWorksAcrossOptionVariants) {
  auto mpat = block_clustered<double>(128, 8, 4.0, 0.4, 9);
  expect_reuse_bit_identical(4, mpat, mpat, 3, {.block_fetch_k = 8});
  expect_reuse_bit_identical(4, mpat, mpat, 3, {.sparsity_aware = false});
  expect_reuse_bit_identical(2, mpat, mpat, 3, {.threads = 3});
}

TEST(SpgemmPlan1d, AmgStyleGalerkinReuse) {
  // RᵀAR across an AMG-setup refresh loop: A's values change, the pattern
  // (and hence R and every product structure) is frozen. GalerkinOperator
  // must reuse its plans and stay bit-identical to fresh one-shot products.
  auto a_pat = mesh2d<double>(10);
  auto r = restriction_operator(a_pat, 5);
  const int P = 3, iters = 3;
  Machine m(P);
  LocalsPerIter fresh_rtar(P), reused_rtar(P);
  m.run([&](Comm& c) {
    for (int t = 0; t < iters; ++t) {
      auto res = galerkin_product(c, with_values(a_pat, t), r, {},
                                  RightMultAlgo::SparsityAware1d);
      fresh_rtar[static_cast<std::size_t>(c.rank())].push_back(res.rtar.local());
    }
  });
  m.run([&](Comm& c) {
    GalerkinOperator op(c, r, {}, RightMultAlgo::SparsityAware1d);
    for (int t = 0; t < iters; ++t) {
      RankReport before = c.report();
      auto res = op.compute(c, with_values(a_pat, t));
      RankReport after = c.report();
      reused_rtar[static_cast<std::size_t>(c.rank())].push_back(res.rtar.local());
      // Iterations after the first replay both cached plans: no Plan time.
      if (t >= 1) EXPECT_DOUBLE_EQ(after.plan_s, before.plan_s);
    }
  });
  for (int r2 = 0; r2 < P; ++r2)
    for (int t = 0; t < iters; ++t)
      EXPECT_TRUE(fresh_rtar[static_cast<std::size_t>(r2)][static_cast<std::size_t>(t)] ==
                  reused_rtar[static_cast<std::size_t>(r2)][static_cast<std::size_t>(t)])
          << "rank " << r2 << " iter " << t;
}

TEST(SpgemmPlan1d, ReusedExecuteMovesOnlyValueTraffic) {
  auto a = block_clustered<double>(256, 8, 6.0, 0.25, 7);
  Machine m(4);
  m.run([&](Comm& c) {
    auto da = DistMatrix1D<double>::from_global(c, a);
    SpgemmPlan1D<double> plan(c, da, da);
    plan.execute(c, da, da);
    RankReport before = c.report();
    Spgemm1dInfo info;
    plan.execute(c, da, da, &info);
    RankReport after = c.report();
    // One value get per planned block, fetched_elems doubles worth of bytes.
    EXPECT_EQ(after.rdma_msgs - before.rdma_msgs,
              static_cast<std::uint64_t>(plan.plan_rdma_calls()));
    EXPECT_EQ(after.rdma_bytes - before.rdma_bytes,
              static_cast<std::uint64_t>(info.fetched_elems) * sizeof(double));
    EXPECT_EQ(info.rdma_calls, plan.plan_rdma_calls());
  });
}

TEST(SpgemmPlan1d, CachedEntryPointReplansOnStructureChange) {
  // spgemm_1d_cached must reuse while the pattern holds, replan when it
  // changes, and stay correct throughout (the MCL/BC loop contract).
  auto pat1 = block_clustered<double>(128, 8, 4.0, 0.4, 21);
  auto pat2 = erdos_renyi<double>(128, 3.0, 22);  // different structure
  Machine m(4);
  m.run([&](Comm& c) {
    SpgemmPlan1D<double> plan;
    const CscMatrix<double>* pats[] = {&pat1, &pat1, &pat2, &pat2, &pat1};
    for (int t = 0; t < 5; ++t) {
      auto cur = with_values(*pats[t], t);
      auto dm = DistMatrix1D<double>::from_global(c, cur);
      auto got = spgemm_1d_cached(c, plan, dm, dm);
      auto fresh = spgemm_1d(c, dm, dm);
      EXPECT_TRUE(got.local() == fresh.local()) << "iter " << t;
    }
    // Reuse happened at t=1 and t=3, replans at t=0, t=2, t=4.
    EXPECT_EQ(plan.executions(), 1);  // the plan built at t=4 ran once
  });
}

TEST(SpgemmPlan1d, CachedEntryPointReplansOnOptionChange) {
  // Same structure, different options: the cached wrapper must rebuild —
  // option fields shape the fetch plan (K, merging) and the local pass.
  // Scattered matrix: most columns are needed remotely, so K controls the
  // message count (as in Spgemm1d.BlockFetchKControlsMessageCount).
  auto pat = erdos_renyi<double>(200, 5.0, 23);
  Machine m(4);
  m.run([&](Comm& c) {
    auto dm = DistMatrix1D<double>::from_global(c, pat);
    SpgemmPlan1D<double> plan;
    std::uint64_t msgs_k1, msgs_k64;
    {
      RankReport before = c.report();
      spgemm_1d_cached(c, plan, dm, dm, {.block_fetch_k = 1});
      msgs_k1 = c.report().rdma_msgs - before.rdma_msgs;
      EXPECT_EQ(plan.options().block_fetch_k, 1);
    }
    {
      RankReport before = c.report();
      spgemm_1d_cached(c, plan, dm, dm, {.block_fetch_k = 64});
      msgs_k64 = c.report().rdma_msgs - before.rdma_msgs;
      EXPECT_EQ(plan.options().block_fetch_k, 64);
    }
    EXPECT_LT(msgs_k1, msgs_k64);  // the new K actually took effect
  });
}

TEST(SpgemmPlan1d, ExecuteRejectsStructureMismatch) {
  Machine m(2);
  EXPECT_THROW(m.run([](Comm& c) {
    auto a = DistMatrix1D<double>::from_global(c, erdos_renyi<double>(60, 4.0, 7));
    auto b = DistMatrix1D<double>::from_global(c, erdos_renyi<double>(60, 4.0, 8));
    SpgemmPlan1D<double> plan(c, a, a);
    plan.execute(c, b, b);  // different nnz layout -> fingerprint mismatch
  }),
               std::invalid_argument);
}

TEST(SpgemmPlan1d, MatchesCatchesPatternChangeWithEqualCounts) {
  // Two single-entry matrices: same dims, same per-rank nzc/nnz, different
  // pattern. The cheap fields agree; the structure hash must not.
  CooMatrix<double> c1(8, 8), c2(8, 8);
  c1.push(0, 0, 1.0);
  c2.push(1, 0, 1.0);
  c1.canonicalize();
  c2.canonicalize();
  auto m1 = CscMatrix<double>::from_coo(c1);
  auto m2 = CscMatrix<double>::from_coo(c2);
  Machine m(1);
  m.run([&](Comm& c) {
    auto d1 = DistMatrix1D<double>::from_global(c, m1);
    auto d2 = DistMatrix1D<double>::from_global(c, m2);
    SpgemmPlan1D<double> plan(c, d1, d1);
    EXPECT_TRUE(plan.matches(c, d1, d1));
    EXPECT_FALSE(plan.matches_local(d2, d2));
    EXPECT_FALSE(plan.matches(c, d2, d2));
  });
}

TEST(SpgemmPlan1d, EmptyPlanReportsEmptyAndRefusesExecute) {
  SpgemmPlan1D<double> plan;
  EXPECT_TRUE(plan.empty());
  Machine m(1);
  EXPECT_THROW(m.run([&](Comm& c) {
    auto d = DistMatrix1D<double>::from_global(c, mesh2d<double>(4));
    SpgemmPlan1D<double> empty;
    empty.execute(c, d, d);
  }),
               std::invalid_argument);
}

}  // namespace
}  // namespace sa1d
