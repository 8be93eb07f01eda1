// Property tests for the fetch planners. Algorithm 2 (fixed K): coverage,
// message bound, monotonicity in K. The α–β-optimal planner: brute-force
// optimality over every bridging subset, the threshold invariants, and the
// α = 0 / β = 0 / nothing / everything edge cases.
#include <gtest/gtest.h>

#include <tuple>
#include <utility>

#include "core/block_fetch.hpp"
#include "util/rng.hpp"

namespace sa1d {
namespace {

std::vector<bool> random_needed(index_t n, double density, std::uint64_t seed) {
  SplitMix64 g(seed);
  std::vector<bool> v(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) v[static_cast<std::size_t>(i)] = g.uniform() < density;
  return v;
}

void check_plan_invariants(const std::vector<FetchRange>& plan, index_t nzc, index_t k,
                           const std::vector<bool>& needed) {
  // Ranges disjoint, ascending, within bounds.
  index_t prev_end = 0;
  for (const auto& r : plan) {
    EXPECT_LE(prev_end, r.begin);
    EXPECT_LT(r.begin, r.end);
    EXPECT_LE(r.end, nzc);
    prev_end = r.end;
  }
  // Message bound: M <= K.
  EXPECT_LE(static_cast<index_t>(plan.size()), k);
  // Coverage: every needed position is inside some range.
  std::vector<bool> covered(static_cast<std::size_t>(nzc), false);
  for (const auto& r : plan)
    for (index_t p = r.begin; p < r.end; ++p) covered[static_cast<std::size_t>(p)] = true;
  for (index_t p = 0; p < nzc; ++p)
    if (needed[static_cast<std::size_t>(p)]) EXPECT_TRUE(covered[static_cast<std::size_t>(p)]);
}

TEST(BlockFetch, EmptyOwner) {
  auto plan = block_fetch_plan(0, 16, {});
  EXPECT_TRUE(plan.empty());
}

TEST(BlockFetch, NothingNeeded) {
  auto plan = block_fetch_plan(100, 8, std::vector<bool>(100, false));
  EXPECT_TRUE(plan.empty());
}

TEST(BlockFetch, EverythingNeededYieldsKGroups) {
  auto plan = block_fetch_plan(100, 8, std::vector<bool>(100, true));
  EXPECT_EQ(plan.size(), 8u);
  check_plan_invariants(plan, 100, 8, std::vector<bool>(100, true));
}

TEST(BlockFetch, KLargerThanNzc) {
  std::vector<bool> needed(5, true);
  auto plan = block_fetch_plan(5, 100, needed);
  EXPECT_EQ(plan.size(), 5u);  // one group per column at most
  check_plan_invariants(plan, 5, 100, needed);
}

TEST(BlockFetch, SingleColumnNeeded) {
  std::vector<bool> needed(1000, false);
  needed[537] = true;
  auto plan = block_fetch_plan(1000, 10, needed);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_LE(plan[0].begin, 537);
  EXPECT_GT(plan[0].end, 537);
  // One group of ~100 columns: the overshoot the paper trades for latency.
  EXPECT_EQ(plan[0].end - plan[0].begin, 100);
}

TEST(BlockFetch, PaperExampleK2) {
  // Fig 1: 2 blocks per owner; needing only the 2nd column of a 2-col block
  // still fetches the whole block.
  std::vector<bool> needed{false, true};
  auto plan = block_fetch_plan(2, 2, needed);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0], (FetchRange{1, 2}));
  // With K=1 (one block), the unneeded first column rides along.
  plan = block_fetch_plan(2, 1, needed);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0], (FetchRange{0, 2}));
}

TEST(BlockFetch, RejectsBadArgs) {
  EXPECT_THROW(block_fetch_plan(10, 0, std::vector<bool>(10)), std::invalid_argument);
  EXPECT_THROW(block_fetch_plan(10, 4, std::vector<bool>(9)), std::invalid_argument);
}

TEST(BlockFetch, PlanElements) {
  // cp = prefix of per-column nnz {3, 1, 4, 1}.
  std::vector<index_t> cp{0, 3, 4, 8, 9};
  std::vector<FetchRange> plan{{0, 2}, {3, 4}};
  EXPECT_EQ(plan_elements(plan, cp), 4 + 1);
}

class BlockFetchSweep : public ::testing::TestWithParam<std::tuple<int, int, double>> {};

TEST_P(BlockFetchSweep, InvariantsHold) {
  auto [nzc, k, density] = GetParam();
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    auto needed = random_needed(nzc, density, seed);
    auto plan = block_fetch_plan(nzc, k, needed);
    check_plan_invariants(plan, nzc, k, needed);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, BlockFetchSweep,
                         ::testing::Combine(::testing::Values(1, 7, 64, 1000),
                                            ::testing::Values(1, 4, 64, 2048),
                                            ::testing::Values(0.01, 0.3, 0.9)));

TEST(BlockFetch, LargerKNeverFetchesMoreElements) {
  // With finer granularity (larger K) the plan's element volume shrinks or
  // stays equal — the communication-volume half of the Fig 6 tradeoff.
  auto needed = random_needed(4096, 0.05, 99);
  std::vector<index_t> cp(4097);
  SplitMix64 g(3);
  for (std::size_t i = 1; i < cp.size(); ++i)
    cp[i] = cp[i - 1] + 1 + static_cast<index_t>(g.below(16));
  index_t prev = -1;
  for (index_t k : {1, 4, 16, 64, 256, 1024, 4096}) {
    auto plan = block_fetch_plan(4096, k, needed);
    index_t elems = plan_elements(plan, cp);
    if (prev >= 0) EXPECT_LE(elems, prev) << "K=" << k;
    prev = elems;
  }
}

/// Element prefix of nzc columns holding 1..max_per_col elements each
/// (DCSC stores only nonempty columns).
std::vector<index_t> random_cp(index_t nzc, std::uint64_t max_per_col, std::uint64_t seed) {
  SplitMix64 g(seed);
  std::vector<index_t> cp(static_cast<std::size_t>(nzc) + 1, 0);
  for (std::size_t i = 1; i < cp.size(); ++i)
    cp[i] = cp[i - 1] + 1 + static_cast<index_t>(g.below(max_per_col));
  return cp;
}

/// The model the planner minimizes. The tests use small integer rates so
/// every cost is exact in double.
double plan_cost(const std::vector<FetchRange>& plan, const std::vector<index_t>& cp,
                 double alpha, double beta) {
  return alpha * static_cast<double>(plan.size()) +
         beta * static_cast<double>(plan_elements(plan, cp));
}

/// Maximal runs of needed positions: the α = 0 plan.
std::vector<FetchRange> needed_runs(const std::vector<bool>& needed) {
  std::vector<FetchRange> runs;
  for (index_t p = 0; p < static_cast<index_t>(needed.size()); ++p) {
    if (!needed[static_cast<std::size_t>(p)]) continue;
    if (!runs.empty() && runs.back().end == p)
      ++runs.back().end;
    else
      runs.push_back({p, p + 1});
  }
  return runs;
}

const std::pair<double, double> kRates[] = {{0, 1},  {1, 0},  {1, 1}, {5, 1},
                                            {12, 1}, {40, 3}, {7, 2}, {1000, 1}};

void check_optimal_invariants(const std::vector<FetchRange>& plan, const std::vector<bool>& needed,
                              const std::vector<index_t>& cp, double alpha, double beta) {
  const auto nzc = static_cast<index_t>(needed.size());
  auto is_needed = [&](index_t p) { return needed[static_cast<std::size_t>(p)]; };
  auto elems = [&](index_t lo, index_t hi) {
    return static_cast<double>(cp[static_cast<std::size_t>(hi)] - cp[static_cast<std::size_t>(lo)]);
  };
  std::vector<bool> covered(needed.size(), false);
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const auto& r = plan[i];
    // Disjoint, ascending, in bounds, starting and ending on needed columns.
    ASSERT_LT(r.begin, r.end);
    ASSERT_LE(r.end, nzc);
    EXPECT_TRUE(is_needed(r.begin));
    EXPECT_TRUE(is_needed(r.end - 1));
    if (i > 0) {
      ASSERT_LT(plan[i - 1].end, r.begin);  // a gap separates two ranges
      // No gap below the threshold is left unbridged.
      EXPECT_GE(beta * elems(plan[i - 1].end, r.begin), alpha) << "gap left unbridged";
    }
    for (index_t p = r.begin; p < r.end; ++p) covered[static_cast<std::size_t>(p)] = true;
    // No gap at or above the threshold is bridged.
    for (index_t p = r.begin; p < r.end;) {
      if (is_needed(p)) {
        ++p;
        continue;
      }
      index_t q = p;
      while (q < r.end && !is_needed(q)) ++q;
      EXPECT_LT(beta * elems(p, q), alpha) << "gap [" << p << "," << q << ") bridged";
      p = q;
    }
  }
  for (index_t p = 0; p < nzc; ++p)
    if (is_needed(p)) EXPECT_TRUE(covered[static_cast<std::size_t>(p)]) << "pos " << p;
}

TEST(OptimalFetch, MatchesBruteForceOverEveryBridgingSubset) {
  SplitMix64 g(2024);
  for (int trial = 0; trial < 300; ++trial) {
    const auto nzc = static_cast<index_t>(1 + g.below(12));
    auto needed = random_needed(nzc, 0.2 + 0.6 * g.uniform(), g());
    auto cp = random_cp(nzc, 8, g());
    const auto runs = needed_runs(needed);
    const std::size_t gaps = runs.empty() ? 0 : runs.size() - 1;
    for (auto [alpha, beta] : kRates) {
      auto plan = optimal_fetch_plan(needed, cp, alpha, beta);
      check_optimal_invariants(plan, needed, cp, alpha, beta);
      // Every subset of bridged gaps is a covering plan; take the cheapest.
      double best = -1.0;
      for (std::uint32_t mask = 0; mask < (1u << gaps); ++mask) {
        std::vector<FetchRange> cand;
        for (std::size_t i = 0; i < runs.size(); ++i) {
          if (i > 0 && ((mask >> (i - 1)) & 1u) != 0)
            cand.back().end = runs[i].end;
          else
            cand.push_back(runs[i]);
        }
        const double c = plan_cost(cand, cp, alpha, beta);
        if (best < 0.0 || c < best) best = c;
      }
      if (runs.empty()) best = 0.0;
      EXPECT_EQ(plan_cost(plan, cp, alpha, beta), best)
          << "trial " << trial << " alpha " << alpha << " beta " << beta;
    }
  }
}

TEST(OptimalFetch, NeverCostsMoreThanAnyKPlan) {
  for (index_t nzc : {7, 64, 1000}) {
    for (double density : {0.05, 0.4, 0.95}) {
      for (std::uint64_t seed = 0; seed < 3; ++seed) {
        auto needed = random_needed(nzc, density, seed);
        auto cp = random_cp(nzc, 8, seed + 7);
        for (auto [alpha, beta] : kRates) {
          const double opt =
              plan_cost(optimal_fetch_plan(needed, cp, alpha, beta), cp, alpha, beta);
          for (index_t k : {1, 4, 64, 2048})
            EXPECT_LE(opt, plan_cost(block_fetch_plan(nzc, k, needed), cp, alpha, beta))
                << "nzc=" << nzc << " k=" << k;
        }
      }
    }
  }
}

class OptimalFetchSweep : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(OptimalFetchSweep, InvariantsHold) {
  auto [nzc, density] = GetParam();
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    auto needed = random_needed(nzc, density, seed);
    auto cp = random_cp(nzc, 16, seed + 11);
    for (auto [alpha, beta] : kRates)
      check_optimal_invariants(optimal_fetch_plan(needed, cp, alpha, beta), needed, cp, alpha,
                               beta);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, OptimalFetchSweep,
                         ::testing::Combine(::testing::Values(1, 7, 64, 1000),
                                            ::testing::Values(0.01, 0.3, 0.9)));

TEST(OptimalFetch, ZeroAlphaGivesOneRangePerRun) {
  auto needed = random_needed(500, 0.3, 5);
  auto cp = random_cp(500, 8, 6);
  EXPECT_EQ(optimal_fetch_plan(needed, cp, 0.0, 1.0), needed_runs(needed));
}

TEST(OptimalFetch, ZeroBetaGivesOneRangePerOwner) {
  auto needed = random_needed(500, 0.1, 7);
  auto cp = random_cp(500, 8, 8);
  const auto runs = needed_runs(needed);
  ASSERT_GT(runs.size(), 1u);
  auto plan = optimal_fetch_plan(needed, cp, 1.0, 0.0);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0], (FetchRange{runs.front().begin, runs.back().end}));
}

TEST(OptimalFetch, NothingNeededGivesEmptyPlan) {
  auto cp = random_cp(100, 4, 1);
  EXPECT_TRUE(optimal_fetch_plan(std::vector<bool>(100, false), cp, 1.0, 1.0).empty());
  EXPECT_TRUE(optimal_fetch_plan({}, std::vector<index_t>{0}, 1.0, 1.0).empty());
}

TEST(OptimalFetch, EverythingNeededGivesOneRange) {
  auto cp = random_cp(100, 4, 2);
  for (auto [alpha, beta] : kRates) {
    auto plan = optimal_fetch_plan(std::vector<bool>(100, true), cp, alpha, beta);
    ASSERT_EQ(plan.size(), 1u);
    EXPECT_EQ(plan[0], (FetchRange{0, 100}));
  }
}

TEST(OptimalFetch, ThresholdIsStrict) {
  // Runs {0} and {2} separated by one column of 4 elements: bridging costs
  // beta·4 and saves alpha, so it happens iff beta·4 < alpha.
  std::vector<bool> needed{true, false, true};
  std::vector<index_t> cp{0, 1, 5, 6};
  EXPECT_EQ(optimal_fetch_plan(needed, cp, 4.0, 1.0).size(), 2u);  // 4 == 4: not bridged
  EXPECT_EQ(optimal_fetch_plan(needed, cp, 4.5, 1.0).size(), 1u);
}

TEST(OptimalFetch, RejectsBadCp) {
  EXPECT_THROW(optimal_fetch_plan(std::vector<bool>(10), std::vector<index_t>(10), 1.0, 1.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace sa1d
