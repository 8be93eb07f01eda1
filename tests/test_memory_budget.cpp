// Memory-bounded execution regression suite (DESIGN.md §13): budgeted
// execution — streaming merges, windowed ring hops, a bounded SUMMA stage
// window, and column-panel replay — must be a *footprint-only* transform relative to
// the monolithic call: bit-identical results for every backend × semiring ×
// fresh/replay × panel count; the measured peak-triples gauge must respect
// max_peak_triples whenever the planner deems a budget feasible; divergent
// budgets must raise the identical ValidationError on every rank; the gauge
// must reset per outermost call (high-water of THIS call, not the process);
// and Algo::Auto must route to a feasible budgeted (backend × panelization)
// plan at budgets where the monolithic plan is infeasible.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "dist/batch_spgemm.hpp"
#include "dist/dist_plan.hpp"
#include "dist/dist_spgemm.hpp"
#include "runtime/errors.hpp"
#include "runtime/fault.hpp"
#include "runtime/machine.hpp"
#include "runtime/plan_cache.hpp"
#include "sparse/generators.hpp"
#include "sparse/ops.hpp"

namespace sa1d {
namespace {

// Small-integer values keep every ⊕ order exact in doubles, so budgeted and
// monolithic results can be compared *bit-identical*, not approximately.
CscMatrix<double> with_integer_values(CscMatrix<double> a, std::uint64_t seed) {
  SplitMix64 g(seed);
  std::vector<double> v(a.vals().size());
  for (auto& x : v) x = static_cast<double>(1 + g.below(7));
  return CscMatrix<double>(a.nrows(), a.ncols(), a.colptr(), a.rowids(), std::move(v));
}

bool bit_equal(const CscMatrix<double>& got, const CscMatrix<double>& want) {
  return got.nrows() == want.nrows() && got.ncols() == want.ncols() &&
         got.colptr() == want.colptr() && got.rowids() == want.rowids() &&
         got.vals() == want.vals();
}

constexpr Algo kBackends[] = {Algo::SparseAware1D, Algo::Ring1D, Algo::Summa2D, Algo::Split3D};

struct ModeResult {
  CscMatrix<double> fresh, replay;
  RunReport rep;
  DistSpgemmStats fresh_stats, replay_stats;
};

/// Fresh + replay through one cached plan under the given options.
template <typename SRIn>
ModeResult run_mode(int P, const CscMatrix<double>& a, const DistSpgemmOptions& opt) {
  Machine m(P);
  ModeResult out;
  out.rep = m.run([&](Comm& c) {
    auto da = DistMatrix1D<double>::from_global(c, a);
    DistSpgemmPlan<double, ResolveSemiring<SRIn, double>> plan;
    DistSpgemmStats s1, s2;
    auto c1 = spgemm_dist_cached<SRIn>(c, plan, da, da, opt, &s1);
    auto c2 = spgemm_dist_cached<SRIn>(c, plan, da, da, opt, &s2);
    auto g1 = c1.gather(c);
    auto g2 = c2.gather(c);
    if (c.rank() == 0) {
      out.fresh = std::move(g1);
      out.replay = std::move(g2);
      out.fresh_stats = s1;
      out.replay_stats = s2;
    }
  });
  return out;
}

// ---- differential bit-identity: backends × semirings × modes × panels ------

template <typename SRIn>
void check_panels_bit_identical(const CscMatrix<double>& a, const CscMatrix<double>& want,
                                const char* sr_name) {
  const int P = 4;
  for (Algo algo : kBackends) {
    for (int panels : {1, 2, 8}) {
      SCOPED_TRACE(std::string(algo_name(algo)) + " x " + sr_name + " x panels=" +
                   std::to_string(panels));
      DistSpgemmOptions opt;
      opt.algo = algo;
      opt.panels = panels;
      auto r = run_mode<SRIn>(P, a, opt);
      EXPECT_TRUE(bit_equal(r.fresh, want));
      EXPECT_TRUE(bit_equal(r.replay, want));
      EXPECT_EQ(r.fresh_stats.panels, panels);
      EXPECT_EQ(r.replay_stats.panels, panels);
      EXPECT_GT(r.fresh_stats.peak_triples, 0u);
    }
  }
}

TEST(MemoryBudget, PlusTimesPanelsBitIdenticalAcrossBackendsAndModes) {
  auto a = with_integer_values(erdos_renyi<double>(130, 4.0, 81), 90);
  auto want = spgemm_local<PlusTimes<double>, double>(a, a, LocalKernel::Spa);
  check_panels_bit_identical<void>(a, want, "plus-times");
}

TEST(MemoryBudget, MinPlusPanelsBitIdenticalAcrossBackendsAndModes) {
  auto a = with_integer_values(erdos_renyi<double>(130, 4.0, 82), 91);
  auto want = spgemm_local<MinPlus<double>, double>(a, a, LocalKernel::Spa);
  check_panels_bit_identical<MinPlus<double>>(a, want, "min-plus");
}

// ---- budget sweep: measured peak respects the budget whenever feasible -----

TEST(MemoryBudget, FeasibleBudgetsBoundTheMeasuredPeak) {
  auto a = with_integer_values(erdos_renyi<double>(150, 5.0, 83), 92);
  auto want = spgemm_local<PlusTimes<double>, double>(a, a, LocalKernel::Spa);
  const int P = 4;
  for (Algo algo : kBackends) {
    // Unbudgeted baseline: the measured monolithic peak anchors the sweep.
    DistSpgemmOptions base;
    base.algo = algo;
    auto b0 = run_mode<void>(P, a, base);
    ASSERT_TRUE(bit_equal(b0.fresh, want));
    // Anchor on the machine-lifetime high-water mark: the per-call peak_*
    // fields reset at every outermost call, so after fresh+replay they only
    // describe the replay — hwm_* covers both.
    std::uint64_t peak0 = 0;
    for (const auto& r : b0.rep.ranks) peak0 = std::max(peak0, r.hwm_triples);
    ASSERT_GT(peak0, 0u);

    for (double frac : {4.0, 0.75, 0.5}) {
      const auto budget = static_cast<std::uint64_t>(static_cast<double>(peak0) * frac) + 1;
      SCOPED_TRACE(std::string(algo_name(algo)) + " budget=" + std::to_string(budget) +
                   " (frac " + std::to_string(frac) + " of measured peak " +
                   std::to_string(peak0) + ")");
      DistSpgemmOptions opt;
      opt.algo = algo;
      opt.max_peak_triples = budget;
      bool feasible = true;
      ModeResult r;
      try {
        r = run_mode<void>(P, a, opt);
      } catch (const ValidationError&) {
        feasible = false;  // planner declared every panelization over budget
      }
      if (!feasible) {
        // Infeasibility is only acceptable below the measured monolithic
        // peak; a 4× headroom budget must always be feasible.
        EXPECT_LT(frac, 1.0);
        continue;
      }
      EXPECT_TRUE(bit_equal(r.fresh, want));
      EXPECT_TRUE(bit_equal(r.replay, want));
      for (std::size_t rk = 0; rk < r.rep.ranks.size(); ++rk)
        EXPECT_LE(r.rep.ranks[rk].hwm_triples, budget) << "rank " << rk;
      EXPECT_LE(r.fresh_stats.peak_triples, budget);
      EXPECT_LE(r.replay_stats.peak_triples, budget);
    }
  }
}

// ---- a stage window smaller than the stage count ---------------------------

TEST(MemoryBudget, StageWindowBindsOnRectangularGrid) {
  // P = 6: SUMMA-2D runs on a 2×3 grid with lcm(2, 3) = 6 stages and
  // split-3D on two 1×3 layers with 3 stages, so the budgeted window (2
  // stages posted beyond the one being drained) is smaller than the stage
  // count and actually binds — the P = 4 cells above have only 2 stages.
  auto a = with_integer_values(erdos_renyi<double>(150, 5.0, 101), 102);
  auto want = spgemm_local<PlusTimes<double>, double>(a, a, LocalKernel::Spa);
  const int P = 6;
  for (Algo algo : {Algo::Summa2D, Algo::Split3D}) {
    DistSpgemmOptions base;
    base.algo = algo;
    auto b0 = run_mode<void>(P, a, base);
    ASSERT_TRUE(bit_equal(b0.fresh, want));
    std::uint64_t peak0 = 0;
    for (const auto& r : b0.rep.ranks) peak0 = std::max(peak0, r.hwm_triples);
    ASSERT_GT(peak0, 0u);

    DistSpgemmOptions opt = base;
    opt.max_peak_triples = 2 * peak0;
    SCOPED_TRACE(std::string(algo_name(algo)) +
                 " budget=" + std::to_string(opt.max_peak_triples));
    auto r = run_mode<void>(P, a, opt);
    EXPECT_TRUE(bit_equal(r.fresh, want));
    EXPECT_TRUE(bit_equal(r.replay, want));
    std::uint64_t peak = 0;
    for (const auto& rk : r.rep.ranks) peak = std::max(peak, rk.hwm_triples);
    EXPECT_LE(peak, opt.max_peak_triples);
    EXPECT_LE(peak, peak0) << "the bounded window staged more than posting every stage";
    EXPECT_LE(r.fresh_stats.peak_triples, opt.max_peak_triples);
    EXPECT_LE(r.replay_stats.peak_triples, opt.max_peak_triples);
  }
}

// ---- fused grid replays are budgeted like sequential ones ------------------

TEST(MemoryBudget, FusedGridReplayChargesStagingWithinBudget) {
  // A hot batch of SUMMA-2D replays over two tenants runs the fused stage
  // pipeline. Its stage staging must reach the gauge (a nonzero peak: the
  // hot batch's routes and scatter charge nothing) under the same bounded
  // window as the sequential replay, stay under the budget, and stay
  // bit-identical.
  std::vector<CscMatrix<double>> tenants{
      with_integer_values(erdos_renyi<double>(140, 5.0, 103), 104),
      with_integer_values(block_clustered<double>(140, 5, 4.0, 0.4, 105), 106)};
  std::vector<CscMatrix<double>> want;
  for (const auto& t : tenants)
    want.push_back(spgemm_local<PlusTimes<double>, double>(t, t, LocalKernel::Spa));
  const int P = 4;
  DistSpgemmOptions base;
  base.algo = Algo::Summa2D;
  std::uint64_t peak0 = 0;
  for (const auto& t : tenants) {
    auto b0 = run_mode<void>(P, t, base);
    for (const auto& r : b0.rep.ranks) peak0 = std::max(peak0, r.hwm_triples);
  }
  ASSERT_GT(peak0, 0u);
  DistSpgemmOptions opt = base;
  opt.max_peak_triples = 2 * peak0;

  Machine m(P);
  std::vector<int> identical(static_cast<std::size_t>(P), 0);
  std::vector<DistSpgemmStats> warm_st, hot_st;
  m.run([&](Comm& c) {
    PlanCache<double> cache;
    std::vector<DistMatrix1D<double>> ops;
    for (const auto& t : tenants) ops.push_back(DistMatrix1D<double>::from_global(c, t));
    std::vector<std::pair<const DistMatrix1D<double>*, const DistMatrix1D<double>*>> items;
    for (const auto& op : ops) items.push_back({&op, &op});
    std::vector<DistSpgemmStats> w, h;
    (void)spgemm_dist_batched(c, cache, items, opt, &w);  // builds both plans
    auto got = spgemm_dist_batched(c, cache, items, opt, &h);  // one fused group
    bool same = true;
    for (std::size_t i = 0; i < got.size(); ++i)
      same = bit_equal(got[i].gather(c), want[i]) && same;
    identical[static_cast<std::size_t>(c.rank())] = same ? 1 : 0;
    if (c.rank() == 0) {
      warm_st = w;
      hot_st = h;
    }
  });
  for (int r = 0; r < P; ++r) EXPECT_EQ(identical[static_cast<std::size_t>(r)], 1) << r;
  ASSERT_EQ(hot_st.size(), tenants.size());
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    SCOPED_TRACE("member " + std::to_string(i));
    EXPECT_EQ(warm_st[i].panels, 1);  // monolithic plans: the hot batch fuses
    EXPECT_TRUE(hot_st[i].plan_reused);
    EXPECT_GT(hot_st[i].peak_triples, 0u);
    EXPECT_LE(hot_st[i].peak_triples, opt.max_peak_triples);
  }
}

// ---- Auto crosses the feasibility cliff via panelization -------------------

TEST(MemoryBudget, AutoPicksFeasiblePanelizedPlanWhereMonolithicIsInfeasible) {
  auto a = with_integer_values(erdos_renyi<double>(150, 5.0, 84), 93);
  auto want = spgemm_local<PlusTimes<double>, double>(a, a, LocalKernel::Spa);
  const int P = 4;
  // Anchor on the SMALLEST monolithic fresh peak across the backends: half
  // of it is a budget no monolithic plan can hold (a calibrated peak model
  // therefore prices every panels=1 cell infeasible), so Auto must cross
  // the cliff by panelizing.
  std::uint64_t min_peak0 = ~std::uint64_t{0};
  for (Algo algo : kBackends) {
    DistSpgemmOptions base;
    base.algo = algo;
    auto b0 = run_mode<void>(P, a, base);
    ASSERT_TRUE(bit_equal(b0.fresh, want));
    std::uint64_t pk = 0;
    for (const auto& r : b0.rep.ranks) pk = std::max(pk, r.hwm_triples);
    min_peak0 = std::min(min_peak0, pk);
  }

  DistSpgemmOptions opt;
  opt.max_peak_triples = min_peak0 / 2 + 1;
  auto r = run_mode<void>(P, a, opt);  // must not throw: Auto finds a slope
  EXPECT_TRUE(bit_equal(r.fresh, want));
  EXPECT_TRUE(bit_equal(r.replay, want));
  EXPECT_GT(r.fresh_stats.panels, 1) << "half the measured peak must force panelization";
  for (std::size_t rk = 0; rk < r.rep.ranks.size(); ++rk)
    EXPECT_LE(r.rep.ranks[rk].hwm_triples, opt.max_peak_triples) << "rank " << rk;
  // The chosen cell's prediction carries the panel count and a modeled peak
  // within budget — the priced slope that replaced the feasibility cliff.
  bool found = false;
  for (const auto& pr : r.fresh_stats.predictions) {
    if (pr.algo == r.fresh_stats.chosen && pr.feasible && pr.panels == r.fresh_stats.panels &&
        (r.fresh_stats.chosen != Algo::Split3D || pr.layers == r.fresh_stats.layers)) {
      EXPECT_LE(pr.peak_triples, opt.max_peak_triples);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

// ---- divergent budgets fail validation everywhere ---------------------------

TEST(MemoryBudget, DivergentBudgetsFailValidationEverywhere) {
  auto a = with_integer_values(erdos_renyi<double>(80, 3.0, 85), 94);
  Machine m(4);
  std::vector<int> validation(4, 0);
  m.run([&](Comm& c) {
    auto da = DistMatrix1D<double>::from_global(c, a);
    DistSpgemmOptions opt;
    opt.algo = Algo::Summa2D;
    opt.max_peak_triples = c.rank() % 2 == 0 ? 100000 : 200000;  // diverges
    try {
      (void)spgemm_dist(c, da, da, opt);
    } catch (const ValidationError&) {
      validation[static_cast<std::size_t>(c.rank())] = 1;
    }
  });
  for (int r = 0; r < 4; ++r) EXPECT_EQ(validation[static_cast<std::size_t>(r)], 1) << r;
}

TEST(MemoryBudget, DivergentPanelCountsFailValidationEverywhere) {
  auto a = with_integer_values(erdos_renyi<double>(80, 3.0, 86), 95);
  Machine m(4);
  std::vector<int> validation(4, 0);
  m.run([&](Comm& c) {
    auto da = DistMatrix1D<double>::from_global(c, a);
    DistSpgemmOptions opt;
    opt.algo = Algo::Ring1D;
    opt.panels = c.rank() % 2 == 0 ? 2 : 4;  // diverges
    try {
      (void)spgemm_dist(c, da, da, opt);
    } catch (const ValidationError&) {
      validation[static_cast<std::size_t>(c.rank())] = 1;
    }
  });
  for (int r = 0; r < 4; ++r) EXPECT_EQ(validation[static_cast<std::size_t>(r)], 1) << r;
}

// ---- gauge discipline --------------------------------------------------------

TEST(MemoryBudget, PeakGaugeResetsPerOutermostCall) {
  // The high-water mark is per outermost call (MemGaugeScope depth guard):
  // after a big multiply, a small multiply's recorded peak must reflect only
  // its own transients — not the process lifetime maximum.
  auto big = with_integer_values(erdos_renyi<double>(200, 6.0, 87), 96);
  auto small = with_integer_values(erdos_renyi<double>(40, 2.0, 88), 97);
  Machine m(4);
  std::vector<std::uint64_t> peak_big(4, 0), peak_small(4, 0);
  m.run([&](Comm& c) {
    auto da = DistMatrix1D<double>::from_global(c, big);
    auto ds = DistMatrix1D<double>::from_global(c, small);
    DistSpgemmOptions opt;
    opt.algo = Algo::Summa2D;
    (void)spgemm_dist(c, da, da, opt);
    peak_big[static_cast<std::size_t>(c.rank())] = c.report().peak_triples;
    (void)spgemm_dist(c, ds, ds, opt);
    peak_small[static_cast<std::size_t>(c.rank())] = c.report().peak_triples;
  });
  for (int r = 0; r < 4; ++r) {
    EXPECT_GT(peak_big[static_cast<std::size_t>(r)], 0u) << r;
    EXPECT_LT(peak_small[static_cast<std::size_t>(r)], peak_big[static_cast<std::size_t>(r)])
        << r;
  }
}

TEST(MemoryBudget, CacheResidencyReportsThroughTheSharedGauge) {
  // Plan-cache residency and execution transients share one pressure path:
  // after a cached-serving call, the byte gauge holds the published cache
  // residency (execution transients released), and the call's peak covers
  // at least that residency.
  auto a = with_integer_values(erdos_renyi<double>(100, 4.0, 89), 98);
  Machine m(4);
  std::vector<int> ok(4, 0);
  m.run([&](Comm& c) {
    auto da = DistMatrix1D<double>::from_global(c, a);
    PlanCache<double> cache;
    DistSpgemmOptions opt;
    opt.algo = Algo::Ring1D;
    (void)spgemm_dist_cached_mt(c, cache, da, da, opt);
    const auto& r = c.report();
    ok[static_cast<std::size_t>(c.rank())] =
        (r.cache_bytes_resident > 0 && r.mem_cur_bytes == r.cache_bytes_resident &&
         r.peak_bytes >= r.cache_bytes_resident)
            ? 1
            : 0;
  });
  for (int r = 0; r < 4; ++r) EXPECT_EQ(ok[static_cast<std::size_t>(r)], 1) << r;
}

// ---- faults mid-panel ---------------------------------------------------------

struct RankOutcome {
  bool ok = false;
  FaultClass cls = FaultClass::None;
  std::string what;
};

TEST(MemoryBudget, ChaosMidPanelContainsOrHealsOnEveryRank) {
  // Inject rank-abort and payload corruption into the middle of a panelized
  // fresh+replay workload (the op window straddles panel boundaries).
  // Contract per cell, same as test_fault's chaos sweep: either every rank
  // completes bit-identically (corruption healed by integrity replay) or
  // every rank raises the same typed error — and the machine never hangs.
  auto a = with_integer_values(erdos_renyi<double>(110, 4.0, 78), 99);
  auto want = spgemm_local<PlusTimes<double>, double>(a, a, LocalKernel::Spa);
  const int P = 4;
  const FaultKind kinds[] = {FaultKind::RankAbort, FaultKind::CollectiveCorrupt};

  for (Algo algo : {Algo::Summa2D, Algo::Ring1D}) {
    DistSpgemmOptions opt;
    opt.algo = algo;
    opt.panels = 2;
    opt.max_recovery_retries = 4;

    std::vector<std::uint64_t> ops(static_cast<std::size_t>(P), 0);
    Machine probe(P);
    probe.run([&](Comm& c) {
      auto da = DistMatrix1D<double>::from_global(c, a);
      DistSpgemmPlan<double> plan;
      (void)spgemm_dist_cached(c, plan, da, da, opt);
      (void)spgemm_dist_cached(c, plan, da, da, opt);
      ops[static_cast<std::size_t>(c.rank())] = c.report().comm_ops;
    });

    for (FaultKind kind : kinds) {
      const int victim = 1;
      const std::uint64_t op = ops[static_cast<std::size_t>(victim)] / 2;
      SCOPED_TRACE(std::string(algo_name(algo)) + " x " + fault_kind_name(kind) + " @op " +
                   std::to_string(op));
      MachineOptions o;
      o.integrity = true;
      o.barrier_timeout = std::chrono::milliseconds(20000);
      o.faults.actions.push_back(
          {.kind = kind, .rank = victim, .op_index = op, .byte_offset = 5});
      Machine m(P, {}, o);
      std::vector<RankOutcome> out(static_cast<std::size_t>(P));
      std::vector<int> match(static_cast<std::size_t>(P), 0);
      m.run([&](Comm& c) {
        auto& oc = out[static_cast<std::size_t>(c.rank())];
        try {
          auto da = DistMatrix1D<double>::from_global(c, a);
          DistSpgemmPlan<double> plan;
          auto c1 = spgemm_dist_cached(c, plan, da, da, opt);
          auto c2 = spgemm_dist_cached(c, plan, da, da, opt);
          match[static_cast<std::size_t>(c.rank())] =
              (bit_equal(c1.gather(c), want) && bit_equal(c2.gather(c), want)) ? 1 : 0;
          oc.ok = true;
        } catch (const Sa1dError& e) {
          oc.cls = e.fault_class();
          oc.what = dynamic_cast<const std::exception&>(e).what();
        }
      });

      const bool any_ok = out[0].ok;
      for (int r = 0; r < P; ++r) {
        const auto& o_r = out[static_cast<std::size_t>(r)];
        EXPECT_EQ(o_r.ok, any_ok) << "rank " << r << ": outcome not uniform";
        if (o_r.ok) {
          EXPECT_EQ(match[static_cast<std::size_t>(r)], 1) << "rank " << r;
        } else {
          EXPECT_EQ(o_r.cls, out[0].cls) << "rank " << r;
          if (r != victim) EXPECT_EQ(o_r.what, out[0].what) << "rank " << r;
        }
      }
    }
  }
}

}  // namespace
}  // namespace sa1d
