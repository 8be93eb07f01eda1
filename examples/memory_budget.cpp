// Memory-bounded execution (DESIGN.md §13): the same squaring run three
// ways on a simulated 4-rank machine —
//   1. unbudgeted, to see the natural peak-triples high-water mark;
//   2. under a peak budget of half that, backend pinned: the planner
//      resolves a column-panel count (plus windowed ring hops / a bounded
//      stage window) that fits, and the result stays bit-identical;
//   3. the same budget with Algo::Auto: every monolithic plan is modeled
//      infeasible, and Auto crosses the cliff by picking a feasible
//      budgeted (backend × panelization) plan instead of failing.
//
//   ./memory_budget
#include <algorithm>
#include <cstdio>

#include "sa1d.hpp"

int main() {
  using namespace sa1d;

  auto a = block_clustered<double>(2048, 16, 6.0, 0.4, /*seed=*/7);
  std::printf("A: %lld x %lld, %lld nonzeros\n", static_cast<long long>(a.nrows()),
              static_cast<long long>(a.ncols()), static_cast<long long>(a.nnz()));

  auto peak_of = [](const RunReport& rep) {
    std::uint64_t mx = 0;
    for (const auto& r : rep.ranks) mx = std::max(mx, r.hwm_triples);
    return mx;
  };

  // 1. Unbudgeted: the anchor peak.
  CscMatrix<double> want;
  DistSpgemmStats st0;
  Machine m0(4);
  auto rep0 = m0.run([&](Comm& comm) {
    auto da = DistMatrix1D<double>::from_global(comm, a);
    DistSpgemmOptions opt;
    opt.algo = Algo::Summa2D;
    auto dc = spgemm_dist(comm, da, da, opt, &st0);
    want = dc.gather(comm);
  });
  const auto peak0 = peak_of(rep0);
  std::printf("unbudgeted summa2d: peak %llu triples (%d panel)\n",
              static_cast<unsigned long long>(peak0), st0.panels);

  // 2. Half the anchor, backend pinned: panels + streaming merges + a
  //    bounded stage window keep every rank under budget, bit-identically.
  const std::uint64_t budget = peak0 / 2 + 1;
  CscMatrix<double> got;
  DistSpgemmStats st1;
  Machine m1(4);
  auto rep1 = m1.run([&](Comm& comm) {
    auto da = DistMatrix1D<double>::from_global(comm, a);
    DistSpgemmOptions opt;
    opt.algo = Algo::Summa2D;
    opt.max_peak_triples = budget;
    auto dc = spgemm_dist(comm, da, da, opt, &st1);
    got = dc.gather(comm);
  });
  std::printf("budget %llu: summa2d ran %d panels, peak %llu triples (%s), result %s\n",
              static_cast<unsigned long long>(budget), st1.panels,
              static_cast<unsigned long long>(peak_of(rep1)),
              peak_of(rep1) <= budget ? "held" : "EXCEEDED",
              got == want ? "bit-identical" : "DIFFERS");

  // 3. Same budget, Auto: the feasibility cliff becomes a priced slope.
  DistSpgemmStats st2;
  Machine m2(4);
  auto rep2 = m2.run([&](Comm& comm) {
    auto da = DistMatrix1D<double>::from_global(comm, a);
    DistSpgemmOptions opt;
    opt.max_peak_triples = budget;
    auto dc = spgemm_dist(comm, da, da, opt, &st2);
    got = dc.gather(comm);
  });
  std::printf("budget %llu: Auto chose %s x %d panels, peak %llu triples, result %s\n",
              static_cast<unsigned long long>(budget), algo_name(st2.chosen), st2.panels,
              static_cast<unsigned long long>(peak_of(rep2)),
              got == want ? "bit-identical" : "DIFFERS");
  return 0;
}
