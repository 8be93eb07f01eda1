// Partition-aware planning suite (DESIGN.md §12): cross-backend differential
// correctness of non-identity orderings (the permuted multiply, inverse
// scattered, must be bit-identical to the identity run), cached-permutation
// replay accounting (zero partition seconds and zero reorder collective
// bytes on a value-matched reuse; value-only forward replay otherwise),
// Auto's joint (backend × ordering) decision on clustered structure, the
// silent Identity degrade for ineligible operands, and chaos containment of
// a rank abort mid-permute.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "dist/dist_plan.hpp"
#include "dist/dist_spgemm.hpp"
#include "part/partitioner.hpp"
#include "part/permutation.hpp"
#include "runtime/fault.hpp"
#include "runtime/machine.hpp"
#include "sparse/generators.hpp"
#include "sparse/ops.hpp"
#include "util/rng.hpp"

namespace sa1d {
namespace {

// Small-integer values keep every ⊕ order exact in doubles, so permuted runs
// can be asserted *bit-identical* against the identity reference.
CscMatrix<double> with_integer_values(const CscMatrix<double>& a, std::uint64_t seed) {
  SplitMix64 g(seed);
  std::vector<double> v(a.vals().size());
  for (auto& x : v) x = static_cast<double>(1 + g.below(7));
  return CscMatrix<double>(a.nrows(), a.ncols(), a.colptr(), a.rowids(), std::move(v));
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

/// Destroys the natural block ordering of a generator output with a seeded
/// random symmetric relabeling, so a partitioned ordering has real work to
/// do (the identity ordering scatters every cluster across all ranks).
CscMatrix<double> scrambled(const CscMatrix<double>& a, std::uint64_t seed) {
  auto p = random_permutation(a.ncols(), seed);
  return permute_symmetric(a, p);
}

/// Rectangular uniform-random matrix (the eligibility tests need shapes the
/// square generators cannot produce).
CscMatrix<double> rect(index_t nr, index_t nc, int edges, std::uint64_t seed) {
  CooMatrix<double> c(nr, nc);
  SplitMix64 g(seed);
  for (int e = 0; e < edges; ++e)
    c.push(static_cast<index_t>(g.below(static_cast<std::uint64_t>(nr))),
           static_cast<index_t>(g.below(static_cast<std::uint64_t>(nc))),
           static_cast<double>(1 + g.below(5)));
  c.canonicalize();
  return CscMatrix<double>::from_coo(c);
}

// ---- cross-backend differential -------------------------------------------

TEST(ReorderDifferential, AllBackendsBothSemiringsMatchIdentity) {
  auto a = with_integer_values(scrambled(block_clustered<double>(180, 6, 6.0, 1.0, 21), 3), 1);
  auto b = with_integer_values(erdos_renyi<double>(180, 4.0, 22), 2);
  auto want_pt = spgemm_local<PlusTimes<double>, double>(a, b, LocalKernel::Spa);
  auto want_mp = spgemm_local<MinPlus<double>, double>(a, b, LocalKernel::Spa);
  for (int P : {5, 6}) {  // prime and composite (rectangular grids)
    Machine m(P);
    m.run([&](Comm& c) {
      auto da = DistMatrix1D<double>::from_global(c, a);
      auto db = DistMatrix1D<double>::from_global(c, b);
      for (Algo algo : {Algo::SparseAware1D, Algo::Summa2D, Algo::Split3D}) {
        for (Ordering ord : {Ordering::Partitioned, Ordering::Random}) {
          DistSpgemmOptions opt;
          opt.algo = algo;
          opt.reorder = ord;
          DistSpgemmStats st;
          auto got = spgemm_dist(c, da, db, opt, &st);
          EXPECT_EQ(st.ordering, ord) << algo_name(algo);
          // C comes back in the *caller's* ordering and distribution.
          EXPECT_EQ(got.bounds(), da.bounds()) << algo_name(algo);
          EXPECT_TRUE(bit_equal(got.gather(c), want_pt))
              << "plus-times " << algo_name(algo) << " " << ordering_name(ord) << " P=" << P;
          auto got_mp = spgemm_dist<MinPlus<double>>(c, da, db, opt);
          EXPECT_TRUE(bit_equal(got_mp.gather(c), want_mp))
              << "min-plus " << algo_name(algo) << " " << ordering_name(ord) << " P=" << P;
          if (ord == Ordering::Partitioned) {
            EXPECT_GT(st.partition_seconds, 0.0);
            EXPECT_LT(st.reorder_cut_fraction, 1.0);
          }
          EXPECT_GT(st.reorder_coll_bytes, 0u);  // structure gather + permutes
        }
      }
    });
  }
}

TEST(ReorderDifferential, SquaringAliasedOperands) {
  auto a = with_integer_values(scrambled(block_clustered<double>(160, 4, 6.0, 1.0, 23), 5), 3);
  auto want = spgemm_local<PlusTimes<double>, double>(a, a, LocalKernel::Spa);
  Machine m(4);
  m.run([&](Comm& c) {
    auto da = DistMatrix1D<double>::from_global(c, a);
    DistSpgemmOptions opt;
    opt.reorder = Ordering::Partitioned;
    for (Algo algo : {Algo::SparseAware1D, Algo::Summa2D}) {
      opt.algo = algo;
      auto got = spgemm_dist(c, da, da, opt);
      EXPECT_TRUE(bit_equal(got.gather(c), want)) << algo_name(algo);
    }
  });
}

// ---- plan replay accounting ------------------------------------------------

TEST(ReorderReplay, ValueMatchedReuseSkipsPartitionAndMovement) {
  auto a = with_integer_values(scrambled(block_clustered<double>(200, 8, 6.0, 1.0, 31), 7), 4);
  auto b = with_integer_values(scrambled(block_clustered<double>(200, 8, 6.0, 1.0, 31), 7), 5);
  auto want = spgemm_local<PlusTimes<double>, double>(a, b, LocalKernel::Spa);
  const int P = 4;
  Machine m(P);
  std::vector<DistSpgemmStats> build(P), reuse(P);
  m.run([&](Comm& c) {
    auto da = DistMatrix1D<double>::from_global(c, a);
    auto db = DistMatrix1D<double>::from_global(c, b);
    DistSpgemmOptions opt;
    opt.algo = Algo::Summa2D;
    opt.reorder = Ordering::Partitioned;
    opt.expected_iterations = 6;
    DistSpgemmPlan<double> plan;
    auto c1 = spgemm_dist_cached(c, plan, da, db, opt, &build[static_cast<std::size_t>(c.rank())]);
    auto c2 = spgemm_dist_cached(c, plan, da, db, opt, &reuse[static_cast<std::size_t>(c.rank())]);
    EXPECT_TRUE(bit_equal(c1.gather(c), want));
    EXPECT_TRUE(bit_equal(c2.gather(c), want));
  });
  for (int r = 0; r < P; ++r) {
    const auto& b0 = build[static_cast<std::size_t>(r)];
    const auto& r1 = reuse[static_cast<std::size_t>(r)];
    EXPECT_FALSE(b0.plan_reused) << r;
    EXPECT_EQ(b0.ordering, Ordering::Partitioned) << r;
    EXPECT_GT(b0.partition_seconds, 0.0) << r;
    EXPECT_GT(b0.reorder_coll_bytes, 0u) << r;
    // The replay contract: a value-matched reuse runs the multiply on the
    // cached permuted operands — no partitioner, no operand movement, and
    // no collective bytes beyond the value-replay volume.
    EXPECT_TRUE(r1.plan_reused) << r;
    EXPECT_EQ(r1.ordering, Ordering::Partitioned) << r;
    EXPECT_DOUBLE_EQ(r1.partition_seconds, 0.0) << r;
    EXPECT_EQ(r1.reorder_coll_bytes, 0u) << r;
    EXPECT_EQ(r1.meta_coll_bytes, 0u) << r;
  }
}

TEST(ReorderReplay, ChangedValuesForwardReplayThroughCachedRoutes) {
  auto pat = scrambled(block_clustered<double>(200, 8, 6.0, 1.0, 33), 9);
  auto a0 = with_integer_values(pat, 6);
  auto a1 = with_integer_values(pat, 7);  // same structure, different values
  auto want1 = spgemm_local<PlusTimes<double>, double>(a1, a1, LocalKernel::Spa);
  const int P = 4;
  Machine m(P);
  std::vector<DistSpgemmStats> st(P);
  m.run([&](Comm& c) {
    auto d0 = DistMatrix1D<double>::from_global(c, a0);
    auto d1 = DistMatrix1D<double>::from_global(c, a1);
    DistSpgemmOptions opt;
    opt.algo = Algo::SparseAware1D;
    opt.reorder = Ordering::Partitioned;
    DistSpgemmPlan<double> plan;
    spgemm_dist_cached(c, plan, d0, d0, opt);
    auto c1 = spgemm_dist_cached(c, plan, d1, d1, opt, &st[static_cast<std::size_t>(c.rank())]);
    EXPECT_TRUE(bit_equal(c1.gather(c), want1));
  });
  for (int r = 0; r < P; ++r) {
    const auto& s = st[static_cast<std::size_t>(r)];
    EXPECT_TRUE(s.plan_reused) << r;
    // New values must flow forward through the cached routes (nonzero
    // reorder bytes) but the partitioner itself never reruns.
    EXPECT_DOUBLE_EQ(s.partition_seconds, 0.0) << r;
    EXPECT_GT(s.reorder_coll_bytes, 0u) << r;
  }
}

// ---- joint Auto decision ---------------------------------------------------

TEST(ReorderAuto, PicksPartitionedOrderingOnClusteredStructure) {
  // A scrambled block-clustered matrix: the identity ordering smears every
  // cluster across all ranks, so with an iterated horizon the amortized
  // partitioned ordering must win the joint decision — and the measured cut
  // must actually be small. The horizon is MCL-scale: the one-shot
  // partitioner cost is *real host seconds* (the rest of the prediction is
  // count-based at calibrated host rates), so at this small scale it takes
  // tens of replays to pay off.
  auto a = with_integer_values(scrambled(block_clustered<double>(256, 8, 8.0, 0.5, 41), 11), 8);
  const int P = 4;
  Machine m(P);
  std::vector<DistSpgemmStats> st(P);
  m.run([&](Comm& c) {
    auto da = DistMatrix1D<double>::from_global(c, a);
    DistSpgemmOptions opt;
    opt.algo = Algo::Auto;
    opt.reorder = Ordering::Auto;
    opt.expected_iterations = 96;
    spgemm_dist(c, da, da, opt, &st[static_cast<std::size_t>(c.rank())]);
  });
  for (int r = 0; r < P; ++r) {
    const auto& s = st[static_cast<std::size_t>(r)];
    EXPECT_EQ(s.requested_ordering, Ordering::Auto) << r;
    EXPECT_EQ(s.ordering, Ordering::Partitioned) << r;
    EXPECT_LT(s.reorder_cut_fraction, 0.5) << r;
    // The decision trace prices both orderings (rank-uniform).
    EXPECT_EQ(s.ordering, st[0].ordering) << r;
    EXPECT_EQ(s.chosen, st[0].chosen) << r;
  }
}

TEST(ReorderAuto, HiddenCommunityAlsoPartitioned) {
  auto a = with_integer_values(hidden_community<double>(256, 8, 8.0, 0.5, 71), 9);
  Machine m(4);
  std::vector<DistSpgemmStats> st(4);
  m.run([&](Comm& c) {
    auto da = DistMatrix1D<double>::from_global(c, a);
    DistSpgemmOptions opt;
    opt.algo = Algo::Auto;
    opt.reorder = Ordering::Auto;
    opt.expected_iterations = 64;
    spgemm_dist(c, da, da, opt, &st[static_cast<std::size_t>(c.rank())]);
  });
  for (int r = 0; r < 4; ++r)
    EXPECT_EQ(st[static_cast<std::size_t>(r)].ordering, Ordering::Partitioned) << r;
}

// ---- eligibility degrade ---------------------------------------------------

TEST(ReorderDegrade, RectangularOperandsSilentlyRunIdentity) {
  auto a = rect(120, 100, 480, 51);
  auto b = rect(100, 90, 400, 52);
  auto want = spgemm_local<PlusTimes<double>, double>(a, b, LocalKernel::Spa);
  Machine m(4);
  std::vector<DistSpgemmStats> st(4);
  m.run([&](Comm& c) {
    auto da = DistMatrix1D<double>::from_global(c, a);
    auto db = DistMatrix1D<double>::from_global(c, b);
    DistSpgemmOptions opt;
    opt.algo = Algo::Summa2D;
    opt.reorder = Ordering::Partitioned;
    auto got = spgemm_dist(c, da, db, opt, &st[static_cast<std::size_t>(c.rank())]);
    EXPECT_TRUE(bit_equal(got.gather(c), want));
  });
  for (int r = 0; r < 4; ++r) {
    const auto& s = st[static_cast<std::size_t>(r)];
    EXPECT_EQ(s.requested_ordering, Ordering::Partitioned) << r;
    EXPECT_EQ(s.ordering, Ordering::Identity) << r;
    EXPECT_DOUBLE_EQ(s.partition_seconds, 0.0) << r;
    EXPECT_EQ(s.reorder_coll_bytes, 0u) << r;
  }
}

// ---- chaos: abort mid-permute ----------------------------------------------

struct RankOutcome {
  bool ok = false;
  FaultClass cls = FaultClass::None;
  std::string what;
};

template <typename Body>
std::vector<RankOutcome> run_capture(Machine& m, Body&& body) {
  std::vector<RankOutcome> out(static_cast<std::size_t>(m.nranks()));
  m.run([&](Comm& c) {
    auto& o = out[static_cast<std::size_t>(c.rank())];
    try {
      body(c);
      o.ok = true;
    } catch (const Sa1dError& e) {
      o.cls = e.fault_class();
      o.what = dynamic_cast<const std::exception&>(e).what();
    } catch (const std::exception& e) {
      o.what = e.what();
    }
  });
  return out;
}

TEST(ReorderChaos, RankAbortMidPermuteFailsEveryRankTyped) {
  auto a = with_integer_values(scrambled(block_clustered<double>(160, 4, 6.0, 1.0, 61), 15), 12);
  auto g = graph_from_matrix(a);
  auto w = flops_vertex_weights(a);
  PartitionOptions popt;
  popt.nparts = 4;
  auto lay = partition_to_layout(partition_graph(g, w, popt).part, 4);

  auto workload = [&](Comm& c, std::uint64_t* pre, std::uint64_t* post) {
    auto da = DistMatrix1D<double>::from_global(c, a);
    if (pre != nullptr) *pre = c.report().comm_ops;
    auto pa = permute_symmetric_dist(c, da, lay.perm, lay.bounds);
    if (post != nullptr) *post = c.report().comm_ops;
  };

  std::vector<std::uint64_t> pre(4, 0), post(4, 0);
  Machine probe(4);
  probe.run([&](Comm& c) {
    workload(c, &pre[static_cast<std::size_t>(c.rank())],
             &post[static_cast<std::size_t>(c.rank())]);
  });

  const int victim = 1;
  ASSERT_GT(post[static_cast<std::size_t>(victim)], pre[static_cast<std::size_t>(victim)]);
  MachineOptions o;
  o.faults.actions.push_back(
      {.kind = FaultKind::RankAbort,
       .rank = victim,
       .op_index = (pre[static_cast<std::size_t>(victim)] +
                    post[static_cast<std::size_t>(victim)]) /
                   2});
  Machine m(4, {}, o);
  auto out = run_capture(m, [&](Comm& c) { workload(c, nullptr, nullptr); });
  for (int r = 0; r < 4; ++r) {
    EXPECT_FALSE(out[static_cast<std::size_t>(r)].ok) << r;
    EXPECT_EQ(out[static_cast<std::size_t>(r)].cls, FaultClass::Peer) << r;
  }
}

}  // namespace
}  // namespace sa1d
