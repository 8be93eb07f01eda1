// Overlapped-execution regression suite (DESIGN.md §10): every exchange has
// one pipelined implementation over the nonblocking primitives, and overlap
// must be an *attribution-only* transform — a deterministic collective
// sequence, bit-identical results for every backend × semiring ×
// fresh/replay combination, and a modeled comm total split into waited
// (comm_s) + hidden (overlap_s) that reconciles exactly with what the
// blocking primitives charge for the same traffic. Faults injected
// mid-overlap must contain (typed error on every rank, never a hang).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "dist/dist_plan.hpp"
#include "dist/dist_spgemm.hpp"
#include "runtime/errors.hpp"
#include "runtime/fault.hpp"
#include "runtime/machine.hpp"
#include "sparse/generators.hpp"
#include "sparse/ops.hpp"

namespace sa1d {
namespace {

// Small-integer values keep every ⊕ order exact in doubles, so results can
// be compared *bit-identical* to the serial reference, not approximately.
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

std::vector<std::uint64_t> counters_of(const RankReport& r) {
  return {r.bytes_intra,      r.bytes_inter,      r.msgs_intra,       r.msgs_inter,
          r.sent_bytes_intra, r.sent_bytes_inter, r.sent_msgs_intra,  r.sent_msgs_inter,
          r.rdma_bytes,       r.rdma_msgs,        r.rdma_bytes_inter, r.rdma_msgs_inter,
          r.bytes_local,      r.comm_ops};
}

constexpr Algo kBackends[] = {Algo::SparseAware1D, Algo::Summa2D, Algo::Split3D};

/// Fresh + replay through one cached plan: the two gathered results, the
/// run's reports, and each rank's counters priced by the α–β model
/// (CostModel::comm_seconds — what blocking receives charge as waited).
struct BackendRun {
  CscMatrix<double> fresh, replay;
  RunReport rep;
  std::vector<double> priced;
};

template <typename SRIn>
BackendRun run_backend(int P, const CscMatrix<double>& a, Algo algo) {
  Machine m(P);
  BackendRun out;
  out.rep = m.run([&](Comm& c) {
    auto da = DistMatrix1D<double>::from_global(c, a);
    DistSpgemmOptions opt;
    opt.algo = algo;
    DistSpgemmPlan<double, ResolveSemiring<SRIn, double>> plan;
    auto c1 = spgemm_dist_cached<SRIn>(c, plan, da, da, opt);
    auto c2 = spgemm_dist_cached<SRIn>(c, plan, da, da, opt);
    auto g1 = c1.gather(c);
    auto g2 = c2.gather(c);
    if (c.rank() == 0) {
      out.fresh = std::move(g1);
      out.replay = std::move(g2);
    }
  });
  for (const auto& r : out.rep.ranks) out.priced.push_back(m.cost().comm_seconds(r));
  return out;
}

template <typename SRIn>
void check_backend_semiring(const CscMatrix<double>& a, const CscMatrix<double>& want,
                            const char* sr_name) {
  const int P = 4;
  for (Algo algo : kBackends) {
    SCOPED_TRACE(std::string(algo_name(algo)) + " x " + sr_name);
    auto run1 = run_backend<SRIn>(P, a, algo);
    auto run2 = run_backend<SRIn>(P, a, algo);

    // Correctness + determinism: fresh == replay == reference.
    EXPECT_TRUE(bit_equal(run1.fresh, want));
    EXPECT_TRUE(bit_equal(run1.replay, want));

    for (int r = 0; r < P; ++r) {
      const auto rk = static_cast<std::size_t>(r);
      const auto& ro = run1.rep.ranks[rk];
      // The op sequence and traffic do not depend on when requests happen
      // to complete — this is what keeps FaultPlan op_index coordinates
      // stable from run to run.
      EXPECT_EQ(counters_of(ro), counters_of(run2.rep.ranks[rk])) << "rank " << r;
      // Overlap only re-attributes the modeled comm total between waited
      // (comm_s) and hidden (overlap_s): together they are exactly what the
      // blocking primitives would have charged for the same messages.
      EXPECT_NEAR(ro.comm_s + ro.overlap_s, run1.priced[rk], 1e-9 + 1e-6 * run1.priced[rk])
          << "rank " << r;
      EXPECT_GE(ro.overlap_s, 0.0) << "rank " << r;
    }
  }
}

// ---- differential bit-identity: backends × semirings × fresh/replay --------

TEST(Overlap, PlusTimesBitIdenticalAcrossBackends) {
  auto a = with_integer_values(erdos_renyi<double>(130, 4.0, 71), 60);
  auto want = spgemm_local<PlusTimes<double>, double>(a, a, LocalKernel::Spa);
  check_backend_semiring<void>(a, want, "plus-times");
}

TEST(Overlap, MinPlusBitIdenticalAcrossBackends) {
  auto a = with_integer_values(erdos_renyi<double>(130, 4.0, 72), 61);
  auto want = spgemm_local<MinPlus<double>, double>(a, a, LocalKernel::Spa);
  check_backend_semiring<MinPlus<double>>(a, want, "min-plus");
}

TEST(Overlap, OrAndBitIdenticalAcrossBackends) {
  auto a = with_integer_values(erdos_renyi<double>(130, 4.0, 73), 62);
  auto want = spgemm_local<OrAnd, double>(a, a, LocalKernel::Spa);
  check_backend_semiring<OrAnd>(a, want, "or-and");
}

// ---- the nonblocking primitives against their blocking references ----------

TEST(Overlap, NonblockingPrimitivesChargeWhatBlockingOnesDo) {
  // ialltoallv / iget move the same payloads as alltoallv / get and record
  // the same counters; their waited + hidden comm equals
  // the blocking comm_s, and the blocking primitives hide nothing.
  const int P = 4;
  auto payloads = [](Comm& c, std::vector<std::vector<int>>& send, std::vector<double>& win) {
    send.assign(static_cast<std::size_t>(P), {});
    for (int p = 0; p < P; ++p)
      send[static_cast<std::size_t>(p)].assign(static_cast<std::size_t>(c.rank() + p), p);
    win.assign(32, static_cast<double>(c.rank()));
  };
  std::vector<int> same(static_cast<std::size_t>(P), 0);
  Machine blocking_m(P);
  auto blocking = blocking_m.run([&](Comm& c) {
    std::vector<double> win, got(8);
    std::vector<std::vector<int>> send;
    payloads(c, send, win);
    (void)c.alltoallv(send);
    Window w = c.expose(std::span<const double>(win));
    c.get(w, (c.rank() + 1) % P, 4, 8, got.data());
    c.barrier();
  });
  Machine nonblocking_m(P);
  auto nonblocking = nonblocking_m.run([&](Comm& c) {
    std::vector<double> win, got(8);
    std::vector<std::vector<int>> send;
    payloads(c, send, win);
    auto a = c.ialltoallv(std::move(send));
    Window w = c.expose(std::span<const double>(win));
    auto g = c.iget(w, (c.rank() + 1) % P, 4, 8, got.data());
    bool ok = true;
    for (int p = 0; p < P; ++p) {
      const auto chunk = a.take_from(p);
      ok = ok && chunk.size() == static_cast<std::size_t>(p + c.rank());
    }
    g.wait();
    ok = ok && got[0] == static_cast<double>((c.rank() + 1) % P);
    c.barrier();
    same[static_cast<std::size_t>(c.rank())] = ok ? 1 : 0;
  });
  for (int r = 0; r < P; ++r) {
    const auto& rb = blocking.ranks[static_cast<std::size_t>(r)];
    const auto& rn = nonblocking.ranks[static_cast<std::size_t>(r)];
    EXPECT_EQ(same[static_cast<std::size_t>(r)], 1) << "rank " << r;
    EXPECT_EQ(counters_of(rn), counters_of(rb)) << "rank " << r;
    EXPECT_NEAR(rn.comm_s + rn.overlap_s, rb.comm_s, 1e-12 + 1e-9 * rb.comm_s) << "rank " << r;
    EXPECT_EQ(rb.overlap_s, 0.0) << "rank " << r;  // blocking hides nothing, exactly
    const double priced = blocking_m.cost().comm_seconds(rb);
    EXPECT_NEAR(rb.comm_s, priced, 1e-12 + 1e-9 * priced) << "rank " << r;
  }
}

// ---- overlap accounting ----------------------------------------------------

TEST(Overlap, StagePipelinedBackendsHideCommBehindCompute) {
  // The double-buffered SUMMA stages and the pipelined split fold must
  // actually hide time: some rank's overlap_s > 0, and hidden time must
  // never appear in the waited column too (no double counting — checked
  // against the counter-priced totals in the differential tests above).
  auto a = with_integer_values(erdos_renyi<double>(160, 5.0, 74), 63);
  for (Algo algo : {Algo::Summa2D, Algo::Split3D}) {
    SCOPED_TRACE(algo_name(algo));
    auto ov = run_backend<void>(4, a, algo);
    double hidden = 0.0;
    for (const auto& r : ov.rep.ranks) hidden += r.overlap_s;
    EXPECT_GT(hidden, 0.0);
  }
}

TEST(Overlap, Sa1dPrefetchRespectsInflightBudgetAndStaysBitIdentical) {
  // Algorithm 2 with K = 8 plans several gets per remote owner, so every
  // rank issues more gets than the kPrefetchInflight staging ring holds and
  // the ring wraps: the result must still be bit-identical.
  auto a = with_integer_values(erdos_renyi<double>(130, 4.0, 75), 64);
  auto want = spgemm_local<PlusTimes<double>, double>(a, a, LocalKernel::Spa);
  Machine m(4);
  std::vector<int> match(4, 0);
  std::vector<index_t> gets(4, 0);
  m.run([&](Comm& c) {
    auto da = DistMatrix1D<double>::from_global(c, a);
    Spgemm1dOptions opt;
    opt.block_fetch_k = 8;
    SpgemmPlan1D<double, PlusTimes<double>> plan(c, da, da, opt);
    Spgemm1dInfo info;
    auto got = plan.execute_verified(c, da, da, &info);
    gets[static_cast<std::size_t>(c.rank())] = info.rdma_calls;
    match[static_cast<std::size_t>(c.rank())] = bit_equal(got.gather(c), want) ? 1 : 0;
  });
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(match[static_cast<std::size_t>(r)], 1) << r;
    EXPECT_GT(static_cast<std::size_t>(gets[static_cast<std::size_t>(r)]), kPrefetchInflight)
        << r;
  }
}

// ---- faults mid-overlap ----------------------------------------------------

/// One rank's outcome under injected faults (mirrors test_fault.cpp).
struct RankOutcome {
  bool ok = false;
  FaultClass cls = FaultClass::None;
  std::string what;
};

TEST(Overlap, ChaosMidOverlapContainsOrHealsOnEveryRank) {
  // Inject rank-abort and payload corruption *while nonblocking requests are
  // in flight* (op coordinates probed from a clean run). Contract per cell:
  // either every rank completes bit-identically (corruption healed by
  // integrity replay) or every rank raises the same typed error — and the
  // machine never hangs.
  auto a = with_integer_values(erdos_renyi<double>(110, 4.0, 77), 66);
  auto want = spgemm_local<PlusTimes<double>, double>(a, a, LocalKernel::Spa);
  const int P = 4;
  const FaultKind kinds[] = {FaultKind::RankAbort, FaultKind::CollectiveCorrupt,
                             FaultKind::RdmaCorrupt};

  for (Algo algo : kBackends) {
    DistSpgemmOptions opt;
    opt.algo = algo;
    opt.max_recovery_retries = 4;

    // Probe the op-count window of the fresh+replay workload on a clean
    // machine; inject into the middle of it (mid-overlap on the stage-
    // pipelined backends: requests for later stages are already posted).
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
