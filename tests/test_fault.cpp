// Fault injection, failure containment, and self-healing regression suite
// (DESIGN.md §9): seeded FaultPlan replayability, the barrier watchdog,
// rank-abort containment with RDMA windows exposed (including the
// sub-communicator barriers of the grid backends), integrity-mode corruption
// detection with bit-identical recovery through spgemm_dist_cached, the
// chaos sweep over backends × fault kinds × injection points, rank-consistent
// validation, Auto's veto degrade, horizon pricing, and the zero-overhead
// contract of the disabled fault layer.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <span>
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

// Small-integer values keep every ⊕ order exact in doubles, so a recovered
// result can be asserted *bit-identical* to the clean reference.
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

/// What one rank's SPMD body ended with: normal return, or a structured
/// error (class + message). The capture runs inside the body so a test can
/// assert the *per-rank* contract — same class and message everywhere —
/// which Machine::run's rethrow-first-error cannot show.
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

/// Comm-op counter snapshots around the iterated workload: injection
/// coordinates for "during plan build" ([pre, built)) and "during replay"
/// ([built, replayed)) land between these marks.
struct OpMarks {
  std::uint64_t pre = 0;       ///< after operand distribution
  std::uint64_t built = 0;     ///< after the plan-building first call
  std::uint64_t replayed = 0;  ///< after the value-only replay call
};

/// The iterated workload every containment test runs: distribute, build a
/// plan, replay it, gather, and compare against the serial reference.
bool iterate_backend(Comm& c, const CscMatrix<double>& a, const CscMatrix<double>& b,
                     const CscMatrix<double>& want, const DistSpgemmOptions& opt,
                     OpMarks* marks = nullptr, DistSpgemmStats* build_st = nullptr,
                     DistSpgemmStats* replay_st = nullptr) {
  auto da = DistMatrix1D<double>::from_global(c, a);
  auto db = DistMatrix1D<double>::from_global(c, b);
  if (marks != nullptr) marks->pre = c.report().comm_ops;
  DistSpgemmPlan<double> plan;
  auto c1 = spgemm_dist_cached(c, plan, da, db, opt, build_st);
  if (marks != nullptr) marks->built = c.report().comm_ops;
  auto c2 = spgemm_dist_cached(c, plan, da, db, opt, replay_st);
  if (marks != nullptr) marks->replayed = c.report().comm_ops;
  return bit_equal(c1.gather(c), want) && bit_equal(c2.gather(c), want);
}

// ---- fault plan + taxonomy -------------------------------------------------

TEST(Fault, FaultPlanSeedIsReplayable) {
  auto p1 = FaultPlan::from_seed(42, 8, 16, 10, 500);
  auto p2 = FaultPlan::from_seed(42, 8, 16, 10, 500);
  EXPECT_EQ(p1.actions, p2.actions);  // same seed => identical script
  EXPECT_NE(p1.actions, FaultPlan::from_seed(43, 8, 16, 10, 500).actions);
  ASSERT_EQ(p1.actions.size(), 16u);
  for (const auto& a : p1.actions) {
    EXPECT_GE(a.rank, 0);
    EXPECT_LT(a.rank, 8);
    EXPECT_GE(a.op_index, 10u);
    EXPECT_LT(a.op_index, 500u);
    EXPECT_NE(a.xor_mask, 0);  // a zero mask would be a no-op corruption
  }
}

TEST(Fault, ErrorTaxonomyCarriesClassAndContext) {
  const ErrorContext ctx{3, 17, "allgather"};
  EXPECT_EQ(ValidationError(ctx, "v").fault_class(), FaultClass::Validation);
  EXPECT_EQ(PeerFailure(ctx, "p").fault_class(), FaultClass::Peer);
  EXPECT_EQ(CorruptionDetected(ctx, "c").fault_class(), FaultClass::Corruption);
  EXPECT_EQ(PlanMismatch(ctx, "m").fault_class(), FaultClass::PlanMismatch);
  EXPECT_EQ(InjectedRankAbort(ctx, "a").fault_class(), FaultClass::Peer);
  EXPECT_EQ(CorruptionDetected(ctx, "c").context(), ctx);

  // Dual inheritance: legacy std:: handlers keep catching the new types.
  EXPECT_THROW(throw ValidationError(ctx, "v"), std::invalid_argument);
  EXPECT_THROW(throw CorruptionDetected(ctx, "c"), std::runtime_error);
  EXPECT_STREQ(fault_class_name(FaultClass::Corruption), "corruption");

  // The default PeerFailure keeps the legacy message older tests pin.
  EXPECT_STREQ(PeerFailure().what(), "sa1d: a peer rank failed during a collective");
}

// ---- containment -----------------------------------------------------------

TEST(Fault, BarrierWatchdogConvertsStuckBarrierToPeerFailure) {
  MachineOptions o;
  o.barrier_timeout = std::chrono::milliseconds(250);
  Machine m(4, {}, o);
  auto out = run_capture(m, [](Comm& c) {
    if (c.rank() == 0) return;  // simulated death: never arrives
    c.barrier();
  });
  EXPECT_TRUE(out[0].ok);
  for (int r = 1; r < 4; ++r) {
    EXPECT_FALSE(out[static_cast<std::size_t>(r)].ok) << r;
    EXPECT_EQ(out[static_cast<std::size_t>(r)].cls, FaultClass::Peer) << r;
    EXPECT_NE(out[static_cast<std::size_t>(r)].what.find("watchdog"), std::string::npos) << r;
  }
  // One coherent machine-wide record: identical message on every survivor.
  EXPECT_EQ(out[1].what, out[2].what);
  EXPECT_EQ(out[2].what, out[3].what);
}

TEST(Fault, RankAbortMidCollectiveWithWindowsExposed) {
  // The satellite regression for the old Comm::sync poison-check window: a
  // rank dies mid-collective while passive-target RDMA windows are exposed
  // and peers are blocked; every survivor must unwind with the identical
  // PeerFailure instead of hanging in the barrier.
  MachineOptions o;
  o.faults.actions.push_back({.kind = FaultKind::RankAbort, .rank = 1, .op_index = 23});
  Machine m(4, {}, o);
  auto out = run_capture(m, [](Comm& c) {
    std::vector<double> mine(32, c.rank() + 1.0);
    auto w = c.expose(std::span<const double>(mine));
    std::vector<double> buf(32);
    for (int i = 0; i < 40; ++i) {
      c.get(w, (c.rank() + 1) % c.size(), 0, 32, buf.data());
      c.barrier();  // window access epoch
      (void)c.allgather(i);
    }
  });
  EXPECT_FALSE(out[1].ok);
  EXPECT_EQ(out[1].cls, FaultClass::Peer);
  EXPECT_NE(out[1].what.find("injected rank abort"), std::string::npos);
  for (int r : {0, 2, 3}) {
    EXPECT_FALSE(out[static_cast<std::size_t>(r)].ok) << r;
    EXPECT_EQ(out[static_cast<std::size_t>(r)].cls, FaultClass::Peer) << r;
    EXPECT_NE(out[static_cast<std::size_t>(r)].what.find("aborted during"), std::string::npos)
        << r;
  }
  EXPECT_EQ(out[0].what, out[2].what);
  EXPECT_EQ(out[2].what, out[3].what);
}

TEST(Fault, AppExceptionInRankBodyParksAndUnwindsPeers) {
  // A rank body that throws an *application* exception (not a comm-layer
  // Sa1dError — e.g. a require() deep in user code) unwinds past every
  // rendezvous it still owed its peers. Machine::run's boundary handler must
  // convert that into the standard containment: raise the fatal Peer fault so
  // blocked peers wake promptly, park the failing rank until every peer has
  // quiesced, and surface the *original* exception — never a hang, never a
  // watchdog wait.
  MachineOptions o;
  o.barrier_timeout = std::chrono::milliseconds(20000);  // backstop only
  Machine m(4, {}, o);
  std::vector<RankOutcome> out(4);
  try {
    m.run([&](Comm& c) {
      auto& oc = out[static_cast<std::size_t>(c.rank())];
      if (c.rank() == 2) {
        (void)c.allgather(c.rank());  // let every peer start before dying
        throw std::runtime_error("app bug outside the comm layer");
      }
      try {
        (void)c.allgather(c.rank());
        for (int i = 0; i < 20; ++i) {
          c.barrier();
          (void)c.allgather(i);
        }
        oc.ok = true;
      } catch (const Sa1dError& e) {
        oc.cls = e.fault_class();
        oc.what = dynamic_cast<const std::exception&>(e).what();
      }
    });
    FAIL() << "the app exception must surface from Machine::run";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "app bug outside the comm layer");
  }
  for (int r : {0, 1, 3}) {
    EXPECT_FALSE(out[static_cast<std::size_t>(r)].ok) << r;
    EXPECT_EQ(out[static_cast<std::size_t>(r)].cls, FaultClass::Peer) << r;
    EXPECT_EQ(out[static_cast<std::size_t>(r)].what, out[0].what) << r;
  }
}

TEST(Fault, SubCommunicatorBarriersUnwindOnAbort) {
  // SUMMA splits the machine into row/col sub-communicators whose barriers
  // the old arrive_and_drop scheme could not poison — kill a rank mid-build
  // and require every rank (whichever sub-barrier it was blocked in) to
  // unwind with the Peer fault.
  auto a = with_integer_values(erdos_renyi<double>(96, 4.0, 5), 1);
  auto b = with_integer_values(erdos_renyi<double>(96, 4.0, 6), 2);
  auto want = spgemm_local<PlusTimes<double>, double>(a, b, LocalKernel::Spa);
  DistSpgemmOptions opt;
  opt.algo = Algo::Summa2D;

  std::vector<OpMarks> marks(4);
  Machine probe(4);
  probe.run([&](Comm& c) {
    iterate_backend(c, a, b, want, opt, &marks[static_cast<std::size_t>(c.rank())]);
  });

  const int victim = 2;
  const auto& mk = marks[static_cast<std::size_t>(victim)];
  MachineOptions o;
  o.faults.actions.push_back(
      {.kind = FaultKind::RankAbort, .rank = victim, .op_index = (mk.pre + mk.built) / 2});
  Machine m(4, {}, o);
  auto out = run_capture(m, [&](Comm& c) { iterate_backend(c, a, b, want, opt); });
  for (int r = 0; r < 4; ++r) {
    EXPECT_FALSE(out[static_cast<std::size_t>(r)].ok) << r;
    EXPECT_EQ(out[static_cast<std::size_t>(r)].cls, FaultClass::Peer) << r;
  }
}

TEST(Fault, RecoveryRendezvousTimesOutOnMissingRank) {
  MachineOptions o;
  o.barrier_timeout = std::chrono::milliseconds(250);
  Machine m(2, {}, o);
  auto out = run_capture(m, [](Comm& c) {
    if (c.rank() != 0) return;  // never joins the recovery rendezvous
    try {
      c.fail(FaultClass::Corruption, "test", "sa1d: scripted test corruption");
    } catch (const CorruptionDetected&) {
    }
    c.recover();
  });
  EXPECT_TRUE(out[1].ok);
  EXPECT_FALSE(out[0].ok);
  EXPECT_EQ(out[0].cls, FaultClass::Peer);
  EXPECT_NE(out[0].what.find("recovery rendezvous timed out"), std::string::npos);
}

// ---- integrity + self-healing replay --------------------------------------

TEST(Fault, CollectiveCorruptionDetectedAndHealedBitIdentically) {
  auto a = with_integer_values(erdos_renyi<double>(120, 4.0, 7), 3);
  auto b = with_integer_values(erdos_renyi<double>(120, 4.0, 8), 4);
  auto want = spgemm_local<PlusTimes<double>, double>(a, b, LocalKernel::Spa);
  DistSpgemmOptions opt;
  opt.algo = Algo::SparseAware1D;

  std::vector<OpMarks> marks(4);
  Machine probe(4);
  probe.run([&](Comm& c) {
    iterate_backend(c, a, b, want, opt, &marks[static_cast<std::size_t>(c.rank())]);
  });

  // Corrupt the victim's received chunk of the replay-vs-rebuild vote (the
  // first counted, payload-carrying op of the replay call).
  const int victim = 1;
  MachineOptions o;
  o.integrity = true;
  o.faults.actions.push_back({.kind = FaultKind::CollectiveCorrupt,
                              .rank = victim,
                              .op_index = marks[static_cast<std::size_t>(victim)].built + 1,
                              .byte_offset = 2});
  Machine m(4, {}, o);
  std::vector<DistSpgemmStats> rst(4);
  std::vector<int> match(4, 0);
  RunReport rep = m.run([&](Comm& c) {
    match[static_cast<std::size_t>(c.rank())] =
        iterate_backend(c, a, b, want, opt, nullptr, nullptr,
                        &rst[static_cast<std::size_t>(c.rank())])
            ? 1
            : 0;
  });
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(match[static_cast<std::size_t>(r)], 1) << r;
    EXPECT_EQ(rst[static_cast<std::size_t>(r)].recoveries, 1) << r;
    EXPECT_EQ(rep.ranks[static_cast<std::size_t>(r)].plan_recoveries, 1u) << r;
  }
}

TEST(Fault, RdmaCorruptionSweepHeals) {
  // Blanket the whole replay window of the RDMA-driven SA-1D backend with
  // scripted get corruptions: integrity mode must detect each one and the
  // bounded retry loop must converge to the bit-identical result, however
  // many recoveries that takes (each action fires at most once).
  auto a = with_integer_values(erdos_renyi<double>(120, 4.0, 9), 5);
  auto b = with_integer_values(erdos_renyi<double>(120, 4.0, 10), 6);
  auto want = spgemm_local<PlusTimes<double>, double>(a, b, LocalKernel::Spa);
  DistSpgemmOptions opt;
  opt.algo = Algo::SparseAware1D;

  std::vector<OpMarks> marks(4);
  Machine probe(4);
  probe.run([&](Comm& c) {
    iterate_backend(c, a, b, want, opt, &marks[static_cast<std::size_t>(c.rank())]);
  });

  const int victim = 3;
  const auto lo = marks[static_cast<std::size_t>(victim)].built;
  const auto hi = marks[static_cast<std::size_t>(victim)].replayed;
  ASSERT_LT(lo, hi);
  MachineOptions o;
  o.integrity = true;
  for (std::uint64_t k = lo; k < hi; ++k)
    o.faults.actions.push_back(
        {.kind = FaultKind::RdmaCorrupt, .rank = victim, .op_index = k, .byte_offset = k});
  opt.max_recovery_retries = static_cast<int>(hi - lo) + 2;

  Machine m(4, {}, o);
  std::vector<DistSpgemmStats> rst(4);
  std::vector<int> match(4, 0);
  RunReport rep = m.run([&](Comm& c) {
    match[static_cast<std::size_t>(c.rank())] =
        iterate_backend(c, a, b, want, opt, nullptr, nullptr,
                        &rst[static_cast<std::size_t>(c.rank())])
            ? 1
            : 0;
  });
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(match[static_cast<std::size_t>(r)], 1) << r;
    // All ranks recover together, the same number of times, at least once
    // (the SA-1D replay always fetches remote blocks here).
    EXPECT_GE(rst[static_cast<std::size_t>(r)].recoveries, 1) << r;
    EXPECT_EQ(rst[static_cast<std::size_t>(r)].recoveries, rst[0].recoveries) << r;
    EXPECT_EQ(rep.ranks[static_cast<std::size_t>(r)].plan_recoveries,
              static_cast<std::uint64_t>(rst[0].recoveries))
        << r;
  }
}

TEST(Fault, ExecuteVerifiedMismatchRaisesPlanMismatchEverywhere) {
  auto a = with_integer_values(erdos_renyi<double>(96, 4.0, 11), 7);
  auto b = with_integer_values(erdos_renyi<double>(96, 4.0, 12), 8);
  auto a2 = with_integer_values(erdos_renyi<double>(96, 2.0, 13), 9);  // other structure
  Machine m(4);
  auto out = run_capture(m, [&](Comm& c) {
    auto da = DistMatrix1D<double>::from_global(c, a);
    auto db = DistMatrix1D<double>::from_global(c, b);
    auto d2 = DistMatrix1D<double>::from_global(c, a2);
    DistSpgemmPlan<double> plan;
    DistSpgemmOptions opt;
    opt.algo = Algo::SparseAware1D;
    (void)plan.build(c, da, db, opt);
    (void)plan.execute_verified(c, d2, db);  // misuse: operands the plan never saw
  });
  for (int r = 0; r < 4; ++r) {
    EXPECT_FALSE(out[static_cast<std::size_t>(r)].ok) << r;
    EXPECT_EQ(out[static_cast<std::size_t>(r)].cls, FaultClass::PlanMismatch) << r;
    EXPECT_EQ(out[static_cast<std::size_t>(r)].what, out[0].what) << r;
  }
}

// ---- the chaos sweep -------------------------------------------------------

TEST(Fault, ChaosSweepAllBackendsAllFaultsBothPhases) {
  // 4 backends × 4 fault kinds × {plan-build, replay} injection points.
  // Contract per cell: either every rank completes with the bit-identical
  // result (faults absorbed or recovered), or every rank raises the same
  // structured error class — and peers the same message — and the machine
  // never hangs (the barrier watchdog is the backstop; ctest --timeout
  // backs it in CI).
  auto a = with_integer_values(erdos_renyi<double>(110, 4.0, 21), 14);
  auto b = with_integer_values(erdos_renyi<double>(110, 4.0, 22), 15);
  auto want = spgemm_local<PlusTimes<double>, double>(a, b, LocalKernel::Spa);
  const int P = 4;
  const Algo backends[] = {Algo::SparseAware1D, Algo::Summa2D, Algo::Split3D};
  const FaultKind kinds[] = {FaultKind::RankAbort, FaultKind::CollectiveCorrupt,
                             FaultKind::RdmaCorrupt, FaultKind::SlowRank};

  for (Algo algo : backends) {
    DistSpgemmOptions opt;
    opt.algo = algo;
    opt.max_recovery_retries = 4;
    std::vector<OpMarks> marks(static_cast<std::size_t>(P));
    Machine probe(P);
    probe.run([&](Comm& c) {
      iterate_backend(c, a, b, want, opt, &marks[static_cast<std::size_t>(c.rank())]);
    });

    for (FaultKind kind : kinds) {
      for (int point = 0; point < 2; ++point) {  // 0 = during build, 1 = during replay
        const int victim = point == 0 ? 1 : P - 1;
        const auto& mk = marks[static_cast<std::size_t>(victim)];
        const std::uint64_t op =
            point == 0 ? (mk.pre + mk.built) / 2 : (mk.built + mk.replayed) / 2;
        SCOPED_TRACE(std::string(algo_name(algo)) + " x " + fault_kind_name(kind) +
                     (point == 0 ? " @build op " : " @replay op ") + std::to_string(op));

        MachineOptions o;
        o.integrity = true;
        o.barrier_timeout = std::chrono::milliseconds(20000);
        o.faults.actions.push_back(
            {.kind = kind, .rank = victim, .op_index = op, .byte_offset = 7,
             .delay_us = 3000});
        Machine m(P, {}, o);
        std::vector<int> match(static_cast<std::size_t>(P), 0);
        auto out = run_capture(m, [&](Comm& c) {
          match[static_cast<std::size_t>(c.rank())] =
              iterate_backend(c, a, b, want, opt) ? 1 : 0;
        });

        const bool any_ok = out[0].ok;
        const int ref = victim == 0 ? 1 : 0;  // peer whose error message is canonical
        for (int r = 0; r < P; ++r) {
          const auto& o_r = out[static_cast<std::size_t>(r)];
          EXPECT_EQ(o_r.ok, any_ok) << "rank " << r << ": outcome not uniform";
          if (o_r.ok) {
            EXPECT_EQ(match[static_cast<std::size_t>(r)], 1) << "rank " << r;
          } else {
            EXPECT_EQ(o_r.cls, out[0].cls) << "rank " << r;
            if (r != victim)
              EXPECT_EQ(o_r.what, out[static_cast<std::size_t>(ref)].what) << "rank " << r;
          }
        }
      }
    }
  }
}

// ---- rank-consistent validation -------------------------------------------

TEST(Fault, ValidationIsRankConsistentAcrossP) {
  auto a = with_integer_values(erdos_renyi<double>(60, 3.0, 31), 20);
  auto bad = with_integer_values(erdos_renyi<double>(50, 3.0, 32), 21);  // inner-dim mismatch
  for (int P : {2, 5, 8}) {
    SCOPED_TRACE("P=" + std::to_string(P));
    Machine m(P);
    auto out = run_capture(m, [&](Comm& c) {
      auto da = DistMatrix1D<double>::from_global(c, a);
      auto db = DistMatrix1D<double>::from_global(c, bad);
      (void)spgemm_dist(c, da, db, DistSpgemmOptions{});
    });
    for (int r = 0; r < P; ++r) {
      EXPECT_FALSE(out[static_cast<std::size_t>(r)].ok) << r;
      EXPECT_EQ(out[static_cast<std::size_t>(r)].cls, FaultClass::Validation) << r;
      EXPECT_EQ(out[static_cast<std::size_t>(r)].what, out[0].what) << r;
    }

    // Rank-divergent options would send ranks down different collective
    // sequences — the entry vote must convert that into the identical
    // ValidationError everywhere instead.
    auto out2 = run_capture(m, [&](Comm& c) {
      auto da = DistMatrix1D<double>::from_global(c, a);
      DistSpgemmOptions opt;
      opt.expected_iterations = c.rank();  // diverges across ranks
      (void)spgemm_dist(c, da, da, opt);
    });
    for (int r = 0; r < P; ++r) {
      EXPECT_FALSE(out2[static_cast<std::size_t>(r)].ok) << r;
      EXPECT_EQ(out2[static_cast<std::size_t>(r)].cls, FaultClass::Validation) << r;
      EXPECT_NE(out2[static_cast<std::size_t>(r)].what.find("disagree across ranks"),
                std::string::npos)
          << r;
      EXPECT_EQ(out2[static_cast<std::size_t>(r)].what, out2[0].what) << r;
    }
  }
}

// ---- Auto degrade + horizon pricing ---------------------------------------

TEST(Fault, AutoDegradesToNextBackendOnVeto) {
  auto a = with_integer_values(erdos_renyi<double>(140, 5.0, 41), 30);
  auto b = with_integer_values(erdos_renyi<double>(140, 5.0, 42), 31);
  auto want = spgemm_local<PlusTimes<double>, double>(a, b, LocalKernel::Spa);
  DistSpgemmOptions opt;  // Algo::Auto

  std::vector<Algo> clean(4, Algo::Auto);
  Machine probe(4);
  probe.run([&](Comm& c) {
    auto da = DistMatrix1D<double>::from_global(c, a);
    auto db = DistMatrix1D<double>::from_global(c, b);
    DistSpgemmStats st;
    (void)spgemm_dist(c, da, db, opt, &st);
    clean[static_cast<std::size_t>(c.rank())] = st.chosen;
  });
  ASSERT_NE(clean[0], Algo::Auto);

  MachineOptions o;
  o.faults.actions.push_back(
      {.kind = FaultKind::BackendVeto, .veto_algo = static_cast<int>(clean[0])});
  Machine m(4, {}, o);
  // The one-shot call and a plan build walk the same degrade path.
  for (bool cached : {false, true}) {
    SCOPED_TRACE(cached ? "spgemm_dist_cached" : "spgemm_dist");
    std::vector<DistSpgemmStats> st(4);
    std::vector<int> match(4, 0);
    m.run([&](Comm& c) {
      auto da = DistMatrix1D<double>::from_global(c, a);
      auto db = DistMatrix1D<double>::from_global(c, b);
      auto& s = st[static_cast<std::size_t>(c.rank())];
      DistSpgemmPlan<double> plan;
      auto got = cached ? spgemm_dist_cached(c, plan, da, db, opt, &s)
                        : spgemm_dist(c, da, db, opt, &s);
      match[static_cast<std::size_t>(c.rank())] = bit_equal(got.gather(c), want) ? 1 : 0;
    });
    for (int r = 0; r < 4; ++r) {
      EXPECT_EQ(match[static_cast<std::size_t>(r)], 1) << r;
      EXPECT_NE(st[static_cast<std::size_t>(r)].chosen, clean[0]) << r;      // degraded away
      EXPECT_EQ(st[static_cast<std::size_t>(r)].chosen, st[0].chosen) << r;  // uniformly
      EXPECT_GE(st[static_cast<std::size_t>(r)].validation_failovers, 1) << r;
    }
  }

  // Explicitly requesting the vetoed backend is a rank-consistent
  // ValidationError, not a hang or a divergent dispatch.
  auto out = run_capture(m, [&](Comm& c) {
    auto da = DistMatrix1D<double>::from_global(c, a);
    auto db = DistMatrix1D<double>::from_global(c, b);
    DistSpgemmOptions exp;
    exp.algo = clean[0];
    (void)spgemm_dist(c, da, db, exp);
  });
  for (int r = 0; r < 4; ++r) {
    EXPECT_FALSE(out[static_cast<std::size_t>(r)].ok) << r;
    EXPECT_EQ(out[static_cast<std::size_t>(r)].cls, FaultClass::Validation) << r;
    EXPECT_NE(out[static_cast<std::size_t>(r)].what.find("vetoed by fault injection"),
              std::string::npos)
        << r;
    EXPECT_EQ(out[static_cast<std::size_t>(r)].what, out[0].what) << r;
  }
}

TEST(Fault, HorizonPricingUsesExpectedIterations) {
  auto a = with_integer_values(erdos_renyi<double>(120, 4.0, 51), 40);
  auto b = with_integer_values(erdos_renyi<double>(120, 4.0, 52), 41);
  auto want = spgemm_local<PlusTimes<double>, double>(a, b, LocalKernel::Spa);
  DistSpgemmOptions opt;  // Algo::Auto
  opt.expected_iterations = 8;
  Machine m(4);
  std::vector<DistSpgemmStats> bs(4), rs(4);
  std::vector<int> match(4, 0);
  m.run([&](Comm& c) {
    match[static_cast<std::size_t>(c.rank())] =
        iterate_backend(c, a, b, want, opt, nullptr, &bs[static_cast<std::size_t>(c.rank())],
                        &rs[static_cast<std::size_t>(c.rank())])
            ? 1
            : 0;
  });
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(match[static_cast<std::size_t>(r)], 1) << r;
    EXPECT_EQ(bs[static_cast<std::size_t>(r)].horizon_iters, 8) << r;
    EXPECT_EQ(rs[static_cast<std::size_t>(r)].horizon_iters, 8) << r;
    EXPECT_EQ(bs[static_cast<std::size_t>(r)].chosen, bs[0].chosen) << r;
    EXPECT_FALSE(bs[static_cast<std::size_t>(r)].predictions.empty()) << r;
  }
}

// ---- zero-overhead-when-off ------------------------------------------------

std::vector<std::uint64_t> counters_of(const RankReport& r) {
  return {r.bytes_intra,      r.bytes_inter,      r.msgs_intra,      r.msgs_inter,
          r.sent_bytes_intra, r.sent_bytes_inter, r.sent_msgs_intra, r.sent_msgs_inter,
          r.rdma_bytes,       r.rdma_msgs,        r.rdma_bytes_inter, r.rdma_msgs_inter,
          r.bytes_local,      r.comm_ops};
}

TEST(Fault, ZeroOverheadWhenFaultLayerIsOff) {
  // Integrity mode and a benign injector (straggler only) must leave every
  // byte/message/op counter and every result bit-identical to the plain
  // machine: the fault layer's own traffic is strictly uncounted.
  auto a = with_integer_values(erdos_renyi<double>(120, 4.0, 61), 50);
  auto b = with_integer_values(erdos_renyi<double>(120, 4.0, 62), 51);
  auto want = spgemm_local<PlusTimes<double>, double>(a, b, LocalKernel::Spa);

  auto run_one = [&](MachineOptions o) {
    Machine m(4, {}, o);
    std::vector<int> match(4, 0);
    RunReport rep = m.run([&](Comm& c) {
      DistSpgemmOptions sa;
      sa.algo = Algo::SparseAware1D;  // exercises RDMA windows
      DistSpgemmOptions su;
      su.algo = Algo::Summa2D;  // exercises sub-communicators + ibcast
      match[static_cast<std::size_t>(c.rank())] =
          (iterate_backend(c, a, b, want, sa) && iterate_backend(c, a, b, want, su)) ? 1 : 0;
    });
    for (int r = 0; r < 4; ++r) EXPECT_EQ(match[static_cast<std::size_t>(r)], 1) << r;
    return rep;
  };

  const RunReport base = run_one(MachineOptions{});
  MachineOptions integ;
  integ.integrity = true;
  const RunReport with_integrity = run_one(integ);
  MachineOptions slow;
  slow.faults.actions.push_back(
      {.kind = FaultKind::SlowRank, .rank = 1, .op_index = 5, .delay_us = 2000});
  const RunReport with_straggler = run_one(slow);

  for (int r = 0; r < 4; ++r) {
    const auto want_c = counters_of(base.ranks[static_cast<std::size_t>(r)]);
    EXPECT_EQ(counters_of(with_integrity.ranks[static_cast<std::size_t>(r)]), want_c)
        << "integrity changed counters on rank " << r;
    EXPECT_EQ(counters_of(with_straggler.ranks[static_cast<std::size_t>(r)]), want_c)
        << "straggler injection changed counters on rank " << r;
    EXPECT_EQ(base.ranks[static_cast<std::size_t>(r)].plan_recoveries, 0u);
  }
}

}  // namespace
}  // namespace sa1d
