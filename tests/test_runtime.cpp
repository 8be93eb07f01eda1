// Tests for the simulated MPI runtime: collectives, windows, stats,
// sub-communicators, failure propagation, and the cost model.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>

#include "runtime/machine.hpp"

namespace sa1d {
namespace {

TEST(Machine, RejectsZeroRanks) { EXPECT_THROW(Machine(0), std::invalid_argument); }

TEST(Machine, SingleRankRuns) {
  Machine m(1);
  int seen = -1;
  m.run([&](Comm& c) { seen = c.rank(); });
  EXPECT_EQ(seen, 0);
}

TEST(Collectives, Allgather) {
  Machine m(6);
  m.run([](Comm& c) {
    auto all = c.allgather(c.rank() * 10);
    ASSERT_EQ(all.size(), 6u);
    for (int p = 0; p < 6; ++p) EXPECT_EQ(all[static_cast<std::size_t>(p)], p * 10);
  });
}

TEST(Collectives, AllgathervVariableSizes) {
  Machine m(5);
  m.run([](Comm& c) {
    std::vector<index_t> mine(static_cast<std::size_t>(c.rank()), c.rank());
    auto all = c.allgatherv(std::span<const index_t>(mine));
    for (int p = 0; p < 5; ++p) {
      ASSERT_EQ(all[static_cast<std::size_t>(p)].size(), static_cast<std::size_t>(p));
      for (auto v : all[static_cast<std::size_t>(p)]) EXPECT_EQ(v, p);
    }
  });
}

TEST(Collectives, AllgathervConcatOrdered) {
  Machine m(4);
  m.run([](Comm& c) {
    std::vector<int> mine{c.rank()};
    auto cat = c.allgatherv_concat(std::span<const int>(mine));
    EXPECT_EQ(cat, (std::vector<int>{0, 1, 2, 3}));
  });
}

TEST(Collectives, Alltoallv) {
  Machine m(4);
  m.run([](Comm& c) {
    std::vector<std::vector<int>> send(4);
    for (int p = 0; p < 4; ++p) send[static_cast<std::size_t>(p)] = {c.rank() * 100 + p};
    auto recv = c.alltoallv(send);
    for (int p = 0; p < 4; ++p) {
      ASSERT_EQ(recv[static_cast<std::size_t>(p)].size(), 1u);
      EXPECT_EQ(recv[static_cast<std::size_t>(p)][0], p * 100 + c.rank());
    }
  });
}

TEST(Collectives, AlltoallvSendAccountingMatchesPayload) {
  // Regression: the send side used to publish the outer std::vector header
  // size instead of the per-destination payload, so sent-byte counters
  // under-reported every all-to-all. Exact volumes: each rank sends one
  // int to each other rank (self-chunks are local, not network traffic).
  const int P = 4;
  Machine m(P);
  auto rep = m.run([](Comm& c) {
    std::vector<std::vector<int>> send(P);
    for (int p = 0; p < P; ++p) send[static_cast<std::size_t>(p)] = {c.rank() * 100 + p};
    c.alltoallv(send);
  });
  const std::uint64_t expect_bytes = P * (P - 1) * sizeof(int);
  EXPECT_EQ(rep.total_sent_bytes(), expect_bytes);
  EXPECT_EQ(rep.total_coll_bytes_received(), expect_bytes);
  EXPECT_EQ(rep.total_sent_msgs(), static_cast<std::uint64_t>(P * (P - 1)));
  EXPECT_EQ(rep.total_coll_msgs_received(), static_cast<std::uint64_t>(P * (P - 1)));
}

TEST(Collectives, SentEqualsReceivedMachineWide) {
  // The mirror invariant across a mix of every collective, including empty
  // and self-addressed chunks: machine-wide collective sent == received,
  // bytes and messages, with the intra/inter split consistent.
  CostParams cp;
  cp.ranks_per_node = 2;  // make the intra/inter split non-trivial
  Machine m(6, cp);
  auto rep = m.run([](Comm& c) {
    std::vector<std::vector<double>> send(6);
    for (int p = 0; p < 6; ++p)
      if ((c.rank() + p) % 2 == 0)
        send[static_cast<std::size_t>(p)].assign(static_cast<std::size_t>(p + 1),
                                                 1.0 * c.rank());
    c.alltoallv(send);
    c.allgather(c.rank());
    std::vector<index_t> mine(static_cast<std::size_t>(c.rank()), 7);
    c.allgatherv(std::span<const index_t>(mine));
    std::vector<int> data;
    if (c.rank() == 2) data.assign(33, 5);
    c.ibcast(data, 2).wait();
  });
  EXPECT_GT(rep.total_sent_bytes(), 0u);
  EXPECT_EQ(rep.total_sent_bytes(), rep.total_coll_bytes_received());
  EXPECT_EQ(rep.total_sent_msgs(), rep.total_coll_msgs_received());
  std::uint64_t sent_inter = 0, recv_inter = 0;
  for (const auto& r : rep.ranks) {
    sent_inter += r.sent_bytes_inter;
    recv_inter += r.bytes_inter - r.rdma_bytes_inter;
  }
  EXPECT_EQ(sent_inter, recv_inter);
}

TEST(Collectives, AlltoallvRejectsWrongSize) {
  Machine m(3);
  EXPECT_THROW(m.run([](Comm& c) {
    std::vector<std::vector<int>> send(2);
    c.alltoallv(send);
  }),
               std::invalid_argument);
}

TEST(Collectives, Bcast) {
  Machine m(5);
  m.run([](Comm& c) {
    std::vector<double> data;
    if (c.rank() == 2) data = {1.5, 2.5, 3.5};
    c.ibcast(data, 2).wait();
    EXPECT_EQ(data, (std::vector<double>{1.5, 2.5, 3.5}));
  });
}

TEST(Collectives, AllreduceSumAndMax) {
  Machine m(7);
  m.run([](Comm& c) {
    EXPECT_EQ(c.allreduce_sum(c.rank()), 21);
    EXPECT_EQ(c.allreduce_max(c.rank()), 6);
  });
}

TEST(Collectives, BarrierCompletes) {
  Machine m(8);
  std::atomic<int> counter{0};
  m.run([&](Comm& c) {
    counter.fetch_add(1);
    c.barrier();
    EXPECT_EQ(counter.load(), 8);
  });
}

TEST(Windows, ExposeAndGet) {
  Machine m(4);
  m.run([](Comm& c) {
    std::vector<index_t> mine(10);
    std::iota(mine.begin(), mine.end(), c.rank() * 100);
    auto w = c.expose(std::span<const index_t>(mine));
    int target = (c.rank() + 1) % 4;
    EXPECT_EQ(c.window_nelems<index_t>(w, target), 10);
    std::vector<index_t> got(3);
    c.get(w, target, 5, 3, got.data());
    EXPECT_EQ(got, (std::vector<index_t>{target * 100 + 5, target * 100 + 6, target * 100 + 7}));
    c.barrier();  // keep exposed buffers alive until all gets complete
  });
}

TEST(Windows, MultipleWindowsCoexist) {
  Machine m(3);
  m.run([](Comm& c) {
    std::vector<int> a{c.rank()}, b{c.rank() * 2};
    auto wa = c.expose(std::span<const int>(a));
    auto wb = c.expose(std::span<const int>(b));
    int got = -1;
    c.get(wa, 1, 0, 1, &got);
    EXPECT_EQ(got, 1);
    c.get(wb, 2, 0, 1, &got);
    EXPECT_EQ(got, 4);
    c.barrier();  // keep exposed buffers alive until all gets complete
  });
}

TEST(Windows, OutOfRangeGetThrows) {
  Machine m(2);
  EXPECT_THROW(m.run([](Comm& c) {
    std::vector<int> mine(4, c.rank());
    auto w = c.expose(std::span<const int>(mine));
    int dst[8];
    c.get(w, (c.rank() + 1) % 2, 2, 4, dst);  // 2+4 > 4 elems
  }),
               std::invalid_argument);
}

TEST(Stats, RdmaCountsAreExact) {
  Machine m(3);
  auto rep = m.run([](Comm& c) {
    std::vector<double> mine(100, 1.0);
    auto w = c.expose(std::span<const double>(mine));
    if (c.rank() == 0) {
      std::vector<double> buf(50);
      c.get(w, 1, 0, 20, buf.data());  // one remote message, 160 bytes
      c.get(w, 0, 0, 50, buf.data());  // self: local bytes, no message
    }
    c.barrier();
  });
  EXPECT_EQ(rep.ranks[0].rdma_msgs, 1u);
  EXPECT_EQ(rep.ranks[0].rdma_bytes, 160u);
  EXPECT_EQ(rep.ranks[0].bytes_local, 400u);
  EXPECT_EQ(rep.ranks[1].rdma_msgs, 0u);
}

TEST(Stats, IntraVsInterNodeSplit) {
  CostParams p;
  p.ranks_per_node = 2;  // ranks {0,1} node 0, {2,3} node 1
  Machine m(4, p);
  auto rep = m.run([](Comm& c) {
    std::vector<int> mine(8, c.rank());
    auto w = c.expose(std::span<const int>(mine));
    if (c.rank() == 0) {
      int buf[8];
      c.get(w, 1, 0, 8, buf);  // same node
      c.get(w, 2, 0, 8, buf);  // other node
    }
    c.barrier();
  });
  EXPECT_EQ(rep.ranks[0].bytes_intra, 32u);
  EXPECT_EQ(rep.ranks[0].bytes_inter, 32u);
  EXPECT_EQ(rep.ranks[0].msgs_intra, 1u);
  EXPECT_EQ(rep.ranks[0].msgs_inter, 1u);
}

TEST(Stats, PhaseScopesAccumulate) {
  Machine m(2);
  auto rep = m.run([](Comm& c) {
    {
      auto ph = c.phase(Phase::Comp);
      volatile double x = 0;
      for (int i = 0; i < 500000; ++i) x = x + 1;
    }
    {
      auto ph = c.phase(Phase::Plan);
      volatile double x = 0;
      for (int i = 0; i < 200000; ++i) x = x + 1;
    }
    {
      auto ph = c.phase(Phase::Other);
      volatile double x = 0;
      for (int i = 0; i < 100000; ++i) x = x + 1;
    }
  });
  for (const auto& r : rep.ranks) {
    EXPECT_GT(r.comp_s, 0.0);
    EXPECT_GT(r.plan_s, 0.0);
    EXPECT_GT(r.other_s, 0.0);
  }
}

TEST(Stats, MemReleaseBeyondTheChargeThrows) {
  RankReport r;
  r.mem_charge(3, 24);
  r.mem_release(2, 16);
  EXPECT_EQ(r.mem_cur_triples, 1u);
  EXPECT_EQ(r.mem_cur_bytes, 8u);
  EXPECT_THROW(r.mem_release(2, 8), std::logic_error);
  EXPECT_THROW(r.mem_release(1, 16), std::logic_error);
  r.mem_release(1, 8);  // exactly what is left
  EXPECT_EQ(r.mem_cur_triples, 0u);
  EXPECT_EQ(r.mem_cur_bytes, 0u);
}

TEST(Split, RowColumnGrids) {
  Machine m(6);  // 2x3 grid: row = rank/3, col = rank%3
  m.run([](Comm& c) {
    Comm row = c.split(c.rank() / 3, c.rank() % 3);
    Comm col = c.split(10 + c.rank() % 3, c.rank() / 3);
    EXPECT_EQ(row.size(), 3);
    EXPECT_EQ(col.size(), 2);
    EXPECT_EQ(row.rank(), c.rank() % 3);
    EXPECT_EQ(col.rank(), c.rank() / 3);
    // Collectives on sub-communicators work independently.
    auto sums = row.allreduce_sum(1);
    EXPECT_EQ(sums, 3);
    // Global ranks recoverable for node mapping.
    EXPECT_EQ(row.global_rank(row.rank()), c.rank());
  });
}

TEST(Split, NestedSplit) {
  Machine m(8);
  m.run([](Comm& c) {
    Comm half = c.split(c.rank() / 4, c.rank());
    Comm quarter = half.split(half.rank() / 2, half.rank());
    EXPECT_EQ(quarter.size(), 2);
    EXPECT_EQ(quarter.allreduce_sum(1), 2);
  });
}

TEST(Split, RejectsNegativeColor) {
  Machine m(2);
  EXPECT_THROW(m.run([](Comm& c) { c.split(-1, c.rank()); }), std::invalid_argument);
}

TEST(Failure, RankExceptionPropagatesWithoutDeadlock) {
  Machine m(4);
  EXPECT_THROW(m.run([](Comm& c) {
    if (c.rank() == 2) throw std::runtime_error("injected");
    // Other ranks head into a collective and must not hang.
    c.allgather(c.rank());
    c.allgather(c.rank());
  }),
               std::runtime_error);
}

TEST(Failure, OriginalErrorWins) {
  Machine m(3);
  try {
    m.run([](Comm& c) {
      if (c.rank() == 0) throw std::logic_error("root-cause");
      c.barrier();
      c.barrier();
    });
    FAIL() << "expected throw";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "root-cause");
  } catch (const PeerFailure&) {
    FAIL() << "PeerFailure must not mask the original error";
  }
}

TEST(CostModel, CommSecondsLinearInTraffic) {
  CostModel cm{CostParams{}};
  RankReport r1, r2;
  r1.msgs_inter = 10;
  r1.bytes_inter = 1 << 20;
  r2.msgs_inter = 20;
  r2.bytes_inter = 2 << 20;
  EXPECT_NEAR(cm.comm_seconds(r2), 2 * cm.comm_seconds(r1), 1e-12);
}

TEST(CostModel, IntraNodeCheaperThanInter) {
  CostModel cm{CostParams{}};
  RankReport intra, inter;
  intra.msgs_intra = 5;
  intra.bytes_intra = 1 << 22;
  inter.msgs_inter = 5;
  inter.bytes_inter = 1 << 22;
  EXPECT_LT(cm.comm_seconds(intra), cm.comm_seconds(inter));
}

TEST(CostModel, ThreadsShrinkCompOnly) {
  CostModel cm{CostParams{}};
  RankReport r;
  r.comp_s = 8.0;
  r.plan_s = 2.0;
  r.other_s = 1.0;
  auto t1 = cm.rank_time(r, 1);
  auto t8 = cm.rank_time(r, 8);
  EXPECT_DOUBLE_EQ(t8.comp, t1.comp / 8);
  EXPECT_DOUBLE_EQ(t8.plan, t1.plan);  // inspector work is serial
  EXPECT_DOUBLE_EQ(t8.other, t1.other);
}

TEST(CostModel, RunTimeIsMaxOverRanks) {
  CostModel cm{CostParams{}};
  std::vector<RankReport> ranks(3);
  ranks[0].comp_s = 1.0;
  ranks[1].comp_s = 5.0;
  ranks[2].comp_s = 2.0;
  EXPECT_DOUBLE_EQ(cm.run_time(ranks).comp, 5.0);
}

TEST(RunReport, AggregateCounters) {
  Machine m(2);
  auto rep = m.run([](Comm& c) {
    std::vector<int> mine(16, c.rank());
    auto w = c.expose(std::span<const int>(mine));
    int buf[16];
    c.get(w, (c.rank() + 1) % 2, 0, 16, buf);
    c.barrier();
  });
  EXPECT_EQ(rep.total_rdma_msgs(), 2u);
  EXPECT_EQ(rep.total_rdma_bytes(), 128u);
  EXPECT_GT(rep.total_bytes_network(), 0u);
  EXPECT_GT(rep.wall_s, 0.0);
}

TEST(Machine, ManyRanksStressBarrier) {
  Machine m(64);
  auto rep = m.run([](Comm& c) {
    for (int i = 0; i < 5; ++i) c.barrier();
    auto s = c.allreduce_sum(1);
    EXPECT_EQ(s, 64);
  });
  EXPECT_EQ(rep.ranks.size(), 64u);
}

// ---- online cost-parameter refit loop -------------------------------------

TEST(CostParamsFile, LoadOverridesListedKeysOnly) {
  // The file scripts/fit_cost_params.py writes: refitted rates as flat
  // "key": number pairs. Keys present override, keys absent keep their
  // values, unknown keys are ignored.
  const char* path = "cost_params_test_load.json";
  {
    std::ofstream f(path);
    f << "{\"flop_s\": 1.5e-9, \"triple_s\": 2.5e-8, \"records\": 24}\n";
  }
  CostParams p;
  p.alpha_inter = 9.0e-6;
  ASSERT_TRUE(load_cost_params(path, p));
  EXPECT_DOUBLE_EQ(p.flop_s, 1.5e-9);
  EXPECT_DOUBLE_EQ(p.triple_s, 2.5e-8);
  EXPECT_DOUBLE_EQ(p.alpha_inter, 9.0e-6);  // untouched
  std::remove(path);

  CostParams q;
  EXPECT_FALSE(load_cost_params("does_not_exist_cost_params.json", q));
  EXPECT_DOUBLE_EQ(q.flop_s, CostParams{}.flop_s);

  // Files truncated mid-write — value missing entirely, or cut off inside
  // the number ("1.234e" would strtod-parse as 1.234 s/flop, nine orders
  // off) — and negative values must all leave the defaults untouched.
  for (const char* bad : {"{\"flop_s\": ", "{\"flop_s\": 1.234e", "{\"flop_s\": -2.0e-9}"}) {
    std::ofstream(path) << bad;
    CostParams t;
    ASSERT_TRUE(load_cost_params(path, t)) << bad;
    EXPECT_DOUBLE_EQ(t.flop_s, CostParams{}.flop_s) << bad;
  }
  std::remove(path);
}

TEST(CostParamsFile, MachineAppliesSa1dCostParamsEnv) {
  // Machine construction routes through cost_params_from_env, so a refit
  // written to the file named by SA1D_COST_PARAMS reaches every subsequent
  // run without hand-editing CostParams.
  const char* path = "cost_params_test_env.json";
  {
    std::ofstream f(path);
    f << "{\"flop_s\": 4.25e-9, \"triple_s\": 1.75e-8}\n";
  }
  ASSERT_EQ(setenv("SA1D_COST_PARAMS", path, 1), 0);
  Machine m(2);
  EXPECT_DOUBLE_EQ(m.cost().params().flop_s, 4.25e-9);
  EXPECT_DOUBLE_EQ(m.cost().params().triple_s, 1.75e-8);
  unsetenv("SA1D_COST_PARAMS");
  std::remove(path);

  Machine plain(2);
  EXPECT_DOUBLE_EQ(plain.cost().params().flop_s, CostParams{}.flop_s);
}

}  // namespace
}  // namespace sa1d
