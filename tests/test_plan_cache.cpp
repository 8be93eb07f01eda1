// Tests for the serving runtime: the multi-tenant LRU plan cache
// (runtime/plan_cache.hpp) and the batched fused executor
// (dist/batch_spgemm.hpp). The acceptance bar is bit-identity — every
// batched member must equal the fresh spgemm_dist result for its operands,
// across all three backends, both semirings, and batch sizes 1/2/8/32
// (cold: misses + within-batch deferred hits; hot: fused replay groups),
// under Random and Partitioned orderings too, with a batch of one equal to
// the sequential replay in results and counters and fused grid groups
// charging the memory gauge — plus the LRU/budget mechanics (eviction order
// and forced rebuilds), the structure-hash
// negative (equal quick fingerprints must not alias), the coherence guard
// (a rank-divergent cache decision surfaces as the identical typed
// ValidationError on every rank, never a hang), chaos (RankAbort mid-batch
// fails every rank with the same Peer error), and the cache counters of a
// mixed sequential/batched serving trace.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "dist/batch_spgemm.hpp"
#include "sparse/generators.hpp"

namespace sa1d {
namespace {

/// Same sparsity pattern, values re-derived from (position, t): the request
/// stream of a serving workload — structure per tenant frozen, values fresh
/// per request. Non-integer so bit-identity genuinely pins ⊕-fold order.
CscMatrix<double> with_values(const CscMatrix<double>& base, int t) {
  std::vector<double> vals(base.vals().size());
  for (std::size_t i = 0; i < vals.size(); ++i)
    vals[i] = 0.3 + 0.17 * static_cast<double>(t) + 0.013 * static_cast<double>(i % 89);
  return CscMatrix<double>(base.nrows(), base.ncols(), base.colptr(), base.rowids(),
                           std::move(vals));
}

/// k-shifted circulant: every column holds rows {j, j+shift mod n}, so two
/// different shifts have identical dims, nnz, per-rank nzc and column
/// counts — the quick fingerprint fields collide and only the structure
/// hash can tell them apart.
CscMatrix<double> circulant(index_t n, index_t shift, double base) {
  CooMatrix<double> c(n, n);
  for (index_t j = 0; j < n; ++j) {
    c.push(j, j, base + 0.01 * static_cast<double>(j));
    c.push((j + shift) % n, j, base + 0.02 * static_cast<double>(j));
  }
  c.canonicalize();
  return CscMatrix<double>::from_coo(c);
}

std::vector<Algo> all_backends() {
  return {Algo::SparseAware1D, Algo::Summa2D, Algo::Split3D};
}

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

using Items = std::vector<std::pair<const DistMatrix1D<double>*, const DistMatrix1D<double>*>>;

// ---- batched bit-identity: cold, hot, all backends, both semirings --------

/// One serving trace against one backend: a tenant set with frozen
/// structures, request batches of the given sizes (tenants cycled, so sizes
/// above the tenant count exercise within-batch deferred hits), every
/// member compared bit-identically against its fresh spgemm_dist result.
template <typename SR>
void expect_batched_bit_identical(int P, Algo algo, const std::vector<CscMatrix<double>>& tenants,
                                  const std::vector<int>& batch_sizes) {
  Machine m(P);
  DistSpgemmOptions opt;
  opt.algo = algo;
  m.run([&](Comm& c) {
    PlanCache<double, SR> cache;
    int t = 0;
    std::uint64_t want_hits = 0, want_misses = 0;
    std::vector<bool> seen(tenants.size(), false);
    for (int bs : batch_sizes) {
      // Materialize the batch: tenant i%T, fresh values per request.
      std::vector<DistMatrix1D<double>> ops;
      ops.reserve(static_cast<std::size_t>(bs));
      std::vector<std::size_t> tenant_of;
      for (int i = 0; i < bs; ++i, ++t) {
        const auto tn = static_cast<std::size_t>(i) % tenants.size();
        tenant_of.push_back(tn);
        seen[tn] = true;
        ops.push_back(DistMatrix1D<double>::from_global(c, with_values(tenants[tn], t)));
      }
      Items items;
      for (const auto& op : ops) items.push_back({&op, &op});
      std::vector<DistSpgemmStats> st;
      auto got = spgemm_dist_batched<SR>(c, cache, items, opt, &st);
      ASSERT_EQ(got.size(), static_cast<std::size_t>(bs));
      ASSERT_EQ(st.size(), static_cast<std::size_t>(bs));
      for (int i = 0; i < bs; ++i) {
        auto fresh = spgemm_dist<SR>(c, ops[static_cast<std::size_t>(i)],
                                     ops[static_cast<std::size_t>(i)], opt);
        EXPECT_TRUE(got[static_cast<std::size_t>(i)].local() == fresh.local())
            << algo_name(algo) << " batch " << bs << " member " << i;
      }
      // Counter contract: a tenant's first-ever request is the only miss;
      // everything else (later batches AND within-batch duplicates) hits.
      for (int i = 0; i < bs; ++i) {
        if (st[static_cast<std::size_t>(i)].cache_misses == 1)
          ++want_misses;
        else
          ++want_hits;
      }
      EXPECT_EQ(cache.stats().misses, want_misses) << algo_name(algo) << " batch " << bs;
      EXPECT_EQ(cache.stats().hits, want_hits) << algo_name(algo) << " batch " << bs;
      std::size_t distinct = 0;
      for (bool s : seen) distinct += s ? 1u : 0u;
      EXPECT_EQ(cache.size(), distinct) << algo_name(algo) << " batch " << bs;
      EXPECT_EQ(cache.stats().misses, distinct) << algo_name(algo) << " batch " << bs;
    }
    EXPECT_EQ(c.report().cache_hits, want_hits);
    EXPECT_EQ(c.report().cache_misses, want_misses);
    EXPECT_GT(c.report().cache_hits_by_algo[distdetail::algo_slot(algo)], 0u);
    EXPECT_EQ(c.report().cache_bytes_resident, cache.stats().bytes_resident);
    // The gauge is exactly the agreed (max over ranks) residency of the
    // resident plans, each recomputed now, after the hot replays.
    std::uint64_t sum = 0;
    for (const auto& e : cache.entries()) sum += c.allreduce_max(e.plan->bytes_resident());
    EXPECT_EQ(cache.stats().bytes_resident, sum) << algo_name(algo);
  });
}

TEST(PlanCacheBatched, BitIdenticalAllBackendsPlusTimes) {
  // Three tenants (two square cluster shapes, one rectangular BC-style
  // frontier) so batch sizes 8/32 carry within-batch duplicates of every
  // tenant; batch 1/2 cover the singleton and smallest fused groups.
  std::vector<CscMatrix<double>> tenants;
  tenants.push_back(block_clustered<double>(120, 6, 4.0, 0.4, 11));
  tenants.push_back(erdos_renyi<double>(120, 3.0, 13));
  tenants.push_back(block_clustered<double>(120, 8, 5.0, 0.3, 17));
  for (Algo algo : all_backends())
    expect_batched_bit_identical<PlusTimes<double>>(4, algo, tenants, {1, 2, 8, 32});
}

TEST(PlanCacheBatched, BitIdenticalMinPlusFoldPrograms) {
  // The fused replays must fold with the *semiring's* ⊕ — min-plus picks
  // different winners than plus-times wherever partials collide, so an
  // accidental plus-fold in any fused path fails here.
  std::vector<CscMatrix<double>> tenants;
  tenants.push_back(block_clustered<double>(100, 5, 4.0, 0.4, 29));
  tenants.push_back(erdos_renyi<double>(100, 3.0, 31));
  for (Algo algo : all_backends())
    expect_batched_bit_identical<MinPlus<double>>(4, algo, tenants, {1, 2, 8});
}

TEST(PlanCacheBatched, RectangularGridAndPrimeRankCounts) {
  std::vector<CscMatrix<double>> tenants;
  tenants.push_back(block_clustered<double>(120, 6, 4.0, 0.4, 37));
  tenants.push_back(erdos_renyi<double>(120, 3.0, 41));
  // P = 3: prime (1×3 grids); P = 6: rectangular 2×3 grid + 3-layer 3D.
  for (int P : {3, 6}) {
    expect_batched_bit_identical<PlusTimes<double>>(P, Algo::Summa2D, tenants, {2, 8});
    expect_batched_bit_identical<PlusTimes<double>>(P, Algo::Split3D, tenants, {2, 8});
  }
}

TEST(PlanCacheBatched, SequentialCachedEntryPointMatchesFresh) {
  // The one-at-a-time serving entry point (spgemm_dist_cached_mt): miss,
  // hit, and per-call stats wiring.
  auto pat = block_clustered<double>(120, 6, 4.0, 0.4, 43);
  Machine m(4);
  m.run([&](Comm& c) {
    PlanCache<double> cache;
    DistSpgemmOptions opt;
    opt.algo = Algo::Summa2D;
    for (int t = 0; t < 3; ++t) {
      auto da = DistMatrix1D<double>::from_global(c, with_values(pat, t));
      DistSpgemmStats st;
      auto got = spgemm_dist_cached_mt(c, cache, da, da, opt, &st);
      auto fresh = spgemm_dist(c, da, da, opt);
      EXPECT_TRUE(got.local() == fresh.local()) << "iter " << t;
      EXPECT_EQ(st.cache_misses, t == 0 ? 1u : 0u);
      EXPECT_EQ(st.cache_hits, t == 0 ? 0u : 1u);
      EXPECT_GT(st.cache_bytes_resident, 0u);
    }
    EXPECT_EQ(cache.stats().hits, 2u);
    EXPECT_EQ(cache.stats().misses, 1u);
  });
}

// ---- ordered plans replay in batches -------------------------------------

TEST(PlanCacheBatched, OrderedPlansReplayHotWithoutRecovery) {
  // Hot batches over plans built under a Random or Partitioned ordering
  // must replay them: each member permutes its operands onto the plan's
  // layout, runs the group's backend replay, and scatters C back. Batch 1
  // builds both tenants; batch 2 brings fresh values (forward value routes
  // run); batch 3 repeats batch 2's values (the cached permuted operands
  // are reused as they are). No batch may fall into the recovery path.
  std::vector<CscMatrix<double>> tenants;
  tenants.push_back(block_clustered<double>(120, 6, 4.0, 0.4, 101));
  tenants.push_back(erdos_renyi<double>(120, 3.0, 103));
  for (Algo algo : all_backends()) {
    for (Ordering ord : {Ordering::Random, Ordering::Partitioned}) {
      SCOPED_TRACE(std::string(algo_name(algo)) + " ordering " +
                   std::to_string(static_cast<int>(ord)));
      Machine m(4);
      DistSpgemmOptions opt;
      opt.algo = algo;
      opt.reorder = ord;
      m.run([&](Comm& c) {
        PlanCache<double> cache;
        for (int batch = 0; batch < 3; ++batch) {
          const int t = batch == 2 ? 1 : batch;
          std::vector<DistMatrix1D<double>> ops;
          for (const auto& tn : tenants)
            ops.push_back(DistMatrix1D<double>::from_global(c, with_values(tn, t)));
          Items items;
          for (const auto& op : ops) items.push_back({&op, &op});
          const std::uint64_t recoveries_before = c.report().plan_recoveries;
          std::vector<DistSpgemmStats> st;
          auto got = spgemm_dist_batched(c, cache, items, opt, &st);
          EXPECT_EQ(c.report().plan_recoveries, recoveries_before) << "batch " << batch;
          for (std::size_t i = 0; i < ops.size(); ++i) {
            SCOPED_TRACE("batch " + std::to_string(batch) + " member " + std::to_string(i));
            EXPECT_EQ(st[i].recoveries, 0);
            EXPECT_EQ(st[i].ordering, ord);
            EXPECT_EQ(st[i].cache_misses, batch == 0 ? 1u : 0u);
            if (batch > 0) EXPECT_TRUE(st[i].plan_reused);
            EXPECT_TRUE(got[i].local() == spgemm_dist(c, ops[i], ops[i], opt).local());
          }
        }
      });
    }
  }
}

// ---- the replay memory gauge ----------------------------------------------

TEST(PlanCacheBatched, GridGroupChargesEveryMembersStagePayload) {
  // A fused SUMMA replay broadcasts every member's stage blocks at once, so
  // its peak covers at least each member's own sequential replay peak.
  std::vector<CscMatrix<double>> tenants;
  tenants.push_back(erdos_renyi<double>(300, 4.0, 107));
  tenants.push_back(erdos_renyi<double>(300, 3.0, 109));
  DistSpgemmOptions opt;
  opt.algo = Algo::Summa2D;
  Machine m(4);
  m.run([&](Comm& c) {
    std::vector<DistMatrix1D<double>> ops;
    for (const auto& tn : tenants)
      ops.push_back(DistMatrix1D<double>::from_global(c, with_values(tn, 0)));
    std::vector<std::uint64_t> seq_peak;
    for (const auto& op : ops) {
      DistSpgemmPlan<double> plan;
      (void)spgemm_dist_cached(c, plan, op, op, opt);
      DistSpgemmStats st;
      (void)spgemm_dist_cached(c, plan, op, op, opt, &st);
      ASSERT_TRUE(st.plan_reused);
      seq_peak.push_back(st.peak_triples);
    }
    PlanCache<double> cache;
    Items items;
    for (const auto& op : ops) items.push_back({&op, &op});
    (void)spgemm_dist_batched(c, cache, items, opt);  // builds both plans
    std::vector<DistSpgemmStats> st;
    (void)spgemm_dist_batched(c, cache, items, opt, &st);  // one fused group
    for (std::size_t i = 0; i < ops.size(); ++i) {
      SCOPED_TRACE("member " + std::to_string(i));
      EXPECT_TRUE(st[i].plan_reused);
      EXPECT_GT(seq_peak[i], 0u);
      EXPECT_GT(st[i].peak_triples, 0u);
      EXPECT_GE(st[i].peak_triples, seq_peak[i]);
    }
  });
}

// ---- a batch of one is the sequential replay -------------------------------

/// The counters one call moved on this rank.
std::vector<std::uint64_t> call_counters(const RankReport& before, const RankReport& after) {
  return {after.comm_ops - before.comm_ops,
          after.coll_bytes_received() - before.coll_bytes_received(),
          after.coll_msgs_received() - before.coll_msgs_received(),
          after.sent_bytes_network() - before.sent_bytes_network(),
          after.sent_msgs_network() - before.sent_msgs_network(),
          after.rdma_msgs - before.rdma_msgs,
          after.rdma_bytes - before.rdma_bytes,
          after.peak_triples};
}

TEST(PlanCacheBatched, BatchOfOneIsTheSequentialReplay) {
  // A hot batch of one and a spgemm_dist_cached replay of the same cached
  // plan run the same executor. Two machines share the history (a batch
  // builds the plan on values 0) and differ only in the last call on
  // values 1: bit-identical C and equal per-rank collective, RDMA and
  // peak-memory counters. comm_ops differs by exactly the batch's cache
  // coherence vote, a control exchange that moves no counted bytes.
  auto pat = block_clustered<double>(120, 6, 4.0, 0.4, 113);
  const int P = 4;
  for (Algo algo : all_backends()) {
    for (Ordering ord : {Ordering::Identity, Ordering::Partitioned}) {
      SCOPED_TRACE(std::string(algo_name(algo)) + " ordering " +
                   std::to_string(static_cast<int>(ord)));
      DistSpgemmOptions opt;
      opt.algo = algo;
      opt.reorder = ord;
      struct Side {
        std::vector<std::vector<std::uint64_t>> counters;
        std::vector<DcscMatrix<double>> c;
        std::vector<DistSpgemmStats> st;
      };
      auto run = [&](bool batched) {
        Side side{std::vector<std::vector<std::uint64_t>>(P), std::vector<DcscMatrix<double>>(P),
                  std::vector<DistSpgemmStats>(P)};
        Machine m(P);
        m.run([&](Comm& c) {
          const auto r = static_cast<std::size_t>(c.rank());
          PlanCache<double> cache;
          auto d0 = DistMatrix1D<double>::from_global(c, with_values(pat, 0));
          Items warm{{&d0, &d0}};
          (void)spgemm_dist_batched(c, cache, warm, opt);
          auto d1 = DistMatrix1D<double>::from_global(c, with_values(pat, 1));
          const RankReport before = c.report();
          DistMatrix1D<double> got;
          if (batched) {
            Items one{{&d1, &d1}};
            std::vector<DistSpgemmStats> st;
            got = std::move(spgemm_dist_batched(c, cache, one, opt, &st)[0]);
            side.st[r] = st[0];
          } else {
            got = spgemm_dist_cached(c, *cache.entries().front().plan, d1, d1, opt, &side.st[r]);
          }
          side.counters[r] = call_counters(before, c.report());
          side.c[r] = got.local();
        });
        return side;
      };
      const Side b = run(true);
      const Side s = run(false);
      for (int r = 0; r < P; ++r) {
        SCOPED_TRACE("rank " + std::to_string(r));
        const auto ur = static_cast<std::size_t>(r);
        EXPECT_TRUE(b.st[ur].plan_reused);
        EXPECT_TRUE(s.st[ur].plan_reused);
        EXPECT_EQ(b.st[ur].ordering, s.st[ur].ordering);
        EXPECT_TRUE(b.c[ur] == s.c[ur]);
        auto want = s.counters[ur];
        want[0] += 1;  // the batch's cache coherence vote
        EXPECT_EQ(b.counters[ur], want);
        EXPECT_EQ(b.st[ur].peak_triples, s.st[ur].peak_triples);
        EXPECT_EQ(b.st[ur].meta_coll_bytes, s.st[ur].meta_coll_bytes);
      }
    }
  }
}

// ---- LRU order, budget-forced eviction, rebuild ---------------------------

// ---- residency accounting -------------------------------------------------

TEST(PlanCacheResidency, Sa1dPlanCountsCachedRowIds) {
  // Arrow pattern (dense first row and column plus the diagonal): its square
  // is dense, so C's cached row ids outweigh every other array the SA-1D
  // plan keeps, and a residency that left them out would fall below the
  // bound.
  const index_t n = 96;
  CooMatrix<double> coo(n, n);
  for (index_t i = 0; i < n; ++i) {
    coo.push(i, i, 1.0);
    if (i == 0) continue;
    coo.push(0, i, 0.5);
    coo.push(i, 0, 0.25);
  }
  coo.canonicalize();
  const auto pat = CscMatrix<double>::from_coo(coo);
  Machine m(4);
  m.run([&](Comm& c) {
    PlanCache<double> cache;
    DistSpgemmOptions opt;
    opt.algo = Algo::SparseAware1D;
    for (int t = 0; t < 2; ++t) {
      auto d = DistMatrix1D<double>::from_global(c, with_values(pat, t));
      auto out = spgemm_dist_cached_mt(c, cache, d, d, opt);
      ASSERT_EQ(cache.size(), 1u);
      const auto& plan = *cache.entries().front().plan;
      EXPECT_EQ(plan.chosen(), Algo::SparseAware1D);
      EXPECT_EQ(out.local_nnz(), n * out.local_ncols());  // C is dense
      EXPECT_GE(plan.bytes_resident(),
                sizeof(index_t) * static_cast<std::uint64_t>(out.local_nnz()));
    }
    EXPECT_EQ(cache.stats().hits, 1u);
  });
}

TEST(PlanCacheLru, EvictionOrderAndForcedRebuild) {
  std::vector<CscMatrix<double>> tenants;
  tenants.push_back(block_clustered<double>(110, 5, 4.0, 0.4, 47));
  tenants.push_back(erdos_renyi<double>(110, 3.0, 53));
  tenants.push_back(block_clustered<double>(110, 11, 5.0, 0.3, 59));
  const Algo algo = Algo::Summa2D;
  DistSpgemmOptions opt;
  opt.algo = algo;

  // Pass 1 (unbounded): capture each tenant plan's agreed residency.
  std::vector<std::uint64_t> bytes(3, 0);
  {
    Machine m(4);
    m.run([&](Comm& c) {
      PlanCache<double> cache;
      for (int i = 0; i < 3; ++i) {
        auto da = DistMatrix1D<double>::from_global(
            c, with_values(tenants[static_cast<std::size_t>(i)], i));
        spgemm_dist_cached_mt(c, cache, da, da, opt);
        if (c.rank() == 0) bytes[static_cast<std::size_t>(i)] = cache.entries().front().bytes;
      }
    });
  }
  for (auto b : bytes) ASSERT_GT(b, 0u);

  // Pass 2: budget one byte short of all three — the LRU victim (tenant 0)
  // must be evicted when tenant 2 is admitted, deterministically on every
  // rank; re-requesting tenant 0 is then a miss that rebuilds correctly and
  // evicts the new tail (tenant 1).
  const std::uint64_t budget = bytes[0] + bytes[1] + bytes[2] - 1;
  Machine m(4);
  m.run([&](Comm& c) {
    PlanCache<double> cache(budget);
    std::vector<DistMatrix1D<double>> ops;
    for (int i = 0; i < 3; ++i)
      ops.push_back(DistMatrix1D<double>::from_global(
          c, with_values(tenants[static_cast<std::size_t>(i)], i)));
    spgemm_dist_cached_mt(c, cache, ops[0], ops[0], opt);
    spgemm_dist_cached_mt(c, cache, ops[1], ops[1], opt);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.stats().evictions, 0u);

    DistSpgemmStats st;
    spgemm_dist_cached_mt(c, cache, ops[2], ops[2], opt, &st);
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(st.cache_evictions, 1u);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_FALSE(cache.contains(ops[0], ops[0], opt)) << "LRU victim must be tenant 0";
    EXPECT_TRUE(cache.contains(ops[1], ops[1], opt));
    EXPECT_TRUE(cache.contains(ops[2], ops[2], opt));
    EXPECT_LE(cache.stats().bytes_resident, budget);
    EXPECT_EQ(c.report().cache_evictions, 1u);
    EXPECT_EQ(c.report().cache_evictions_by_algo[distdetail::algo_slot(algo)], 1u);

    // Forced rebuild: tenant 0 again is a miss, result still correct.
    DistSpgemmStats st0;
    auto got = spgemm_dist_cached_mt(c, cache, ops[0], ops[0], opt, &st0);
    auto fresh = spgemm_dist(c, ops[0], ops[0], opt);
    EXPECT_TRUE(got.local() == fresh.local());
    EXPECT_EQ(st0.cache_misses, 1u);
    EXPECT_FALSE(st0.plan_reused);
    EXPECT_EQ(cache.stats().evictions, 2u);
    EXPECT_EQ(c.report().cache_evictions_by_algo[distdetail::algo_slot(algo)], 2u);
    EXPECT_FALSE(cache.contains(ops[1], ops[1], opt)) << "new tail must be tenant 1";
  });
}

TEST(PlanCacheLru, TouchOrderIsMruFirst) {
  auto p0 = block_clustered<double>(100, 5, 4.0, 0.4, 61);
  auto p1 = erdos_renyi<double>(100, 3.0, 67);
  Machine m(2);
  m.run([&](Comm& c) {
    PlanCache<double> cache;
    auto d0 = DistMatrix1D<double>::from_global(c, p0);
    auto d1 = DistMatrix1D<double>::from_global(c, p1);
    spgemm_dist_cached_mt(c, cache, d0, d0);
    spgemm_dist_cached_mt(c, cache, d1, d1);
    // MRU-first after [miss 0, miss 1]: front is tenant 1.
    const auto fp0 = detail1d::fingerprint_of(d0, d0);
    EXPECT_FALSE(cachedetail::fp_equal(cache.entries().front().fp, fp0));
    spgemm_dist_cached_mt(c, cache, d0, d0);  // hit re-orders
    EXPECT_TRUE(cachedetail::fp_equal(cache.entries().front().fp, fp0));
  });
}

// ---- structure-hash negative: equal quick fingerprints must not alias -----

TEST(PlanCacheNegative, QuickFingerprintCollisionIsNotAHit) {
  // Shift-1 vs shift-2 circulants: identical dims, nnz, and per-rank
  // nzc/nnz — only the structure hashes differ. The second tenant must be
  // a miss with its own entry, and both results must stay correct.
  auto c1 = circulant(96, 1, 0.5);
  auto c2 = circulant(96, 2, 0.5);
  Machine m(4);
  m.run([&](Comm& c) {
    auto d1 = DistMatrix1D<double>::from_global(c, c1);
    auto d2 = DistMatrix1D<double>::from_global(c, c2);
    // Preconditions for the negative: the cheap fields really do collide.
    const auto f1 = detail1d::fingerprint_of(d1, d1);
    const auto f2 = detail1d::fingerprint_of(d2, d2);
    ASSERT_TRUE(f1.quick_equals(f2));
    ASSERT_FALSE(cachedetail::fp_equal(f1, f2));

    PlanCache<double> cache;
    DistSpgemmOptions opt;
    opt.algo = Algo::SparseAware1D;
    auto r1 = spgemm_dist_cached_mt(c, cache, d1, d1, opt);
    DistSpgemmStats st;
    auto r2 = spgemm_dist_cached_mt(c, cache, d2, d2, opt, &st);
    EXPECT_EQ(st.cache_misses, 1u) << "hash collision would have replayed the wrong plan";
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_TRUE(r1.local() == spgemm_dist(c, d1, d1, opt).local());
    EXPECT_TRUE(r2.local() == spgemm_dist(c, d2, d2, opt).local());
  });
}

// ---- coherence guard: divergent decisions fail typed, never hang ----------

TEST(PlanCacheCoherence, DivergentDecisionIsUniformValidationError) {
  auto pat = block_clustered<double>(100, 5, 4.0, 0.4, 73);
  DistSpgemmOptions opt;
  opt.algo = Algo::Summa2D;
  Machine m(4);
  auto out = run_capture(m, [&](Comm& c) {
    PlanCache<double> cache;
    auto d0 = DistMatrix1D<double>::from_global(c, with_values(pat, 0));
    spgemm_dist_cached_mt(c, cache, d0, d0, opt);
    // Rank 1 silently loses the entry (the rank-local test hook): the next
    // request's vote diverges (h... vs m) and must throw the identical
    // ValidationError on every rank instead of hanging in mismatched
    // collectives.
    if (c.rank() == 1) EXPECT_TRUE(cache.erase_local(d0, d0, opt));
    auto d1 = DistMatrix1D<double>::from_global(c, with_values(pat, 1));
    spgemm_dist_cached_mt(c, cache, d1, d1, opt);
  });
  for (int r = 0; r < 4; ++r) {
    EXPECT_FALSE(out[static_cast<std::size_t>(r)].ok) << "rank " << r;
    EXPECT_EQ(out[static_cast<std::size_t>(r)].cls, FaultClass::Validation) << "rank " << r;
    EXPECT_EQ(out[static_cast<std::size_t>(r)].what, out[0].what)
        << "rank " << r << " must see the same message";
  }
  EXPECT_NE(out[0].what.find("spgemm_dist_cached_mt"), std::string::npos);
}

TEST(PlanCacheCoherence, DivergentBatchVoteIsUniformValidationError) {
  auto pat = block_clustered<double>(100, 5, 4.0, 0.4, 79);
  DistSpgemmOptions opt;
  opt.algo = Algo::SparseAware1D;
  Machine m(4);
  auto out = run_capture(m, [&](Comm& c) {
    PlanCache<double> cache;
    auto d0 = DistMatrix1D<double>::from_global(c, with_values(pat, 0));
    Items warm{{&d0, &d0}};
    spgemm_dist_batched(c, cache, warm, opt);
    if (c.rank() == 2) EXPECT_TRUE(cache.erase_local(d0, d0, opt));
    auto d1 = DistMatrix1D<double>::from_global(c, with_values(pat, 1));
    auto d2 = DistMatrix1D<double>::from_global(c, with_values(pat, 2));
    Items batch{{&d1, &d1}, {&d2, &d2}};
    spgemm_dist_batched(c, cache, batch, opt);
  });
  for (int r = 0; r < 4; ++r) {
    EXPECT_FALSE(out[static_cast<std::size_t>(r)].ok) << "rank " << r;
    EXPECT_EQ(out[static_cast<std::size_t>(r)].cls, FaultClass::Validation) << "rank " << r;
    EXPECT_EQ(out[static_cast<std::size_t>(r)].what, out[0].what) << "rank " << r;
  }
  EXPECT_NE(out[0].what.find("spgemm_dist_batched"), std::string::npos);

  // The batch votes on the full options digest: a rank-divergent
  // reorder_seed must fail its validation exchange on every rank, before
  // any cache decision or data collective.
  Machine m2(4);
  auto seeds = run_capture(m2, [&](Comm& c) {
    PlanCache<double> cache;
    auto d0 = DistMatrix1D<double>::from_global(c, with_values(pat, 0));
    DistSpgemmOptions div = opt;
    div.reorder_seed = c.rank() == 3 ? 7 : 1;
    Items batch{{&d0, &d0}};
    spgemm_dist_batched(c, cache, batch, div);
  });
  for (int r = 0; r < 4; ++r) {
    EXPECT_FALSE(seeds[static_cast<std::size_t>(r)].ok) << "rank " << r;
    EXPECT_EQ(seeds[static_cast<std::size_t>(r)].cls, FaultClass::Validation) << "rank " << r;
    EXPECT_EQ(seeds[static_cast<std::size_t>(r)].what, seeds[0].what) << "rank " << r;
  }
  EXPECT_NE(seeds[0].what.find("disagree across ranks"), std::string::npos);
}

// ---- chaos: RankAbort mid-batch --------------------------------------------

TEST(PlanCacheChaos, RankAbortMidBatchFailsEveryRankTyped) {
  auto pat = block_clustered<double>(110, 5, 4.0, 0.4, 83);
  DistSpgemmOptions opt;
  opt.algo = Algo::Summa2D;

  // Clean pass: mark the comm-op interval the hot fused batch occupies.
  std::uint64_t batch_lo = 0, batch_hi = 0;
  {
    Machine m(4);
    m.run([&](Comm& c) {
      PlanCache<double> cache;
      std::vector<DistMatrix1D<double>> ops;
      for (int t = 0; t < 4; ++t)
        ops.push_back(DistMatrix1D<double>::from_global(c, with_values(pat, t)));
      Items warm{{&ops[0], &ops[0]}};
      spgemm_dist_batched(c, cache, warm, opt);
      if (c.rank() == 0) batch_lo = c.report().comm_ops;
      Items batch{{&ops[1], &ops[1]}, {&ops[2], &ops[2]}, {&ops[3], &ops[3]}};
      spgemm_dist_batched(c, cache, batch, opt);
      if (c.rank() == 0) batch_hi = c.report().comm_ops;
    });
  }
  ASSERT_GT(batch_hi, batch_lo);

  // Chaos pass: rank 2 dies in the middle of the fused replay. Peer faults
  // are not recoverable — every rank must unwind with the same typed error,
  // and the pinned-entry bookkeeping must not corrupt the unwind (ASan job
  // runs this test too).
  MachineOptions o;
  o.faults.actions.push_back(
      {.kind = FaultKind::RankAbort, .rank = 2, .op_index = (batch_lo + batch_hi) / 2});
  Machine m(4, {}, o);
  auto out = run_capture(m, [&](Comm& c) {
    PlanCache<double> cache;
    std::vector<DistMatrix1D<double>> ops;
    for (int t = 0; t < 4; ++t)
      ops.push_back(DistMatrix1D<double>::from_global(c, with_values(pat, t)));
    Items warm{{&ops[0], &ops[0]}};
    spgemm_dist_batched(c, cache, warm, opt);
    Items batch{{&ops[1], &ops[1]}, {&ops[2], &ops[2]}, {&ops[3], &ops[3]}};
    spgemm_dist_batched(c, cache, batch, opt);
  });
  for (int r = 0; r < 4; ++r) {
    EXPECT_FALSE(out[static_cast<std::size_t>(r)].ok) << "rank " << r;
    EXPECT_EQ(out[static_cast<std::size_t>(r)].cls, FaultClass::Peer) << "rank " << r;
    // Surviving ranks agree on the peer-failure message; the victim itself
    // reports the injected abort.
    if (r != 2) EXPECT_EQ(out[static_cast<std::size_t>(r)].what, out[0].what) << "rank " << r;
  }
}

// ---- counters of a mixed serving trace ------------------------------------

TEST(PlanCacheCounters, MixedSequentialAndBatchedTrace) {
  auto p0 = block_clustered<double>(110, 5, 4.0, 0.4, 89);
  auto p1 = erdos_renyi<double>(110, 3.0, 97);
  Machine m(4);
  DistSpgemmOptions opt;
  opt.algo = Algo::Summa2D;
  auto rep = m.run([&](Comm& c) {
    PlanCache<double> cache;
    std::vector<DistMatrix1D<double>> ops;
    for (int t = 0; t < 4; ++t)
      ops.push_back(DistMatrix1D<double>::from_global(c, with_values(t % 2 == 0 ? p0 : p1, t)));
    spgemm_dist_cached_mt(c, cache, ops[0], ops[0], opt);
    Items batch{{&ops[1], &ops[1]}, {&ops[2], &ops[2]}, {&ops[3], &ops[3]}};
    spgemm_dist_batched(c, cache, batch, opt);
  });
  // The counters are pure functions of the request sequence, so every rank
  // reports the same values.
  for (const auto& r : rep.ranks) {
    EXPECT_EQ(r.cache_misses, 2u);  // two tenants, first touch each
    EXPECT_EQ(r.cache_hits, 2u);    // the other two requests hit
    EXPECT_EQ(r.cache_evictions, 0u);
  }
}

}  // namespace
}  // namespace sa1d
