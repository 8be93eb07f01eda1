// Tests for betweenness centrality: serial Brandes sanity, distributed
// batched BC vs. the serial reference, level stats, and edge cases.
#include <gtest/gtest.h>

#include "apps/bc.hpp"
#include "sparse/generators.hpp"

namespace sa1d {
namespace {

CscMatrix<double> path_graph(index_t n) {
  CooMatrix<double> m(n, n);
  for (index_t i = 0; i + 1 < n; ++i) {
    m.push(i, i + 1, 1.0);
    m.push(i + 1, i, 1.0);
  }
  return CscMatrix<double>::from_coo(m);
}

CscMatrix<double> star_graph(index_t leaves) {
  CooMatrix<double> m(leaves + 1, leaves + 1);
  for (index_t i = 1; i <= leaves; ++i) {
    m.push(0, i, 1.0);
    m.push(i, 0, 1.0);
  }
  return CscMatrix<double>::from_coo(m);
}

std::vector<index_t> all_vertices(index_t n) {
  std::vector<index_t> v(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) v[static_cast<std::size_t>(i)] = i;
  return v;
}

TEST(BrandesSerial, PathGraphExact) {
  // Path 0-1-2-3-4: exact BC of interior v = number of s,t pairs through it
  // (ordered pairs): v1: pairs {0}x{2,3,4} both directions = 6, etc.
  auto a = path_graph(5);
  auto bc = brandes_serial(a, all_vertices(5));
  EXPECT_DOUBLE_EQ(bc[0], 0.0);
  EXPECT_DOUBLE_EQ(bc[1], 6.0);
  EXPECT_DOUBLE_EQ(bc[2], 8.0);
  EXPECT_DOUBLE_EQ(bc[3], 6.0);
  EXPECT_DOUBLE_EQ(bc[4], 0.0);
}

TEST(BrandesSerial, StarGraphExact) {
  // Star with 5 leaves: center lies on all 5*4 = 20 ordered leaf pairs.
  auto a = star_graph(5);
  auto bc = brandes_serial(a, all_vertices(6));
  EXPECT_DOUBLE_EQ(bc[0], 20.0);
  for (int i = 1; i <= 5; ++i) EXPECT_DOUBLE_EQ(bc[static_cast<std::size_t>(i)], 0.0);
}

TEST(BrandesSerial, SubsetOfSources) {
  auto a = path_graph(4);
  auto bc = brandes_serial(a, std::vector<index_t>{0});
  // From source 0 only: delta contributions 0->{1,2,3}: v1 on 2 paths, v2 on 1.
  EXPECT_DOUBLE_EQ(bc[1], 2.0);
  EXPECT_DOUBLE_EQ(bc[2], 1.0);
  EXPECT_DOUBLE_EQ(bc[3], 0.0);
}

TEST(PickSources, DistinctAndDeterministic) {
  auto s1 = pick_sources(100, 20, 5);
  auto s2 = pick_sources(100, 20, 5);
  EXPECT_EQ(s1, s2);
  std::set<index_t> uniq(s1.begin(), s1.end());
  EXPECT_EQ(uniq.size(), 20u);
  for (auto v : s1) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 100);
  }
  EXPECT_THROW(pick_sources(10, 11, 1), std::invalid_argument);
}

TEST(ToPattern, AllOnes) {
  auto a = erdos_renyi<double>(20, 3.0, 4);
  auto p = to_pattern(a);
  EXPECT_EQ(p.colptr(), a.colptr());
  for (auto v : p.vals()) EXPECT_DOUBLE_EQ(v, 1.0);
}

void expect_bc_matches_serial(const CscMatrix<double>& a, std::span<const index_t> sources,
                              int P) {
  auto want = brandes_serial(a, sources);
  Machine m(P);
  m.run([&](Comm& c) {
    auto res = betweenness_batch(c, a, sources);
    ASSERT_EQ(res.scores.size(), want.size());
    for (std::size_t v = 0; v < want.size(); ++v)
      EXPECT_NEAR(res.scores[v], want[v], 1e-9) << "vertex " << v;
  });
}

TEST(BcDistributed, PathGraphAllSources) {
  expect_bc_matches_serial(path_graph(9), all_vertices(9), 3);
}

TEST(BcDistributed, StarGraph) { expect_bc_matches_serial(star_graph(7), all_vertices(8), 4); }

TEST(BcDistributed, MeshSampledSources) {
  auto a = mesh2d<double>(9);
  auto sources = pick_sources(81, 16, 7);
  expect_bc_matches_serial(a, sources, 4);
}

TEST(BcDistributed, CommunityGraphSampledSources) {
  auto a = hidden_community<double>(128, 8, 6.0, 0.5, 3);
  auto sources = pick_sources(128, 24, 9);
  for (int P : {1, 2, 6}) expect_bc_matches_serial(a, sources, P);
}

TEST(BcDistributed, DisconnectedGraph) {
  // Two components: BFS must terminate and scores stay component-local.
  CooMatrix<double> m(6, 6);
  m.push(0, 1, 1.0);
  m.push(1, 0, 1.0);
  m.push(1, 2, 1.0);
  m.push(2, 1, 1.0);
  m.push(3, 4, 1.0);
  m.push(4, 3, 1.0);
  auto a = CscMatrix<double>::from_coo(m);  // vertex 5 isolated
  expect_bc_matches_serial(a, all_vertices(6), 2);
}

TEST(BcDistributed, SingleSource) {
  expect_bc_matches_serial(path_graph(6), std::vector<index_t>{2}, 3);
}

TEST(BcDistributed, MoreRanksThanSources) {
  expect_bc_matches_serial(path_graph(8), std::vector<index_t>{0, 7}, 5);
}

TEST(BcDistributed, LevelStatsShapeAndMonotoneLevels) {
  auto a = mesh2d<double>(8);
  auto sources = pick_sources(64, 8, 2);
  Machine m(4);
  m.run([&](Comm& c) {
    auto res = betweenness_batch(c, a, sources);
    // Forward levels 1..nlevels then backward nlevels..1.
    ASSERT_GE(res.nlevels, 2);
    int nfwd = 0, nbwd = 0;
    for (const auto& s : res.level_stats) {
      if (s.forward)
        ++nfwd;
      else
        ++nbwd;
    }
    EXPECT_EQ(nfwd, res.nlevels);
    EXPECT_EQ(nbwd, res.nlevels);
  });
}

TEST(BcDistributed, RejectsBadInput) {
  Machine m(2);
  CscMatrix<double> rect(3, 4);
  EXPECT_THROW(m.run([&](Comm& c) {
    betweenness_batch(c, rect, std::vector<index_t>{0});
  }),
               std::invalid_argument);
  auto a = path_graph(4);
  EXPECT_THROW(m.run([&](Comm& c) {
    betweenness_batch(c, a, std::vector<index_t>{});
  }),
               std::invalid_argument);
}

TEST(BcSemiring, PlusSelect2ndMatchesMaskedPlusTimesBitwise) {
  // The traversal satellite: BC's default path runs the BFS multiplies on
  // PlusSelect2nd (⊗ selects the frontier value; the 0/1 adjacency entry is
  // structural). Because A is a pattern, 1.0 ⊗ x == x exactly, so the
  // legacy masked plus-times formulation must agree bit for bit — scores,
  // level counts, and every per-level stat shape.
  auto g = symmetrize(hidden_community<double>(96, 6, 5.0, 0.5, 21));
  auto sources = pick_sources(96, 12, 23);
  auto want = brandes_serial(g, sources);
  Machine m(4);
  m.run([&](Comm& c) {
    BcOptions legacy;
    legacy.plus_times_traversal = true;
    auto sel = betweenness_batch(c, g, sources);
    auto pt = betweenness_batch(c, g, sources, legacy);
    EXPECT_EQ(sel.nlevels, pt.nlevels);
    ASSERT_EQ(sel.scores.size(), pt.scores.size());
    for (std::size_t v = 0; v < sel.scores.size(); ++v) {
      EXPECT_EQ(sel.scores[v], pt.scores[v]) << "vertex " << v;  // bitwise
      EXPECT_NEAR(sel.scores[v], want[v], 1e-9) << "vertex " << v;
    }
  });
}

TEST(BcSemiring, PlusSelect2ndTraversalsRunOnEveryBackend) {
  // The semiring-generic backends carry the PlusSelect2nd traversal: BC on
  // a grid backend must still match the serial reference.
  auto g = symmetrize(erdos_renyi<double>(80, 4.0, 27));
  auto sources = pick_sources(80, 10, 29);
  auto want = brandes_serial(g, sources);
  Machine m(4);
  m.run([&](Comm& c) {
    BcOptions opt;
    opt.backend = Algo::Summa2D;
    auto res = betweenness_batch(c, g, sources, opt);
    for (std::size_t v = 0; v < want.size(); ++v)
      EXPECT_NEAR(res.scores[v], want[v], 1e-9) << "vertex " << v;
  });
}

TEST(BcDistributed, ScoresIndependentOfP) {
  auto a = hidden_community<double>(96, 6, 5.0, 0.5, 11);
  auto sources = pick_sources(96, 12, 13);
  std::vector<double> ref;
  for (int P : {1, 3, 4}) {
    Machine m(P);
    m.run([&](Comm& c) {
      auto res = betweenness_batch(c, a, sources);
      if (ref.empty()) {
        ref = res.scores;
      } else {
        for (std::size_t v = 0; v < ref.size(); ++v) EXPECT_NEAR(res.scores[v], ref[v], 1e-9);
      }
    });
  }
}

}  // namespace
}  // namespace sa1d
