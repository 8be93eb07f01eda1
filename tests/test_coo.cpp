// Unit tests for the COO triples format.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <random>
#include <vector>

#include "sparse/coo.hpp"

namespace sa1d {
namespace {

/// Reference terminal merge: sorts `t` by (col, row) breaking ties by
/// original position and ⊕-merges duplicates left to right. `dst`/`first`
/// capture the fold program: original triple i lands in output slot
/// dst[i], assigning when first[i] and ⊕-accumulating otherwise.
template <typename Add, typename VT>
void merge_triples_stable(std::vector<Triple<VT>>& t, Add add, std::vector<index_t>& dst,
                          std::vector<std::uint8_t>& first) {
  std::vector<index_t> perm(t.size());
  std::iota(perm.begin(), perm.end(), index_t{0});
  std::sort(perm.begin(), perm.end(), [&](index_t x, index_t y) {
    const auto& a = t[static_cast<std::size_t>(x)];
    const auto& b = t[static_cast<std::size_t>(y)];
    if (a.col != b.col) return a.col < b.col;
    if (a.row != b.row) return a.row < b.row;
    return x < y;
  });
  dst.assign(t.size(), 0);
  first.assign(t.size(), 0);
  std::vector<Triple<VT>> out;
  out.reserve(t.size());
  for (auto i : perm) {
    const auto& ti = t[static_cast<std::size_t>(i)];
    if (out.empty() || out.back().col != ti.col || out.back().row != ti.row) {
      out.push_back(ti);
      first[static_cast<std::size_t>(i)] = 1;
    } else {
      out.back().val = add(out.back().val, ti.val);
    }
    dst[static_cast<std::size_t>(i)] = static_cast<index_t>(out.size() - 1);
  }
  t = std::move(out);
}

TEST(Coo, EmptyMatrix) {
  CooMatrix<double> m(3, 4);
  EXPECT_EQ(m.nrows(), 3);
  EXPECT_EQ(m.ncols(), 4);
  EXPECT_EQ(m.nnz(), 0);
  EXPECT_TRUE(m.is_canonical());
}

TEST(Coo, RejectsNegativeDims) {
  EXPECT_THROW(CooMatrix<double>(-1, 2), std::invalid_argument);
}

TEST(Coo, PushAndCanonicalizeSortsColumnMajor) {
  CooMatrix<double> m(4, 4);
  m.push(3, 1, 1.0);
  m.push(0, 1, 2.0);
  m.push(2, 0, 3.0);
  EXPECT_FALSE(m.is_canonical());
  m.canonicalize();
  ASSERT_EQ(m.nnz(), 3);
  EXPECT_EQ(m.triples()[0], (Triple<double>{2, 0, 3.0}));
  EXPECT_EQ(m.triples()[1], (Triple<double>{0, 1, 2.0}));
  EXPECT_EQ(m.triples()[2], (Triple<double>{3, 1, 1.0}));
  EXPECT_TRUE(m.is_canonical());
}

TEST(Coo, CanonicalizeMergesDuplicatesByAddition) {
  CooMatrix<double> m(2, 2);
  m.push(1, 1, 2.5);
  m.push(1, 1, 0.5);
  m.push(0, 0, 1.0);
  m.canonicalize();
  ASSERT_EQ(m.nnz(), 2);
  EXPECT_DOUBLE_EQ(m.triples()[1].val, 3.0);
}

TEST(Coo, CanonicalizeKeepsExplicitZerosByDefault) {
  CooMatrix<double> m(2, 2);
  m.push(0, 0, 1.0);
  m.push(0, 0, -1.0);
  m.canonicalize();
  EXPECT_EQ(m.nnz(), 1);
  EXPECT_DOUBLE_EQ(m.triples()[0].val, 0.0);
}

TEST(Coo, CanonicalizeDropZeros) {
  CooMatrix<double> m(2, 2);
  m.push(0, 0, 1.0);
  m.push(0, 0, -1.0);
  m.push(1, 0, 2.0);
  m.canonicalize(/*drop_zeros=*/true);
  ASSERT_EQ(m.nnz(), 1);
  EXPECT_EQ(m.triples()[0].row, 1);
}

TEST(Coo, EqualityComparesDimsAndTriples) {
  CooMatrix<double> a(2, 2), b(2, 2), c(3, 2);
  a.push(0, 0, 1.0);
  b.push(0, 0, 1.0);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
}

TEST(Coo, ConstructFromTripleVector) {
  std::vector<Triple<double>> t{{0, 0, 1.0}, {1, 1, 2.0}};
  CooMatrix<double> m(2, 2, t);
  EXPECT_EQ(m.nnz(), 2);
  EXPECT_TRUE(m.is_canonical());
}

// Non-commutative, non-associative ⊕ on small integers: any change in the
// per-key fold order changes the value.
double fold_op(double x, double y) { return 2 * x + y; }

enum class RunKind { Canonical, ColumnSorted, Unsorted };

/// A run of `n` triples with columns in [clo, chi) and rows in [0, nrows):
/// canonical (unique keys, sorted); column-sorted with rows out of order and
/// repeated keys (a ring hop's shape); or fully unsorted with repeats.
std::vector<Triple<double>> make_run(std::mt19937& rng, RunKind kind, int n, index_t clo,
                                     index_t chi, index_t nrows) {
  std::uniform_int_distribution<index_t> col(clo, chi - 1), row(0, nrows - 1);
  std::uniform_int_distribution<int> val(1, 3);
  std::vector<Triple<double>> run;
  for (int i = 0; i < n; ++i) run.push_back({row(rng), col(rng), static_cast<double>(val(rng))});
  auto by_key = [](const Triple<double>& a, const Triple<double>& b) {
    return a.col != b.col ? a.col < b.col : a.row < b.row;
  };
  if (kind == RunKind::Canonical) {
    std::sort(run.begin(), run.end(), by_key);
    run.erase(std::unique(run.begin(), run.end(),
                          [](const auto& a, const auto& b) { return a.col == b.col && a.row == b.row; }),
              run.end());
  } else if (kind == RunKind::ColumnSorted) {
    std::stable_sort(run.begin(), run.end(),
                     [](const auto& a, const auto& b) { return a.col < b.col; });
  }
  return run;
}

/// Streams `rounds` through StreamingTripleMerge (capturing and not) and
/// asserts the merged triples, dst and first are identical to one terminal
/// merge_triples_stable over the same pushes, and that replaying the
/// program over the pushed values reproduces the merged values.
void expect_streaming_equals_terminal(const std::vector<std::vector<Triple<double>>>& rounds) {
  std::vector<Triple<double>> t, plain, all;
  std::vector<index_t> dst;
  std::vector<std::uint8_t> first;
  StreamingTripleMerge<double> sm, sm_plain;
  for (const auto& r : rounds) {
    t.insert(t.end(), r.begin(), r.end());
    plain.insert(plain.end(), r.begin(), r.end());
    all.insert(all.end(), r.begin(), r.end());
    sm.round(t, fold_op, &dst, &first);
    sm_plain.round(plain, fold_op);
    ASSERT_EQ(sm.merged(), t.size());
    ASSERT_EQ(dst.size(), all.size());
    ASSERT_TRUE(CooMatrix<double>(1 << 20, 1 << 20, t).is_canonical());
  }
  const auto pushes = all;
  std::vector<index_t> ref_dst;
  std::vector<std::uint8_t> ref_first;
  merge_triples_stable(all, fold_op, ref_dst, ref_first);
  ASSERT_EQ(t.size(), all.size());
  EXPECT_TRUE(t.empty() ||
              std::memcmp(t.data(), all.data(), t.size() * sizeof(Triple<double>)) == 0);
  EXPECT_EQ(plain, t);
  EXPECT_EQ(dst, ref_dst);
  EXPECT_EQ(first, ref_first);
  std::vector<double> replay(t.size(), 0.0);
  for (std::size_t i = 0; i < pushes.size(); ++i) {
    auto& slot = replay[static_cast<std::size_t>(dst[i])];
    slot = first[i] != 0 ? pushes[i].val : fold_op(slot, pushes[i].val);
  }
  for (std::size_t k = 0; k < t.size(); ++k) EXPECT_EQ(replay[k], t[k].val);
}

TEST(StreamingMerge, MatchesTerminalMergeRandomized) {
  std::mt19937 rng(20240917);
  std::uniform_int_distribution<int> nrounds(1, 8), kind(0, 2), len(0, 40), window(0, 3);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::vector<Triple<double>>> rounds;
    const int R = nrounds(rng);
    for (int k = 0; k < R; ++k) {
      // Column windows before, inside, after or across the base range
      // [10, 20), so runs fall wholly before, after or inside the prefix.
      static constexpr index_t lo[] = {0, 10, 20, 5};
      static constexpr index_t hi[] = {10, 20, 30, 25};
      const int w = window(rng);
      rounds.push_back(make_run(rng, static_cast<RunKind>(kind(rng)), len(rng), lo[w], hi[w], 6));
    }
    expect_streaming_equals_terminal(rounds);
    if (HasFatalFailure()) return;
  }
}

TEST(StreamingMerge, EachRunKindAgainstAPrefix) {
  std::mt19937 rng(7);
  for (auto k : {RunKind::Canonical, RunKind::ColumnSorted, RunKind::Unsorted}) {
    const auto prefix = make_run(rng, RunKind::Unsorted, 30, 10, 20, 5);
    // Empty prefix, then runs wholly before, wholly after and inside.
    expect_streaming_equals_terminal({make_run(rng, k, 25, 10, 20, 5)});
    expect_streaming_equals_terminal({prefix, make_run(rng, k, 25, 0, 10, 5)});
    expect_streaming_equals_terminal({prefix, make_run(rng, k, 25, 20, 30, 5)});
    expect_streaming_equals_terminal({prefix, make_run(rng, k, 25, 12, 18, 5)});
  }
}

TEST(StreamingMerge, EmptyRoundsChangeNothing) {
  std::mt19937 rng(11);
  expect_streaming_equals_terminal({});
  expect_streaming_equals_terminal({{}, {}});
  expect_streaming_equals_terminal({{},
                                    make_run(rng, RunKind::ColumnSorted, 20, 0, 8, 4),
                                    {},
                                    make_run(rng, RunKind::Canonical, 20, 0, 8, 4),
                                    {}});
}

TEST(StreamingMerge, TiesFoldPrefixFirstThenPushOrder) {
  // Key (0, 0) is pushed 1, then 2 and 3 in one run: (2·1 + 2)·2 + 3 = 11.
  std::vector<Triple<double>> t{{0, 0, 1.0}, {1, 0, 5.0}};
  std::vector<index_t> dst;
  std::vector<std::uint8_t> first;
  StreamingTripleMerge<double> sm;
  sm.round(t, fold_op, &dst, &first);
  t.push_back({0, 0, 2.0});
  t.push_back({0, 0, 3.0});
  sm.round(t, fold_op, &dst, &first);
  ASSERT_EQ(t.size(), 2U);
  EXPECT_EQ(t[0], (Triple<double>{0, 0, 11.0}));
  EXPECT_EQ(dst, (std::vector<index_t>{0, 1, 0, 0}));
  EXPECT_EQ(first, (std::vector<std::uint8_t>{1, 1, 0, 0}));
}

TEST(StreamingMerge, RejectsHalfAProgram) {
  std::vector<Triple<double>> t{{0, 0, 1.0}};
  std::vector<index_t> dst;
  StreamingTripleMerge<double> sm;
  EXPECT_THROW(sm.round(t, fold_op, &dst, nullptr), std::invalid_argument);
}

}  // namespace
}  // namespace sa1d
