// Unit tests for the COO triples format and the CSC column fold.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <numeric>
#include <random>
#include <vector>

#include "sparse/csc.hpp"

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

enum class RunKind { Canonical, RepeatedKeys };

/// A run of `n` triples with columns in [clo, chi) and rows in [0, nrows),
/// grouped by ascending column: canonical (unique keys, sorted — a SUMMA
/// stage's or a scatter chunk's shape), or sorted by row with repeated keys
/// kept in run order.
std::vector<Triple<double>> make_run(std::mt19937& rng, RunKind kind, int n, index_t clo,
                                     index_t chi, index_t nrows) {
  std::uniform_int_distribution<index_t> col(clo, chi - 1), row(0, nrows - 1);
  std::uniform_int_distribution<int> val(1, 3);
  std::vector<Triple<double>> run;
  for (int i = 0; i < n; ++i) run.push_back({row(rng), col(rng), static_cast<double>(val(rng))});
  if (kind == RunKind::Canonical) {
    std::sort(run.begin(), run.end(), [](const auto& a, const auto& b) {
      return a.col != b.col ? a.col < b.col : a.row < b.row;
    });
    run.erase(std::unique(run.begin(), run.end(),
                          [](const auto& a, const auto& b) { return a.col == b.col && a.row == b.row; }),
              run.end());
  } else {
    std::stable_sort(run.begin(), run.end(), [](const auto& a, const auto& b) {
      return a.col != b.col ? a.col < b.col : a.row < b.row;
    });
  }
  return run;
}

constexpr index_t kCols = 30;

/// A column-grouped triple run as fold_column_run's CSC-shaped arrays over
/// kCols columns, in run order.
struct ColumnRun {
  std::vector<index_t> colptr = std::vector<index_t>(kCols + 1, 0), rows;
  std::vector<double> vals;

  explicit ColumnRun(const std::vector<Triple<double>>& t) {
    for (const auto& x : t) {
      ++colptr[static_cast<std::size_t>(x.col) + 1];
      rows.push_back(x.row);
      vals.push_back(x.val);
    }
    std::partial_sum(colptr.begin(), colptr.end(), colptr.begin());
  }
};

/// Folds `runs` into an empty accumulator (capturing and not) and asserts
/// the merged entries, dst and first are identical to one terminal
/// merge_triples_stable over the runs' entries in run order, and that
/// replaying the program over those values reproduces the merged values.
void expect_fold_equals_terminal(const std::vector<std::vector<Triple<double>>>& runs,
                                 index_t nrows = 8) {
  CscMatrix<double> acc(nrows, kCols), plain(nrows, kCols);
  std::vector<Triple<double>> all;
  std::vector<index_t> dst;
  std::vector<std::uint8_t> first;
  for (const auto& t : runs) {
    const ColumnRun r(t);
    all.insert(all.end(), t.begin(), t.end());
    fold_column_run(acc, r.colptr, r.rows, r.vals, fold_op, &dst, &first);
    fold_column_run(plain, r.colptr, r.rows, r.vals, fold_op);
    ASSERT_EQ(dst.size(), all.size());
    ASSERT_EQ(first.size(), all.size());
  }
  const auto entries = all;
  std::vector<index_t> ref_dst;
  std::vector<std::uint8_t> ref_first;
  merge_triples_stable(all, fold_op, ref_dst, ref_first);
  const auto got = acc.to_coo().triples();
  ASSERT_EQ(got.size(), all.size());
  EXPECT_TRUE(got.empty() ||
              std::memcmp(got.data(), all.data(), got.size() * sizeof(Triple<double>)) == 0);
  EXPECT_EQ(plain, acc);
  EXPECT_EQ(dst, ref_dst);
  EXPECT_EQ(first, ref_first);
  std::vector<double> replay(got.size(), 0.0);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    auto& slot = replay[static_cast<std::size_t>(dst[i])];
    slot = first[i] != 0 ? entries[i].val : fold_op(slot, entries[i].val);
  }
  EXPECT_EQ(replay, acc.vals());
}

TEST(FoldColumnRun, MatchesTerminalMergeRandomized) {
  std::mt19937 rng(20240917);
  std::uniform_int_distribution<int> nruns(1, 8), kind(0, 1), len(0, 40), window(0, 3);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::vector<Triple<double>>> runs;
    const int R = nruns(rng);
    for (int k = 0; k < R; ++k) {
      // Column windows before, inside, after or across the base range
      // [10, 20), so runs fall wholly before, after or inside earlier ones.
      static constexpr index_t lo[] = {0, 10, 20, 5};
      static constexpr index_t hi[] = {10, 20, 30, 25};
      const int w = window(rng);
      runs.push_back(make_run(rng, static_cast<RunKind>(kind(rng)), len(rng), lo[w], hi[w], 6));
    }
    expect_fold_equals_terminal(runs);
    if (HasFatalFailure()) return;
  }
}

TEST(FoldColumnRun, EachRunKindAgainstAnAccumulator) {
  std::mt19937 rng(7);
  for (auto k : {RunKind::Canonical, RunKind::RepeatedKeys}) {
    const auto before = make_run(rng, RunKind::RepeatedKeys, 30, 10, 20, 5);
    // Empty accumulator, then runs wholly before, wholly after and inside.
    expect_fold_equals_terminal({make_run(rng, k, 25, 10, 20, 5)});
    expect_fold_equals_terminal({before, make_run(rng, k, 25, 0, 10, 5)});
    expect_fold_equals_terminal({before, make_run(rng, k, 25, 20, 30, 5)});
    expect_fold_equals_terminal({before, make_run(rng, k, 25, 12, 18, 5)});
  }
}

TEST(FoldColumnRun, EmptyRunsAndColumnsChangeNothing) {
  std::mt19937 rng(11);
  expect_fold_equals_terminal({});
  expect_fold_equals_terminal({{}, {}});
  // Runs confined to a few columns leave every other column empty.
  expect_fold_equals_terminal({{},
                               make_run(rng, RunKind::RepeatedKeys, 20, 0, 3, 4),
                               {},
                               make_run(rng, RunKind::Canonical, 20, 27, 30, 4),
                               {}});
  CscMatrix<double> acc(4, kCols);
  const ColumnRun r(make_run(rng, RunKind::Canonical, 10, 3, 9, 4));
  fold_column_run(acc, r.colptr, r.rows, r.vals, fold_op);
  const auto kept = acc;
  const ColumnRun empty(std::vector<Triple<double>>{});
  fold_column_run(acc, empty.colptr, empty.rows, empty.vals, fold_op);
  EXPECT_EQ(acc, kept);
}

TEST(FoldColumnRun, TiesFoldAccumulatorFirstThenRunOrder) {
  // Key (0, 0) folds in 1, then 2 and 3 in one run: (2·1 + 2)·2 + 3 = 11.
  CscMatrix<double> acc(2, kCols);
  std::vector<index_t> dst;
  std::vector<std::uint8_t> first;
  const ColumnRun r1({{0, 0, 1.0}, {1, 0, 5.0}});
  fold_column_run(acc, r1.colptr, r1.rows, r1.vals, fold_op, &dst, &first);
  const ColumnRun r2({{0, 0, 2.0}, {0, 0, 3.0}});
  fold_column_run(acc, r2.colptr, r2.rows, r2.vals, fold_op, &dst, &first);
  EXPECT_EQ(acc.rowids(), (std::vector<index_t>{0, 1}));
  EXPECT_EQ(acc.vals(), (std::vector<double>{11.0, 5.0}));
  EXPECT_EQ(dst, (std::vector<index_t>{0, 1, 0, 0}));
  EXPECT_EQ(first, (std::vector<std::uint8_t>{1, 1, 0, 0}));
  // A repeat of row 1 folds after the accumulator's 5 and in run order:
  // 2·(2·5 + 4) + 6 = 34.
  const ColumnRun r3({{0, 0, 7.0}, {1, 0, 4.0}, {1, 0, 6.0}});
  fold_column_run(acc, r3.colptr, r3.rows, r3.vals, fold_op, &dst, &first);
  EXPECT_EQ(acc.vals(), (std::vector<double>{29.0, 34.0}));
  EXPECT_EQ(dst, (std::vector<index_t>{0, 1, 0, 0, 0, 1, 1}));
}

TEST(FoldColumnRun, FirstEntryIsAssignedNotAdded) {
  // 0.0 + -0.0 is +0.0, so a key seeded with zero and ⊕-ed would lose the
  // sign: the first entry of a key must be taken as is.
  CscMatrix<double> acc(3, kCols);
  std::vector<index_t> dst;
  std::vector<std::uint8_t> first;
  const ColumnRun r({{2, 4, -0.0}});
  fold_column_run(acc, r.colptr, r.rows, r.vals, std::plus<double>{}, &dst, &first);
  ASSERT_EQ(acc.vals().size(), 1U);
  EXPECT_TRUE(std::signbit(acc.vals()[0]));
  EXPECT_EQ(first, (std::vector<std::uint8_t>{1}));
}

TEST(FoldColumnRun, CapturedProgramReplaysFreshValues) {
  // The program depends on structure only: replayed over new values it
  // must equal folding those values directly.
  std::mt19937 rng(29);
  std::vector<std::vector<Triple<double>>> runs;
  for (int k = 0; k < 5; ++k)
    runs.push_back(make_run(rng, static_cast<RunKind>(k % 2), 30, 0, kCols, 6));
  CscMatrix<double> acc(6, kCols);
  std::vector<index_t> dst;
  std::vector<std::uint8_t> first;
  for (const auto& t : runs) {
    const ColumnRun r(t);
    fold_column_run(acc, r.colptr, r.rows, r.vals, fold_op, &dst, &first);
  }
  CscMatrix<double> direct(6, kCols);
  std::vector<double> fresh;
  for (auto& t : runs) {
    for (auto& x : t) {
      x.val = static_cast<double>(fresh.size() % 5) - 1.5;
      fresh.push_back(x.val);
    }
    const ColumnRun r(t);
    fold_column_run(direct, r.colptr, r.rows, r.vals, fold_op);
  }
  std::vector<double> replay(acc.vals().size(), 0.0);
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    auto& slot = replay[static_cast<std::size_t>(dst[i])];
    slot = first[i] != 0 ? fresh[i] : fold_op(slot, fresh[i]);
  }
  EXPECT_EQ(direct.colptr(), acc.colptr());
  EXPECT_EQ(direct.rowids(), acc.rowids());
  EXPECT_EQ(replay, direct.vals());
}

TEST(FoldColumnRun, RejectsHalfAProgramOrAMisshapedRun) {
  CscMatrix<double> acc(2, kCols);
  const ColumnRun r({{0, 0, 1.0}});
  std::vector<index_t> dst;
  EXPECT_THROW(fold_column_run(acc, r.colptr, r.rows, r.vals, fold_op, &dst, nullptr),
               std::invalid_argument);
  const std::vector<index_t> short_colptr{0, 1};
  EXPECT_THROW(fold_column_run(acc, short_colptr, r.rows, r.vals, fold_op),
               std::invalid_argument);
  // A column whose rows come out of order is not a run: the caller must
  // sort it, and the accumulator is left as it was.
  const ColumnRun unsorted({{1, 0, 4.0}, {0, 0, 7.0}, {1, 0, 6.0}});
  EXPECT_THROW(fold_column_run(acc, unsorted.colptr, unsorted.rows, unsorted.vals, fold_op),
               std::invalid_argument);
  EXPECT_EQ(acc.nnz(), 0);
}

}  // namespace
}  // namespace sa1d
