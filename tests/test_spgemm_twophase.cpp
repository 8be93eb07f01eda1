// Differential tests of the two-phase local SpGEMM engine: all four
// accumulator classes must produce *bit-identical* CSC output (structure
// and values) across semirings, thread counts, and adversarial shapes —
// the engine guarantees a fixed per-row ⊕ order — and the symbolic phase
// must predict the numeric structure exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <vector>

#include "kernels/spgemm_local.hpp"
#include "sparse/generators.hpp"
#include "sparse/ops.hpp"
#include "util/rng.hpp"

namespace sa1d {
namespace {

constexpr LocalKernel kAllKernels[] = {LocalKernel::Spa, LocalKernel::Heap, LocalKernel::Hash,
                                       LocalKernel::Hybrid};
constexpr int kThreadCounts[] = {1, 2, 7};

/// Adversarial generator: a mix of empty columns, singleton columns, dense
/// columns, and scattered columns, with values in {±1, ±0.5} so numeric
/// cancellation (explicit zeros) actually occurs.
CscMatrix<double> adversarial(index_t m, index_t n, std::uint64_t seed) {
  SplitMix64 g(seed);
  CooMatrix<double> coo(m, n);
  auto val = [&]() {
    switch (g.below(4)) {
      case 0: return 1.0;
      case 1: return -1.0;
      case 2: return 0.5;
      default: return -0.5;
    }
  };
  for (index_t j = 0; j < n; ++j) {
    switch (g.below(6)) {
      case 0: break;  // structurally empty column
      case 1:         // singleton column (exercises the 1-list copy path)
        coo.push(static_cast<index_t>(g.below(static_cast<std::uint64_t>(m))), j, val());
        break;
      case 2:  // dense column (exercises the SPA classes)
        for (index_t i = 0; i < m; ++i)
          if (g.below(3) != 0) coo.push(i, j, val());
        break;
      default: {  // scattered column
        auto cnt = 1 + g.below(12);
        for (std::uint64_t e = 0; e < cnt; ++e)
          coo.push(static_cast<index_t>(g.below(static_cast<std::uint64_t>(m))), j, val());
      }
    }
  }
  // Singleton rows: a few rows whose only nonzero is planted here.
  coo.canonicalize();
  return CscMatrix<double>::from_coo(coo);
}

/// The engine falls back to one thread below 2^14 flops/thread; the
/// threads>1 assertions are vacuous unless the input carries enough work to
/// actually engage the parallel partition for every tested thread count.
void require_parallel_work(const CscMatrix<double>& a, const CscMatrix<double>& b) {
  ASSERT_GT(total_flops(a, b), 7 * (index_t{1} << 14));
}

TEST(TwoPhaseDifferential, PlusTimesBitIdenticalAcrossKernelsAndThreads) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    auto a = adversarial(400, 300, seed);
    auto b = adversarial(300, 350, seed + 100);
    require_parallel_work(a, b);
    auto ref = spgemm_local<PlusTimes<double>, double>(a, b, LocalKernel::Spa, 1);
    for (auto k : kAllKernels)
      for (int t : kThreadCounts)
        EXPECT_EQ((spgemm_local<PlusTimes<double>, double>(a, b, k, t)), ref)
            << kernel_name(k) << " t=" << t << " seed=" << seed;
  }
}

TEST(TwoPhaseDifferential, MinPlusBitIdenticalAcrossKernelsAndThreads) {
  for (std::uint64_t seed : {5u, 6u}) {
    auto a = adversarial(350, 350, seed);
    require_parallel_work(a, a);
    auto ref = spgemm_local<MinPlus<double>, double>(a, a, LocalKernel::Spa, 1);
    for (auto k : kAllKernels)
      for (int t : kThreadCounts)
        EXPECT_EQ((spgemm_local<MinPlus<double>, double>(a, a, k, t)), ref)
            << kernel_name(k) << " t=" << t << " seed=" << seed;
  }
}

TEST(TwoPhaseDifferential, SkewedParallelPartition) {
  // Power-law columns stress flop_balanced_split's uneven ranges with the
  // parallel path genuinely engaged.
  auto a = rmat<double>(10, 8, 3);
  require_parallel_work(a, a);
  auto ref = spgemm_local<PlusTimes<double>, double>(a, a, LocalKernel::Spa, 1);
  for (auto k : kAllKernels)
    for (int t : kThreadCounts)
      EXPECT_EQ((spgemm_local<PlusTimes<double>, double>(a, a, k, t)), ref)
          << kernel_name(k) << " t=" << t;
}

TEST(TwoPhaseDifferential, OrAndBitIdenticalAcrossKernels) {
  auto a = adversarial(80, 80, 9);
  auto ref = spgemm_local<OrAnd, double>(a, a, LocalKernel::Spa, 1);
  for (auto k : kAllKernels)
    for (int t : kThreadCounts)
      EXPECT_EQ((spgemm_local<OrAnd, double>(a, a, k, t)), ref) << kernel_name(k);
}

TEST(TwoPhaseDifferential, HypersparseLargeRowDimension) {
  // Large row ids force the hash class under Hybrid and exercise the
  // generation-tagged table where a -1 sentinel key could have collided.
  const index_t m = index_t{1} << 21;
  SplitMix64 g(13);
  CooMatrix<double> ca(m, 40);
  for (int e = 0; e < 600; ++e)
    ca.push(static_cast<index_t>(g.below(static_cast<std::uint64_t>(m))),
            static_cast<index_t>(g.below(40)), 1.0 + g.uniform());
  // Include the extreme row ids explicitly.
  ca.push(0, 0, 1.0);
  ca.push(m - 1, 0, 1.0);
  ca.canonicalize();
  auto a = CscMatrix<double>::from_coo(ca);
  auto b = adversarial(40, 30, 17);
  auto ref = spgemm_local<PlusTimes<double>, double>(a, b, LocalKernel::Spa, 1);
  for (auto k : kAllKernels)
    for (int t : kThreadCounts)
      EXPECT_EQ((spgemm_local<PlusTimes<double>, double>(a, b, k, t)), ref)
          << kernel_name(k) << " t=" << t;
}

/// Operand whose values come from `palette`, with the column mix of
/// adversarial() (empty, singleton, dense, scattered) and distinct sorted
/// rows per column. `dense_num/dense_den` is a dense column's fill rate.
template <typename VT>
CscMatrix<VT> palette_operand(index_t m, index_t n, std::uint64_t seed,
                              const std::vector<VT>& palette, std::uint64_t dense_num = 2,
                              std::uint64_t dense_den = 3) {
  SplitMix64 g(seed);
  std::vector<index_t> colptr{0}, rows;
  std::vector<VT> vals;
  std::vector<char> hit(static_cast<std::size_t>(m), 0);
  for (index_t j = 0; j < n; ++j) {
    std::fill(hit.begin(), hit.end(), 0);
    switch (g.below(6)) {
      case 0: break;
      case 1: hit[g.below(static_cast<std::uint64_t>(m))] = 1; break;
      case 2:
        for (auto& h : hit) h = g.below(dense_den) < dense_num ? 1 : 0;
        break;
      default:
        for (auto e = 1 + g.below(12); e > 0; --e)
          hit[g.below(static_cast<std::uint64_t>(m))] = 1;
    }
    for (index_t i = 0; i < m; ++i) {
      if (hit[static_cast<std::size_t>(i)] == 0) continue;
      rows.push_back(i);
      vals.push_back(palette[g.below(palette.size())]);
    }
    colptr.push_back(static_cast<index_t>(rows.size()));
  }
  return CscMatrix<VT>(m, n, std::move(colptr), std::move(rows), std::move(vals));
}

/// Map-based reference: products in (B-position, A-position) order, the
/// first product of a row assigned, later ones ⊕-ed in.
template <typename SR, typename VT>
CscMatrix<VT> reference_spgemm(const CscMatrix<VT>& a, const CscMatrix<VT>& b) {
  using T = typename SR::value_type;
  std::vector<index_t> colptr{0}, rows;
  std::vector<VT> vals;
  for (index_t j = 0; j < b.ncols(); ++j) {
    std::map<index_t, T> acc;
    auto bks = b.col_rows(j);
    auto bvs = b.col_vals(j);
    for (std::size_t p = 0; p < bks.size(); ++p) {
      auto ars = a.col_rows(bks[p]);
      auto avs = a.col_vals(bks[p]);
      for (std::size_t q = 0; q < ars.size(); ++q) {
        const T prod = SR::multiply(static_cast<T>(avs[q]), static_cast<T>(bvs[p]));
        auto [it, fresh] = acc.try_emplace(ars[q], prod);
        if (!fresh) it->second = SR::add(it->second, prod);
      }
    }
    for (const auto& [r, v] : acc) {
      rows.push_back(r);
      vals.push_back(static_cast<VT>(v));
    }
    colptr.push_back(static_cast<index_t>(rows.size()));
  }
  return CscMatrix<VT>(a.nrows(), b.ncols(), std::move(colptr), std::move(rows), std::move(vals));
}

/// Structure equal and every value equal bit for bit (−0.0 ≠ +0.0, NaN = NaN).
template <typename VT>
::testing::AssertionResult bits_equal(const CscMatrix<VT>& got, const CscMatrix<VT>& want) {
  if (got.nrows() != want.nrows() || got.ncols() != want.ncols() ||
      got.colptr() != want.colptr() || got.rowids() != want.rowids())
    return ::testing::AssertionFailure() << "structure differs";
  for (std::size_t i = 0; i < want.vals().size(); ++i)
    if (std::memcmp(&got.vals()[i], &want.vals()[i], sizeof(VT)) != 0)
      return ::testing::AssertionFailure()
             << "value " << i << " differs: " << got.vals()[i] << " vs " << want.vals()[i];
  return ::testing::AssertionSuccess();
}

template <typename SR, typename VT>
void expect_special_values_bit_exact(const std::vector<VT>& palette) {
  // A square shape (heap, bitmap and small-distinct dense columns) and a
  // tall one whose scattered columns take the hash class under Hybrid.
  struct Shape {
    CscMatrix<VT> a, b;
  };
  const Shape shapes[] = {
      {palette_operand<VT>(400, 300, 41, palette), palette_operand<VT>(300, 350, 42, palette)},
      {palette_operand<VT>(20000, 40, 43, palette, 1, 40),
       palette_operand<VT>(40, 60, 44, palette)},
  };
  for (std::size_t s = 0; s < std::size(shapes); ++s) {
    const auto& [a, b] = shapes[s];
    ASSERT_GT(total_flops(a, b), 2 * (index_t{1} << 14)) << "shape " << s;
    const auto ref = reference_spgemm<SR, VT>(a, b);
    for (auto k : kAllKernels)
      for (int t : {1, 3})
        EXPECT_TRUE(bits_equal((spgemm_local<SR, VT>(a, b, k, t)), ref))
            << kernel_name(k) << " t=" << t << " shape " << s;
  }
}

/// Values whose products include −0.0 first products (−1 · 0), ±inf,
/// inf + (−inf) and quiet NaN. The NaN is computed, so every NaN in play
/// carries the platform's default bits and ⊕ operand order cannot change a
/// payload.
std::vector<double> special_doubles() {
  const double inf = std::numeric_limits<double>::infinity();
  volatile double vinf = inf;
  const double nan = vinf - vinf;
  return {1.0, -1.0, 0.0, -0.0, 0.5, -0.5, 2.0, -1.0, 0.0, -0.0, 1e300, inf, -inf, nan};
}

TEST(TwoPhaseSpecialValues, PlusTimesDoubleMatchesReferenceBits) {
  expect_special_values_bit_exact<PlusTimes<double>, double>(special_doubles());
}

TEST(TwoPhaseSpecialValues, PlusTimesInt64MatchesReference) {
  expect_special_values_bit_exact<PlusTimes<std::int64_t>, std::int64_t>(
      {0, 1, -1, 2, -3, 5, 0, -2});
}

TEST(TwoPhaseSpecialValues, OrAndMatchesReference) {
  expect_special_values_bit_exact<OrAnd, double>(special_doubles());
}

TEST(TwoPhaseSpecialValues, MinPlusMatchesReferenceBits) {
  expect_special_values_bit_exact<MinPlus<double>, double>(special_doubles());
}

TEST(TwoPhaseSpecialValues, PlusSelect2ndMatchesReferenceBits) {
  expect_special_values_bit_exact<PlusSelect2nd<double>, double>(special_doubles());
}

TEST(TwoPhaseSymbolic, NnzPredictionMatchesNumericExactly) {
  for (std::uint64_t seed : {21u, 22u, 23u}) {
    auto a = adversarial(120, 90, seed);
    auto b = adversarial(90, 60, seed + 50);
    auto predicted = symbolic_nnz(a, b);
    ASSERT_EQ(predicted.size(), static_cast<std::size_t>(b.ncols()));
    for (auto k : kAllKernels) {
      auto c = spgemm(a, b, k);
      index_t total = 0;
      for (index_t j = 0; j < c.ncols(); ++j) {
        EXPECT_EQ(c.col_nnz(j), predicted[static_cast<std::size_t>(j)])
            << "col " << j << " kernel " << kernel_name(k);
        total += predicted[static_cast<std::size_t>(j)];
      }
      EXPECT_EQ(c.nnz(), total);
      // The symbolic pass emits C's rows: per column, exactly the distinct
      // A rows the column's lists select, ascending.
      for (int t : {1, 3}) {
        const auto sym = spgemm_local_symbolic<PlusTimes<double>, double>(a, b, k, t);
        ASSERT_EQ(sym.colptr, c.colptr()) << kernel_name(k) << " t=" << t;
        ASSERT_EQ(sym.rowids.size(), static_cast<std::size_t>(total));
        for (index_t j = 0; j < b.ncols(); ++j) {
          std::set<index_t> want;
          for (auto kk : b.col_rows(j))
            for (auto r : a.col_rows(kk)) want.insert(r);
          const auto lo = static_cast<std::size_t>(sym.colptr[static_cast<std::size_t>(j)]);
          const auto hi = static_cast<std::size_t>(sym.colptr[static_cast<std::size_t>(j) + 1]);
          EXPECT_EQ(std::vector<index_t>(sym.rowids.begin() + static_cast<std::ptrdiff_t>(lo),
                                         sym.rowids.begin() + static_cast<std::ptrdiff_t>(hi)),
                    std::vector<index_t>(want.begin(), want.end()))
              << "col " << j << " kernel " << kernel_name(k) << " t=" << t;
        }
      }
    }
  }
}

TEST(TwoPhaseSymbolic, CancellationKeepsStructuralZeros) {
  // +1/-1 values cancel numerically; the structural entry must survive so
  // symbolic nnz stays exact.
  CooMatrix<double> ca(4, 2), cb(2, 1);
  ca.push(0, 0, 1.0);
  ca.push(0, 1, -1.0);
  cb.push(0, 0, 1.0);
  cb.push(1, 0, 1.0);
  auto a = CscMatrix<double>::from_coo(ca);
  auto b = CscMatrix<double>::from_coo(cb);
  auto predicted = symbolic_nnz(a, b);
  ASSERT_EQ(predicted.size(), 1u);
  EXPECT_EQ(predicted[0], 1);
  for (auto k : kAllKernels) {
    auto c = spgemm(a, b, k);
    EXPECT_EQ(c.nnz(), 1) << kernel_name(k);
    EXPECT_DOUBLE_EQ(c.vals()[0], 0.0) << kernel_name(k);
  }
}

TEST(FlopBalancedSplit, CoversAndBalancesSkewedWork) {
  // One hub column holds half the flops; the split must isolate it.
  std::vector<index_t> flops(100, 10);
  flops[7] = 1000;
  auto b = flop_balanced_split(flops, 4);
  ASSERT_EQ(b.size(), 5u);
  EXPECT_EQ(b.front(), 0);
  EXPECT_EQ(b.back(), 100);
  for (std::size_t i = 0; i + 1 < b.size(); ++i) EXPECT_LE(b[i], b[i + 1]);
  // The range containing column 7 must be narrow (the hub dominates).
  for (int p = 0; p < 4; ++p) {
    if (b[static_cast<std::size_t>(p)] <= 7 && 7 < b[static_cast<std::size_t>(p) + 1])
      EXPECT_LT(b[static_cast<std::size_t>(p) + 1] - b[static_cast<std::size_t>(p)], 40);
  }
}

TEST(FlopBalancedSplit, DegenerateInputs) {
  std::vector<index_t> empty;
  auto b0 = flop_balanced_split(empty, 3);
  EXPECT_EQ(b0, (std::vector<index_t>{0, 0, 0, 0}));
  std::vector<index_t> zeros(10, 0);
  auto b1 = flop_balanced_split(zeros, 2);
  EXPECT_EQ(b1.front(), 0);
  EXPECT_EQ(b1.back(), 10);
}

TEST(TwoPhaseEngine, MoreThreadsThanColumns) {
  auto a = adversarial(30, 3, 31);
  auto b = adversarial(3, 2, 32);
  auto ref = spgemm(a, b, LocalKernel::Spa, 1);
  EXPECT_EQ(spgemm(a, b, LocalKernel::Hybrid, 16), ref);
}

}  // namespace
}  // namespace sa1d
