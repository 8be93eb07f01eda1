// Unit tests for CSC: construction, conversion, accessors, validation.
#include <gtest/gtest.h>

#include "sparse/csc.hpp"

namespace sa1d {
namespace {

CooMatrix<double> small_coo() {
  // [ 1 0 2 ]
  // [ 0 3 0 ]
  // [ 4 0 5 ]
  CooMatrix<double> m(3, 3);
  m.push(0, 0, 1.0);
  m.push(2, 0, 4.0);
  m.push(1, 1, 3.0);
  m.push(0, 2, 2.0);
  m.push(2, 2, 5.0);
  return m;
}

TEST(Csc, FromCooBasic) {
  auto a = CscMatrix<double>::from_coo(small_coo());
  EXPECT_EQ(a.nrows(), 3);
  EXPECT_EQ(a.ncols(), 3);
  EXPECT_EQ(a.nnz(), 5);
  EXPECT_EQ(a.colptr(), (std::vector<index_t>{0, 2, 3, 5}));
  EXPECT_EQ(a.rowids(), (std::vector<index_t>{0, 2, 1, 0, 2}));
  EXPECT_EQ(a.vals(), (std::vector<double>{1.0, 4.0, 3.0, 2.0, 5.0}));
}

TEST(Csc, FromUnsortedCooCanonicalizes) {
  CooMatrix<double> m(2, 2);
  m.push(1, 1, 4.0);
  m.push(0, 0, 1.0);
  auto a = CscMatrix<double>::from_coo(m);
  EXPECT_EQ(a.col_nnz(0), 1);
  EXPECT_EQ(a.col_nnz(1), 1);
}

/// The conversion from_coo replaced: canonicalize a full copy, then count
/// columns and push entries one at a time.
CscMatrix<double> csc_via_canonical_copy(const CooMatrix<double>& coo) {
  CooMatrix<double> c = coo;
  if (!c.is_canonical()) c.canonicalize();
  std::vector<index_t> colptr(static_cast<std::size_t>(c.ncols()) + 1, 0);
  std::vector<index_t> rowids;
  std::vector<double> vals;
  for (const auto& t : c.triples()) {
    ++colptr[static_cast<std::size_t>(t.col) + 1];
    rowids.push_back(t.row);
    vals.push_back(t.val);
  }
  for (std::size_t j = 0; j + 1 < colptr.size(); ++j) colptr[j + 1] += colptr[j];
  return CscMatrix<double>(c.nrows(), c.ncols(), std::move(colptr), std::move(rowids),
                           std::move(vals));
}

TEST(Csc, FromCooMatchesCanonicalCopyRoute) {
  CooMatrix<double> unsorted(4, 5);  // out of order, with duplicate keys
  unsorted.push(3, 4, 1.0);
  unsorted.push(0, 1, 2.0);
  unsorted.push(3, 4, 0.5);
  unsorted.push(2, 0, -1.0);
  unsorted.push(0, 1, 1.0);
  CooMatrix<double> hyper(7, 1000000);  // hypersparse: 3 nonzeros
  hyper.push(6, 3, 1.0);
  hyper.push(0, 500000, 2.0);
  hyper.push(2, 999999, 3.0);
  for (const auto& coo : {small_coo(), unsorted, hyper, CooMatrix<double>(3, 4)}) {
    const auto a = CscMatrix<double>::from_coo(coo);
    EXPECT_EQ(a, csc_via_canonical_copy(coo));
  }
  EXPECT_TRUE(small_coo().is_canonical());
  EXPECT_TRUE(hyper.is_canonical());
  EXPECT_EQ(CscMatrix<double>::from_coo(unsorted).nnz(), 3);
}

TEST(Csc, RoundTripThroughCoo) {
  auto a = CscMatrix<double>::from_coo(small_coo());
  auto back = CscMatrix<double>::from_coo(a.to_coo());
  EXPECT_EQ(a, back);
}

TEST(Csc, ColumnAccessors) {
  auto a = CscMatrix<double>::from_coo(small_coo());
  auto rows = a.col_rows(0);
  auto vals = a.col_vals(0);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], 0);
  EXPECT_EQ(rows[1], 2);
  EXPECT_DOUBLE_EQ(vals[0], 1.0);
  EXPECT_DOUBLE_EQ(vals[1], 4.0);
}

TEST(Csc, EmptyColumns) {
  CooMatrix<double> m(3, 4);
  m.push(1, 2, 7.0);
  auto a = CscMatrix<double>::from_coo(m);
  EXPECT_EQ(a.col_nnz(0), 0);
  EXPECT_EQ(a.col_nnz(1), 0);
  EXPECT_EQ(a.col_nnz(2), 1);
  EXPECT_EQ(a.col_nnz(3), 0);
  EXPECT_EQ(a.nzc(), 1);
}

TEST(Csc, NzcCountsNonemptyColumns) {
  auto a = CscMatrix<double>::from_coo(small_coo());
  EXPECT_EQ(a.nzc(), 3);
}

TEST(Csc, RawConstructorValidates) {
  EXPECT_THROW(CscMatrix<double>(2, 2, {0, 1}, {0}, {1.0}), std::invalid_argument);
  EXPECT_THROW(CscMatrix<double>(2, 2, {0, 1, 2}, {0}, {1.0}), std::invalid_argument);
  EXPECT_THROW(CscMatrix<double>(2, 2, {0, 1, 1}, {0}, {1.0, 2.0}), std::invalid_argument);
}

TEST(Csc, DefaultIsEmpty) {
  CscMatrix<double> a;
  EXPECT_EQ(a.nrows(), 0);
  EXPECT_EQ(a.ncols(), 0);
  EXPECT_EQ(a.nnz(), 0);
}

}  // namespace
}  // namespace sa1d
