// Unit tests for the DCSC hypersparse format (the paper's local format).
#include <gtest/gtest.h>

#include "sparse/dcsc.hpp"
#include "sparse/generators.hpp"

namespace sa1d {
namespace {

CooMatrix<double> hypersparse_coo() {
  // 6x8 matrix with only columns 1 and 6 nonzero.
  CooMatrix<double> m(6, 8);
  m.push(2, 1, 1.0);
  m.push(5, 1, 2.0);
  m.push(0, 6, 3.0);
  return m;
}

TEST(Dcsc, FromCooStoresOnlyNonzeroColumns) {
  auto d = DcscMatrix<double>::from_coo(hypersparse_coo());
  EXPECT_EQ(d.nrows(), 6);
  EXPECT_EQ(d.ncols(), 8);
  EXPECT_EQ(d.nnz(), 3);
  EXPECT_EQ(d.nzc(), 2);
  EXPECT_EQ(d.col_id(0), 1);
  EXPECT_EQ(d.col_id(1), 6);
  EXPECT_TRUE(d.check_invariants());
}

TEST(Dcsc, ColumnAccessors) {
  auto d = DcscMatrix<double>::from_coo(hypersparse_coo());
  EXPECT_EQ(d.col_nnz_at(0), 2);
  EXPECT_EQ(d.col_nnz_at(1), 1);
  auto rows = d.col_rows_at(0);
  EXPECT_EQ(rows[0], 2);
  EXPECT_EQ(rows[1], 5);
  EXPECT_DOUBLE_EQ(d.col_vals_at(1)[0], 3.0);
}

TEST(Dcsc, FindCol) {
  auto d = DcscMatrix<double>::from_coo(hypersparse_coo());
  EXPECT_EQ(d.find_col(1), 0);
  EXPECT_EQ(d.find_col(6), 1);
  EXPECT_EQ(d.find_col(0), -1);
  EXPECT_EQ(d.find_col(7), -1);
}

TEST(Dcsc, RoundTripThroughCsc) {
  auto csc = CscMatrix<double>::from_coo(hypersparse_coo());
  auto d = DcscMatrix<double>::from_csc(csc);
  EXPECT_EQ(d.to_csc(), csc);
}

TEST(Dcsc, RoundTripWithLeadingTrailingAndInteriorEmptyColumns) {
  // 5x9: columns 0-1 (leading), 3-5 (interior) and 8 (trailing) are empty.
  CooMatrix<double> m(5, 9);
  m.push(4, 2, 1.5);
  m.push(0, 2, -2.0);
  m.push(1, 6, 3.0);
  m.push(3, 7, 4.0);
  m.push(2, 7, 5.0);
  auto csc = CscMatrix<double>::from_coo(m);
  auto d = DcscMatrix<double>::from_csc(csc);
  EXPECT_TRUE(d.check_invariants());
  EXPECT_EQ(d.jc(), (std::vector<index_t>{2, 6, 7}));
  EXPECT_EQ(d.cp(), (std::vector<index_t>{0, 2, 3, 5}));
  EXPECT_EQ(d.to_csc(), csc);
}

TEST(Dcsc, RoundTripOnGeneratedMatrix) {
  auto a = erdos_renyi<double>(200, 4.0, 11);
  auto d = DcscMatrix<double>::from_csc(a);
  EXPECT_TRUE(d.check_invariants());
  EXPECT_EQ(d.to_csc(), a);
}

TEST(Dcsc, EmptyMatrix) {
  DcscMatrix<double> d(5, 5);
  EXPECT_EQ(d.nnz(), 0);
  EXPECT_EQ(d.nzc(), 0);
  EXPECT_TRUE(d.check_invariants());
  EXPECT_EQ(d.to_csc().nnz(), 0);
}

TEST(Dcsc, InvariantCheckerCatchesUnsortedJc) {
  DcscMatrix<double> d(4, 4, /*jc=*/{2, 1}, /*cp=*/{0, 1, 2}, /*ir=*/{0, 0},
                       /*vals=*/{1.0, 1.0});
  EXPECT_FALSE(d.check_invariants());
}

TEST(Dcsc, InvariantCheckerCatchesEmptyStoredColumn) {
  DcscMatrix<double> d(4, 4, /*jc=*/{1, 2}, /*cp=*/{0, 0, 2}, /*ir=*/{0, 1},
                       /*vals=*/{1.0, 1.0});
  EXPECT_FALSE(d.check_invariants());
}

TEST(Dcsc, ConstructorValidatesShape) {
  EXPECT_THROW(DcscMatrix<double>(2, 2, {0}, {0}, {0}, {1.0}), std::invalid_argument);
  EXPECT_THROW(DcscMatrix<double>(2, 2, {0}, {0, 2}, {0}, {1.0}), std::invalid_argument);
}

TEST(Dcsc, FromCooMatchesCscThenDcscRoute) {
  CooMatrix<double> unsorted(4, 6);  // out of order, with duplicate keys
  unsorted.push(3, 5, 1.0);
  unsorted.push(0, 1, 2.0);
  unsorted.push(3, 5, 0.5);
  unsorted.push(2, 0, -1.0);
  unsorted.push(0, 1, 1.0);
  CooMatrix<double> hyper(7, 1000000);  // hypersparse: 3 nonzeros
  hyper.push(6, 3, 1.0);
  hyper.push(0, 500000, 2.0);
  hyper.push(2, 999999, 3.0);
  for (const auto& coo : {hypersparse_coo(), unsorted, hyper, CooMatrix<double>(3, 4)}) {
    const auto d = DcscMatrix<double>::from_coo(coo);
    EXPECT_EQ(d, DcscMatrix<double>::from_csc(CscMatrix<double>::from_coo(coo)));
    EXPECT_TRUE(d.check_invariants());
  }
  EXPECT_TRUE(hypersparse_coo().is_canonical());
  EXPECT_EQ(DcscMatrix<double>::from_coo(unsorted).nzc(), 3);
  EXPECT_EQ(DcscMatrix<double>::from_coo(hyper).nzc(), 3);
}

TEST(Dcsc, StorageIsNzcNotNcols) {
  // A 1e6-column matrix with 2 nonzeros must not allocate per-column arrays.
  CooMatrix<double> m(10, 1000000);
  m.push(1, 999999, 1.0);
  m.push(0, 500000, 2.0);
  auto d = DcscMatrix<double>::from_coo(m);
  EXPECT_EQ(d.nzc(), 2);
  EXPECT_EQ(d.cp().size(), 3u);
}

}  // namespace
}  // namespace sa1d
