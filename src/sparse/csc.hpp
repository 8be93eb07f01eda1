// Compressed Sparse Column format: the workhorse local format for kernels.
#pragma once

#include <span>
#include <vector>

#include "sparse/coo.hpp"
#include "util/common.hpp"

namespace sa1d {

/// CSC sparse matrix. Rows within each column are sorted ascending.
template <typename VT = double>
class CscMatrix {
 public:
  using value_type = VT;

  CscMatrix() : colptr_(1, 0) {}
  CscMatrix(index_t nrows, index_t ncols)
      : nrows_(nrows), ncols_(ncols), colptr_(static_cast<std::size_t>(ncols) + 1, 0) {
    require(nrows >= 0 && ncols >= 0, "CscMatrix: negative dimension");
  }

  /// Builds from raw arrays (takes ownership). Validates structure.
  CscMatrix(index_t nrows, index_t ncols, std::vector<index_t> colptr,
            std::vector<index_t> rowids, std::vector<VT> vals)
      : nrows_(nrows),
        ncols_(ncols),
        colptr_(std::move(colptr)),
        rowids_(std::move(rowids)),
        vals_(std::move(vals)) {
    require(colptr_.size() == static_cast<std::size_t>(ncols) + 1, "CscMatrix: bad colptr size");
    require(rowids_.size() == vals_.size(), "CscMatrix: rowids/vals size mismatch");
    require(colptr_.front() == 0 && colptr_.back() == static_cast<index_t>(rowids_.size()),
            "CscMatrix: bad colptr bounds");
  }

  /// Conversion from COO: canonical input converts directly; any other
  /// input is canonicalized (sorted, duplicates summed) in a copy first.
  static CscMatrix from_coo(const CooMatrix<VT>& coo) {
    if (!coo.is_canonical()) {
      CooMatrix<VT> c = coo;
      c.canonicalize();
      return from_coo(c);
    }
    const auto& t = coo.triples();
    CscMatrix out(coo.nrows(), coo.ncols());
    out.rowids_.resize(t.size());
    out.vals_.resize(t.size());
    for (std::size_t p = 0; p < t.size(); ++p) {
      ++out.colptr_[static_cast<std::size_t>(t[p].col) + 1];
      out.rowids_[p] = t[p].row;
      out.vals_[p] = t[p].val;
    }
    for (std::size_t j = 0; j < static_cast<std::size_t>(coo.ncols()); ++j)
      out.colptr_[j + 1] += out.colptr_[j];
    return out;
  }

  [[nodiscard]] CooMatrix<VT> to_coo() const {
    CooMatrix<VT> out(nrows_, ncols_);
    for (index_t j = 0; j < ncols_; ++j)
      for (index_t p = colptr_[static_cast<std::size_t>(j)];
           p < colptr_[static_cast<std::size_t>(j) + 1]; ++p)
        out.push(rowids_[static_cast<std::size_t>(p)], j, vals_[static_cast<std::size_t>(p)]);
    return out;
  }

  [[nodiscard]] index_t nrows() const { return nrows_; }
  [[nodiscard]] index_t ncols() const { return ncols_; }
  [[nodiscard]] index_t nnz() const { return static_cast<index_t>(rowids_.size()); }

  /// Number of columns containing at least one nonzero (paper: nzc(A)).
  [[nodiscard]] index_t nzc() const {
    index_t c = 0;
    for (index_t j = 0; j < ncols_; ++j)
      if (col_nnz(j) > 0) ++c;
    return c;
  }

  [[nodiscard]] index_t col_nnz(index_t j) const {
    return colptr_[static_cast<std::size_t>(j) + 1] - colptr_[static_cast<std::size_t>(j)];
  }
  [[nodiscard]] std::span<const index_t> col_rows(index_t j) const {
    return {rowids_.data() + colptr_[static_cast<std::size_t>(j)],
            static_cast<std::size_t>(col_nnz(j))};
  }
  [[nodiscard]] std::span<const VT> col_vals(index_t j) const {
    return {vals_.data() + colptr_[static_cast<std::size_t>(j)],
            static_cast<std::size_t>(col_nnz(j))};
  }

  [[nodiscard]] const std::vector<index_t>& colptr() const { return colptr_; }
  [[nodiscard]] const std::vector<index_t>& rowids() const { return rowids_; }
  [[nodiscard]] const std::vector<VT>& vals() const { return vals_; }
  /// Mutable view of the value array only — the structure (colptr/rowids)
  /// stays fixed. Lets the inspector–executor replay overwrite values in
  /// place between numeric passes instead of rebuilding the matrix.
  [[nodiscard]] std::vector<VT>& mutable_vals() { return vals_; }

  friend bool operator==(const CscMatrix& a, const CscMatrix& b) {
    return a.nrows_ == b.nrows_ && a.ncols_ == b.ncols_ && a.colptr_ == b.colptr_ &&
           a.rowids_ == b.rowids_ && a.vals_ == b.vals_;
  }

 private:
  index_t nrows_ = 0;
  index_t ncols_ = 0;
  std::vector<index_t> colptr_;
  std::vector<index_t> rowids_;
  std::vector<VT> vals_;
};

}  // namespace sa1d
