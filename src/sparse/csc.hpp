// Compressed Sparse Column format: the workhorse local format for kernels.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <type_traits>
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

/// Folds one run of partial entries into the accumulator `acc`, column by
/// column: the deterministic ⊕-merge the grid backends build C with (a SUMMA
/// stage's block, an arriving scatter chunk). The run is CSC-shaped over
/// acc's columns — `colptr` holds acc.ncols()+1 offsets into `rows`/`vals`
/// — and a column's rows may repeat but must be sorted ascending (an
/// unsorted column is a require failure). Each column is one linear two-way
/// merge. On equal rows the
/// accumulator entry goes first, then the run's entries in run order, so
/// every key holds the left ⊕-fold of its entries in the order they were
/// folded in, for any ⊕. A key's first entry is assigned, never ⊕-ed onto
/// a zero. Cost: O(nnz(acc) + ncols + run length), plus, when capturing,
/// one remap of every earlier entry.
///
/// `dst`/`first` (optional, but only together) hold the composed fold
/// program over every run folded so far: entry i lands in output slot
/// (*dst)[i], assigning when (*first)[i] and ⊕-accumulating otherwise.
/// Earlier entries are remapped through this fold's slot movement (an
/// accumulator entry never gains or loses an entry, so their first flags
/// stand); this run's entries are appended in run order. Replaying the
/// program over the entries' values reproduces acc's values bit for bit.
template <typename VT, typename Add>
void fold_column_run(CscMatrix<VT>& acc, std::span<const index_t> colptr,
                     std::span<const index_t> rows,
                     std::span<const std::type_identity_t<VT>> vals, Add add,
                     std::vector<index_t>* dst = nullptr,
                     std::vector<std::uint8_t>* first = nullptr) {
  require((dst == nullptr) == (first == nullptr),
          "fold_column_run: dst and first capture the fold program together — pass both or "
          "neither");
  require(colptr.size() == acc.colptr().size() && rows.size() == vals.size() &&
              colptr.back() == static_cast<index_t>(rows.size()),
          "fold_column_run: the run must be CSC-shaped over the accumulator's columns");
  if (rows.empty()) return;
  const bool capture = dst != nullptr;
  const auto& ap = acc.colptr();
  const auto& ar = acc.rowids();
  const auto& av = acc.vals();
  const std::size_t m = ar.size();
  std::vector<index_t> cp(ap.size(), 0), out_rows;
  std::vector<VT> out_vals;
  out_rows.reserve(m + rows.size());
  out_vals.reserve(m + rows.size());
  std::vector<index_t> slot;  // accumulator entry -> output slot (capture only)
  const std::size_t pushed = capture ? dst->size() : 0;  // entries of earlier runs
  if (capture) {
    slot.resize(m);
    dst->resize(pushed + rows.size());
    first->resize(pushed + rows.size(), 0);
  }
  for (std::size_t j = 0; j + 1 < ap.size(); ++j) {
    auto i = static_cast<std::size_t>(ap[j]);
    const auto ie = static_cast<std::size_t>(ap[j + 1]);
    const auto klo = static_cast<std::size_t>(colptr[j]);
    const auto khi = static_cast<std::size_t>(colptr[j + 1]);
    const std::size_t col0 = out_rows.size();
    require(std::is_sorted(rows.begin() + static_cast<std::ptrdiff_t>(klo),
                           rows.begin() + static_cast<std::ptrdiff_t>(khi)),
            "fold_column_run: a column's rows must be sorted ascending");
    for (std::size_t k = klo; k < khi; ++k) {
      const index_t row = rows[k];
      // Accumulator entries up to and including the run entry's row go
      // first; they are unique, so each opens its own slot.
      for (; i < ie && ar[i] <= row; ++i) {
        if (capture) slot[i] = static_cast<index_t>(out_rows.size());
        out_rows.push_back(ar[i]);
        out_vals.push_back(av[i]);
      }
      if (out_rows.size() > col0 && out_rows.back() == row) {
        out_vals.back() = add(out_vals.back(), vals[k]);
      } else {
        out_rows.push_back(row);
        out_vals.push_back(vals[k]);
        if (capture) (*first)[pushed + k] = 1;
      }
      if (capture) (*dst)[pushed + k] = static_cast<index_t>(out_rows.size() - 1);
    }
    for (; i < ie; ++i) {
      if (capture) slot[i] = static_cast<index_t>(out_rows.size());
      out_rows.push_back(ar[i]);
      out_vals.push_back(av[i]);
    }
    cp[j + 1] = static_cast<index_t>(out_rows.size());
  }
  for (std::size_t q = 0; q < pushed; ++q)
    (*dst)[q] = slot[static_cast<std::size_t>((*dst)[q])];
  // The pre-fold arrays die here, as the callers' gauges assume.
  acc = CscMatrix<VT>(acc.nrows(), acc.ncols(), std::move(cp), std::move(out_rows),
                      std::move(out_vals));
}

}  // namespace sa1d
