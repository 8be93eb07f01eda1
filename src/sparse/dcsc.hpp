// Double Compressed Sparse Column (Buluç & Gilbert, IPDPS 2008): the format
// the paper uses for local submatrices. Column pointers are stored only for
// the nzc nonzero columns, making storage O(nnz + nzc) instead of
// O(nnz + ncols) — essential for hypersparse 1D/2D slices.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "sparse/csc.hpp"
#include "util/common.hpp"

namespace sa1d {

/// DCSC sparse matrix.
///   jc : global/local ids of nonzero columns, ascending (size nzc)
///   cp : prefix offsets into ir/vals per nonzero column (size nzc+1)
///   ir : row ids, sorted within each column
template <typename VT = double>
class DcscMatrix {
 public:
  using value_type = VT;

  DcscMatrix() : cp_(1, 0) {}
  DcscMatrix(index_t nrows, index_t ncols) : nrows_(nrows), ncols_(ncols), cp_(1, 0) {
    require(nrows >= 0 && ncols >= 0, "DcscMatrix: negative dimension");
  }
  DcscMatrix(index_t nrows, index_t ncols, std::vector<index_t> jc, std::vector<index_t> cp,
             std::vector<index_t> ir, std::vector<VT> vals)
      : nrows_(nrows),
        ncols_(ncols),
        jc_(std::move(jc)),
        cp_(std::move(cp)),
        ir_(std::move(ir)),
        vals_(std::move(vals)) {
    require(cp_.size() == jc_.size() + 1, "DcscMatrix: cp/jc size mismatch");
    require(ir_.size() == vals_.size(), "DcscMatrix: ir/vals size mismatch");
    require(cp_.front() == 0 && cp_.back() == static_cast<index_t>(ir_.size()),
            "DcscMatrix: bad cp bounds");
  }

  static DcscMatrix from_csc(const CscMatrix<VT>& a) {
    DcscMatrix out(a.nrows(), a.ncols());
    const auto nzc = static_cast<std::size_t>(a.nzc());
    out.jc_.reserve(nzc);
    out.cp_.reserve(nzc + 1);
    for (index_t j = 0; j < a.ncols(); ++j) {
      if (a.col_nnz(j) == 0) continue;
      out.jc_.push_back(j);
      out.cp_.push_back(a.colptr()[static_cast<std::size_t>(j) + 1]);
    }
    // Empty columns hold no entries, so the row ids and values are CSC's
    // arrays verbatim: one exact-size copy each.
    out.ir_ = a.rowids();
    out.vals_ = a.vals();
    return out;
  }

  /// Conversion from COO without an O(ncols) detour: canonical input builds
  /// jc/cp/ir/vals directly; any other input is canonicalized (sorted,
  /// duplicates summed) in a copy first.
  static DcscMatrix from_coo(const CooMatrix<VT>& coo) {
    if (!coo.is_canonical()) {
      CooMatrix<VT> c = coo;
      c.canonicalize();
      return from_coo(c);
    }
    const auto& t = coo.triples();
    DcscMatrix out(coo.nrows(), coo.ncols());
    out.ir_.resize(t.size());
    out.vals_.resize(t.size());
    for (std::size_t p = 0; p < t.size(); ++p) {
      if (p == 0 || t[p].col != t[p - 1].col) {
        if (p != 0) out.cp_.push_back(static_cast<index_t>(p));
        out.jc_.push_back(t[p].col);
      }
      out.ir_[p] = t[p].row;
      out.vals_[p] = t[p].val;
    }
    if (!t.empty()) out.cp_.push_back(static_cast<index_t>(t.size()));
    return out;
  }

  [[nodiscard]] CscMatrix<VT> to_csc() const {
    std::vector<index_t> colptr(static_cast<std::size_t>(ncols_) + 1, 0);
    for (std::size_t k = 0; k < jc_.size(); ++k)
      colptr[static_cast<std::size_t>(jc_[k]) + 1] = cp_[k + 1] - cp_[k];
    for (std::size_t j = 0; j < static_cast<std::size_t>(ncols_); ++j) colptr[j + 1] += colptr[j];
    return CscMatrix<VT>(nrows_, ncols_, std::move(colptr), ir_, vals_);
  }

  [[nodiscard]] index_t nrows() const { return nrows_; }
  [[nodiscard]] index_t ncols() const { return ncols_; }
  [[nodiscard]] index_t nnz() const { return static_cast<index_t>(ir_.size()); }
  /// Number of nonzero columns.
  [[nodiscard]] index_t nzc() const { return static_cast<index_t>(jc_.size()); }

  /// Column id of the k-th nonzero column.
  [[nodiscard]] index_t col_id(index_t k) const { return jc_[static_cast<std::size_t>(k)]; }
  [[nodiscard]] index_t col_nnz_at(index_t k) const {
    return cp_[static_cast<std::size_t>(k) + 1] - cp_[static_cast<std::size_t>(k)];
  }
  [[nodiscard]] std::span<const index_t> col_rows_at(index_t k) const {
    return {ir_.data() + cp_[static_cast<std::size_t>(k)], static_cast<std::size_t>(col_nnz_at(k))};
  }
  [[nodiscard]] std::span<const VT> col_vals_at(index_t k) const {
    return {vals_.data() + cp_[static_cast<std::size_t>(k)],
            static_cast<std::size_t>(col_nnz_at(k))};
  }

  /// Position of column id `j` among nonzero columns, or -1 if structurally empty.
  [[nodiscard]] index_t find_col(index_t j) const {
    auto it = std::lower_bound(jc_.begin(), jc_.end(), j);
    if (it == jc_.end() || *it != j) return -1;
    return static_cast<index_t>(it - jc_.begin());
  }

  [[nodiscard]] const std::vector<index_t>& jc() const { return jc_; }
  [[nodiscard]] const std::vector<index_t>& cp() const { return cp_; }
  [[nodiscard]] const std::vector<index_t>& ir() const { return ir_; }
  [[nodiscard]] const std::vector<VT>& vals() const { return vals_; }
  /// Mutable view of the value array only — the structure (jc/cp/ir) stays
  /// fixed. Lets the inspector–executor replay overwrite values in place
  /// (same contract as CscMatrix::mutable_vals).
  [[nodiscard]] std::vector<VT>& mutable_vals() { return vals_; }

  /// Structural invariants (used by tests): jc ascending, cp monotone,
  /// rows sorted in-column, every stored column nonempty.
  [[nodiscard]] bool check_invariants() const {
    if (cp_.size() != jc_.size() + 1 || cp_.front() != 0) return false;
    if (cp_.back() != static_cast<index_t>(ir_.size())) return false;
    for (std::size_t k = 0; k + 1 < jc_.size(); ++k)
      if (jc_[k] >= jc_[k + 1]) return false;
    for (std::size_t k = 0; k < jc_.size(); ++k) {
      if (cp_[k] >= cp_[k + 1]) return false;  // stored columns must be nonempty
      for (index_t p = cp_[k] + 1; p < cp_[k + 1]; ++p)
        if (ir_[static_cast<std::size_t>(p) - 1] >= ir_[static_cast<std::size_t>(p)]) return false;
    }
    for (auto j : jc_)
      if (j < 0 || j >= ncols_) return false;
    for (auto r : ir_)
      if (r < 0 || r >= nrows_) return false;
    return true;
  }

  friend bool operator==(const DcscMatrix& a, const DcscMatrix& b) {
    return a.nrows_ == b.nrows_ && a.ncols_ == b.ncols_ && a.jc_ == b.jc_ && a.cp_ == b.cp_ &&
           a.ir_ == b.ir_ && a.vals_ == b.vals_;
  }

 private:
  index_t nrows_ = 0;
  index_t ncols_ = 0;
  std::vector<index_t> jc_;
  std::vector<index_t> cp_;
  std::vector<index_t> ir_;
  std::vector<VT> vals_;
};

}  // namespace sa1d
