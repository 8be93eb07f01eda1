// Coordinate (triples) format: the assembly/interchange format of sa1d.
#pragma once

#include <algorithm>
#include <vector>

#include "util/common.hpp"

namespace sa1d {

/// One nonzero element.
template <typename VT = double>
struct Triple {
  index_t row = 0;
  index_t col = 0;
  VT val{};

  friend bool operator==(const Triple&, const Triple&) = default;
};

/// Sparse matrix in coordinate form. Triples may be unsorted and contain
/// duplicates until canonicalize() is called.
template <typename VT = double>
class CooMatrix {
 public:
  using value_type = VT;

  CooMatrix() = default;
  CooMatrix(index_t nrows, index_t ncols) : nrows_(nrows), ncols_(ncols) {
    require(nrows >= 0 && ncols >= 0, "CooMatrix: negative dimension");
  }
  CooMatrix(index_t nrows, index_t ncols, std::vector<Triple<VT>> triples)
      : nrows_(nrows), ncols_(ncols), t_(std::move(triples)) {
    require(nrows >= 0 && ncols >= 0, "CooMatrix: negative dimension");
  }

  [[nodiscard]] index_t nrows() const { return nrows_; }
  [[nodiscard]] index_t ncols() const { return ncols_; }
  [[nodiscard]] index_t nnz() const { return static_cast<index_t>(t_.size()); }

  void push(index_t r, index_t c, VT v) {
    assert(r >= 0 && r < nrows_ && c >= 0 && c < ncols_);
    t_.push_back({r, c, v});
  }

  [[nodiscard]] const std::vector<Triple<VT>>& triples() const { return t_; }
  std::vector<Triple<VT>>& triples() { return t_; }

  /// Sorts column-major (col, then row) and sums duplicates. Drops explicit
  /// zeros produced by cancellation only if `drop_zeros`.
  void canonicalize(bool drop_zeros = false) {
    std::sort(t_.begin(), t_.end(), [](const Triple<VT>& a, const Triple<VT>& b) {
      return a.col != b.col ? a.col < b.col : a.row < b.row;
    });
    std::size_t w = 0;
    for (std::size_t i = 0; i < t_.size();) {
      Triple<VT> acc = t_[i++];
      while (i < t_.size() && t_[i].row == acc.row && t_[i].col == acc.col)
        acc.val += t_[i++].val;
      if (!drop_zeros || acc.val != VT{}) t_[w++] = acc;
    }
    t_.resize(w);
  }

  /// True if triples are column-major sorted with no duplicates.
  [[nodiscard]] bool is_canonical() const {
    for (std::size_t i = 1; i < t_.size(); ++i) {
      const auto& a = t_[i - 1];
      const auto& b = t_[i];
      if (a.col > b.col || (a.col == b.col && a.row >= b.row)) return false;
    }
    return true;
  }

  friend bool operator==(const CooMatrix& a, const CooMatrix& b) {
    return a.nrows_ == b.nrows_ && a.ncols_ == b.ncols_ && a.t_ == b.t_;
  }

 private:
  index_t nrows_ = 0;
  index_t ncols_ = 0;
  std::vector<Triple<VT>> t_;
};

}  // namespace sa1d
