// Coordinate (triples) format: the assembly/interchange format of sa1d.
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
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

  /// Sorts column-major (col, then row) and merges duplicates with `add`
  /// (any associative/commutative ⊕ — the distributed backends pass their
  /// semiring's add so partial-product merges keep semiring semantics).
  /// Drops explicit zeros produced by cancellation only if `drop_zeros`.
  template <typename Add>
  void canonicalize_with(Add add, bool drop_zeros = false) {
    std::sort(t_.begin(), t_.end(), [](const Triple<VT>& a, const Triple<VT>& b) {
      return a.col != b.col ? a.col < b.col : a.row < b.row;
    });
    std::size_t w = 0;
    for (std::size_t i = 0; i < t_.size();) {
      Triple<VT> acc = t_[i++];
      while (i < t_.size() && t_[i].row == acc.row && t_[i].col == acc.col)
        acc.val = add(acc.val, t_[i++].val);
      if (!drop_zeros || acc.val != VT{}) t_[w++] = acc;
    }
    t_.resize(w);
  }

  /// canonicalize_with over plain addition (the numeric semiring's merge).
  void canonicalize(bool drop_zeros = false) {
    canonicalize_with([](VT a, VT b) { return a + b; }, drop_zeros);
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

/// Streaming deterministic merge of partial triples: call round() after
/// appending each batch — a SUMMA stage, a ring hop, one scatter chunk — and
/// the vector collapses to canonical (col-major, unique-key) form after every
/// round instead of holding all pushes until a terminal merge. The peak
/// footprint is (merged so far + one round's pushes), which is what the
/// peak-triples budget bounds.
///
/// A round is one linear two-way merge of the canonical prefix
/// [0, merged()) with the run appended since the last round. A run already
/// sorted by (col, row) — a SUMMA stage's CSC block, a canonical sender's
/// scatter chunk — is merged as is; any other run gets a stable sort of the
/// run alone, column by column when it is sorted by column (a ring hop's,
/// with rows out of order and repeated keys). Cost per round: O(N + R) for
/// a sorted run, O(N + R log R) otherwise (N = prefix length, R = run
/// length), plus one remap of every earlier push's slot when the fold
/// program is captured.
///
/// Tie rule and bit-identity: on equal keys the prefix entry goes first,
/// then the run's entries in push order, so each key's value is the left
/// ⊕-fold of its pushes in push order — for any ⊕, commutative or not. The
/// merged array AND the composed dst/first fold program after the last
/// round are byte-identical to one terminal stable merge (sort by (col, row,
/// push index), fold left to right) over the same pushes, wherever the
/// round boundaries fall; replay programs captured either way are
/// interchangeable. The round's output and scratch buffers are freed when
/// it returns, so between rounds only the caller's vector is resident.
template <typename VT>
class StreamingTripleMerge {
 public:
  /// Canonical prefix length of the vector after the last round().
  [[nodiscard]] std::size_t merged() const { return merged_; }
  void reset() { merged_ = 0; }

  /// Merges the triples appended since the previous round (positions
  /// [merged(), t.size())) into the canonical prefix. `dst`/`first`
  /// (optional, but only together) hold the composed fold program across
  /// all rounds so far: push i lands in output slot (*dst)[i], assigning
  /// when (*first)[i] and ⊕-accumulating otherwise. Entries for earlier
  /// pushes are remapped through this round's slot movement (a prefix entry
  /// never gains or loses a push, so their first flags are untouched);
  /// entries for this round's pushes are appended.
  template <typename Add>
  void round(std::vector<Triple<VT>>& t, Add add, std::vector<index_t>* dst = nullptr,
             std::vector<std::uint8_t>* first = nullptr) {
    require((dst == nullptr) == (first == nullptr),
            "StreamingTripleMerge::round: dst and first capture the fold program "
            "together — pass both or neither");
    const std::size_t m = merged_;
    const std::size_t n = t.size();
    if (n == m) return;  // nothing appended this round
    const bool capture = dst != nullptr;
    const std::size_t r = n - m;

    // Run order: one linear pass finds out whether the run is sorted by
    // (col, row), or at least by column.
    bool sorted = true, col_sorted = true;
    for (std::size_t i = m + 1; i < n; ++i) {
      if (t[i].col < t[i - 1].col) col_sorted = false;
      if (less(t[i], t[i - 1])) sorted = false;
    }
    std::vector<std::size_t> order;
    if (!sorted) {
      // Stable indirect sort of the run alone, by (col, row, push index); a
      // column-sorted run (a ring hop's) sorts column by column — many short
      // sorts instead of one long one.
      order.resize(r);
      std::iota(order.begin(), order.end(), std::size_t{0});
      auto by_key = [&](std::size_t x, std::size_t y) {
        const auto& a = t[m + x];
        const auto& b = t[m + y];
        if (a.col != b.col) return a.col < b.col;
        if (a.row != b.row) return a.row < b.row;
        return x < y;
      };
      std::size_t lo = 0;
      for (std::size_t hi = 1; hi <= r; ++hi) {
        if (hi < r && (!col_sorted || t[m + hi].col == t[m + lo].col)) continue;
        std::sort(order.begin() + static_cast<std::ptrdiff_t>(lo),
                  order.begin() + static_cast<std::ptrdiff_t>(hi), by_key);
        lo = hi;
      }
    }

    std::vector<Triple<VT>> out;
    out.reserve(n);
    std::vector<index_t> slot;  // prefix entry -> merged slot (capture only)
    const std::size_t pushed = capture ? dst->size() : 0;  // pushes of earlier rounds
    if (capture) {
      slot.resize(m);
      dst->resize(pushed + r);
      first->resize(pushed + r, 0);
    }
    std::size_t i = 0;
    for (std::size_t k = 0; k < r; ++k) {
      const std::size_t j = sorted ? k : order[k];  // push offset within the run
      const auto& x = t[m + j];
      // Prefix entries up to and including x's key go first; prefix keys are
      // unique and precede every equal run key, so each opens its own slot.
      for (; i < m && !less(x, t[i]); ++i) {
        if (capture) slot[i] = static_cast<index_t>(out.size());
        out.push_back(t[i]);
      }
      if (!out.empty() && out.back().col == x.col && out.back().row == x.row) {
        out.back().val = add(out.back().val, x.val);
      } else {
        out.push_back(x);
        if (capture) (*first)[pushed + j] = 1;
      }
      if (capture) (*dst)[pushed + j] = static_cast<index_t>(out.size() - 1);
    }
    for (; i < m; ++i) {
      if (capture) slot[i] = static_cast<index_t>(out.size());
      out.push_back(t[i]);
    }
    for (std::size_t q = 0; q < pushed; ++q)
      (*dst)[q] = slot[static_cast<std::size_t>((*dst)[q])];
    t.swap(out);  // the pre-merge buffer dies with `out`, as the callers' gauges assume
    merged_ = t.size();
  }

 private:
  static bool less(const Triple<VT>& a, const Triple<VT>& b) {
    return a.col != b.col ? a.col < b.col : a.row < b.row;
  }

  std::size_t merged_ = 0;
};

}  // namespace sa1d
