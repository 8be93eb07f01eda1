// Redistribution primitives between the 1D column distribution (the
// library's canonical layout) and the 2D/3D process-grid block layouts the
// SUMMA-family backends compute on. Every primitive is a single
// personalized all-to-all — O(nnz/P) per rank, no rank-0 gather — and is
// Phase-scoped so the cost shows up in the comparable RankReport breakdown.
//
// Both primitives are *routes*: which nonzero goes to which rank, and where
// it lands in the receiver's block, depends only on the operands' sparsity
// structure. Operands route in as triples; partial C routes out as CSC
// column slices (a row and a value per nonzero) that fold into the
// receiver's CSC accumulator with fold_column_run (sparse/csc.hpp).
// Passing a GridRoute/ScatterRoute capture pointer records the value-gather
// maps and the receiver-side placement/fold program while the fresh call
// runs; spgemm_grid_replay (dist/summa2d.hpp) then re-executes the same
// exchanges moving only values (sizeof(VT) per element), bit-identical to
// the fresh result.
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "dist/dist_matrix.hpp"
#include "runtime/machine.hpp"
#include "sparse/csc.hpp"

namespace sa1d {

/// Resolves and validates the q_r × q_c process grid for P ranks: auto
/// shape when both overrides are 0 (nearest-square factorization — always
/// exists, so every P ≥ 1 is feasible), a pinned shape otherwise. Throws
/// with an actionable message naming the divisors of P when a pinned shape
/// does not factor P.
inline GridShape require_grid_shape(int P, int grid_rows, int grid_cols, const char* who) {
  GridShape g = summa_grid_shape(P, grid_rows, grid_cols);
  if (g.rows >= 1 && g.cols >= 1 && g.rows * g.cols == P) return g;
  std::string msg = std::string(who) + ": grid_rows=" + std::to_string(grid_rows) +
                    " grid_cols=" + std::to_string(grid_cols) +
                    " cannot tile P=" + std::to_string(P) +
                    " ranks (grid_rows*grid_cols must equal P); usable side lengths are {";
  auto divs = valid_layer_counts(P);  // the divisors of P
  for (std::size_t i = 0; i < divs.size(); ++i)
    msg += (i != 0U ? ", " : "") + std::to_string(divs[i]);
  msg += "}, or leave both 0 for the nearest-square factorization";
  require(false, msg);
  return g;  // unreachable
}

/// Validates that the layer count divides P (each layer then runs on any
/// rectangular factorization of P/layers, so every divisor is usable); the
/// error lists the valid layer counts.
inline void require_split3d_layers(int P, int layers, const char* who) {
  if (layers >= 1 && layers <= P && P % layers == 0) return;
  auto valid = valid_layer_counts(P);
  std::string msg = std::string(who) + ": layers=" + std::to_string(layers) + " with P=" +
                    std::to_string(P) +
                    " ranks cannot form layers x (q_r x q_c) grids (layers must divide P);"
                    " valid layer counts for P=" +
                    std::to_string(P) + " are {";
  for (std::size_t i = 0; i < valid.size(); ++i)
    msg += (i != 0U ? ", " : "") + std::to_string(valid[i]);
  msg += "}";
  require(false, msg);
}

/// Cached 1D→grid route: the structural half of one
/// redistribute_1d_to_2d_grid call, captured while the fresh exchange runs.
/// spgemm_grid_replay re-executes it moving only values.
template <typename VT>
struct GridRoute {
  /// Per destination rank: positions into the local slice's val array, in
  /// the exact order the fresh call packed triples.
  std::vector<std::vector<index_t>> send_src;
  /// Per source rank: element count of its chunk (replay sizes + accounting).
  /// The flat-th received value (ranks in order, chunk order within each
  /// rank) is slot `flat` of `block`'s val array.
  std::vector<index_t> recv_counts;
  /// This rank's cached block: structure final, values overwritten per replay.
  CscMatrix<VT> block;

  /// Exact per-rank collective bytes a value-only replay receives over the
  /// network (self-chunks are local copies, not messages).
  [[nodiscard]] std::uint64_t replay_recv_bytes(int me) const {
    std::uint64_t b = 0;
    for (std::size_t r = 0; r < recv_counts.size(); ++r)
      if (static_cast<int>(r) != me)
        b += static_cast<std::uint64_t>(recv_counts[r]) * sizeof(VT);
    return b;
  }

  /// Byte-accurate residency of the cached route on this rank (major arrays
  /// only) — what the plan cache's budget accounts against.
  [[nodiscard]] std::uint64_t bytes_resident() const {
    std::uint64_t b = 0;
    for (const auto& src : send_src) b += src.size() * sizeof(index_t);
    b += recv_counts.size() * sizeof(index_t);
    b += block.colptr().size() * sizeof(index_t) + block.rowids().size() * sizeof(index_t) +
         block.vals().size() * sizeof(VT);
    return b;
  }
};

/// Redistributes a 1D column-distributed matrix into the blocks of a
/// process grid: the rank `rank_of(bi, bj)` receives block
/// [row_bounds[bi], row_bounds[bi+1]) × [col_bounds[bj], col_bounds[bj+1])
/// in block-local coordinates; this rank's own block (`my_bi`, `my_bj`) is
/// returned as CSC. The bounds arrays may describe any rectangular tiling
/// (the 3D backend passes layer-concatenated inner bounds), so one
/// primitive serves both grid shapes. Collective. `route` (optional)
/// captures the value-only replay program; the returned block is identical
/// either way.
template <typename VT, typename RankOf>
CscMatrix<VT> redistribute_1d_to_2d_grid(Comm& comm, const DistMatrix1D<VT>& m,
                                         std::span<const index_t> row_bounds,
                                         std::span<const index_t> col_bounds, RankOf rank_of,
                                         int my_bi, int my_bj, GridRoute<VT>* route = nullptr) {
  const int P = comm.size();
  std::vector<std::vector<Triple<VT>>> send(static_cast<std::size_t>(P));
  {
    auto ph = comm.phase(Phase::Other);
    if (route != nullptr) route->send_src.assign(static_cast<std::size_t>(P), {});
    const auto& ml = m.local();
    for (index_t k = 0; k < ml.nzc(); ++k) {
      const index_t gcol = m.global_col(k);
      const int bj = find_owner(col_bounds, gcol);
      const index_t clo = col_bounds[static_cast<std::size_t>(bj)];
      const index_t base = ml.cp()[static_cast<std::size_t>(k)];
      auto rows = ml.col_rows_at(k);
      auto vals = ml.col_vals_at(k);
      for (std::size_t p = 0; p < rows.size(); ++p) {
        const int bi = find_owner(row_bounds, rows[p]);
        const auto dest = static_cast<std::size_t>(rank_of(bi, bj));
        send[dest].push_back(
            {rows[p] - row_bounds[static_cast<std::size_t>(bi)], gcol - clo, vals[p]});
        if (route != nullptr) route->send_src[dest].push_back(base + static_cast<index_t>(p));
      }
    }
  }
  const index_t nr = row_bounds[static_cast<std::size_t>(my_bi) + 1] -
                     row_bounds[static_cast<std::size_t>(my_bi)];
  const index_t nc = col_bounds[static_cast<std::size_t>(my_bj) + 1] -
                     col_bounds[static_cast<std::size_t>(my_bj)];
  CooMatrix<VT> blk(nr, nc);
  std::vector<index_t> counts(static_cast<std::size_t>(P), 0);
  auto& rep = comm.report();
  constexpr std::uint64_t tb = sizeof(Triple<VT>);
  // Pipelined receive: fold each source's chunk into the block as it
  // arrives, in ascending rank order — the flat order the captured route
  // indexes; later chunks' modeled transfer time hides behind earlier
  // chunks' push work.
  auto req = comm.ialltoallv(std::move(send));
  for (int p = 0; p < P; ++p) {
    auto chunk = req.take_from(p);
    counts[static_cast<std::size_t>(p)] = static_cast<index_t>(chunk.size());
    auto ph_push = comm.phase(Phase::Other);
    rep.mem_charge(chunk.size(), chunk.size() * tb);  // block assembly
    blk.triples().insert(blk.triples().end(), chunk.begin(), chunk.end());
  }
  auto ph = comm.phase(Phase::Other);
  // Sources own ascending column ranges and send their chunks column-major
  // with rows ascending (the DCSC invariant), so the rank-ordered
  // concatenation is canonical: the block needs no sort, and a replay writes
  // the flat incoming values straight into the cached block's val array.
  require(blk.is_canonical(),
          "redistribute_1d_to_2d_grid: the arrivals are not canonical — a local slice "
          "breaks the DCSC invariant (columns ascending, rows ascending within a column)");
  auto out = CscMatrix<VT>::from_coo(blk);
  // The COO assembly buffer dies here; the CSC block it became is a
  // resident operand block, outside the transient-triples budget.
  rep.mem_release(blk.triples().size(), blk.triples().size() * tb);
  if (route != nullptr) {
    auto ph_plan = comm.phase(Phase::Plan);
    route->recv_counts = std::move(counts);
    route->block = out;
  }
  return out;
}

/// Cached partial-C→1D scatter/merge program: the structural half of one
/// redistribute_csc_to_1d call (which partial goes to which rank, and which
/// slot of the merged 1D slice it ⊕-folds into), captured while the fresh
/// exchange runs. spgemm_grid_replay re-executes it moving only values.
template <typename VT>
struct ScatterRoute {
  std::vector<std::vector<index_t>> send_src;  ///< per dest: positions in the partial's val order
  std::vector<index_t> recv_counts;            ///< per source rank, element counts
  std::vector<index_t> recv_dst;               ///< flat recv idx -> merged local slot
  std::vector<std::uint8_t> recv_first;        ///< 1 = assign, 0 = ⊕-accumulate
  DcscMatrix<VT> c_shell;                      ///< merged local structure (values are scratch)
  index_t nrows = 0, ncols = 0;
  std::vector<index_t> out_bounds;

  [[nodiscard]] std::uint64_t replay_recv_bytes(int me) const {
    std::uint64_t b = 0;
    for (std::size_t r = 0; r < recv_counts.size(); ++r)
      if (static_cast<int>(r) != me)
        b += static_cast<std::uint64_t>(recv_counts[r]) * sizeof(VT);
    return b;
  }

  /// Byte-accurate residency of the cached scatter/merge program (major
  /// arrays only) — what the plan cache's budget accounts against.
  [[nodiscard]] std::uint64_t bytes_resident() const {
    std::uint64_t b = 0;
    for (const auto& src : send_src) b += src.size() * sizeof(index_t);
    b += recv_counts.size() * sizeof(index_t) + recv_dst.size() * sizeof(index_t) +
         recv_first.size() + out_bounds.size() * sizeof(index_t);
    b += c_shell.jc().size() * sizeof(index_t) + c_shell.cp().size() * sizeof(index_t) +
         c_shell.ir().size() * sizeof(index_t) + c_shell.vals().size() * sizeof(VT);
    return b;
  }
};

/// One element of a partial-C column-slice chunk: a partial's global row
/// and value, or — when `row` is negative — the start of the receiver-local
/// column -1 - row, whose partials follow in ascending row order.
template <typename VT>
struct ColumnEntry {
  index_t row;
  VT val;
};

/// Scatters this rank's partial products — the CSC block `part`, whose entry
/// (i, j) is C's (row_base + i, col_base + j) — into the 1D column
/// distribution given by `out_bounds`, folding partials of the same entry
/// (from different Split-3D layers) with the semiring's ⊕. Each destination
/// receives one column slice of the block; arriving slices fold into a CSC
/// accumulator in ascending source order through fold_column_run, so ties
/// fold in arrival order and a captured program replays bit-exactly. One
/// all-to-all by column owner; the result is born distributed (no global
/// gather). Collective. `part` arrives charged to the transient gauge (its
/// nnz, as summa_stages leaves it) and is freed, its charge released, once
/// packed into the send chunks. `route` (optional) captures the value-only
/// replay program.
template <typename SR, typename VT>
DistMatrix1D<VT> redistribute_csc_to_1d(Comm& comm, CscMatrix<VT> part, index_t row_base,
                                        index_t col_base, index_t nrows, index_t ncols,
                                        std::vector<index_t> out_bounds,
                                        ScatterRoute<VT>* route = nullptr) {
  const int P = comm.size();
  require(out_bounds.size() == static_cast<std::size_t>(P) + 1,
          "redistribute_csc_to_1d: out_bounds size must be P+1");
  std::vector<std::vector<ColumnEntry<VT>>> send(static_cast<std::size_t>(P));
  {
    // Destination d owns a contiguous column range, so its partials are one
    // column slice of the block: a column marker per nonempty column, then
    // that column's (global row, value) pairs.
    auto ph = comm.phase(Phase::Other);
    if (route != nullptr) route->send_src.assign(static_cast<std::size_t>(P), {});
    const auto& cp = part.colptr();
    auto local_col = [&](index_t c) { return std::clamp(c - col_base, index_t{0}, part.ncols()); };
    for (std::size_t d = 0; d < static_cast<std::size_t>(P); ++d) {
      const index_t jlo = local_col(out_bounds[d]);
      const index_t jhi = local_col(out_bounds[d + 1]);
      const index_t lo = cp[static_cast<std::size_t>(jlo)];
      const index_t hi = cp[static_cast<std::size_t>(jhi)];
      auto& chunk = send[d];
      chunk.reserve(static_cast<std::size_t>(hi - lo + jhi - jlo));
      for (index_t j = jlo; j < jhi; ++j) {
        auto rows = part.col_rows(j);
        if (rows.empty()) continue;
        auto vals = part.col_vals(j);
        chunk.push_back({-1 - (col_base + j - out_bounds[d]), VT{}});
        for (std::size_t p = 0; p < rows.size(); ++p)
          chunk.push_back({rows[p] + row_base, vals[p]});
      }
      if (route != nullptr) {
        route->send_src[d].resize(static_cast<std::size_t>(hi - lo));
        std::iota(route->send_src[d].begin(), route->send_src[d].end(), lo);
      }
    }
  }
  auto& rep = comm.report();
  constexpr std::uint64_t eb = sizeof(index_t) + sizeof(VT);  // one stored partial of C
  {
    // Packed: the partial block dies before the receive, as the replay's
    // accumulators do (replay_scatter_out).
    const auto held = static_cast<std::uint64_t>(part.nnz());
    rep.mem_release(held, held * eb);
    part = CscMatrix<VT>();
  }
  const index_t lo = out_bounds[static_cast<std::size_t>(comm.rank())];
  const index_t hi = out_bounds[static_cast<std::size_t>(comm.rank()) + 1];
  CscMatrix<VT> acc(nrows, hi - lo);
  std::vector<index_t> dst;
  std::vector<std::uint8_t> first;
  std::vector<index_t> counts(static_cast<std::size_t>(P), 0);
  // Pipelined fold: each chunk is decoded into a run over the accumulator's
  // columns and folded as it arrives, in ascending rank order; later
  // chunks' modeled transfer time hides behind earlier chunks' fold work,
  // and the footprint never exceeds (merged C slice + one staged chunk +
  // its run + that fold's output). The per-key fold is the left fold in
  // flat (rank-major) arrival order, the order the captured program
  // replays.
  auto req = comm.ialltoallv(std::move(send));
  std::vector<index_t> colptr;
  std::vector<index_t> rows;
  std::vector<VT> vals;
  for (int p = 0; p < P; ++p) {
    const auto chunk = req.take_from(p);
    auto ph = comm.phase(Phase::Other);
    colptr.assign(static_cast<std::size_t>(hi - lo) + 1, 0);
    rows.clear();
    vals.clear();
    std::size_t col = 0;
    for (const auto& e : chunk) {
      if (e.row < 0) {
        col = static_cast<std::size_t>(-1 - e.row);
        continue;
      }
      ++colptr[col + 1];
      rows.push_back(e.row);
      vals.push_back(e.val);
    }
    std::partial_sum(colptr.begin(), colptr.end(), colptr.begin());
    const std::uint64_t n = static_cast<std::uint64_t>(acc.nnz());
    const std::uint64_t r = rows.size();
    counts[static_cast<std::size_t>(p)] = static_cast<index_t>(r);
    // The staged chunk, its run, and the fold's output.
    rep.mem_charge(r + r + n + r, (r + r + n + r) * eb);
    fold_column_run(acc, colptr, rows, vals, [](VT x, VT y) { return SR::add(x, y); },
                    route != nullptr ? &dst : nullptr, route != nullptr ? &first : nullptr);
    const std::uint64_t gone = r + 2 * (n + r) - static_cast<std::uint64_t>(acc.nnz());
    rep.mem_release(gone, gone * eb);
  }
  auto ph = comm.phase(Phase::Other);
  auto c_local = DcscMatrix<VT>::from_csc(acc);
  const auto held = static_cast<std::uint64_t>(acc.nnz());
  rep.mem_release(held, held * eb);
  if (route != nullptr) {
    auto ph_plan = comm.phase(Phase::Plan);
    route->recv_counts = std::move(counts);
    route->recv_dst = std::move(dst);
    route->recv_first = std::move(first);
    route->c_shell = c_local;
    route->nrows = nrows;
    route->ncols = ncols;
    route->out_bounds = out_bounds;
  }
  return DistMatrix1D<VT>(nrows, ncols, std::move(out_bounds), comm.rank(),
                          std::move(c_local));
}

}  // namespace sa1d
