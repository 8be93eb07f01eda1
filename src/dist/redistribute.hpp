// Redistribution primitives between the 1D column distribution (the
// library's canonical layout) and the 2D/3D process-grid block layouts the
// SUMMA-family backends compute on. Every primitive is a single
// personalized all-to-all — O(nnz/P) per rank, no rank-0 gather — and is
// Phase-scoped so the cost shows up in the comparable RankReport breakdown.
//
// Both primitives are *routes*: which nonzero goes to which rank, and where
// it lands in the receiver's block, depends only on the operands' sparsity
// structure. Passing a GridRoute/ScatterRoute capture pointer records the
// value-gather maps and the receiver-side placement/merge program while the
// fresh call runs; replay_* then re-executes the same exchange moving only
// values (sizeof(VT) per element instead of a full Triple), bit-identical
// to the fresh result. DistSpgemmPlan (dist/dist_plan.hpp) builds on this.
#pragma once

#include <cstdint>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "dist/dist_matrix.hpp"
#include "runtime/machine.hpp"
#include "sparse/coo.hpp"

namespace sa1d {

// merge_triples_stable and its streaming round-by-round twin
// (StreamingTripleMerge) live in sparse/coo.hpp next to the triple type;
// every consumer here reaches them through the include above.

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
/// replay_1d_to_2d_grid re-executes it moving only values.
template <typename VT>
struct GridRoute {
  /// Per destination rank: positions into the local slice's val array, in
  /// the exact order the fresh call packed triples.
  std::vector<std::vector<index_t>> send_src;
  /// recv_place[flat] = slot in `block`'s val array for the flat-th
  /// received value (ranks in order, chunk order within each rank).
  std::vector<index_t> recv_place;
  /// Per source rank: element count of its chunk (replay sizes + accounting).
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
    b += recv_place.size() * sizeof(index_t) + recv_counts.size() * sizeof(index_t);
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
  std::vector<std::vector<Triple<VT>>> recv(static_cast<std::size_t>(P));
  auto& rep = comm.report();
  constexpr std::uint64_t tb = sizeof(Triple<VT>);
  // Pipelined receive: fold each source's chunk into the block as it
  // arrives, in ascending rank order — the flat order the captured route
  // indexes; later chunks' modeled transfer time hides behind earlier
  // chunks' push work.
  auto req = comm.ialltoallv(std::move(send));
  for (int p = 0; p < P; ++p) {
    auto& chunk = recv[static_cast<std::size_t>(p)];
    chunk = req.take_from(p);
    auto ph_push = comm.phase(Phase::Other);
    rep.mem_charge(chunk.size(), chunk.size() * tb);  // block assembly
    for (auto& t : chunk) blk.push(t.row, t.col, t.val);
  }
  auto ph = comm.phase(Phase::Other);
  // The source was canonical and each nonzero has one target, so this only
  // sorts — no duplicate can arise, and the merge is semiring-neutral.
  blk.canonicalize();
  auto out = CscMatrix<VT>::from_coo(blk);
  // The COO assembly buffer dies here; the CSC block it became is a
  // resident operand block, outside the transient-triples budget.
  rep.mem_release(blk.triples().size(), blk.triples().size() * tb);
  if (route != nullptr) {
    // Receiver placement: (col, row) keys are unique, so each flat incoming
    // position maps to exactly one slot of the canonical block — structural
    // work, accounted as Plan.
    auto ph_plan = comm.phase(Phase::Plan);
    route->recv_counts.assign(static_cast<std::size_t>(P), 0);
    std::vector<Triple<index_t>> keyed;  // (row, col, flat) in arrival order
    index_t flat = 0;
    for (std::size_t r = 0; r < recv.size(); ++r) {
      route->recv_counts[r] = static_cast<index_t>(recv[r].size());
      for (const auto& t : recv[r]) keyed.push_back({t.row, t.col, flat++});
    }
    std::sort(keyed.begin(), keyed.end(), [](const Triple<index_t>& a, const Triple<index_t>& b) {
      return a.col != b.col ? a.col < b.col : a.row < b.row;
    });
    route->recv_place.assign(keyed.size(), 0);
    for (std::size_t i = 0; i < keyed.size(); ++i)
      route->recv_place[static_cast<std::size_t>(keyed[i].val)] = static_cast<index_t>(i);
    route->block = out;
  }
  return out;
}

/// Replays a captured 1D→grid route for a structurally identical operand:
/// one value-only all-to-all, written in place into the cached block.
/// Collective; returns the refreshed block (owned by the route).
template <typename VT>
CscMatrix<VT>& replay_1d_to_2d_grid(Comm& comm, GridRoute<VT>& route,
                                    const DistMatrix1D<VT>& m) {
  const int P = comm.size();
  std::vector<std::vector<VT>> send(static_cast<std::size_t>(P));
  {
    auto ph = comm.phase(Phase::Other);
    // Replay guard: the cached positions index the local val array the
    // route was captured on (the capture packed every local triple, so the
    // per-destination sizes sum to that array's length). A diverged operand
    // must raise machine-wide, not read out of range while peers proceed.
    std::size_t expect = 0;
    for (const auto& src : route.send_src) expect += src.size();
    if (m.local().vals().size() != expect)
      comm.fail(FaultClass::PlanMismatch, "replay_1d_to_2d_grid",
                "replay_1d_to_2d_grid: local operand has " +
                    std::to_string(m.local().vals().size()) +
                    " values but the cached route packs " + std::to_string(expect) +
                    " (rank " + std::to_string(comm.global_rank(comm.rank())) + ")");
    const VT* vals = m.local().vals().data();
    for (int p = 0; p < P; ++p) {
      const auto& src = route.send_src[static_cast<std::size_t>(p)];
      auto& out = send[static_cast<std::size_t>(p)];
      out.reserve(src.size());
      for (auto i : src) out.push_back(vals[static_cast<std::size_t>(i)]);
    }
  }
  auto scatter_chunk = [&](int p, const std::vector<VT>& chunk, std::size_t& flat) {
    if (chunk.size() != static_cast<std::size_t>(route.recv_counts[static_cast<std::size_t>(p)]))
      comm.fail(FaultClass::PlanMismatch, "replay_1d_to_2d_grid",
                "replay_1d_to_2d_grid: received " + std::to_string(chunk.size()) +
                    " values from rank " + std::to_string(comm.global_rank(p)) +
                    " where the cached route expects " +
                    std::to_string(route.recv_counts[static_cast<std::size_t>(p)]));
    VT* bv = route.block.mutable_vals().data();
    for (const auto& v : chunk) bv[static_cast<std::size_t>(route.recv_place[flat++])] = v;
  };
  // Pipelined scatter: chunks land in the cached block as each source
  // publishes, in ascending rank order (slots are disjoint, so order only
  // matters for matching the captured flat indexing).
  std::size_t flat = 0;
  auto req = comm.ialltoallv(std::move(send));
  auto ph = comm.phase(Phase::Other);
  for (int p = 0; p < P; ++p) scatter_chunk(p, req.take_from(p), flat);
  return route.block;
}

/// Cached partial-C→1D scatter/merge program: the structural half of one
/// redistribute_coo_to_1d call (which partial goes to which rank, and which
/// slot of the merged 1D slice it ⊕-folds into), captured while the fresh
/// exchange runs. replay_coo_to_1d re-executes it moving only values.
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

/// Scatters per-rank partial products (COO, global coordinates) into the 1D
/// column distribution given by `out_bounds`, merging duplicates — partials
/// of the same entry from different SUMMA stages or 3D layers — with the
/// semiring's ⊕ (deterministically: ties fold in arrival order, so a
/// captured program replays bit-exactly). One all-to-all by column owner;
/// the result is born distributed (no global gather). Collective. `route`
/// (optional) captures the value-only replay program.
template <typename SR, typename VT>
DistMatrix1D<VT> redistribute_coo_to_1d(Comm& comm, const CooMatrix<VT>& part, index_t nrows,
                                        index_t ncols, std::vector<index_t> out_bounds,
                                        ScatterRoute<VT>* route = nullptr) {
  const int P = comm.size();
  require(out_bounds.size() == static_cast<std::size_t>(P) + 1,
          "redistribute_coo_to_1d: out_bounds size must be P+1");
  std::vector<std::vector<Triple<VT>>> send(static_cast<std::size_t>(P));
  {
    auto ph = comm.phase(Phase::Other);
    if (route != nullptr) route->send_src.assign(static_cast<std::size_t>(P), {});
    index_t pos = 0;
    for (const auto& t : part.triples()) {
      const auto dest = static_cast<std::size_t>(
          find_owner(std::span<const index_t>(out_bounds), t.col));
      send[dest].push_back(t);
      if (route != nullptr) route->send_src[dest].push_back(pos);
      ++pos;
    }
  }
  const index_t lo = out_bounds[static_cast<std::size_t>(comm.rank())];
  const index_t hi = out_bounds[static_cast<std::size_t>(comm.rank()) + 1];
  CooMatrix<VT> local(nrows, hi - lo);
  std::vector<index_t> dst;
  std::vector<std::uint8_t> first;
  std::vector<index_t> counts(static_cast<std::size_t>(P), 0);
  StreamingTripleMerge<VT> smerge;
  auto& rep = comm.report();
  constexpr std::uint64_t tb = sizeof(Triple<VT>);
  auto add = [](typename SR::value_type x, typename SR::value_type y) { return SR::add(x, y); };
  // Streaming rounds-merge: the accumulator collapses to canonical form
  // after every source's chunk, so its footprint never exceeds (merged C
  // slice + one chunk + that round's merge scratch). The terminal merge
  // this replaces held every layer's/stage-owner's partials at once *plus*
  // an equally sized merge output buffer — ~2x the final partial-C slice on
  // the split-3D cross-layer fold. Bit-identical either way: the per-key
  // fold is the left fold in flat (rank-major) arrival order regardless of
  // where the round boundaries fall.
  auto fold_chunk = [&](int p, std::vector<Triple<VT>>& chunk) {
    counts[static_cast<std::size_t>(p)] = static_cast<index_t>(chunk.size());
    auto ph_push = comm.phase(Phase::Other);
    rep.mem_charge(chunk.size(), chunk.size() * tb);  // accumulator growth
    for (auto& t : chunk) local.push(t.row, t.col - lo, t.val);
    const std::uint64_t before = local.triples().size();
    rep.mem_charge(before, before * tb);  // merge output buffer
    smerge.round(local.triples(), add, route != nullptr ? &dst : nullptr,
                 route != nullptr ? &first : nullptr);
    const std::uint64_t after = local.triples().size();
    rep.mem_release(2 * before - after, (2 * before - after) * tb);
  };
  // Pipelined fold: each chunk is pushed and merged as it arrives, in
  // ascending rank order; later chunks' modeled transfer time hides behind
  // earlier chunks' fold work, and only one chunk is ever staged.
  auto req = comm.ialltoallv(std::move(send));
  for (int p = 0; p < P; ++p) {
    auto chunk = req.take_from(p);
    rep.mem_charge(chunk.size(), chunk.size() * tb);  // arrival staging
    fold_chunk(p, chunk);
    rep.mem_release(chunk.size(), chunk.size() * tb);
  }
  auto ph = comm.phase(Phase::Other);
  auto c_local = DcscMatrix<VT>::from_coo(local);
  rep.mem_release(local.triples().size(), local.triples().size() * tb);
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

/// Replays a captured scatter/merge program over fresh partial values
/// (`part_vals` in the captured partial's val order): one value-only
/// all-to-all, ⊕-folded into a copy of the cached 1D structure. Collective.
template <typename SR, typename VT>
DistMatrix1D<VT> replay_coo_to_1d(Comm& comm, const ScatterRoute<VT>& route,
                                  std::span<const VT> part_vals) {
  const int P = comm.size();
  std::vector<std::vector<VT>> send(static_cast<std::size_t>(P));
  {
    auto ph = comm.phase(Phase::Other);
    for (int p = 0; p < P; ++p) {
      const auto& src = route.send_src[static_cast<std::size_t>(p)];
      auto& out = send[static_cast<std::size_t>(p)];
      out.reserve(src.size());
      for (auto i : src) out.push_back(part_vals[static_cast<std::size_t>(i)]);
    }
  }
  auto fold_chunk = [&](int p, const std::vector<VT>& chunk, VT* cv, std::size_t& flat) {
    if (chunk.size() != static_cast<std::size_t>(route.recv_counts[static_cast<std::size_t>(p)]))
      comm.fail(FaultClass::PlanMismatch, "replay_coo_to_1d",
                "replay_coo_to_1d: received " + std::to_string(chunk.size()) +
                    " partial values from rank " + std::to_string(comm.global_rank(p)) +
                    " where the cached scatter program expects " +
                    std::to_string(route.recv_counts[static_cast<std::size_t>(p)]));
    for (const auto& v : chunk) {
      const auto slot = static_cast<std::size_t>(route.recv_dst[flat]);
      cv[slot] = route.recv_first[flat] != 0 ? v : SR::add(cv[slot], v);
      ++flat;
    }
  };
  // Pipelined ⊕-fold: partial-C chunks fold into the shell as each source
  // publishes. Consuming in ascending rank order preserves the captured
  // program's flat (rank-major) fold order, so a non-commutative or
  // non-associative ⊕ still reproduces the fresh result bit for bit; the
  // structure-copy of the shell runs while chunks are in flight.
  std::size_t flat = 0;
  auto req = comm.ialltoallv(std::move(send));
  auto ph = comm.phase(Phase::Other);
  DcscMatrix<VT> c_local = route.c_shell;
  VT* cv = c_local.mutable_vals().data();
  for (int p = 0; p < P; ++p) fold_chunk(p, req.take_from(p), cv, flat);
  return DistMatrix1D<VT>(route.nrows, route.ncols, route.out_bounds, comm.rank(),
                          std::move(c_local));
}

}  // namespace sa1d
