// 2D sparse SUMMA (Buluç & Gilbert; the CombBLAS algorithm the paper
// benchmarks against), generalized to rectangular q_r × q_c process grids:
// any rank count factors into a grid (nearest-square by default, or a
// pinned grid_rows × grid_cols), the inner dimension is split into
// lcm(q_r, q_c) fine blocks so each rank's A piece (stages/q_c blocks) and
// B piece (stages/q_r blocks) stay contiguous, and C(i,j) accumulates over
// the stage loop of row-broadcast A sub-blocks and column-broadcast B
// sub-blocks. On a square grid this is the classic √P×√P algorithm with q
// whole-block stages.
//
// The primary entry point is 1D-in/1D-out: operands arrive in the library's
// canonical column distribution, are scattered onto the grid by one
// all-to-all (dist/redistribute.hpp), and the per-stage partials are
// scattered back into B's column distribution with a semiring-⊕ merge — no
// global gather anywhere, and every byte moves through Phase-scoped,
// instrumented collectives so the RankReport breakdown is comparable with
// the other spgemm_dist backends. A captured GridPlan replays the whole
// multiply moving values only (spgemm_grid_replay), for one plan or a fused
// group of them.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "dist/dist_matrix.hpp"
#include "dist/redistribute.hpp"
#include "kernels/spgemm_local.hpp"
#include "runtime/machine.hpp"

namespace sa1d {

namespace summadetail {

/// Cached SUMMA stage schedule of one rank on its q_r × q_c grid: per
/// stage, the broadcast blocks' structure (shells whose values are
/// overwritten per replay), the root-side value extraction (a contiguous
/// A-column span; a B row-filter gather map), the local engine's symbolic
/// result with warm workspaces, and the ⊕-fold program from the stage's
/// partial-C values into the merged per-rank accumulator. Captured by
/// summa_stages while the fresh loop runs; spgemm_grid_replay moves only
/// values (row/column broadcasts of bare val arrays) and runs numeric-only
/// local passes.
template <typename VT, typename SR>
struct SummaSched {
  struct Stage {
    CscMatrix<VT> a_blk, b_blk;  ///< received block structure (cached shells)
    LocalSymbolic sym;           ///< symbolic result of a_blk · b_blk
    /// Root-side value sources for the replay broadcasts (meaningful only
    /// on the stage's roots): the fine A block is a contiguous val span of
    /// this rank's A piece; the fine B block is a row filter, so its values
    /// are gathered through an index map.
    index_t a_val_lo = 0, a_val_hi = 0;
    std::vector<index_t> b_src;
  };
  int grid_rows = 1, grid_cols = 1;  ///< the grid the schedule was captured on
  std::vector<Stage> stages;
  /// Flat ⊕-fold program: push i (stage order, column-major within each
  /// stage's c_blk) lands in merged slot acc_dst[i].
  std::vector<index_t> acc_dst;
  std::vector<std::uint8_t> acc_first;
  std::size_t acc_nnz = 0;  ///< merged partial-C count on this rank
  std::vector<detail::Workspace<SR>> ws;
  std::uint64_t bcast_recv_bytes = 0;  ///< value-only replay broadcast volume (this rank)

  /// Byte-accurate residency of the cached schedule on this rank (major
  /// arrays only; warm workspaces are scratch, not plan state) — what the
  /// plan cache's budget accounts against.
  [[nodiscard]] std::uint64_t bytes_resident() const {
    auto csc = [](const CscMatrix<VT>& m) {
      return m.colptr().size() * sizeof(index_t) + m.rowids().size() * sizeof(index_t) +
             m.vals().size() * sizeof(VT);
    };
    std::uint64_t b = 0;
    for (const auto& st : stages) {
      b += csc(st.a_blk) + csc(st.b_blk);
      b += st.sym.bounds.size() * sizeof(index_t) + st.sym.colptr.size() * sizeof(index_t) +
           st.sym.klass.size();
      b += st.b_src.size() * sizeof(index_t);
    }
    b += acc_dst.size() * sizeof(index_t) + acc_first.size();
    return b;
  }
};

template <typename VT>
CscMatrix<VT> csc_from_block(index_t nrows, index_t ncols, std::vector<Triple<VT>> triples) {
  return CscMatrix<VT>::from_coo(CooMatrix<VT>(nrows, ncols, std::move(triples)));
}

/// The windowed post/drain loop every SUMMA stage pipeline runs (fresh and
/// replay): stage k's root-side payloads are
/// extracted by `extract(k, abuf, bbuf)` (Phase::Other) and broadcast
/// nonblocking along the row team (A, root grid column k/spc) and the column
/// team (B, root grid row k/spr) a window of stages before `run(k, abuf,
/// bbuf)` consumes them, so later payloads travel while earlier stages
/// compute. The window is every stage when unbudgeted; a budgeted call keeps
/// 2 stages posted beyond the one being drained, so at most 3 stage payloads
/// are staged at once (the bound the cost model's peak prices). Issue order
/// is (A, B) per stage, ascending, whatever the window, so comm-op indices,
/// counters and FaultPlan coordinates do not depend on the budget. The
/// staging gauge (elements of T) is charged at extraction on the roots and
/// topped up at delivery; `run` releases it when the payload dies.
template <typename T, typename Extract, typename Run>
void pipeline_stages(Comm& comm, Comm& row_comm, Comm& col_comm, int s, int spc, int spr,
                     bool budgeted, Extract&& extract, Run&& run) {
  const int window = budgeted ? std::min(2, s) : s;
  auto& rep = comm.report();
  const auto n = static_cast<std::size_t>(s);
  std::vector<std::vector<T>> abufs(n), bbufs(n);
  std::vector<std::uint64_t> staged(n, 0);
  std::vector<CommRequest> areq(n), breq(n);
  // Charges stage k's buffers up to their current size: the roots'
  // extraction, then what delivery added (a non-root's payload lands when
  // its request completes).
  auto charge = [&](std::size_t sk) {
    const std::uint64_t tot = abufs[sk].size() + bbufs[sk].size();
    if (tot <= staged[sk]) return;
    rep.mem_charge(tot - staged[sk], (tot - staged[sk]) * sizeof(T));
    staged[sk] = tot;
  };
  auto post = [&](int k) {
    const auto sk = static_cast<std::size_t>(k);
    {
      auto ph = comm.phase(Phase::Other);
      extract(k, abufs[sk], bbufs[sk]);
    }
    charge(sk);
    areq[sk] = row_comm.ibcast(abufs[sk], k / spc);
    breq[sk] = col_comm.ibcast(bbufs[sk], k / spr);
  };
  for (int k = 0; k < window; ++k) post(k);
  for (int k = 0; k < s; ++k) {
    const auto sk = static_cast<std::size_t>(k);
    areq[sk].wait();
    breq[sk].wait();
    charge(sk);
    if (k + window < s) post(k + window);
    run(k, std::move(abufs[sk]), std::move(bbufs[sk]));
  }
}

/// The SUMMA stage loop over one q_r × q_c grid (`grid.rows · grid.cols ==
/// comm.size()`): accumulates this rank's partial C(gi, gj) into `acc` in
/// *global* coordinates (rb/cb are global bounds). `kb` is the grid's
/// *fine* inner split into `grid.stages = lcm(q_r, q_c)` blocks (local to
/// this grid's inner range): grid column j owns A's fine blocks
/// [j·s/q_c, (j+1)·s/q_c) and grid row i owns B's fine blocks
/// [i·s/q_r, (i+1)·s/q_r), both contiguous, so each stage's roots extract
/// one sub-block of their piece and broadcast it along their row/column
/// team. `comm` is the grid communicator (a layer of the 3D backend, or
/// everything for 2D). Stage partials of the same entry are merged with ⊕
/// before `acc` is handed back, so the caller ships post-merge volume. The
/// merge is deterministic (ties fold in stage order), so a schedule
/// captured via `sched` replays bit-exactly. `budgeted` bounds the stage
/// window (pipeline_stages).
template <typename SR, typename VT>
void summa_stages(Comm& comm, GridShape grid, const CscMatrix<VT>& my_a,
                  const CscMatrix<VT>& my_b, std::span<const index_t> rb,
                  std::span<const index_t> kb, std::span<const index_t> cb, LocalKernel kernel,
                  int threads, CooMatrix<VT>& acc, SummaSched<VT, SR>* sched = nullptr,
                  bool budgeted = false) {
  const int s = grid.stages;
  const int spc = s / grid.cols;  // fine blocks per grid column (A ownership)
  const int spr = s / grid.rows;  // fine blocks per grid row (B ownership)
  const int gi = comm.rank() / grid.cols;
  const int gj = comm.rank() % grid.cols;
  Comm row_comm = comm.split(gi, gj);  // sub-rank within a row == grid column
  Comm col_comm = comm.split(gj, gi);  // sub-rank within a column == grid row

  const index_t rlo = rb[static_cast<std::size_t>(gi)];
  const index_t clo = cb[static_cast<std::size_t>(gj)];
  const index_t a_clo = kb[static_cast<std::size_t>(gj * spc)];  // my A piece's inner base
  const index_t b_rlo = kb[static_cast<std::size_t>(gi * spr)];  // my B piece's inner base
  if (sched != nullptr) {
    sched->grid_rows = grid.rows;
    sched->grid_cols = grid.cols;
  }

  auto& rep = comm.report();
  constexpr std::uint64_t tb = sizeof(Triple<VT>);
  StreamingTripleMerge<VT> smerge;
  // Per-stage root-side value sources, recorded by extract for the capture.
  std::vector<index_t> a_los(static_cast<std::size_t>(s), 0);
  std::vector<index_t> a_his(static_cast<std::size_t>(s), 0);
  std::vector<std::vector<index_t>> b_srcs(static_cast<std::size_t>(s));

  // Root-side payload extraction for stage k.
  auto extract = [&](int k, std::vector<Triple<VT>>& abuf, std::vector<Triple<VT>>& bbuf) {
    const auto sk = static_cast<std::size_t>(k);
    const index_t klo = kb[static_cast<std::size_t>(k)], khi = kb[static_cast<std::size_t>(k) + 1];
    if (gj == k / spc) {
      // Fine A block k = columns [klo−a_clo, khi−a_clo) of my piece:
      // triples in canonical order with stage-local columns. The value
      // payload is the contiguous span vals[colptr[lo], colptr[hi]).
      const auto lo = static_cast<std::size_t>(klo - a_clo);
      const auto hi = static_cast<std::size_t>(khi - a_clo);
      a_los[sk] = my_a.colptr()[lo];
      a_his[sk] = my_a.colptr()[hi];
      abuf.reserve(static_cast<std::size_t>(a_his[sk] - a_los[sk]));
      for (std::size_t j = lo; j < hi; ++j) {
        auto rows = my_a.col_rows(static_cast<index_t>(j));
        auto vals = my_a.col_vals(static_cast<index_t>(j));
        for (std::size_t p = 0; p < rows.size(); ++p)
          abuf.push_back({rows[p], static_cast<index_t>(j - lo), vals[p]});
      }
    }
    if (gi == k / spr) {
      // Fine B block k = rows [klo−b_rlo, khi−b_rlo) of my piece,
      // emitted column-major with rows ascending — canonical order, so
      // the rebuilt block's val array equals this payload and the
      // recorded gather map replays bare values.
      const index_t blk_rlo = klo - b_rlo, blk_rhi = khi - b_rlo;
      for (index_t j = 0; j < my_b.ncols(); ++j) {
        auto rows = my_b.col_rows(j);
        auto vals = my_b.col_vals(j);
        const index_t base = my_b.colptr()[static_cast<std::size_t>(j)];
        auto first = static_cast<std::size_t>(
            std::lower_bound(rows.begin(), rows.end(), blk_rlo) - rows.begin());
        for (std::size_t p = first; p < rows.size() && rows[p] < blk_rhi; ++p) {
          bbuf.push_back({rows[p] - blk_rlo, j, vals[p]});
          if (sched != nullptr) b_srcs[sk].push_back(base + static_cast<index_t>(p));
        }
      }
    }
  };

  // Everything after the broadcast of stage k — block rebuild, local
  // multiply, partial-C accumulation.
  auto run_stage = [&](int k, std::vector<Triple<VT>> abuf, std::vector<Triple<VT>> bbuf) {
    const auto sk = static_cast<std::size_t>(k);
    const index_t klo = kb[static_cast<std::size_t>(k)], khi = kb[static_cast<std::size_t>(k) + 1];
    const int a_root = k / spc;  // grid column owning fine A block k
    const int b_root = k / spr;  // grid row owning fine B block k
    // Broadcast staging charged by pipeline_stages; dies when the triples
    // are rebuilt into CSC blocks below.
    const std::uint64_t payload = abuf.size() + bbuf.size();

    // The broadcast triples arrive in canonical (col-major, row-ascending)
    // order, so the rebuilt blocks' val order equals the payload order — a
    // replay can broadcast the bare values and write them straight in.
    CscMatrix<VT> a_blk, b_blk, c_blk;
    {
      auto ph = comm.phase(sched != nullptr ? Phase::Plan : Phase::Comp);
      a_blk = csc_from_block(rb[static_cast<std::size_t>(gi) + 1] -
                                 rb[static_cast<std::size_t>(gi)],
                             khi - klo, std::move(abuf));
      b_blk = csc_from_block(khi - klo,
                             cb[static_cast<std::size_t>(gj) + 1] -
                                 cb[static_cast<std::size_t>(gj)],
                             std::move(bbuf));
    }
    rep.mem_release(payload, payload * tb);
    if (sched != nullptr) {
      // Capturing build: run the split engine so the symbolic result (and
      // the warm workspaces) are kept for numeric-only replays.
      typename SummaSched<VT, SR>::Stage st;
      {
        auto ph = comm.phase(Phase::Plan);
        st.sym = spgemm_local_symbolic<SR, VT>(a_blk, b_blk, kernel, threads, &sched->ws);
      }
      {
        auto ph = comm.phase(Phase::Comp);
        c_blk = spgemm_local_numeric<SR, VT>(a_blk, b_blk, st.sym, &sched->ws);
      }
      if (gj != a_root) sched->bcast_recv_bytes += a_blk.vals().size() * sizeof(VT);
      if (gi != b_root) sched->bcast_recv_bytes += b_blk.vals().size() * sizeof(VT);
      st.a_blk = std::move(a_blk);
      st.b_blk = std::move(b_blk);
      st.a_val_lo = a_los[sk];
      st.a_val_hi = a_his[sk];
      st.b_src = std::move(b_srcs[sk]);
      sched->stages.push_back(std::move(st));
    } else {
      auto ph = comm.phase(Phase::Comp);
      c_blk = spgemm_local<SR, VT>(a_blk, b_blk, kernel, threads);
    }
    {
      auto ph = comm.phase(Phase::Other);
      const std::size_t pre = acc.triples().size();
      acc.triples().reserve(pre + static_cast<std::size_t>(c_blk.nnz()));
      for (index_t j = 0; j < c_blk.ncols(); ++j) {
        auto rows = c_blk.col_rows(j);
        auto vals = c_blk.col_vals(j);
        for (std::size_t p = 0; p < rows.size(); ++p)
          acc.push(rows[p] + rlo, j + clo, vals[p]);
      }
      const std::uint64_t grew = acc.triples().size() - pre;
      rep.mem_charge(grew, grew * tb);
    }
    {
      // Streaming per-stage merge: the stage's c_blk arrives in canonical
      // order, so the round is one linear two-way merge into the canonical
      // accumulator, bounding the resident footprint at (merged so far +
      // one stage's pushes). Bit-identical to a terminal stable merge, and
      // the composed fold program equals its capture — see
      // StreamingTripleMerge in sparse/coo.hpp.
      auto ph = comm.phase(sched != nullptr ? Phase::Plan : Phase::Other);
      const std::uint64_t before = acc.triples().size();
      rep.mem_charge(before, before * tb);  // merge out-buffer transient
      smerge.round(acc.triples(), [](VT x, VT y) { return SR::add(x, y); },
                   sched != nullptr ? &sched->acc_dst : nullptr,
                   sched != nullptr ? &sched->acc_first : nullptr);
      const std::uint64_t after = acc.triples().size();
      rep.mem_release(2 * before - after, (2 * before - after) * tb);
    }
  };

  // Fine A(gi, k) travels along grid row gi, fine B(k, gj) along grid
  // column gj.
  pipeline_stages<Triple<VT>>(comm, row_comm, col_comm, s, spc, spr, budgeted, extract,
                              run_stage);
  // The per-stage streaming rounds leave `acc` canonical — the scatter
  // carries post-merge volume (what the cost model prices), not duplicates
  // per stage, and packs each destination as one column slice — and the
  // composed fold program equals a terminal stable-merge capture, so
  // replays are interchangeable.
  if (sched != nullptr) sched->acc_nnz = acc.triples().size();
}

}  // namespace summadetail

/// Cached structural program of one full grid multiply (2D SUMMA, or
/// Split-3D with `layers` > 1) on this rank: both inbound (layer, grid)
/// routes, this rank's layer stage schedule (which remembers its q_r × q_c
/// grid), and the outbound scatter/merge program — which folds across the
/// stages and, for Split-3D, across the layers. Captured by
/// spgemm_summa_2d_dist / spgemm_split_3d_dist, replayed (values only) by
/// spgemm_grid_replay.
template <typename VT, typename SR>
struct GridPlan {
  int layers = 1;  ///< 1 = SUMMA-2D
  GridRoute<VT> route_a, route_b;
  summadetail::SummaSched<VT, SR> sched;
  ScatterRoute<VT> out;
  std::vector<VT> acc_vals;  ///< replay scratch: this layer's merged partials

  /// Exact per-rank collective bytes one value-only replay receives.
  [[nodiscard]] std::uint64_t replay_recv_bytes(int me) const {
    return route_a.replay_recv_bytes(me) + route_b.replay_recv_bytes(me) +
           sched.bcast_recv_bytes + out.replay_recv_bytes(me);
  }

  /// Byte-accurate residency of the full cached program on this rank.
  [[nodiscard]] std::uint64_t bytes_resident() const {
    return route_a.bytes_resident() + route_b.bytes_resident() + sched.bytes_resident() +
           out.bytes_resident() + acc_vals.size() * sizeof(VT);
  }
};

/// One member of a grid replay: a captured plan and the operand pair it
/// replays.
template <typename VT, typename SR>
struct GridReplay {
  GridPlan<VT, SR>* plan;
  const DistMatrix1D<VT>* a;
  const DistMatrix1D<VT>* b;
};

namespace summadetail {

/// Replays every member's inbound A and B routes in ONE alltoallv: each
/// destination chunk is the member-major concatenation of [route_a values,
/// route_b values]. Chunks are scattered into the cached blocks as each
/// source publishes, in ascending source order, with per-member-per-route
/// flat counters — the flat order the routes were captured in.
template <typename SR, typename VT>
void replay_routes_in(Comm& comm, std::span<const GridReplay<VT, SR>> ms) {
  const int P = comm.size();
  const std::size_t k = ms.size();
  auto route_of = [&](std::size_t m, int which) -> GridRoute<VT>& {
    return which == 0 ? ms[m].plan->route_a : ms[m].plan->route_b;
  };
  auto operand_of = [&](std::size_t m, int which) -> const DcscMatrix<VT>& {
    return which == 0 ? ms[m].a->local() : ms[m].b->local();
  };
  std::vector<std::vector<VT>> send(static_cast<std::size_t>(P));
  {
    auto ph = comm.phase(Phase::Other);
    // Replay guard: the cached positions index the local val array the
    // route was captured on (the capture packed every local triple). A
    // diverged operand must raise machine-wide, not read out of range
    // while peers proceed.
    for (std::size_t m = 0; m < k; ++m) {
      for (int which = 0; which < 2; ++which) {
        std::size_t expect = 0;
        for (const auto& src : route_of(m, which).send_src) expect += src.size();
        if (operand_of(m, which).vals().size() != expect)
          comm.fail(FaultClass::PlanMismatch, "grid_replay",
                    "spgemm_grid_replay: member " + std::to_string(m) + " operand has " +
                        std::to_string(operand_of(m, which).vals().size()) +
                        " values but the cached route packs " + std::to_string(expect) +
                        " (rank " + std::to_string(comm.global_rank(comm.rank())) + ")");
      }
    }
    for (int p = 0; p < P; ++p) {
      auto& chunk = send[static_cast<std::size_t>(p)];
      std::size_t len = 0;
      for (std::size_t m = 0; m < k; ++m)
        for (int which = 0; which < 2; ++which)
          len += route_of(m, which).send_src[static_cast<std::size_t>(p)].size();
      chunk.reserve(len);
      for (std::size_t m = 0; m < k; ++m) {
        for (int which = 0; which < 2; ++which) {
          const VT* vals = operand_of(m, which).vals().data();
          for (auto i : route_of(m, which).send_src[static_cast<std::size_t>(p)])
            chunk.push_back(vals[static_cast<std::size_t>(i)]);
        }
      }
    }
  }
  std::vector<std::size_t> flat(2 * k, 0);
  auto scatter_chunk = [&](int p, const std::vector<VT>& chunk) {
    const auto sp = static_cast<std::size_t>(p);
    std::size_t need = 0;
    for (std::size_t m = 0; m < k; ++m)
      for (int which = 0; which < 2; ++which)
        need += static_cast<std::size_t>(route_of(m, which).recv_counts[sp]);
    if (chunk.size() != need)
      comm.fail(FaultClass::PlanMismatch, "grid_replay",
                "spgemm_grid_replay: received " + std::to_string(chunk.size()) +
                    " values from rank " + std::to_string(comm.global_rank(p)) +
                    " where the cached routes expect " + std::to_string(need));
    std::size_t off = 0;
    for (std::size_t m = 0; m < k; ++m) {
      for (int which = 0; which < 2; ++which) {
        GridRoute<VT>& route = route_of(m, which);
        std::size_t& fl = flat[2 * m + static_cast<std::size_t>(which)];
        const auto n = static_cast<std::size_t>(route.recv_counts[sp]);
        std::copy_n(chunk.begin() + static_cast<std::ptrdiff_t>(off), n,
                    route.block.mutable_vals().begin() + static_cast<std::ptrdiff_t>(fl));
        fl += n;
        off += n;
      }
    }
  };
  // Pipelined scatter: chunks land in the cached blocks as each source
  // publishes (slots are disjoint, so order only matters for matching the
  // captured flat indexing).
  auto req = comm.ialltoallv(std::move(send));
  auto ph = comm.phase(Phase::Other);
  for (int p = 0; p < P; ++p) scatter_chunk(p, req.take_from(p));
}

/// The replay stage loop over one shared q_r × q_c grid (`grid_comm` is a
/// layer of the 3D backend, or everything for 2D): per stage, ONE row
/// broadcast and ONE column broadcast carrying the member-major
/// concatenation of every member's block values (members share the grid,
/// so they share each stage's roots). Each member's stage body — shell
/// fill, numeric pass, ⊕-fold into its merged accumulator in ascending
/// stage order, the captured fold program's order — runs in member order
/// with its own flat counter, through the same windowed stage pipeline
/// (and staging gauge) as the fresh loop.
template <typename SR, typename VT>
void replay_stages(Comm& grid_comm, std::span<const GridReplay<VT, SR>> ms, bool budgeted) {
  const std::size_t k = ms.size();
  const auto& sched0 = ms[0].plan->sched;
  const int s = static_cast<int>(sched0.stages.size());
  const int spc = s / sched0.grid_cols;
  const int spr = s / sched0.grid_rows;
  const int gi = grid_comm.rank() / sched0.grid_cols;
  const int gj = grid_comm.rank() % sched0.grid_cols;
  Comm row_comm = grid_comm.split(gi, gj);
  Comm col_comm = grid_comm.split(gj, gi);

  std::vector<std::size_t> flat(k, 0);
  for (const auto& m : ms) m.plan->acc_vals.assign(m.plan->sched.acc_nnz, VT{});
  auto stage_of = [&](std::size_t m, int st) -> typename SummaSched<VT, SR>::Stage& {
    return ms[m].plan->sched.stages[static_cast<std::size_t>(st)];
  };

  // Root-side value gathers for stage st: a contiguous span of the A
  // block, the recorded row-filter map over the B block.
  auto extract = [&](int st, std::vector<VT>& aall, std::vector<VT>& ball) {
    for (std::size_t m = 0; m < k; ++m) {
      const auto& stage = stage_of(m, st);
      if (gj == st / spc) {
        const auto& av = ms[m].plan->route_a.block.vals();
        aall.insert(aall.end(), av.begin() + stage.a_val_lo, av.begin() + stage.a_val_hi);
      }
      if (gi == st / spr) {
        const VT* bv = ms[m].plan->route_b.block.vals().data();
        ball.reserve(ball.size() + stage.b_src.size());
        for (auto i : stage.b_src) ball.push_back(bv[static_cast<std::size_t>(i)]);
      }
    }
  };

  auto run_stage = [&](int st, std::vector<VT> aall, std::vector<VT> ball) {
    // Replay guard: the broadcast value arrays must fill the cached stage
    // shells exactly; a diverged root operand raises machine-wide instead
    // of running the numeric pass on a torn block.
    std::size_t aneed = 0, bneed = 0;
    for (std::size_t m = 0; m < k; ++m) {
      aneed += stage_of(m, st).a_blk.vals().size();
      bneed += stage_of(m, st).b_blk.vals().size();
    }
    if (aall.size() != aneed || ball.size() != bneed)
      grid_comm.fail(FaultClass::PlanMismatch, "grid_replay",
                     "spgemm_grid_replay: stage " + std::to_string(st) +
                         " broadcast delivered " + std::to_string(aall.size()) + "/" +
                         std::to_string(ball.size()) + " values where the cached shells hold " +
                         std::to_string(aneed) + "/" + std::to_string(bneed));
    std::size_t aoff = 0, boff = 0;
    for (std::size_t m = 0; m < k; ++m) {
      auto& stage = stage_of(m, st);
      auto& sched = ms[m].plan->sched;
      {
        auto ph = grid_comm.phase(Phase::Other);
        const auto an = stage.a_blk.vals().size();
        const auto bn = stage.b_blk.vals().size();
        stage.a_blk.mutable_vals().assign(aall.begin() + static_cast<std::ptrdiff_t>(aoff),
                                          aall.begin() + static_cast<std::ptrdiff_t>(aoff + an));
        stage.b_blk.mutable_vals().assign(ball.begin() + static_cast<std::ptrdiff_t>(boff),
                                          ball.begin() + static_cast<std::ptrdiff_t>(boff + bn));
        aoff += an;
        boff += bn;
      }
      CscMatrix<VT> c_blk;
      {
        auto ph = grid_comm.phase(Phase::Comp);
        c_blk = spgemm_local_numeric<SR, VT>(stage.a_blk, stage.b_blk, stage.sym, &sched.ws);
      }
      {
        auto ph = grid_comm.phase(Phase::Other);
        std::size_t& fl = flat[m];
        auto& acc = ms[m].plan->acc_vals;
        for (const auto& v : c_blk.vals()) {
          const auto slot = static_cast<std::size_t>(sched.acc_dst[fl]);
          acc[slot] = sched.acc_first[fl] != 0 ? v : SR::add(acc[slot], v);
          ++fl;
        }
      }
    }
    // The staging pipeline_stages charged dies with the payload.
    const std::uint64_t payload = aall.size() + ball.size();
    grid_comm.report().mem_release(payload, payload * sizeof(VT));
  };

  pipeline_stages<VT>(grid_comm, row_comm, col_comm, s, spc, spr, budgeted, extract, run_stage);
}

/// Replays every member's outbound scatter/merge in ONE alltoallv
/// (member-major concatenation per destination). Partial-C chunks ⊕-fold
/// into copies of the cached 1D shells as each source publishes; consuming
/// in ascending source, then member, order with per-member flat counters
/// preserves each captured program's flat (rank-major) fold order, so a
/// non-commutative or non-associative ⊕ still reproduces the fresh result
/// bit for bit. The shell copies run while chunks are in flight.
template <typename SR, typename VT>
std::vector<DistMatrix1D<VT>> replay_scatter_out(Comm& comm,
                                                 std::span<const GridReplay<VT, SR>> ms) {
  const int P = comm.size();
  const std::size_t k = ms.size();
  std::vector<std::vector<VT>> send(static_cast<std::size_t>(P));
  {
    auto ph = comm.phase(Phase::Other);
    for (int p = 0; p < P; ++p) {
      const auto sp = static_cast<std::size_t>(p);
      auto& chunk = send[sp];
      std::size_t len = 0;
      for (const auto& m : ms) len += m.plan->out.send_src[sp].size();
      chunk.reserve(len);
      for (const auto& m : ms) {
        const VT* pv = m.plan->acc_vals.data();
        for (auto i : m.plan->out.send_src[sp]) chunk.push_back(pv[static_cast<std::size_t>(i)]);
      }
    }
  }
  std::vector<std::size_t> flat(k, 0);
  auto fold_chunk = [&](int p, const std::vector<VT>& chunk, std::vector<DcscMatrix<VT>>& cs) {
    const auto sp = static_cast<std::size_t>(p);
    std::size_t need = 0;
    for (const auto& m : ms) need += static_cast<std::size_t>(m.plan->out.recv_counts[sp]);
    if (chunk.size() != need)
      comm.fail(FaultClass::PlanMismatch, "grid_replay",
                "spgemm_grid_replay: received " + std::to_string(chunk.size()) +
                    " partial values from rank " + std::to_string(comm.global_rank(p)) +
                    " where the cached scatter programs expect " + std::to_string(need));
    std::size_t off = 0;
    for (std::size_t m = 0; m < k; ++m) {
      const auto& route = ms[m].plan->out;
      const auto n = static_cast<std::size_t>(route.recv_counts[sp]);
      VT* cv = cs[m].mutable_vals().data();
      std::size_t& fl = flat[m];
      for (std::size_t i = 0; i < n; ++i, ++fl) {
        const auto slot = static_cast<std::size_t>(route.recv_dst[fl]);
        cv[slot] = route.recv_first[fl] != 0 ? chunk[off + i] : SR::add(cv[slot], chunk[off + i]);
      }
      off += n;
    }
  };
  auto req = comm.ialltoallv(std::move(send));
  auto ph = comm.phase(Phase::Other);
  std::vector<DcscMatrix<VT>> cs;
  cs.reserve(k);
  for (const auto& m : ms) cs.push_back(m.plan->out.c_shell);
  for (int p = 0; p < P; ++p) fold_chunk(p, req.take_from(p), cs);
  std::vector<DistMatrix1D<VT>> out;
  out.reserve(k);
  for (std::size_t m = 0; m < k; ++m) {
    const auto& route = ms[m].plan->out;
    out.emplace_back(route.nrows, route.ncols, route.out_bounds, comm.rank(), std::move(cs[m]));
  }
  return out;
}

}  // namespace summadetail

/// Replays k captured grid plans for structurally identical operand pairs,
/// one plan per member (a single member is the sequential replay): ONE
/// value alltoallv routes every member's A and B in, the stage loop runs on
/// this rank's layer with one fused row and column broadcast per stage, and
/// ONE value alltoallv scatters every member's partial C out with its
/// ⊕-fold. Members must share the grid shape and layer count. So k
/// multiplies pay one α per phase, while each member's bytes, compute order
/// and fold programs are its own — every result is bit-identical to the
/// fresh call; zero Phase::Plan time, no structural metadata moved.
/// `budgeted` bounds the stage window like the fresh call's. Collective.
template <typename SR, typename VT>
std::vector<DistMatrix1D<VT>> spgemm_grid_replay(Comm& comm,
                                                 std::span<const GridReplay<VT, SR>> ms,
                                                 bool budgeted = false) {
  if (ms.empty()) return {};
  const auto& p0 = *ms[0].plan;
  for (const auto& m : ms)
    require(m.plan->layers == p0.layers && m.plan->sched.grid_rows == p0.sched.grid_rows &&
                m.plan->sched.grid_cols == p0.sched.grid_cols &&
                m.plan->sched.stages.size() == p0.sched.stages.size(),
            "spgemm_grid_replay: members must share the grid shape and layer count");
  summadetail::replay_routes_in<SR>(comm, ms);
  if (p0.layers <= 1) {
    summadetail::replay_stages<SR>(comm, ms, budgeted);
  } else {
    const int q2 = comm.size() / p0.layers;
    Comm layer_comm = comm.split(comm.rank() / q2, comm.rank());
    summadetail::replay_stages<SR>(layer_comm, ms, budgeted);
  }
  return summadetail::replay_scatter_out<SR>(comm, ms);
}

/// 2D sparse SUMMA over 1D-distributed operands on a q_r × q_c grid.
/// Collective; any process count works — the grid is the nearest-square
/// factorization of P unless `grid_rows`/`grid_cols` pin a shape
/// (require_grid_shape validates a pinned shape against P). C is returned
/// in B's column distribution; partial entries across the stages are merged
/// with the semiring's ⊕. `plan` (optional) captures the full value-only
/// replay program while this fresh call runs; `budgeted` bounds the stage
/// window (a max_peak_triples budget is in force).
template <typename SRIn = void, typename VT>
DistMatrix1D<VT> spgemm_summa_2d_dist(
    Comm& comm, const DistMatrix1D<VT>& a, const DistMatrix1D<VT>& b,
    LocalKernel kernel = LocalKernel::Hybrid, int threads = 1,
    std::type_identity_t<GridPlan<VT, ResolveSemiring<SRIn, VT>>*> plan = nullptr,
    int grid_rows = 0, int grid_cols = 0, bool budgeted = false) {
  using SR = ResolveSemiring<SRIn, VT>;
  require(a.ncols() == b.nrows(), "spgemm_summa_2d_dist: inner dimension mismatch");
  const int P = comm.size();
  const GridShape grid = require_grid_shape(P, grid_rows, grid_cols, "spgemm_summa_2d_dist");
  const int gi = comm.rank() / grid.cols;
  const int gj = comm.rank() % grid.cols;

  auto rb = even_split(a.nrows(), grid.rows);    // row blocks of A and C
  auto kb = even_split(a.ncols(), grid.stages);  // fine inner-dimension blocks
  auto cb = even_split(b.ncols(), grid.cols);    // column blocks of B and C

  // Coarse per-rank inner tilings: grid column j owns A's fine blocks
  // [j·s/q_c, (j+1)·s/q_c), grid row i owns B's [i·s/q_r, (i+1)·s/q_r) —
  // contiguous runs, so each operand routes through the generic 1D→grid
  // primitive with its own coarse bounds (they differ on rectangular
  // grids).
  const int spc = grid.stages / grid.cols;
  const int spr = grid.stages / grid.rows;
  std::vector<index_t> ka(static_cast<std::size_t>(grid.cols) + 1);
  std::vector<index_t> kbt(static_cast<std::size_t>(grid.rows) + 1);
  for (int j = 0; j <= grid.cols; ++j)
    ka[static_cast<std::size_t>(j)] = kb[static_cast<std::size_t>(j * spc)];
  for (int i = 0; i <= grid.rows; ++i)
    kbt[static_cast<std::size_t>(i)] = kb[static_cast<std::size_t>(i * spr)];

  auto rank_of = [qc = grid.cols](int bi, int bj) { return bi * qc + bj; };
  auto my_a = redistribute_1d_to_2d_grid(comm, a, std::span<const index_t>(rb),
                                         std::span<const index_t>(ka), rank_of, gi, gj,
                                         plan != nullptr ? &plan->route_a : nullptr);
  auto my_b = redistribute_1d_to_2d_grid(comm, b, std::span<const index_t>(kbt),
                                         std::span<const index_t>(cb), rank_of, gi, gj,
                                         plan != nullptr ? &plan->route_b : nullptr);

  CooMatrix<VT> acc(a.nrows(), b.ncols());
  summadetail::summa_stages<SR>(comm, grid, my_a, my_b, std::span<const index_t>(rb),
                                std::span<const index_t>(kb), std::span<const index_t>(cb),
                                kernel, threads, acc,
                                plan != nullptr ? &plan->sched : nullptr, budgeted);
  auto c = redistribute_coo_to_1d<SR>(comm, acc, a.nrows(), b.ncols(), b.bounds(),
                                      plan != nullptr ? &plan->out : nullptr);
  // The merged partial-C accumulator (charged stage by stage above) dies
  // here: the scatter has folded it into C's canonical distribution.
  comm.report().mem_release(acc.triples().size(),
                            acc.triples().size() * sizeof(Triple<VT>));
  return c;
}

}  // namespace sa1d
