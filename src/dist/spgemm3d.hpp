// Split-3D SpGEMM (Azad et al. 2016's third dimension): P = c·(q_r·q_c)
// ranks form c layers of q_r × q_c grids — any divisor of P is a valid
// layer count, since every quotient factors into a rectangular grid
// (nearest-square by default, or a pinned grid_rows × grid_cols). The inner
// dimension is split across layers; each layer runs 2D sparse SUMMA on its
// slice pair A(:,K_l)·B(K_l,:), and the per-layer partial C's are merged by
// the semiring's ⊕ while scattering the result back into B's column
// distribution (the "split" reduction) — one all-to-all, no rank-0 gather.
// Operands arrive 1D-distributed and are routed straight to their
// (layer, grid) owners: each nonzero has exactly one target, so the inbound
// redistribution is also a single all-to-all per operand.
#pragma once

#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "dist/summa2d.hpp"

namespace sa1d {

/// Cached structural program of one full Split-3D multiply on this rank:
/// both inbound (layer, grid)-routes, the layer's stage schedule (which
/// remembers its q_r × q_c grid), and the cross-layer scatter/merge
/// program. Captured by spgemm_split_3d_dist, replayed (values only) by
/// spgemm_split_3d_replay.
template <typename VT, typename SR>
struct Split3dPlan {
  int layers = 1;
  GridRoute<VT> route_a, route_b;
  summadetail::SummaSched<VT, SR> sched;
  ScatterRoute<VT> out;
  std::vector<VT> acc_vals;  ///< replay scratch: this layer's merged partials

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

/// Split-3D SpGEMM over 1D-distributed operands. Collective; requires only
/// that `layers` divides P (require_split3d_layers lists the valid counts
/// otherwise) — each layer grid is the nearest-square factorization of
/// P/layers unless `grid_rows`/`grid_cols` pin a shape. C is returned in
/// B's column distribution. `plan` (optional) captures the full value-only
/// replay program while this fresh call runs; `budgeted` bounds each layer's
/// stage window (a max_peak_triples budget is in force).
template <typename SRIn = void, typename VT>
DistMatrix1D<VT> spgemm_split_3d_dist(
    Comm& comm, const DistMatrix1D<VT>& a, const DistMatrix1D<VT>& b, int layers,
    LocalKernel kernel = LocalKernel::Hybrid, int threads = 1,
    std::type_identity_t<Split3dPlan<VT, ResolveSemiring<SRIn, VT>>*> plan = nullptr,
    int grid_rows = 0, int grid_cols = 0, bool budgeted = false) {
  using SR = ResolveSemiring<SRIn, VT>;
  require(a.ncols() == b.nrows(), "spgemm_split_3d_dist: inner dimension mismatch");
  const int P = comm.size();
  require_split3d_layers(P, layers, "spgemm_split_3d_dist");
  const int q2 = P / layers;
  const GridShape grid = require_grid_shape(q2, grid_rows, grid_cols, "spgemm_split_3d_dist");
  const int layer = comm.rank() / q2;
  const int gi = (comm.rank() % q2) / grid.cols;
  const int gj = (comm.rank() % q2) % grid.cols;
  if (plan != nullptr) plan->layers = layers;

  auto rb = even_split(a.nrows(), grid.rows);  // row blocks (shared by every layer)
  auto cb = even_split(b.ncols(), grid.cols);  // C/B column blocks (shared too)
  auto kl = even_split(a.ncols(), layers);     // inner dimension across layers
  const int spc = grid.stages / grid.cols;
  const int spr = grid.stages / grid.rows;

  // Flat coarse inner tilings, layer-major: within each layer the inner
  // slice is split into `stages` fine blocks, of which grid column j owns
  // the contiguous run [j·s/q_c, (j+1)·s/q_c) for A and grid row i owns
  // [i·s/q_r, (i+1)·s/q_r) for B — so A has c·q_c coarse tiles and B has
  // c·q_r (they differ on rectangular grids). A tile's flat index decodes
  // to (layer, within-layer grid coordinate), which lets the generic
  // 1D→grid primitive route both operands in one all-to-all each, straight
  // to their (layer, gi, gj) owners.
  std::vector<std::vector<index_t>> kb_layer(static_cast<std::size_t>(layers));
  std::vector<index_t> kflat_a{0}, kflat_b{0};
  kflat_a.reserve(static_cast<std::size_t>(layers) * static_cast<std::size_t>(grid.cols) + 1);
  kflat_b.reserve(static_cast<std::size_t>(layers) * static_cast<std::size_t>(grid.rows) + 1);
  for (int l = 0; l < layers; ++l) {
    const index_t klo = kl[static_cast<std::size_t>(l)];
    const index_t khi = kl[static_cast<std::size_t>(l) + 1];
    kb_layer[static_cast<std::size_t>(l)] = even_split(khi - klo, grid.stages);
    const auto& fine = kb_layer[static_cast<std::size_t>(l)];
    for (int t = 1; t <= grid.cols; ++t)
      kflat_a.push_back(klo + fine[static_cast<std::size_t>(t * spc)]);
    for (int t = 1; t <= grid.rows; ++t)
      kflat_b.push_back(klo + fine[static_cast<std::size_t>(t * spr)]);
  }

  // A block (rb[bi] × inner tile): tile owner is (layer of tile, row bi,
  // grid column = tile position within the layer).
  auto rank_of_a = [qc = grid.cols, q2](int bi, int bjflat) {
    return (bjflat / qc) * q2 + bi * qc + (bjflat % qc);
  };
  // B block (inner tile × cb[bj]): tile owner is (layer, grid row = tile
  // position, column bj).
  auto rank_of_b = [qr = grid.rows, qc = grid.cols, q2](int biflat, int bj) {
    return (biflat / qr) * q2 + (biflat % qr) * qc + bj;
  };
  auto my_a = redistribute_1d_to_2d_grid(comm, a, std::span<const index_t>(rb),
                                         std::span<const index_t>(kflat_a), rank_of_a, gi,
                                         layer * grid.cols + gj,
                                         plan != nullptr ? &plan->route_a : nullptr);
  auto my_b = redistribute_1d_to_2d_grid(comm, b, std::span<const index_t>(kflat_b),
                                         std::span<const index_t>(cb), rank_of_b,
                                         layer * grid.rows + gi, gj,
                                         plan != nullptr ? &plan->route_b : nullptr);

  // Each layer's q_r × q_c grid runs SUMMA on its inner slice; partials
  // land in `acc` with global coordinates, and the final scatter merges
  // across both stages and layers with ⊕.
  Comm layer_comm = comm.split(layer, comm.rank());
  CooMatrix<VT> acc(a.nrows(), b.ncols());
  summadetail::summa_stages<SR>(
      layer_comm, grid, my_a, my_b, std::span<const index_t>(rb),
      std::span<const index_t>(kb_layer[static_cast<std::size_t>(layer)]),
      std::span<const index_t>(cb), kernel, threads, acc,
      plan != nullptr ? &plan->sched : nullptr, budgeted);
  // Pipelined cross-layer "split" reduction: the scatter's ⊕-fold consumes
  // each layer's partial-C chunk as it arrives (streaming rounds-merge in
  // redistribute_coo_to_1d), so the cross-layer merge never holds all
  // arrivals plus the merged copy at once.
  auto c = redistribute_coo_to_1d<SR>(comm, acc, a.nrows(), b.ncols(), b.bounds(),
                                      plan != nullptr ? &plan->out : nullptr);
  // This layer's merged partials (charged stage by stage in summa_stages)
  // die here: the scatter has folded them into C's canonical distribution.
  comm.report().mem_release(acc.triples().size(),
                            acc.triples().size() * sizeof(Triple<VT>));
  return c;
}

/// Replays a captured Split-3D plan for a structurally identical operand
/// pair: value-only routes in, value-only stage broadcasts + numeric local
/// passes on this rank's layer, value-only cross-layer scatter out.
/// Bit-identical to the fresh call; records zero Phase::Plan time and moves
/// no structural metadata. Collective.
template <typename SR, typename VT>
DistMatrix1D<VT> spgemm_split_3d_replay(Comm& comm, Split3dPlan<VT, SR>& plan,
                                        const DistMatrix1D<VT>& a, const DistMatrix1D<VT>& b,
                                        bool budgeted = false) {
  const int q2 = comm.size() / plan.layers;
  const int layer = comm.rank() / q2;
  const auto& my_a = replay_1d_to_2d_grid(comm, plan.route_a, a);
  const auto& my_b = replay_1d_to_2d_grid(comm, plan.route_b, b);
  Comm layer_comm = comm.split(layer, comm.rank());
  summadetail::summa_stages_replay<SR>(layer_comm, my_a, my_b, plan.sched, plan.acc_vals,
                                       budgeted);
  return replay_coo_to_1d<SR>(comm, plan.out, std::span<const VT>(plan.acc_vals));
}

/// Replicated-operand wrapper (the original baseline API): distributes the
/// globals, runs the 1D-in/1D-out Split-3D, and returns this rank's C
/// column slice as COO in global coordinates — gather_coo() reassembles.
/// Layer partials are already merged, so the COO parts are disjoint.
template <typename VT>
CooMatrix<VT> spgemm_split_3d(Comm& comm, const CscMatrix<VT>& a, const CscMatrix<VT>& b,
                              int layers, LocalKernel kernel = LocalKernel::Hybrid,
                              int threads = 1) {
  require(a.ncols() == b.nrows(), "spgemm_split_3d: inner dimension mismatch");
  require_split3d_layers(comm.size(), layers, "spgemm_split_3d");
  auto da = DistMatrix1D<VT>::from_global(comm, a);
  auto db = DistMatrix1D<VT>::from_global(comm, b);
  auto dc = spgemm_split_3d_dist(comm, da, db, layers, kernel, threads);
  auto ph = comm.phase(Phase::Other);
  return dc.local_to_coo_global();
}

}  // namespace sa1d
