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
// redistribution is also a single all-to-all per operand. One layer is 2D
// SUMMA exactly (the routes, stage loop and scatter reduce to the 2D ones,
// and no layer communicator is split), so this is also the SUMMA-2D fresh
// entry. The captured program is a GridPlan; spgemm_grid_replay replays it.
#pragma once

#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "dist/summa2d.hpp"

namespace sa1d {

/// Split-3D SpGEMM over 1D-distributed operands (`layers` = 1 is 2D SUMMA).
/// Collective; requires only that `layers` divides P (require_split3d_layers
/// lists the valid counts otherwise) — each layer grid is the
/// nearest-square factorization of P/layers unless `grid_rows`/`grid_cols`
/// pin a shape. C is returned in B's column distribution. `plan` (optional)
/// captures the full value-only replay program while this fresh call runs;
/// `budgeted` bounds each layer's stage window (a max_peak_triples budget
/// is in force).
template <typename SRIn = void, typename VT>
DistMatrix1D<VT> spgemm_split_3d_dist(
    Comm& comm, const DistMatrix1D<VT>& a, const DistMatrix1D<VT>& b, int layers,
    LocalKernel kernel = LocalKernel::Hybrid, int threads = 1,
    std::type_identity_t<GridPlan<VT, ResolveSemiring<SRIn, VT>>*> plan = nullptr,
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

  // Each layer's q_r × q_c grid runs SUMMA on its inner slice into a CSC
  // block over (rb[gi], cb[gj]); the final scatter folds the layers' blocks
  // of the same (gi, gj) with ⊕.
  auto acc = summadetail::on_layer(comm, layers, [&](Comm& layer_comm) {
    return summadetail::summa_stages<SR>(
        layer_comm, grid, my_a, my_b, std::span<const index_t>(rb),
        std::span<const index_t>(kb_layer[static_cast<std::size_t>(layer)]),
        std::span<const index_t>(cb), kernel, threads, plan != nullptr ? &plan->sched : nullptr,
        budgeted);
  });
  // Pipelined cross-layer "split" reduction: the scatter folds each
  // layer's partial-C chunk as it arrives, in ascending source (= layer)
  // order, so the cross-layer merge never holds all arrivals plus the
  // merged copy at once. It takes this layer's merged partials (charged
  // stage by stage in summa_stages) and frees them once packed.
  return redistribute_csc_to_1d<SR>(comm, std::move(acc), rb[static_cast<std::size_t>(gi)],
                                    cb[static_cast<std::size_t>(gj)], a.nrows(), b.ncols(),
                                    b.bounds(), plan != nullptr ? &plan->out : nullptr);
}

}  // namespace sa1d
