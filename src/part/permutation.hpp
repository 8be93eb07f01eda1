// Random symmetric permutation (the 2D/3D algorithms' load-balancing
// preprocessing) and the distributed permutation apply used to charge its
// true communication cost. The capture/replay pair below is the ordering
// stage's inspector–executor split: a fresh permute records, per peer, which
// local value slots it ships and where each received value lands in the
// permuted slice, so later calls with the same structure move bare values
// through the cached route — no triples, no canonicalize, no re-partition.
#pragma once

#include "dist/dist_matrix.hpp"
#include "runtime/machine.hpp"
#include "sparse/ops.hpp"
#include "util/rng.hpp"

namespace sa1d {

/// Fisher–Yates random permutation of [0, n).
inline Permutation random_permutation(index_t n, std::uint64_t seed) {
  std::vector<index_t> p(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) p[static_cast<std::size_t>(i)] = i;
  SplitMix64 g(seed);
  for (index_t i = n - 1; i > 0; --i) {
    auto j = static_cast<index_t>(g.below(static_cast<std::uint64_t>(i + 1)));
    std::swap(p[static_cast<std::size_t>(i)], p[static_cast<std::size_t>(j)]);
  }
  return Permutation(std::move(p));
}

/// The cached value-only route of one distributed symmetric permute: for
/// each destination the flat value slots of the source slice it ships (in
/// send order), and for each source the flat slots of the permuted slice
/// its values land in. Structure is a bijection on entries, so the route is
/// exact — replaying it on same-structure operands is bit-identical to a
/// fresh permute.
struct PermuteRoute {
  std::vector<std::vector<index_t>> send_src;  ///< per dest: source value slots
  std::vector<std::vector<index_t>> recv_dst;  ///< per src: destination value slots
  bool captured = false;

  [[nodiscard]] std::uint64_t bytes_resident() const {
    std::uint64_t b = 0;
    for (const auto& v : send_src) b += v.size() * sizeof(index_t);
    for (const auto& v : recv_dst) b += v.size() * sizeof(index_t);
    return b;
  }
};

/// Applies a symmetric permutation to a 1D-distributed matrix by real
/// all-to-all movement (PAPᵀ), landing on `new_bounds` (defaults to an even
/// split). This is the instrumented "permutation time" the paper includes
/// when reporting 2D/3D algorithms with preprocessing cost. Pack/unpack CPU
/// is charged to Phase::Reorder (the ordering stage), the movement itself to
/// the collective's own accounting. `route` non-null captures the value-only
/// replay program (permute_symmetric_replay).
template <typename VT>
DistMatrix1D<VT> permute_symmetric_dist(Comm& comm, const DistMatrix1D<VT>& a,
                                        const Permutation& perm,
                                        std::vector<index_t> new_bounds = {},
                                        PermuteRoute* route = nullptr) {
  require(a.nrows() == a.ncols(), "permute_symmetric_dist: matrix must be square");
  require(perm.size() == a.ncols(), "permute_symmetric_dist: permutation size mismatch");
  const int P = comm.size();
  if (new_bounds.empty()) new_bounds = even_split(a.ncols(), P);

  std::vector<std::vector<Triple<VT>>> send(static_cast<std::size_t>(P));
  std::vector<std::vector<index_t>> send_src;
  if (route != nullptr) send_src.assign(static_cast<std::size_t>(P), {});
  {
    auto ph = comm.phase(Phase::Reorder);
    const auto& al = a.local();
    for (index_t k = 0; k < al.nzc(); ++k) {
      index_t gj = perm(a.col_lo() + al.col_id(k));
      int owner = find_owner(std::span<const index_t>(new_bounds), gj);
      auto rows = al.col_rows_at(k);
      auto vals = al.col_vals_at(k);
      const index_t base = al.cp()[static_cast<std::size_t>(k)];
      for (std::size_t p = 0; p < rows.size(); ++p) {
        send[static_cast<std::size_t>(owner)].push_back({perm(rows[p]), gj, vals[p]});
        if (route != nullptr)
          send_src[static_cast<std::size_t>(owner)].push_back(base + static_cast<index_t>(p));
      }
    }
  }
  auto recv = comm.alltoallv(send);
  // Each staging copy is freed as soon as the next one holds its triples:
  // permuting a product C moves every one of its entries, so the sent,
  // received and canonicalized copies must not all be live at once.
  std::vector<std::vector<Triple<VT>>>().swap(send);

  auto ph = comm.phase(Phase::Reorder);
  index_t lo = new_bounds[static_cast<std::size_t>(comm.rank())];
  index_t hi = new_bounds[static_cast<std::size_t>(comm.rank()) + 1];
  DcscMatrix<VT> slice;
  {
    CooMatrix<VT> coo(a.nrows(), hi - lo);
    std::size_t n = 0;
    for (const auto& chunk : recv) n += chunk.size();
    coo.triples().reserve(n);
    for (const auto& chunk : recv)
      for (const auto& t : chunk) coo.push(t.row, t.col - lo, t.val);
    if (route == nullptr) std::vector<std::vector<Triple<VT>>>().swap(recv);
    coo.canonicalize();
    slice = DcscMatrix<VT>::from_coo(coo);
  }
  auto out = DistMatrix1D<VT>(a.nrows(), a.ncols(), std::move(new_bounds), comm.rank(),
                              std::move(slice));
  if (route != nullptr) {
    // Resolve each received triple to its flat value slot in the assembled
    // slice by structural lookup — independent of canonicalize's internal
    // sort order, so the route stays exact even if that changes.
    route->send_src = std::move(send_src);
    route->recv_dst.assign(static_cast<std::size_t>(P), {});
    const auto& ol = out.local();
    for (int s = 0; s < P; ++s) {
      auto& dst = route->recv_dst[static_cast<std::size_t>(s)];
      dst.reserve(recv[static_cast<std::size_t>(s)].size());
      for (const auto& t : recv[static_cast<std::size_t>(s)]) {
        const index_t k = ol.find_col(t.col - out.col_lo());
        require(k >= 0, "permute_symmetric_dist: capture lost a column");
        auto rows = ol.col_rows_at(k);
        auto it = std::lower_bound(rows.begin(), rows.end(), t.row);
        require(it != rows.end() && *it == t.row,
                "permute_symmetric_dist: capture lost an entry");
        dst.push_back(ol.cp()[static_cast<std::size_t>(k)] +
                      static_cast<index_t>(it - rows.begin()));
      }
    }
    route->captured = true;
  }
  return out;
}

/// Value-only replay of a captured permute: packs the source slice's values
/// in the recorded send order, moves bare VT payloads, and overwrites the
/// cached permuted slice's value array in place. Precondition: `src` has
/// the structure the route was captured from (guarded by a cheap count
/// check that fails machine-wide as PlanMismatch — a diverged rank must not
/// enter the alltoallv alone).
template <typename VT>
void permute_symmetric_replay(Comm& comm, const DistMatrix1D<VT>& src,
                              const PermuteRoute& route, DistMatrix1D<VT>& cached) {
  std::uint64_t total = 0;
  for (const auto& v : route.send_src) total += v.size();
  if (!route.captured || total != static_cast<std::uint64_t>(src.local_nnz()))
    comm.fail(FaultClass::PlanMismatch, "permute_replay",
              "permute_symmetric_replay: operand structure diverged from the captured route "
              "(rank " + std::to_string(comm.global_rank(comm.rank())) + ")");
  const int P = comm.size();
  std::vector<std::vector<VT>> send(static_cast<std::size_t>(P));
  {
    auto ph = comm.phase(Phase::Reorder);
    const auto& vals = src.local().vals();
    for (int d = 0; d < P; ++d) {
      const auto& slots = route.send_src[static_cast<std::size_t>(d)];
      auto& out = send[static_cast<std::size_t>(d)];
      out.reserve(slots.size());
      for (auto s : slots) out.push_back(vals[static_cast<std::size_t>(s)]);
    }
  }
  auto recv = comm.alltoallv(send);
  auto ph = comm.phase(Phase::Reorder);
  auto& dst = cached.mutable_local().mutable_vals();
  for (int s = 0; s < P; ++s) {
    const auto& slots = route.recv_dst[static_cast<std::size_t>(s)];
    const auto& chunk = recv[static_cast<std::size_t>(s)];
    require(slots.size() == chunk.size(), "permute_symmetric_replay: route/payload mismatch");
    for (std::size_t i = 0; i < chunk.size(); ++i)
      dst[static_cast<std::size_t>(slots[i])] = chunk[i];
  }
}

}  // namespace sa1d
