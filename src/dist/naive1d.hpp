// Naive ring 1D SpGEMM (Ballard et al.'s "1D block column" baseline): every
// rank needs all of A, so the A slices are circulated around a ring and each
// rank multiplies every slice against its stationary B_i. Communication is
// ~(P-1)·nnz(A) triples regardless of sparsity structure — the volume the
// sparsity-aware Algorithm 1 exists to avoid.
//
// The circulated *structure* (each slice's rows and column grouping) and the
// accumulator's merge program are value-independent, so a RingPlan captured
// alongside one fresh call lets later calls circulate bare value arrays
// (sizeof(VT) per element instead of a full Triple) — the ring still pays
// its (P-1)·nnz(A) element volume, but a third of the bytes.
#pragma once

#include <cstdint>
#include <numeric>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "dist/dist_matrix.hpp"
#include "dist/redistribute.hpp"
#include "kernels/semiring.hpp"
#include "kernels/spgemm_local.hpp"
#include "runtime/machine.hpp"

namespace sa1d {

/// Cached structural program of one ring-1D multiply on this rank: per hop,
/// the circulating slice's rows and column grouping; plus the deterministic
/// ⊕-merge program of the accumulated partial products and the final local
/// C structure. Captured by spgemm_naive_ring_1d, replayed (values only) by
/// spgemm_naive_ring_1d_replay.
template <typename VT, typename SR>
struct RingPlan {
  struct Hop {
    index_t nnz = 0;                    ///< elements of the circulating slice
    std::vector<index_t> gcol_ids;      ///< distinct global column ids, ascending
    std::vector<std::size_t> starts;    ///< column ranges within the slice, size |gcol_ids|+1
  };
  std::vector<Hop> hops;                ///< hop s = the slice this rank multiplies at step s
  std::vector<index_t> acc_dst;         ///< flat push idx -> merged local slot
  std::vector<std::uint8_t> acc_first;  ///< 1 = assign, 0 = ⊕-accumulate
  std::size_t acc_nnz = 0;
  DcscMatrix<VT> c_shell;               ///< merged local C structure (values are scratch)

  /// Exact per-rank collective bytes one value-only replay receives: each
  /// of the (P-1) hop shifts delivers the next slice's value array.
  [[nodiscard]] std::uint64_t replay_recv_bytes() const {
    std::uint64_t b = 0;
    for (std::size_t s = 1; s < hops.size(); ++s)
      b += static_cast<std::uint64_t>(hops[s].nnz) * sizeof(VT);
    return b;
  }

  /// Byte-accurate residency of the cached structural program on this rank
  /// (major arrays only) — what the plan cache's budget accounts against.
  [[nodiscard]] std::uint64_t bytes_resident() const {
    std::uint64_t b = 0;
    for (const auto& h : hops)
      b += h.gcol_ids.size() * sizeof(index_t) + h.starts.size() * sizeof(std::size_t);
    b += acc_dst.size() * sizeof(index_t) + acc_first.size();
    b += c_shell.jc().size() * sizeof(index_t) + c_shell.cp().size() * sizeof(index_t) +
         c_shell.ir().size() * sizeof(index_t) + c_shell.vals().size() * sizeof(VT);
    return b;
  }
};

/// Ring 1D SpGEMM baseline. Collective. C inherits B's column distribution;
/// products and partial merges run over the chosen semiring (the merge is
/// deterministic — ties fold in push order — so a captured plan replays
/// bit-exactly). Each hop shift is posted before the local multiply, which
/// reads the request's stable view of the slice, so the slice travels while
/// this rank multiplies. `plan` (optional) captures the value-only replay
/// program.
template <typename SRIn = void, typename VT>
DistMatrix1D<VT> spgemm_naive_ring_1d(
    Comm& comm, const DistMatrix1D<VT>& a, const DistMatrix1D<VT>& b,
    std::type_identity_t<RingPlan<VT, ResolveSemiring<SRIn, VT>>*> plan = nullptr) {
  using SR = ResolveSemiring<SRIn, VT>;
  require(a.ncols() == b.nrows(), "spgemm_naive_ring_1d: inner dimension mismatch");
  const int P = comm.size();
  const int me = comm.rank();
  auto& rep = comm.report();
  constexpr std::uint64_t tb = sizeof(Triple<VT>);

  // Circulating payload: my A slice as triples with global column ids,
  // column-major sorted (DCSC order) so each hop can rebuild column ranges
  // with one scan.
  std::vector<Triple<VT>> circ;
  {
    auto ph = comm.phase(Phase::Other);
    circ.reserve(static_cast<std::size_t>(a.local_nnz()));
    for (index_t k = 0; k < a.local().nzc(); ++k) {
      index_t gcol = a.global_col(k);
      auto rows = a.local().col_rows_at(k);
      auto vals = a.local().col_vals_at(k);
      for (std::size_t p = 0; p < rows.size(); ++p) circ.push_back({rows[p], gcol, vals[p]});
    }
  }
  rep.mem_charge(circ.size(), circ.size() * tb);

  if (plan != nullptr) plan->hops.assign(static_cast<std::size_t>(P), {});
  constexpr std::uint64_t eb = sizeof(index_t) + sizeof(VT);  // one stored partial of C
  CscMatrix<VT> acc(a.nrows(), b.local_ncols());
  const auto& bl = b.local();
  const int succ = (me + 1) % P, pred = (me - 1 + P) % P;
  for (int step = 0; step < P; ++step) {
    std::optional<AlltoallvRequest<Triple<VT>>> shift;
    std::span<const Triple<VT>> cs(circ);
    if (step + 1 < P) {
      std::vector<std::vector<Triple<VT>>> send(static_cast<std::size_t>(P));
      {
        auto ph = comm.phase(Phase::Other);
        send[static_cast<std::size_t>(succ)] = std::move(circ);
      }
      shift.emplace(comm.ialltoallv(std::move(send)));
      cs = shift->sent_chunk(succ);
    }
    std::vector<index_t> gcol_ids;
    std::vector<std::size_t> starts;
    // The hop's products, CSC-shaped over C's local columns; rows repeat
    // and come out of order within a column.
    std::vector<index_t> colptr(static_cast<std::size_t>(b.local_ncols()) + 1, 0), rows;
    std::vector<VT> vals;
    {
      auto ph = comm.phase(Phase::Comp);
      // Group the circulating slice into columns (triples are column-major).
      for (std::size_t p = 0; p < cs.size(); ++p) {
        if (p == 0 || cs[p].col != cs[p - 1].col) {
          gcol_ids.push_back(cs[p].col);
          starts.push_back(p);
        }
      }
      starts.push_back(cs.size());
      // C_i += A_slice · B_i restricted to B rows matching the slice columns.
      for (index_t j = 0; j < bl.nzc(); ++j) {
        auto brows = bl.col_rows_at(j);
        auto bvals = bl.col_vals_at(j);
        const std::size_t pre = rows.size();
        for (std::size_t p = 0; p < brows.size(); ++p) {
          auto it = std::lower_bound(gcol_ids.begin(), gcol_ids.end(), brows[p]);
          if (it == gcol_ids.end() || *it != brows[p]) continue;
          auto kpos = static_cast<std::size_t>(it - gcol_ids.begin());
          for (std::size_t q = starts[kpos]; q < starts[kpos + 1]; ++q) {
            rows.push_back(cs[q].row);
            vals.push_back(SR::multiply(cs[q].val, bvals[p]));
          }
        }
        colptr[static_cast<std::size_t>(bl.col_id(j)) + 1] =
            static_cast<index_t>(rows.size() - pre);
      }
      std::partial_sum(colptr.begin(), colptr.end(), colptr.begin());
      rep.mem_charge(rows.size(), rows.size() * eb);
    }
    if (plan != nullptr) {
      // Structural capture — work a replay skips, accounted like the
      // SUMMA/3D captures so the plan-vs-execute breakdown is comparable
      // across backends.
      auto ph = comm.phase(Phase::Plan);
      auto& hop = plan->hops[static_cast<std::size_t>(step)];
      hop.nnz = static_cast<index_t>(cs.size());
      hop.gcol_ids = std::move(gcol_ids);
      hop.starts = std::move(starts);
    }
    {
      // Per-hop fold: the accumulator collapses after every hop instead of
      // holding every hop's products until a terminal merge. Each column's
      // products are stable-sorted by row and merged with the accumulator's
      // column in one pass, so each key folds in hop order, then push order.
      auto ph = comm.phase(plan != nullptr ? Phase::Plan : Phase::Other);
      const std::uint64_t n = static_cast<std::uint64_t>(acc.nnz());
      const std::uint64_t r = rows.size();
      rep.mem_charge(n + r, (n + r) * eb);  // the fold's output
      fold_column_run(acc, colptr, rows, vals, [](VT x, VT y) { return SR::add(x, y); },
                      plan != nullptr ? &plan->acc_dst : nullptr,
                      plan != nullptr ? &plan->acc_first : nullptr);
      const std::uint64_t gone = 2 * (n + r) - static_cast<std::uint64_t>(acc.nnz());
      rep.mem_release(gone, gone * eb);
    }
    if (shift.has_value()) {
      const std::uint64_t outgoing = cs.size();
      circ = shift->take_from(pred);
      shift->wait();  // drain the (empty) remaining chunks so the op retires
      rep.mem_charge(circ.size(), circ.size() * tb);  // the arriving slice...
      rep.mem_release(outgoing, outgoing * tb);       // ...replaces the shifted-away one
    } else {
      rep.mem_release(cs.size(), cs.size() * tb);  // last hop: the slice dies here
    }
  }

  DcscMatrix<VT> c_local;
  {
    // The per-hop folds leave `acc` already merged; a capturing build
    // charged each fold + program capture to Plan, like the SUMMA/3D
    // captures, so the breakdown is comparable per backend.
    auto ph = comm.phase(plan != nullptr ? Phase::Plan : Phase::Other);
    c_local = DcscMatrix<VT>::from_csc(acc);
    if (plan != nullptr) {
      plan->acc_nnz = static_cast<std::size_t>(acc.nnz());
      plan->c_shell = c_local;
    }
  }
  // The merged accumulator dies with this frame; c_local is the output.
  rep.mem_release(static_cast<std::uint64_t>(acc.nnz()),
                  static_cast<std::uint64_t>(acc.nnz()) * eb);
  return DistMatrix1D<VT>(a.nrows(), b.ncols(), b.bounds(), me, std::move(c_local));
}

/// One member of a ring replay: a captured plan and the operand pair it
/// replays.
template <typename VT, typename SR>
struct RingReplay {
  RingPlan<VT, SR>* plan;
  const DistMatrix1D<VT>* a;
  const DistMatrix1D<VT>* b;
};

/// Replays k captured ring plans for structurally identical operand pairs,
/// one plan per member (a single member is the sequential replay). Each of
/// the (P-1) hop shifts is ONE alltoallv whose successor chunk is the
/// member-major concatenation of every member's circulating value array —
/// (P-1) messages per rank for the whole group instead of k·(P-1). Each
/// member multiplies its own span of the chunk against its cached hop
/// structure and ⊕-folds through its cached merge program with its own flat
/// counter, so every result is bit-identical to the fresh call; zero
/// Phase::Plan time, no structural metadata moved. The hop shift is posted
/// before the multiplies, which read the request's stable view of the
/// outgoing chunk. Collective.
template <typename SR, typename VT>
std::vector<DistMatrix1D<VT>> spgemm_naive_ring_1d_replay(
    Comm& comm, std::span<const RingReplay<VT, SR>> ms) {
  std::vector<DistMatrix1D<VT>> out;
  if (ms.empty()) return out;
  const int P = comm.size();
  const int me = comm.rank();
  const std::size_t k = ms.size();
  auto& rep = comm.report();
  auto hop_nnz = [&](std::size_t m, int step) {
    return static_cast<std::size_t>(ms[m].plan->hops[static_cast<std::size_t>(step)].nnz);
  };
  // Replay guard: the circulating values must match the cached hop
  // structures (their column ranges index into them); a diverged slice —
  // this rank's own A at step 0, a mis-sized shift afterwards — raises
  // machine-wide instead of reading out of range.
  auto guard = [&](std::size_t have, std::size_t need, int step) {
    if (have != need)
      comm.fail(FaultClass::PlanMismatch, "ring_replay",
                "spgemm_naive_ring_1d_replay: hop " + std::to_string(step) + " carries " +
                    std::to_string(have) + " values where the cached slice structures hold " +
                    std::to_string(need) + " (rank " +
                    std::to_string(comm.global_rank(comm.rank())) + ")");
  };

  // Per-member merged accumulators: call-local, they become C's values.
  std::vector<VT> circ;
  std::vector<std::vector<VT>> acc(k);
  {
    auto ph = comm.phase(Phase::Other);
    for (std::size_t m = 0; m < k; ++m) {
      const auto& av = ms[m].a->local().vals();
      guard(av.size(), hop_nnz(m, 0), 0);
      circ.insert(circ.end(), av.begin(), av.end());
      acc[m].assign(ms[m].plan->acc_nnz, VT{});
    }
  }
  rep.mem_charge(circ.size(), circ.size() * sizeof(VT));

  const int succ = (me + 1) % P, pred = (me - 1 + P) % P;
  std::vector<std::size_t> flat(k, 0);
  for (int step = 0; step < P; ++step) {
    std::optional<AlltoallvRequest<VT>> shift;
    std::span<const VT> cv(circ);
    if (step + 1 < P) {
      std::vector<std::vector<VT>> send(static_cast<std::size_t>(P));
      {
        auto ph = comm.phase(Phase::Other);
        send[static_cast<std::size_t>(succ)] = std::move(circ);
      }
      shift.emplace(comm.ialltoallv(std::move(send)));
      cv = shift->sent_chunk(succ);
    }
    {
      auto ph = comm.phase(Phase::Comp);
      std::size_t off = 0;
      for (std::size_t m = 0; m < k; ++m) {
        const auto& plan = *ms[m].plan;
        auto& av = acc[m];
        const auto& hop = plan.hops[static_cast<std::size_t>(step)];
        const auto mv = cv.subspan(off, hop_nnz(m, step));
        off += mv.size();
        const auto& bl = ms[m].b->local();
        std::size_t& fl = flat[m];
        for (index_t j = 0; j < bl.nzc(); ++j) {
          auto brows = bl.col_rows_at(j);
          auto bvals = bl.col_vals_at(j);
          for (std::size_t p = 0; p < brows.size(); ++p) {
            auto it = std::lower_bound(hop.gcol_ids.begin(), hop.gcol_ids.end(), brows[p]);
            if (it == hop.gcol_ids.end() || *it != brows[p]) continue;
            auto kpos = static_cast<std::size_t>(it - hop.gcol_ids.begin());
            for (std::size_t q = hop.starts[kpos]; q < hop.starts[kpos + 1]; ++q) {
              const VT v = SR::multiply(mv[q], bvals[p]);
              const auto slot = static_cast<std::size_t>(plan.acc_dst[fl]);
              av[slot] = plan.acc_first[fl] != 0 ? v : SR::add(av[slot], v);
              ++fl;
            }
          }
        }
      }
    }
    if (shift.has_value()) {
      const std::uint64_t outgoing = cv.size();
      circ = shift->take_from(pred);
      shift->wait();
      std::size_t need = 0;
      for (std::size_t m = 0; m < k; ++m) need += hop_nnz(m, step + 1);
      guard(circ.size(), need, step + 1);
      rep.mem_charge(circ.size(), circ.size() * sizeof(VT));
      rep.mem_release(outgoing, outgoing * sizeof(VT));
    } else {
      rep.mem_release(cv.size(), cv.size() * sizeof(VT));  // last hop
    }
  }

  auto ph = comm.phase(Phase::Other);
  out.reserve(k);
  for (std::size_t m = 0; m < k; ++m) {
    DcscMatrix<VT> c_local = ms[m].plan->c_shell;
    c_local.mutable_vals() = std::move(acc[m]);
    out.emplace_back(ms[m].a->nrows(), ms[m].b->ncols(), ms[m].b->bounds(), me,
                     std::move(c_local));
  }
  return out;
}

}  // namespace sa1d
