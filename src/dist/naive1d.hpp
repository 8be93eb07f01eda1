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
  /// Circulating element of a windowed replay's post-window hops: once the
  /// resident structures run out, the column id travels with the value (row
  /// ids are never needed on replay — every push folds through acc_dst).
  struct ColVal {
    index_t col;
    VT val;
  };
  std::vector<Hop> hops;                ///< hop s = the slice this rank multiplies at step s
  /// Windowed-hop residency (the plan cache's eviction fallback, ROADMAP
  /// item 3): 0 = every hop structure resident (full replay). w ∈ [1, P):
  /// only hops[0..w) keep their gcol_ids/starts; later hops re-derive the
  /// grouping on the fly from circulated (col, val) pairs — ~1/3 more shift
  /// bytes past the window, but the resident footprint drops from ≈nnz(A)
  /// indices to the windowed prefix. Replay stays bit-identical.
  int window = 0;
  std::vector<index_t> acc_dst;         ///< flat push idx -> merged local slot
  std::vector<std::uint8_t> acc_first;  ///< 1 = assign, 0 = ⊕-accumulate
  std::size_t acc_nnz = 0;
  DcscMatrix<VT> c_shell;               ///< merged local C structure (values are scratch)
  std::vector<VT> acc_vals;             ///< replay scratch

  [[nodiscard]] bool windowed() const {
    return window > 0 && static_cast<std::size_t>(window) < hops.size();
  }

  /// Frees the hop structures at positions ≥ w (keeping the element counts,
  /// which the replay guards need), turning this into a windowed plan. Hop 0
  /// (this rank's own slice) is always retained, so w clamps to [1, P].
  /// Idempotent; a second call can only shrink the window further.
  void demote_to_window(int w) {
    if (w < 1) w = 1;
    if (static_cast<std::size_t>(w) >= hops.size()) return;  // nothing to drop
    if (window != 0 && w >= window) return;                  // already at least this small
    window = w;
    for (std::size_t s = static_cast<std::size_t>(w); s < hops.size(); ++s) {
      std::vector<index_t>().swap(hops[s].gcol_ids);
      std::vector<std::size_t>().swap(hops[s].starts);
    }
  }

  /// Exact per-rank collective bytes one value-only replay receives: each
  /// of the (P-1) hop shifts delivers the next slice's value array — bare
  /// values inside the resident window, (col, val) pairs past it.
  [[nodiscard]] std::uint64_t replay_recv_bytes() const {
    std::uint64_t b = 0;
    for (std::size_t s = 1; s < hops.size(); ++s) {
      const bool paired = windowed() && static_cast<int>(s) >= window;
      b += static_cast<std::uint64_t>(hops[s].nnz) * (paired ? sizeof(ColVal) : sizeof(VT));
    }
    return b;
  }

  /// Byte-accurate residency of the cached structural program on this rank
  /// (major arrays only) — what the plan cache's budget accounts against.
  [[nodiscard]] std::uint64_t bytes_resident() const {
    std::uint64_t b = 0;
    for (const auto& h : hops)
      b += h.gcol_ids.size() * sizeof(index_t) + h.starts.size() * sizeof(std::size_t);
    b += acc_dst.size() * sizeof(index_t) + acc_first.size();
    b += acc_vals.size() * sizeof(VT);
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
/// program; `window` > 0 captures it *windowed from birth* — only the first `window`
/// hops keep their column structures (the bounded-hop-window execution mode
/// a peak-triples budget selects; PR 8's demotion produced the same shape
/// after the fact) — replays dispatch to ring_replay_windowed automatically.
template <typename SRIn = void, typename VT>
DistMatrix1D<VT> spgemm_naive_ring_1d(
    Comm& comm, const DistMatrix1D<VT>& a, const DistMatrix1D<VT>& b,
    std::type_identity_t<RingPlan<VT, ResolveSemiring<SRIn, VT>>*> plan = nullptr,
    int window = 0) {
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
  CooMatrix<VT> acc(a.nrows(), b.local_ncols());
  StreamingTripleMerge<VT> smerge;
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
      const std::size_t pre = acc.triples().size();
      for (index_t j = 0; j < bl.nzc(); ++j) {
        auto brows = bl.col_rows_at(j);
        auto bvals = bl.col_vals_at(j);
        for (std::size_t p = 0; p < brows.size(); ++p) {
          auto it = std::lower_bound(gcol_ids.begin(), gcol_ids.end(), brows[p]);
          if (it == gcol_ids.end() || *it != brows[p]) continue;
          auto kpos = static_cast<std::size_t>(it - gcol_ids.begin());
          for (std::size_t q = starts[kpos]; q < starts[kpos + 1]; ++q)
            acc.push(cs[q].row, bl.col_id(j), SR::multiply(cs[q].val, bvals[p]));
        }
      }
      const std::uint64_t grew = acc.triples().size() - pre;
      rep.mem_charge(grew, grew * tb);
    }
    if (plan != nullptr) {
      // Structural capture — work a replay skips, accounted like the
      // SUMMA/3D captures so the plan-vs-execute breakdown is comparable
      // across backends. A window > 0 keeps only the first `window` hop
      // structures (hop.nnz is always recorded — the replay guards need it),
      // capturing the plan already demoted.
      auto ph = comm.phase(Phase::Plan);
      auto& hop = plan->hops[static_cast<std::size_t>(step)];
      hop.nnz = static_cast<index_t>(cs.size());
      if (window <= 0 || step < window) {
        hop.gcol_ids = std::move(gcol_ids);
        hop.starts = std::move(starts);
      }
    }
    {
      // Streaming per-hop merge: collapse the accumulator after every hop
      // instead of caching every hop's partials until a terminal merge. The
      // hop's pushes are column-sorted with rows out of order, so only they
      // are sorted (column by column) before one linear merge into the
      // canonical accumulator — bit-identical, and the composed fold
      // program equals the terminal capture (see StreamingTripleMerge in
      // sparse/coo.hpp).
      auto ph = comm.phase(plan != nullptr ? Phase::Plan : Phase::Other);
      const std::uint64_t before = acc.triples().size();
      rep.mem_charge(before, before * tb);  // merge out-buffer transient
      smerge.round(acc.triples(), [](VT x, VT y) { return SR::add(x, y); },
                   plan != nullptr ? &plan->acc_dst : nullptr,
                   plan != nullptr ? &plan->acc_first : nullptr);
      const std::uint64_t after = acc.triples().size();
      rep.mem_release(2 * before - after, (2 * before - after) * tb);
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
    // The per-hop rounds leave `acc` already merged; a capturing build
    // charged each round + program capture to Plan, like the SUMMA/3D
    // captures, so the breakdown is comparable per backend.
    auto ph = comm.phase(plan != nullptr ? Phase::Plan : Phase::Other);
    c_local = DcscMatrix<VT>::from_coo(acc);
    if (plan != nullptr) {
      plan->acc_nnz = acc.triples().size();
      plan->c_shell = c_local;
      if (window > 0) plan->demote_to_window(window);
    }
  }
  // The merged accumulator dies with this frame; c_local is the output.
  rep.mem_release(acc.triples().size(), acc.triples().size() * tb);
  return DistMatrix1D<VT>(a.nrows(), b.ncols(), b.bounds(), me, std::move(c_local));
}

namespace ringdetail {

/// Windowed replay body (RingPlan::windowed()): hops inside the resident
/// window shift bare value arrays against cached structures exactly like the
/// full replay. At the window boundary the sender expands its (still cached)
/// column grouping into circulating (col, val) pairs, and every later hop
/// re-derives the grouping by the same consecutive-equal-columns scan the
/// fresh call ran over its triples — identical push order through the same
/// acc_dst/acc_first fold program, so the result stays bit-identical. This is
/// the memory-demoted fallback the plan cache uses instead of eviction; it
/// exists to shed resident bytes, not to hide latency, so its hop shifts are
/// blocking collectives.
template <typename SR, typename VT>
DistMatrix1D<VT> ring_replay_windowed(Comm& comm, RingPlan<VT, SR>& plan,
                                      const DistMatrix1D<VT>& a, const DistMatrix1D<VT>& b) {
  using CV = typename RingPlan<VT, SR>::ColVal;
  const int P = comm.size();
  const int me = comm.rank();
  const int w = plan.window;
  auto& rep = comm.report();
  std::vector<VT> circ_vals;
  std::vector<CV> circ_pairs;
  {
    auto ph = comm.phase(Phase::Other);
    circ_vals = a.local().vals();
    plan.acc_vals.assign(plan.acc_nnz, VT{});
  }
  rep.mem_charge(circ_vals.size(), circ_vals.size() * sizeof(VT));

  const auto& bl = b.local();
  const int succ = (me + 1) % P, pred = (me - 1 + P) % P;
  std::size_t flat = 0;
  std::vector<index_t> derived_cols;
  std::vector<std::size_t> derived_starts;
  for (int step = 0; step < P; ++step) {
    const bool paired = step >= w;  // this hop's structure was demoted away
    const auto& hop = plan.hops[static_cast<std::size_t>(step)];
    {
      auto ph = comm.phase(Phase::Comp);
      const std::size_t have = paired ? circ_pairs.size() : circ_vals.size();
      if (have != static_cast<std::size_t>(hop.nnz))
        comm.fail(FaultClass::PlanMismatch, "ring_replay",
                  "ring_replay_windowed: hop " + std::to_string(step) + " carries " +
                      std::to_string(have) + " values where the cached slice structure holds " +
                      std::to_string(hop.nnz) + " (rank " +
                      std::to_string(comm.global_rank(comm.rank())) + ")");
      const std::vector<index_t>* gcols = &hop.gcol_ids;
      const std::vector<std::size_t>* starts = &hop.starts;
      if (paired) {
        // Re-derive the column grouping from the circulated pairs — the same
        // scan the fresh call ran (pairs preserve the column-major order).
        derived_cols.clear();
        derived_starts.clear();
        for (std::size_t p = 0; p < circ_pairs.size(); ++p) {
          if (p == 0 || circ_pairs[p].col != circ_pairs[p - 1].col) {
            derived_cols.push_back(circ_pairs[p].col);
            derived_starts.push_back(p);
          }
        }
        derived_starts.push_back(circ_pairs.size());
        gcols = &derived_cols;
        starts = &derived_starts;
      }
      for (index_t j = 0; j < bl.nzc(); ++j) {
        auto brows = bl.col_rows_at(j);
        auto bvals = bl.col_vals_at(j);
        for (std::size_t p = 0; p < brows.size(); ++p) {
          auto it = std::lower_bound(gcols->begin(), gcols->end(), brows[p]);
          if (it == gcols->end() || *it != brows[p]) continue;
          auto kpos = static_cast<std::size_t>(it - gcols->begin());
          for (std::size_t q = (*starts)[kpos]; q < (*starts)[kpos + 1]; ++q) {
            const VT v = SR::multiply(paired ? circ_pairs[q].val : circ_vals[q], bvals[p]);
            const auto slot = static_cast<std::size_t>(plan.acc_dst[flat]);
            plan.acc_vals[slot] =
                plan.acc_first[flat] != 0 ? v : SR::add(plan.acc_vals[slot], v);
            ++flat;
          }
        }
      }
    }
    const std::uint64_t out_elems = paired ? circ_pairs.size() : circ_vals.size();
    const std::uint64_t out_bytes = out_elems * (paired ? sizeof(CV) : sizeof(VT));
    if (step + 1 < P) {
      if (step + 1 < w) {
        // Still inside the window: bare value shift, like the full replay.
        std::vector<std::vector<VT>> send(static_cast<std::size_t>(P));
        {
          auto ph = comm.phase(Phase::Other);
          send[static_cast<std::size_t>(succ)] = std::move(circ_vals);
        }
        auto recv = comm.alltoallv(send);
        circ_vals = std::move(recv[static_cast<std::size_t>(pred)]);
        rep.mem_charge(circ_vals.size(), circ_vals.size() * sizeof(VT));
        rep.mem_release(out_elems, out_bytes);
      } else {
        // Crossing or past the boundary: the receiver holds no structure for
        // the next hop, so the column ids travel with the values.
        std::vector<CV> out;
        {
          auto ph = comm.phase(Phase::Other);
          if (!paired) {
            // Boundary hop: expand this step's cached grouping per element.
            out.reserve(circ_vals.size());
            for (std::size_t kpos = 0; kpos + 1 < hop.starts.size(); ++kpos)
              for (std::size_t q = hop.starts[kpos]; q < hop.starts[kpos + 1]; ++q)
                out.push_back({hop.gcol_ids[kpos], circ_vals[q]});
            circ_vals.clear();
          } else {
            out = std::move(circ_pairs);
          }
        }
        std::vector<std::vector<CV>> send(static_cast<std::size_t>(P));
        {
          auto ph = comm.phase(Phase::Other);
          send[static_cast<std::size_t>(succ)] = std::move(out);
        }
        auto recv = comm.alltoallv(send);
        circ_pairs = std::move(recv[static_cast<std::size_t>(pred)]);
        rep.mem_charge(circ_pairs.size(), circ_pairs.size() * sizeof(CV));
        rep.mem_release(out_elems, out_bytes);
      }
    } else {
      rep.mem_release(out_elems, out_bytes);  // last hop: the slice dies here
    }
  }

  auto ph = comm.phase(Phase::Other);
  DcscMatrix<VT> c_local = plan.c_shell;
  c_local.mutable_vals() = plan.acc_vals;
  return DistMatrix1D<VT>(a.nrows(), b.ncols(), b.bounds(), me, std::move(c_local));
}

}  // namespace ringdetail

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
/// outgoing chunk. A windowed plan (RingPlan::windowed()) replays alone
/// through ring_replay_windowed. Collective.
template <typename SR, typename VT>
std::vector<DistMatrix1D<VT>> spgemm_naive_ring_1d_replay(
    Comm& comm, std::span<const RingReplay<VT, SR>> ms) {
  std::vector<DistMatrix1D<VT>> out;
  if (ms.empty()) return out;
  if (ms.front().plan->windowed()) {
    require(ms.size() == 1, "spgemm_naive_ring_1d_replay: a windowed ring plan replays alone");
    out.push_back(ringdetail::ring_replay_windowed<SR, VT>(comm, *ms[0].plan, *ms[0].a,
                                                           *ms[0].b));
    return out;
  }
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

  std::vector<VT> circ;
  {
    auto ph = comm.phase(Phase::Other);
    for (std::size_t m = 0; m < k; ++m) {
      auto& plan = *ms[m].plan;
      const auto& av = ms[m].a->local().vals();
      guard(av.size(), hop_nnz(m, 0), 0);
      circ.insert(circ.end(), av.begin(), av.end());
      plan.acc_vals.assign(plan.acc_nnz, VT{});
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
        auto& plan = *ms[m].plan;
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
              plan.acc_vals[slot] =
                  plan.acc_first[fl] != 0 ? v : SR::add(plan.acc_vals[slot], v);
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
    auto& plan = *ms[m].plan;
    DcscMatrix<VT> c_local = plan.c_shell;
    c_local.mutable_vals() = plan.acc_vals;
    out.emplace_back(ms[m].a->nrows(), ms[m].b->ncols(), ms[m].b->bounds(), me,
                     std::move(c_local));
  }
  return out;
}

}  // namespace sa1d
