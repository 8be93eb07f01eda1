// Batched small-multiply fusion: spgemm_dist_batched admits k multiplies
// against the multi-tenant plan cache (runtime/plan_cache.hpp) and fuses
// their per-phase collectives — one concatenated alltoallv per ring hop /
// route exchange instead of k, one fused row/column broadcast per SUMMA
// stage, one interleaved RDMA fetch wave (and one barrier) for the whole
// SA-1D group — so k small multiplies pay ~1× the per-message latency
// (alpha) per phase instead of k×, while each member's byte volume, compute
// order, and ⊕-fold program are untouched.
//
// Bit-identity contract: every member's result equals its own sequential
// spgemm_dist_cached call, bit for bit. Fusion only concatenates message
// payloads (member-major within each destination chunk, consumed in
// ascending-source-then-member order); each member's multiply loops and
// fold programs run unchanged with per-member flat counters, so no
// floating-point operation is reordered.
//
// Ordering model (DESIGN.md §11): lookups, votes, admissions, builds, and
// fusion groups are all derived in item order by every rank from agreed
// state, so the collective sequence is identical machine-wide. Members are
// grouped by fuse key (backend + grid shape + layer count); a plan may
// appear at most once per group (members of the same tenant share scratch),
// and windowed ring plans always replay solo (their windowed fallback path
// does not fuse). A recoverable fault (CorruptionDetected / PlanMismatch)
// during the batch unwinds every rank identically; the batch-level retry
// drops the touched entries, recovers collectively, and re-runs the whole
// batch as uniform misses — bounded by max_recovery_retries.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "runtime/plan_cache.hpp"

namespace sa1d {

namespace batchdetail {

/// One batch member after cache resolution: its position in the request
/// list, the cache entry whose plan it replays, and its operands.
template <typename VT, typename SR>
struct Member {
  std::size_t idx = 0;
  typename PlanCache<VT, SR>::Entry* entry = nullptr;
  const DistMatrix1D<VT>* a = nullptr;
  const DistMatrix1D<VT>* b = nullptr;
};

// ---- fused ring replay ---------------------------------------------------

/// Replays k ring plans with fused hop shifts: per step, ONE alltoallv whose
/// successor chunk is the member-major concatenation of every member's
/// circulating value array — (P-1) messages per rank for the whole group
/// instead of k·(P-1). Each member's multiply/fold body is the sequential
/// replay's, with its own flat counter, so each result is bit-identical.
template <typename SR, typename VT>
void fused_ring_replay(Comm& comm, std::vector<Member<VT, SR>>& ms,
                       std::vector<DistMatrix1D<VT>>& results) {
  const int P = comm.size();
  const int me = comm.rank();
  const int succ = (me + 1) % P, pred = (me - 1 + P) % P;
  const std::size_t k = ms.size();
  std::vector<std::vector<VT>> circ(k);
  std::vector<std::size_t> flat(k, 0);
  {
    auto ph = comm.phase(Phase::Other);
    for (std::size_t m = 0; m < k; ++m) {
      auto& plan = ms[m].entry->plan->ring_plan();
      circ[m] = ms[m].a->local().vals();
      plan.acc_vals.assign(plan.acc_nnz, VT{});
    }
  }

  // Splits one received concatenated chunk back into per-member circulating
  // arrays using the cached next-hop element counts.
  auto split_chunk = [&](std::vector<VT>& chunk, int next_step) {
    auto ph = comm.phase(Phase::Other);
    std::size_t need = 0;
    for (std::size_t m = 0; m < k; ++m)
      need += static_cast<std::size_t>(
          ms[m].entry->plan->ring_plan().hops[static_cast<std::size_t>(next_step)].nnz);
    if (chunk.size() != need)
      comm.fail(FaultClass::PlanMismatch, "ring_replay",
                "fused ring replay: hop " + std::to_string(next_step) + " shift delivered " +
                    std::to_string(chunk.size()) + " values where the cached slices hold " +
                    std::to_string(need) + " (rank " +
                    std::to_string(comm.global_rank(comm.rank())) + ")");
    std::size_t off = 0;
    for (std::size_t m = 0; m < k; ++m) {
      const auto n = static_cast<std::size_t>(
          ms[m].entry->plan->ring_plan().hops[static_cast<std::size_t>(next_step)].nnz);
      circ[m].assign(chunk.begin() + static_cast<std::ptrdiff_t>(off),
                     chunk.begin() + static_cast<std::ptrdiff_t>(off + n));
      off += n;
    }
  };

  for (int step = 0; step < P; ++step) {
    // Same overlapped-shift structure as the sequential replay: post the
    // fused hop first, multiply from the request's stable view.
    std::optional<AlltoallvRequest<VT>> shift;
    std::vector<std::span<const VT>> views(k);
    if (step + 1 < P) {
      std::vector<std::size_t> lens(k);
      for (std::size_t m = 0; m < k; ++m) lens[m] = circ[m].size();
      std::vector<std::vector<VT>> send(static_cast<std::size_t>(P));
      {
        auto ph = comm.phase(Phase::Other);
        auto& chunk = send[static_cast<std::size_t>(succ)];
        std::size_t total = 0;
        for (auto l : lens) total += l;
        chunk.reserve(total);
        for (std::size_t m = 0; m < k; ++m) {
          chunk.insert(chunk.end(), circ[m].begin(), circ[m].end());
          circ[m].clear();
        }
      }
      shift.emplace(comm.ialltoallv(std::move(send)));
      std::span<const VT> all = shift->sent_chunk(succ);
      std::size_t off = 0;
      for (std::size_t m = 0; m < k; ++m) {
        views[m] = all.subspan(off, lens[m]);
        off += lens[m];
      }
    } else {
      for (std::size_t m = 0; m < k; ++m) views[m] = std::span<const VT>(circ[m]);
    }

    for (std::size_t m = 0; m < k; ++m) {
      auto ph = comm.phase(Phase::Comp);
      auto& plan = ms[m].entry->plan->ring_plan();
      const auto& hop = plan.hops[static_cast<std::size_t>(step)];
      const auto cv = views[m];
      if (cv.size() != static_cast<std::size_t>(hop.nnz))
        comm.fail(FaultClass::PlanMismatch, "ring_replay",
                  "fused ring replay: member " + std::to_string(m) + " hop " +
                      std::to_string(step) + " carries " + std::to_string(cv.size()) +
                      " values where the cached slice structure holds " +
                      std::to_string(hop.nnz) + " (rank " +
                      std::to_string(comm.global_rank(comm.rank())) + ")");
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
            const VT v = SR::multiply(cv[q], bvals[p]);
            const auto slot = static_cast<std::size_t>(plan.acc_dst[fl]);
            plan.acc_vals[slot] =
                plan.acc_first[fl] != 0 ? v : SR::add(plan.acc_vals[slot], v);
            ++fl;
          }
        }
      }
    }

    if (shift.has_value()) {
      auto chunk = shift->take_from(pred);
      shift->wait();
      split_chunk(chunk, step + 1);
    }
  }

  auto ph = comm.phase(Phase::Other);
  for (std::size_t m = 0; m < k; ++m) {
    auto& plan = ms[m].entry->plan->ring_plan();
    DcscMatrix<VT> c_local = plan.c_shell;
    c_local.mutable_vals() = plan.acc_vals;
    results[ms[m].idx] = DistMatrix1D<VT>(ms[m].a->nrows(), ms[m].b->ncols(),
                                          ms[m].b->bounds(), me, std::move(c_local));
  }
}

// ---- fused grid (SUMMA-2D / Split-3D) replay -----------------------------

/// Backend-neutral view of one grid-family member's cached program pieces.
template <typename VT, typename SR>
struct GridView {
  std::size_t idx = 0;
  DistSpgemmPlan<VT, SR>* plan = nullptr;
  GridRoute<VT>* route_a = nullptr;
  GridRoute<VT>* route_b = nullptr;
  summadetail::SummaSched<VT, SR>* sched = nullptr;
  ScatterRoute<VT>* out = nullptr;
  std::vector<VT>* acc_vals = nullptr;
  const DistMatrix1D<VT>* a = nullptr;
  const DistMatrix1D<VT>* b = nullptr;
};

/// Replays every member's inbound A+B routes in ONE fused alltoallv: each
/// destination chunk is the member-major concatenation of [member's route_a
/// values, member's route_b values]; receive side consumes sources in
/// ascending rank order and splits each chunk the same way, scattering into
/// each route's cached block with per-member-per-route flat counters — the
/// exact flat order each sequential replay_1d_to_2d_grid produces.
template <typename SR, typename VT>
void fused_grid_routes(Comm& comm, std::vector<GridView<VT, SR>>& gs) {
  const int P = comm.size();
  const std::size_t k = gs.size();
  std::vector<std::vector<VT>> send(static_cast<std::size_t>(P));
  {
    auto ph = comm.phase(Phase::Other);
    for (std::size_t m = 0; m < k; ++m) {
      for (int which = 0; which < 2; ++which) {
        const GridRoute<VT>& route = which == 0 ? *gs[m].route_a : *gs[m].route_b;
        const auto& local =
            which == 0 ? gs[m].a->local() : gs[m].b->local();
        std::size_t expect = 0;
        for (const auto& src : route.send_src) expect += src.size();
        if (local.vals().size() != expect)
          comm.fail(FaultClass::PlanMismatch, "replay_1d_to_2d_grid",
                    "fused grid routes: member " + std::to_string(m) + " operand has " +
                        std::to_string(local.vals().size()) +
                        " values but the cached route packs " + std::to_string(expect) +
                        " (rank " + std::to_string(comm.global_rank(comm.rank())) + ")");
      }
    }
    for (int p = 0; p < P; ++p) {
      auto& chunk = send[static_cast<std::size_t>(p)];
      for (std::size_t m = 0; m < k; ++m) {
        for (int which = 0; which < 2; ++which) {
          const GridRoute<VT>& route = which == 0 ? *gs[m].route_a : *gs[m].route_b;
          const VT* vals = (which == 0 ? gs[m].a->local() : gs[m].b->local()).vals().data();
          for (auto i : route.send_src[static_cast<std::size_t>(p)])
            chunk.push_back(vals[static_cast<std::size_t>(i)]);
        }
      }
    }
  }
  std::vector<std::size_t> flat_a(k, 0), flat_b(k, 0);
  auto scatter_chunk = [&](int p, const std::vector<VT>& chunk) {
    auto ph = comm.phase(Phase::Other);
    std::size_t off = 0;
    for (std::size_t m = 0; m < k; ++m) {
      for (int which = 0; which < 2; ++which) {
        GridRoute<VT>& route = which == 0 ? *gs[m].route_a : *gs[m].route_b;
        std::size_t& fl = which == 0 ? flat_a[m] : flat_b[m];
        const auto n =
            static_cast<std::size_t>(route.recv_counts[static_cast<std::size_t>(p)]);
        if (off + n > chunk.size())
          comm.fail(FaultClass::PlanMismatch, "replay_1d_to_2d_grid",
                    "fused grid routes: chunk from rank " +
                        std::to_string(comm.global_rank(p)) +
                        " is shorter than the cached routes expect");
        VT* bv = route.block.mutable_vals().data();
        for (std::size_t i = 0; i < n; ++i)
          bv[static_cast<std::size_t>(route.recv_place[fl++])] = chunk[off + i];
        off += n;
      }
    }
    if (off != chunk.size())
      comm.fail(FaultClass::PlanMismatch, "replay_1d_to_2d_grid",
                "fused grid routes: chunk from rank " + std::to_string(comm.global_rank(p)) +
                    " carries " + std::to_string(chunk.size()) +
                    " values where the cached routes expect " + std::to_string(off));
  };
  auto req = comm.ialltoallv(std::move(send));
  for (int p = 0; p < P; ++p) scatter_chunk(p, req.take_from(p));
}

/// The fused stage loop over one shared q_r × q_c grid: per stage, ONE row
/// broadcast and ONE column broadcast carrying the member-major
/// concatenation of every member's block values (every member shares the
/// stage's roots, since they share the grid). Per-member stage bodies —
/// shell fill, numeric pass, ⊕-fold — run in member order with per-member
/// flat counters, mirroring summa_stages_replay exactly, through the same
/// windowed stage pipeline (and staging gauge) as every other SUMMA loop.
template <typename SR, typename VT>
void fused_summa_stages(Comm& grid_comm, std::vector<GridView<VT, SR>>& gs, bool budgeted) {
  const std::size_t k = gs.size();
  auto& sched0 = *gs[0].sched;
  const int s = static_cast<int>(sched0.stages.size());
  const int spc = s / sched0.grid_cols;
  const int spr = s / sched0.grid_rows;
  const int gi = grid_comm.rank() / sched0.grid_cols;
  const int gj = grid_comm.rank() % sched0.grid_cols;
  Comm row_comm = grid_comm.split(gi, gj);
  Comm col_comm = grid_comm.split(gj, gi);

  std::vector<std::size_t> flat(k, 0);
  for (std::size_t m = 0; m < k; ++m) gs[m].acc_vals->assign(gs[m].sched->acc_nnz, VT{});

  // Root-side gathers, concatenated member-major (roots are shared).
  auto extract = [&](int st, std::vector<VT>& aall, std::vector<VT>& ball) {
    for (std::size_t m = 0; m < k; ++m) {
      auto& stage = gs[m].sched->stages[static_cast<std::size_t>(st)];
      if (gj == st / spc) {
        const auto& av = gs[m].route_a->block.vals();
        aall.insert(aall.end(), av.begin() + stage.a_val_lo, av.begin() + stage.a_val_hi);
      }
      if (gi == st / spr) {
        const VT* bv = gs[m].route_b->block.vals().data();
        ball.reserve(ball.size() + stage.b_src.size());
        for (auto i : stage.b_src) ball.push_back(bv[static_cast<std::size_t>(i)]);
      }
    }
  };

  // Post-broadcast fused stage body: split by the cached shell sizes, then
  // run each member's guard + shell fill + numeric pass + fold in order.
  auto run_stage = [&](int st, std::vector<VT> aall, std::vector<VT> ball) {
    std::size_t aneed = 0, bneed = 0;
    for (std::size_t m = 0; m < k; ++m) {
      aneed += gs[m].sched->stages[static_cast<std::size_t>(st)].a_blk.vals().size();
      bneed += gs[m].sched->stages[static_cast<std::size_t>(st)].b_blk.vals().size();
    }
    if (aall.size() != aneed || ball.size() != bneed)
      grid_comm.fail(FaultClass::PlanMismatch, "summa_stages_replay",
                     "fused stage " + std::to_string(st) + " broadcast delivered " +
                         std::to_string(aall.size()) + "/" + std::to_string(ball.size()) +
                         " values where the cached shells hold " + std::to_string(aneed) +
                         "/" + std::to_string(bneed));
    std::size_t aoff = 0, boff = 0;
    for (std::size_t m = 0; m < k; ++m) {
      auto& stage = gs[m].sched->stages[static_cast<std::size_t>(st)];
      CscMatrix<VT> c_blk;
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
      {
        auto ph = grid_comm.phase(Phase::Comp);
        c_blk = spgemm_local_numeric<SR, VT>(stage.a_blk, stage.b_blk, stage.sym,
                                             &gs[m].sched->ws);
      }
      {
        auto ph = grid_comm.phase(Phase::Other);
        std::size_t& fl = flat[m];
        auto& acc = *gs[m].acc_vals;
        auto& sched = *gs[m].sched;
        for (const auto& v : c_blk.vals()) {
          const auto slot = static_cast<std::size_t>(sched.acc_dst[fl]);
          acc[slot] = sched.acc_first[fl] != 0 ? v : SR::add(acc[slot], v);
          ++fl;
        }
      }
    }
    // The stage staging pipeline_stages charged dies with the fused payload.
    const std::uint64_t payload = aall.size() + ball.size();
    grid_comm.report().mem_release(payload, payload * sizeof(VT));
  };

  summadetail::pipeline_stages<VT>(grid_comm, row_comm, col_comm, s, spc, spr, budgeted,
                                   extract, run_stage);
}

/// Replays every member's outbound scatter/merge in ONE fused alltoallv
/// (member-major concatenation per destination; folds consume ascending
/// source then member order with per-member flat counters — the captured
/// rank-major fold order of each sequential replay_coo_to_1d).
template <typename SR, typename VT>
void fused_scatter_out(Comm& comm, std::vector<GridView<VT, SR>>& gs,
                       std::vector<DistMatrix1D<VT>>& results) {
  const int P = comm.size();
  const std::size_t k = gs.size();
  std::vector<std::vector<VT>> send(static_cast<std::size_t>(P));
  {
    auto ph = comm.phase(Phase::Other);
    for (int p = 0; p < P; ++p) {
      auto& chunk = send[static_cast<std::size_t>(p)];
      for (std::size_t m = 0; m < k; ++m) {
        const auto& route = *gs[m].out;
        const VT* pv = gs[m].acc_vals->data();
        for (auto i : route.send_src[static_cast<std::size_t>(p)])
          chunk.push_back(pv[static_cast<std::size_t>(i)]);
      }
    }
  }
  std::vector<DcscMatrix<VT>> c_locals(k);
  std::vector<std::size_t> flat(k, 0);
  {
    auto ph = comm.phase(Phase::Other);
    for (std::size_t m = 0; m < k; ++m) c_locals[m] = gs[m].out->c_shell;
  }
  auto fold_chunk = [&](int p, const std::vector<VT>& chunk) {
    auto ph = comm.phase(Phase::Other);
    std::size_t off = 0;
    for (std::size_t m = 0; m < k; ++m) {
      const auto& route = *gs[m].out;
      const auto n = static_cast<std::size_t>(route.recv_counts[static_cast<std::size_t>(p)]);
      if (off + n > chunk.size())
        comm.fail(FaultClass::PlanMismatch, "replay_coo_to_1d",
                  "fused scatter: chunk from rank " + std::to_string(comm.global_rank(p)) +
                      " is shorter than the cached scatter programs expect");
      VT* cv = c_locals[m].mutable_vals().data();
      std::size_t& fl = flat[m];
      for (std::size_t i = 0; i < n; ++i) {
        const auto slot = static_cast<std::size_t>(route.recv_dst[fl]);
        cv[slot] = route.recv_first[fl] != 0 ? chunk[off + i] : SR::add(cv[slot], chunk[off + i]);
        ++fl;
      }
      off += n;
    }
    if (off != chunk.size())
      comm.fail(FaultClass::PlanMismatch, "replay_coo_to_1d",
                "fused scatter: chunk from rank " + std::to_string(comm.global_rank(p)) +
                    " carries " + std::to_string(chunk.size()) +
                    " values where the cached programs expect " + std::to_string(off));
  };
  auto recv = comm.alltoallv(send);
  for (int p = 0; p < P; ++p) fold_chunk(p, recv[static_cast<std::size_t>(p)]);
  auto ph = comm.phase(Phase::Other);
  for (std::size_t m = 0; m < k; ++m) {
    const auto& route = *gs[m].out;
    results[gs[m].idx] = DistMatrix1D<VT>(route.nrows, route.ncols, route.out_bounds,
                                          comm.rank(), std::move(c_locals[m]));
  }
}

/// Full fused replay of one grid-family group (same backend, same grid,
/// same layer count): fused routes in, fused stage broadcasts (over the
/// layer communicator for Split-3D), fused scatter out. `budgeted` bounds
/// the stage window like the sequential replay's.
template <typename SR, typename VT>
void fused_grid_replay(Comm& comm, std::vector<GridView<VT, SR>>& gs, int layers,
                       bool budgeted, std::vector<DistMatrix1D<VT>>& results) {
  fused_grid_routes<SR>(comm, gs);
  if (layers <= 1) {
    fused_summa_stages<SR>(comm, gs, budgeted);
  } else {
    const int q2 = comm.size() / layers;
    const int layer = comm.rank() / q2;
    Comm layer_comm = comm.split(layer, comm.rank());
    fused_summa_stages<SR>(layer_comm, gs, budgeted);
  }
  fused_scatter_out<SR>(comm, gs, results);
}

}  // namespace batchdetail

/// Batched multi-tenant SpGEMM: resolves every item against the plan cache
/// with ONE fused validation exchange and ONE fused coherence vote, builds
/// the misses in item order, then replays the hits in fused groups (one set
/// of collectives per group instead of per member). Results are returned in
/// item order and are bit-identical to sequential spgemm_dist_cached_mt
/// calls; `stats` (optional) is resized to the item count.
template <typename SRIn = void, typename VT>
std::vector<DistMatrix1D<VT>> spgemm_dist_batched(
    Comm& comm, PlanCache<VT, ResolveSemiring<SRIn, VT>>& cache,
    const std::vector<std::pair<const DistMatrix1D<VT>*, const DistMatrix1D<VT>*>>& items,
    const DistSpgemmOptions& opt = {}, std::vector<DistSpgemmStats>* stats = nullptr) {
  using SR = ResolveSemiring<SRIn, VT>;
  using Entry = typename PlanCache<VT, SR>::Entry;
  using Member = batchdetail::Member<VT, SR>;
  const std::size_t n = items.size();
  std::vector<DistMatrix1D<VT>> results(n);
  if (stats != nullptr) stats->assign(n, DistSpgemmStats{});
  if (n == 0) return results;
  ++comm.report().toplevel_calls;
  // Outermost gauge scope: the batch's peak covers plan residency plus every
  // member's build/replay transients.
  MemGaugeScope gauge(comm.report());

  // (1) Fused batch validation: one control exchange covers the options
  // digest, every item's shape, and the first local validation failure —
  // the same rank-consistency contract as validate_collective, paid once.
  {
    std::string digest;
    std::string verdict;
    {
      auto ph = comm.phase(Phase::Other);
      digest = distdetail::options_digest(opt);
      for (std::size_t i = 0; i < n; ++i) {
        digest += "|" + std::to_string(items[i].first->nrows()) + "x" +
                  std::to_string(items[i].first->ncols()) + "," +
                  std::to_string(items[i].second->nrows()) + "x" +
                  std::to_string(items[i].second->ncols());
        const std::string e = distdetail::local_validation_error(
            comm.size(), opt.algo, *items[i].first, *items[i].second, opt, comm.injector());
        if (!e.empty() && verdict.empty())
          verdict = "batch item " + std::to_string(i) + ": " + e;
      }
    }
    auto all = comm.exchange_control(digest + "\n" + verdict);
    for (int p = 0; p < comm.size(); ++p) {
      const auto& s = all[static_cast<std::size_t>(p)];
      if (s.substr(0, s.find('\n')) != all[0].substr(0, all[0].find('\n')))
        throw ValidationError(
            ErrorContext{comm.global_rank(p), comm.report().comm_ops, "validate"},
            "spgemm_dist_batched: options/operands disagree across ranks (rank " +
                std::to_string(comm.global_rank(p)) + " has [" +
                s.substr(0, s.find('\n')) + "], rank " + std::to_string(comm.global_rank(0)) +
                " has [" + all[0].substr(0, all[0].find('\n')) + "])");
    }
    for (int p = 0; p < comm.size(); ++p) {
      const auto& s = all[static_cast<std::size_t>(p)];
      const std::string v = s.substr(s.find('\n') + 1);
      if (!v.empty())
        throw ValidationError(
            ErrorContext{comm.global_rank(p), comm.report().comm_ops, "validate"}, v);
    }
  }

  // Fingerprints are structure-only: compute once per item, reused across
  // retries.
  std::vector<StructureFingerprint> fps(n);
  {
    auto ph = comm.phase(Phase::Other);
    for (std::size_t i = 0; i < n; ++i)
      fps[i] = detail1d::fingerprint_of(*items[i].first, *items[i].second);
  }

  // Batch-level self-healing: a recoverable fault unwinds every rank with
  // the identical typed error; drop the touched entries, recover, re-run
  // the whole batch as uniform misses.
  int attempts = 0;
  for (;;) {
    std::vector<Entry*> touched;
    try {
      // (2) Cache resolution + ONE fused coherence vote. An item whose key
      // was already missed earlier in this batch is a *deferred hit*: it
      // replays the entry the earlier item is about to build.
      std::vector<Member> members(n);
      std::vector<std::size_t> miss_items;
      std::string vote;
      for (std::size_t i = 0; i < n; ++i) {
        members[i] = Member{i, nullptr, items[i].first, items[i].second};
        Entry* e = cache.find(fps[i], opt);
        bool hit = e != nullptr;
        if (!hit) {
          // Within-batch duplicate? Defer onto the pending admission.
          for (auto j : miss_items) {
            if (cachedetail::fp_equal(fps[j], fps[i])) {
              e = members[j].entry;
              hit = true;
              vote += "d" + std::to_string(j) + ";";
              break;
            }
          }
        } else {
          vote += "h" + std::to_string(e->seq) + ";";
        }
        if (!hit) {
          e = &cache.admit(fps[i], opt);
          miss_items.push_back(i);
          vote += "m;";
        }
        members[i].entry = e;
        bool known = false;
        for (auto* t : touched) known = known || t == e;
        if (!known) touched.push_back(e);
      }
      cachedetail::vote_uniform(comm, vote + "/b" + std::to_string(cache.budget()),
                                "spgemm_dist_batched");

      // ONE counted reuse-check collective for the whole batch — the
      // data-plane twin of the per-call matches() allreduce the sequential
      // path pays per multiply (this is the verification alpha the batch
      // amortizes k×). Local verdict: every hit member's full fingerprint
      // must equal its entry's; misses verify through build() itself.
      {
        int ok = 1;
        {
          auto ph = comm.phase(Phase::Other);
          for (std::size_t i = 0; i < n; ++i) {
            const Entry* e = members[i].entry;
            if (e->plan != nullptr && !e->plan->empty() &&
                !cachedetail::fp_equal(e->fp, fps[i]))
              ok = 0;
          }
        }
        if (comm.allreduce(ok, [](int x, int y) { return x < y ? x : y; }) != 1)
          comm.fail(FaultClass::PlanMismatch, "spgemm_dist_batched",
                    "spgemm_dist_batched: a rank's operands diverged from the "
                    "batch's cached plans after the coherence vote");
      }

      // Pin every batch entry: building or evicting for one member must not
      // drop a plan another member is about to replay. Mirror the
      // sequential LRU order (touch in item order; admissions are already
      // at the front in admission order).
      for (std::size_t i = 0; i < n; ++i) {
        members[i].entry->pinned = true;
        cache.touch(members[i].entry);
      }

      // (3) Build the misses sequentially in item order (each build is the
      // member's own result — the fresh multiply IS its execution).
      for (auto i : miss_items) {
        Entry& e = *members[i].entry;
        results[i] = e.plan->build(comm, *items[i].first, *items[i].second, opt,
                                   stats != nullptr ? &(*stats)[i] : nullptr);
        e.bytes = cachedetail::agree_max_bytes(comm, e.plan->bytes_resident());
        cache.record_miss(comm);
        if (stats != nullptr) (*stats)[i].cache_misses = 1;
      }

      // (4) Group the hit members by fuse key. A plan appears at most once
      // per group (same-tenant members share replay scratch), and windowed
      // ring plans replay solo (their demoted fallback path does not fuse).
      struct Group {
        std::string key;
        std::vector<Member> ms;
      };
      std::vector<Group> groups;
      for (std::size_t i = 0; i < n; ++i) {
        bool was_miss = false;
        for (auto j : miss_items) was_miss = was_miss || j == i;
        if (was_miss) continue;
        Entry* e = members[i].entry;
        std::string key;
        if (e->plan->panels() > 1) {
          // Panelized plans replay solo: their execution is a sequence of
          // per-panel sub-plan replays (bounded-footprint loop), which does
          // not interleave with another member's fused collectives.
          key = "panel#" + std::to_string(i);
        } else
        switch (e->plan->chosen()) {
          case Algo::Auto: break;  // unreachable: plans are built
          case Algo::SparseAware1D: key = "sa"; break;
          case Algo::Ring1D:
            key = e->plan->ring_plan().windowed() ? "ringw#" + std::to_string(i) : "ring";
            break;
          case Algo::Summa2D:
            key = "s2:" + std::to_string(e->plan->summa_plan().sched.grid_rows) + "x" +
                  std::to_string(e->plan->summa_plan().sched.grid_cols);
            break;
          case Algo::Split3D:
            key = "s3:" + std::to_string(e->plan->layers()) + ":" +
                  std::to_string(e->plan->split3d_plan().sched.grid_rows) + "x" +
                  std::to_string(e->plan->split3d_plan().sched.grid_cols);
            break;
        }
        Group* g = nullptr;
        for (auto& cand : groups) {
          if (cand.key != key) continue;
          bool has_plan = false;
          for (const auto& m : cand.ms) has_plan = has_plan || m.entry == e;
          if (!has_plan) {
            g = &cand;
            break;
          }
        }
        if (g == nullptr) {
          groups.push_back(Group{key, {}});
          g = &groups.back();
        }
        g->ms.push_back(members[i]);
      }

      // (5) Execute the groups in first-occurrence order. Singletons run
      // the sequential verified replay; larger groups run the fused one.
      std::vector<std::size_t> fused;
      for (auto& g : groups) {
        if (g.ms.size() == 1) {
          const auto& m = g.ms[0];
          results[m.idx] = m.entry->plan->execute_verified(
              comm, *m.a, *m.b, stats != nullptr ? &(*stats)[m.idx] : nullptr);
        } else {
          const Algo algo = g.ms[0].entry->plan->chosen();
          if (algo == Algo::Ring1D) {
            batchdetail::fused_ring_replay<SR>(comm, g.ms, results);
          } else if (algo == Algo::SparseAware1D) {
            using Plan1D = SpgemmPlan1D<VT, SR>;
            std::vector<typename Plan1D::FusedArg> args;
            args.reserve(g.ms.size());
            for (auto& m : g.ms)
              args.push_back({&m.entry->plan->sa1d_plan(), m.a, m.b});
            auto cs = Plan1D::execute_fused(
                comm, std::span<const typename Plan1D::FusedArg>(args));
            for (std::size_t m = 0; m < g.ms.size(); ++m)
              results[g.ms[m].idx] = std::move(cs[m]);
          } else {
            std::vector<batchdetail::GridView<VT, SR>> gv;
            gv.reserve(g.ms.size());
            int layers = 1;
            for (auto& m : g.ms) {
              auto* plan = m.entry->plan.get();
              if (algo == Algo::Summa2D) {
                auto& p2 = plan->summa_plan();
                gv.push_back({m.idx, plan, &p2.route_a, &p2.route_b, &p2.sched, &p2.out,
                              &p2.acc_vals, m.a, m.b});
              } else {
                auto& p3 = plan->split3d_plan();
                layers = p3.layers;
                gv.push_back({m.idx, plan, &p3.route_a, &p3.route_b, &p3.sched, &p3.out,
                              &p3.acc_vals, m.a, m.b});
              }
            }
            batchdetail::fused_grid_replay<SR>(comm, gv, layers, opt.max_peak_triples > 0,
                                               results);
          }
          // Reuse + minimal stats bookkeeping for the fused members (the
          // fused paths bypass execute_verified's counters).
          for (auto& m : g.ms) {
            m.entry->plan->record_batched_replay(comm);
            fused.push_back(m.idx);
            if (stats != nullptr) {
              auto& st = (*stats)[m.idx];
              st.requested = opt.algo;
              st.chosen = m.entry->plan->chosen();
              st.layers = m.entry->plan->layers();
              st.plan_reused = true;
            }
          }
        }
        for (auto& m : g.ms) {
          cache.record_hit(comm, m.entry->plan->chosen());
          if (stats != nullptr) (*stats)[m.idx].cache_hits = 1;
        }
      }
      // Fused members share one footprint, so each carries the whole
      // batch's peak, read once every group has run.
      if (stats != nullptr) {
        for (auto i : fused) {
          (*stats)[i].peak_triples = comm.report().peak_triples;
          (*stats)[i].peak_bytes = comm.report().peak_bytes;
        }
      }

      // (6) Release the pins, then run the deferred eviction pass once for
      // the whole batch.
      const std::uint64_t ev_before = cache.stats().evictions;
      for (std::size_t i = 0; i < n; ++i) members[i].entry->pinned = false;
      cache.enforce_budget(comm);
      cache.publish_gauge(comm);
      if (stats != nullptr) {
        for (std::size_t i = 0; i < n; ++i) {
          (*stats)[i].recoveries = attempts;
          (*stats)[i].cache_evictions = cache.stats().evictions - ev_before;
          (*stats)[i].cache_bytes_resident = cache.stats().bytes_resident;
        }
      }
      return results;
    } catch (const Sa1dError& e) {
      const bool recoverable = e.fault_class() == FaultClass::Corruption ||
                               e.fault_class() == FaultClass::PlanMismatch;
      // Errors unwind machine-wide with identical state, so every rank
      // unpins/erases the same entries whether or not it can retry. Every
      // batch entry is dropped — a hit's cached plan may be the corrupt
      // one — so the retry re-runs the whole batch as uniform misses.
      cache.unpin_all();
      for (auto* t : touched) cache.erase_entry(t);
      if (!recoverable || attempts >= opt.max_recovery_retries) throw;
      ++attempts;
      comm.recover();  // collective; rethrows if the fault turned fatal
      distdetail::vote_recovery_alignment(comm, "spgemm_dist_batched");
      ++comm.report().plan_recoveries;
    }
  }
}

}  // namespace sa1d
