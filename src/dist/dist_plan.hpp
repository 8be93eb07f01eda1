// The backend-generic inspector–executor layer of the unified distributed
// SpGEMM: one DistSpgemmPlan caches, behind the same StructureFingerprint
// the SA-1D inspector uses, everything structural a spgemm_dist call
// computes —
//
//   SA-1D     the SpgemmPlan1D inspector (metadata, H∩D masks, fetch plan,
//             Ã/B̃ shells, symbolic result);
//   ring-1D   every hop's slice structure + the deterministic ⊕-merge
//             program (RingPlan);
//   SUMMA-2D  the 1D→grid alltoallv routes, the per-stage broadcast-block
//             shells + symbolic results, and the partial-C→1D
//             scatter/merge program (GridPlan);
//   split-3D  the same with layer-aware routes and the cross-layer merge
//             (a GridPlan with layers > 1);
//   Auto      the gathered AlgoCostInputs and the chosen backend, so
//             iterated Algo::Auto calls skip the metadata re-gather — and
//             when Auto picks SA-1D, the gathered AMeta is handed to the
//             SpgemmPlan1D constructor, so the dispatch performs exactly
//             one metadata allgather.
//
// execute() replays the cached program for any operand pair with matching
// structure: only values move (value alltoallvs, value broadcasts, value
// window gets), only numeric local passes run — bit-identical to the fresh
// call, zero Phase::Plan seconds, zero metadata-collective bytes. Every
// replay goes through replay_group, which runs a group of plans of one
// backend through that backend's single executor with fused collectives;
// execute() is a group of one.
// spgemm_dist_cached() is the iterated-caller entry point (one collective
// match vote per call decides replay-vs-rebuild, like spgemm_1d_cached).
// DESIGN.md §8 documents the layer.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "dist/dist_spgemm.hpp"

namespace sa1d {

namespace distdetail {

/// RankReport slot of one Algo for the plan-reuse counters.
inline std::size_t algo_slot(Algo a) { return static_cast<std::size_t>(a); }

/// FNV-1a over a value array's bytes: the cheap "operand values unchanged"
/// check that lets an ordered plan's replay reuse the cached permuted
/// operands outright (zero reorder movement — the iterated-squaring case).
template <typename VT>
std::uint64_t value_hash(const DcscMatrix<VT>& m) {
  const auto& v = m.vals();
  const auto* p = reinterpret_cast<const unsigned char*>(v.data());
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < v.size() * sizeof(VT); ++i) h = (h ^ p[i]) * 0x100000001b3ULL;
  return h;
}

/// Approximate resident bytes of one DCSC slice (vals + ir per nonzero,
/// jc + cp per nonzero column) — the ordered-plan residency the plan cache
/// accounts for its cached permuted operands and C template.
template <typename VT>
std::uint64_t matrix_bytes_resident(const DcscMatrix<VT>& m) {
  return static_cast<std::uint64_t>(m.nnz()) * (sizeof(VT) + sizeof(index_t)) +
         static_cast<std::uint64_t>(m.nzc()) * 2 * sizeof(index_t);
}

/// Post-recovery alignment vote (DESIGN.md §9/§13). recover() only proves
/// every rank unwound — not that they unwound from the SAME logical call.
/// Panelized plans skew rank progress enough that in an iterated workload a
/// peer's recoverable fault can interrupt rank A inside call #n while rank B
/// already entered call #n+1; if each restarted its own call the collective
/// sequences would desync into a barrier-watchdog hang. Voting the top-level
/// call ordinal (control plane, 1 string/rank) right after the rendezvous
/// converts that hang into the identical non-recoverable ValidationError on
/// every rank — deliberately NOT Corruption/PlanMismatch, which the retry
/// loop would swallow and re-enter. The message is built only from the vote
/// vector (identical on all ranks), never from rank-local state.
inline void vote_recovery_alignment(Comm& comm, const char* where) {
  const auto votes = comm.exchange_control(std::to_string(comm.report().toplevel_calls));
  bool uniform = true;
  for (const auto& v : votes) uniform = uniform && v == votes.front();
  if (uniform) return;
  std::string seen;
  for (const auto& v : votes) seen += (seen.empty() ? "" : ",") + v;
  throw ValidationError(
      ErrorContext{comm.global_rank(comm.rank()), comm.report().comm_ops, "recover"},
      std::string(where) +
          ": recovery rendezvous spans different iterated top-level calls across ranks "
          "(ordinals " +
          seen + ") — the replay streams cannot resynchronize; rerun the workload");
}

}  // namespace distdetail

/// The cached plan of one distributed SpGEMM through any backend. The
/// handle is rank-local (SPMD style, like SpgemmPlan1D); construction is
/// lazy — build() runs the fresh multiply while capturing the replay
/// program, execute() replays it. Plans hold communicator-independent state
/// only, but cached routes are laid out for the communicator size and rank
/// they were built on, so reuse a plan within one Machine::run / MPI job.
template <typename VT, typename SR = PlusTimes<VT>>
class DistSpgemmPlan {
 public:
  DistSpgemmPlan() = default;

  [[nodiscard]] bool empty() const { return !built_; }
  [[nodiscard]] const DistSpgemmOptions& options() const { return opt_; }
  /// The concrete backend this plan runs (Auto's cached decision).
  [[nodiscard]] Algo chosen() const { return chosen_; }
  /// The ordering this plan runs under (the joint decision's other half —
  /// Identity when the request degraded or the model preferred it).
  [[nodiscard]] Ordering ordering() const { return ordering_; }
  /// Measured partition features of the build (defaults when no partition
  /// was built this plan).
  [[nodiscard]] const ReorderFeatures& reorder_features() const { return rfeatures_; }
  [[nodiscard]] int layers() const { return layers_; }
  [[nodiscard]] int builds() const { return builds_; }
  [[nodiscard]] int replays() const { return replays_; }
  [[nodiscard]] const StructureFingerprint& fingerprint() const { return fp_; }
  /// Auto's cached cost decision trace (valid when options().algo == Auto).
  [[nodiscard]] bool has_cost_inputs() const { return have_inputs_; }
  [[nodiscard]] const AlgoCostInputs& cost_inputs() const { return inputs_; }
  [[nodiscard]] const std::vector<AlgoPrediction>& predictions() const { return predictions_; }
  /// The replay-priced decision trace (plan-aware Auto): what the cost
  /// model would pick if every call were a cached value-only replay.
  [[nodiscard]] const std::vector<AlgoPrediction>& replay_predictions() const {
    return replay_predictions_;
  }
  [[nodiscard]] Algo replay_choice() const { return replay_choice_; }
  /// Layer count the replay-priced choice assumed (1 unless it is Split3D).
  [[nodiscard]] int replay_layers() const { return replay_layers_; }
  /// Column panels this plan executes (1 = monolithic). A panelized plan
  /// holds one sub-plan per panel and replays them in ascending panel order
  /// (DESIGN.md §13); the batched executor replays panelized plans solo.
  [[nodiscard]] int panels() const { return panels_; }

  /// Exact per-rank collective bytes one execute() receives — the pure
  /// value payload of the cached routes/broadcasts, plus (for ordered
  /// plans) the value-only inverse scatter returning C to the caller's
  /// ordering. The metadata-byte counter in DistSpgemmStats is the measured
  /// delta beyond this.
  [[nodiscard]] std::uint64_t replay_coll_recv_bytes() const {
    std::uint64_t bytes = 0;
    if (panels_ > 1) {
      for (const auto& p : panel_plans_) bytes += p->replay_coll_recv_bytes();
      return bytes + inverse_scatter_recv_bytes();
    }
    switch (chosen_) {
      case Algo::Auto: break;
      case Algo::SparseAware1D: break;  // replay is RDMA value gets only
      case Algo::Ring1D: bytes = ring_.replay_recv_bytes(); break;
      case Algo::Summa2D:
      case Algo::Split3D: bytes = grid_.replay_recv_bytes(me_); break;
    }
    return bytes + inverse_scatter_recv_bytes();
  }

  /// Network bytes this rank receives from the cached inverse-scatter route
  /// (self chunks land in bytes_local, so they are excluded).
  [[nodiscard]] std::uint64_t inverse_scatter_recv_bytes() const {
    if (ordering_ == Ordering::Identity) return 0;
    std::uint64_t n = 0;
    for (std::size_t s = 0; s < route_c_inv_.recv_dst.size(); ++s)
      if (static_cast<int>(s) != me_) n += route_c_inv_.recv_dst[s].size();
    return n * sizeof(VT);
  }

  /// Byte-accurate residency of the cached replay program on this rank —
  /// what the plan cache (runtime/plan_cache.hpp) accounts against its
  /// budget. A RingPlan is the heavyweight: ≈nnz(A) resident indices. An
  /// ordered plan additionally holds the permuted operands, the C template,
  /// the three value routes, and the permutation itself.
  [[nodiscard]] std::uint64_t bytes_resident() const {
    std::uint64_t bytes = 0;
    switch (chosen_) {
      case Algo::Auto: break;
      case Algo::SparseAware1D: bytes = sa1d_.bytes_resident(); break;
      case Algo::Ring1D: bytes = ring_.bytes_resident(); break;
      case Algo::Summa2D:
      case Algo::Split3D: bytes = grid_.bytes_resident(); break;
    }
    // Panel sub-plans carry the real residency of a panelized plan (the
    // parent's backend members stay empty); panel bounds are noise-level.
    for (const auto& p : panel_plans_) bytes += p->bytes_resident();
    bytes += static_cast<std::uint64_t>(panel_bounds_.size()) * sizeof(index_t);
    if (ordering_ != Ordering::Identity) {
      bytes += route_a_.bytes_resident() + route_b_.bytes_resident() +
               route_c_inv_.bytes_resident();
      bytes += distdetail::matrix_bytes_resident(pa_.local());
      if (!pb_aliases_pa_) bytes += distdetail::matrix_bytes_resident(pb_.local());
      bytes += distdetail::matrix_bytes_resident(c_tmpl_.local());
      bytes += static_cast<std::uint64_t>(perm_.size()) * sizeof(index_t);
    }
    return bytes;
  }

  /// The cached ring program (valid only when chosen() is Ring1D).
  [[nodiscard]] const RingPlan<VT, SR>& ring_plan() const { return ring_; }

  /// Key of the replay groups this plan may join: plans with equal
  /// non-empty keys share a backend, grid shape and layer count, so
  /// replay_group can run them together. Empty when the plan replays
  /// alone: a panelized plan is a sequence of per-panel sub-plan replays,
  /// and a windowed ring plan's fallback path does not fuse.
  [[nodiscard]] std::string group_key() const {
    if (!built_ || panels_ > 1) return {};
    switch (chosen_) {
      case Algo::Auto: break;
      case Algo::SparseAware1D: return "sa1d";
      case Algo::Ring1D: return ring_.windowed() ? std::string() : "ring1d";
      case Algo::Summa2D:
      case Algo::Split3D:
        return std::string(algo_name(chosen_)) + ":" + std::to_string(grid_.layers) + ":" +
               std::to_string(grid_.sched.grid_rows) + "x" + std::to_string(grid_.sched.grid_cols);
    }
    return {};
  }

  /// The plan cache's eviction fallback: a Ring1D plan sheds its resident
  /// hop structures beyond a w-hop window (RingPlan::demote_to_window)
  /// instead of being dropped outright. No-op for other backends; returns
  /// true iff the plan is now windowed.
  bool demote_ring_to_window(int w) {
    if (!built_ || chosen_ != Algo::Ring1D) return false;
    if (panels_ > 1) {
      bool any = false;
      for (auto& p : panel_plans_) any = p->demote_ring_to_window(w) || any;
      return any;
    }
    ring_.demote_to_window(w);
    return ring_.windowed();
  }

  /// Exact rank-local reuse check: O(1) fields first, then the structure
  /// hashes (no communication).
  [[nodiscard]] bool matches_local(const DistMatrix1D<VT>& a, const DistMatrix1D<VT>& b) const {
    if (!built_ || !fp_.quick_equals(detail1d::quick_fingerprint_of(a, b))) return false;
    const std::uint64_t ah = detail1d::structure_hash(a.local());
    if (ah != fp_.a_hash) return false;
    const std::uint64_t bh = &a == &b ? ah : detail1d::structure_hash(b.local());
    return bh == fp_.b_hash;
  }

  /// Collective reuse check: true iff every rank's slice matches its plan.
  [[nodiscard]] bool matches(Comm& comm, const DistMatrix1D<VT>& a,
                             const DistMatrix1D<VT>& b) const {
    int ok;
    {
      auto ph = comm.phase(Phase::Other);
      ok = matches_local(a, b) ? 1 : 0;
    }
    return comm.allreduce(ok, [](int x, int y) { return x < y ? x : y; }) == 1;
  }

  /// Inspector + first execute (collective): resolves Auto, runs the fresh
  /// multiply through the chosen backend while capturing its value-only
  /// replay program, and fingerprints the operands. Replaces any previous
  /// plan state.
  DistMatrix1D<VT> build(Comm& comm, const DistMatrix1D<VT>& a, const DistMatrix1D<VT>& b,
                         const DistSpgemmOptions& opt = {}, DistSpgemmStats* stats = nullptr) {
    distdetail::validate_collective(comm, a, b, opt);
    // Per-call high-water gauge: outermost scope of the turn resets the
    // peak; panel sub-plan builds nest and roll their charges up.
    MemGaugeScope gauge(comm.report());
    reset_keep_counters();
    opt_ = opt;
    me_ = comm.rank();
    horizon_ = std::max(1, opt.expected_iterations);
    const RankReport before = comm.report();

    Algo algo = opt.algo;
    int layers = opt.layers;
    detail1d::AMeta<VT> meta;
    bool have_meta = false;

    // Ordering policy resolution (DESIGN.md §12), mirroring spgemm_dist:
    // ineligible operands degrade to Identity before any collective.
    Ordering policy = opt.reorder;
    if (policy != Ordering::Identity && !reorder_eligible(a, b, comm.size()))
      policy = Ordering::Identity;
    const bool need_cost = algo == Algo::Auto || policy == Ordering::Auto ||
                           (opt.max_peak_triples > 0 && opt.panels == 0);
    const bool need_rplan = policy == Ordering::Auto || policy == Ordering::Partitioned;

    if (need_cost) {
      inputs_ = gather_algo_cost_inputs(comm, a, b, opt.sa1d, &meta);
      inputs_.grid_rows = opt.grid_rows;
      inputs_.grid_cols = opt.grid_cols;
      inputs_.max_peak_triples = opt.max_peak_triples;
      inputs_.panels = opt.panels;
      // Serving workloads declare the fusion width they expect: replays are
      // then priced with per-phase latency amortized across the batch, so
      // Auto builds onto the backend that is optimal *under fusion*.
      inputs_.batch = std::max(1, opt.expected_batch);
      have_meta = true;
      have_inputs_ = true;
    }

    const RankReport before_reorder = comm.report();
    ReorderPlan rplan;
    if (need_rplan) {
      rplan = build_reorder_plan(comm, a, opt.sa1d.threads, opt.reorder_seed);
      rfeatures_ = rplan.features;
      last_partition_seconds_ = rplan.features.partition_seconds;
      if (!rplan.valid && policy == Ordering::Partitioned) policy = Ordering::Identity;
    }

    ordering_ = policy == Ordering::Auto ? Ordering::Identity : policy;
    if (need_cost) {
      if (rplan.valid) {
        inputs_.reorder_cut_fraction = rplan.features.cut_fraction;
        inputs_.reorder_part_imbalance = rplan.features.part_imbalance;
        inputs_.reorder_seconds = rplan.features.partition_seconds;
      }
      inputs_.reorder_move_elems = inputs_.nnz_a + (&a == &b ? 0 : inputs_.nnz_b);
      auto ph = comm.phase(Phase::Plan);
      // Horizon-aware joint Auto: with a declared iteration count the build
      // is priced as one fresh multiply plus (h−1) value-only replays per
      // (backend × ordering) cell, so the one-shot reorder cost is
      // amortized over the horizon exactly once.
      auto [ch, ord] = choose_algo_ordered(comm.cost(), inputs_, policy, rplan.valid, opt.algo,
                                           opt.layers, &layers, &predictions_, horizon_);
      if (opt.algo == Algo::Auto) algo = ch;
      ordering_ = ord;
      inputs_.ordering = ordering_;
      // Plan-aware Auto (ROADMAP): the decision above is what this build
      // runs; also reprice the same inputs for pure value-only replays
      // (zero plan term) so every later execute() can report the decision
      // horizon that matches what it did, with no re-gather.
      replay_choice_ = choose_algo(comm.cost(), inputs_, opt.layers, &replay_layers_,
                                   &replay_predictions_, /*replay=*/true);
    } else if (algo == Algo::Split3D && layers == 0) {
      layers = distdetail::default_split3d_layers(comm.size());
    }

    // Apply the ordering: permute both operands onto the partition layout
    // (Random keeps the original bounds), capturing the value-only forward
    // routes, and cache the operand value hashes so replays can skip the
    // movement entirely when only structure — not values — must match.
    const DistMatrix1D<VT>* ra = &a;
    const DistMatrix1D<VT>* rb = &b;
    if (ordering_ != Ordering::Identity) {
      have_meta = false;  // the gathered AMeta describes the unpermuted A
      std::vector<index_t> pbounds;
      if (ordering_ == Ordering::Partitioned) {
        perm_ = rplan.layout.perm;
        pbounds = rplan.layout.bounds;
      } else {
        perm_ = random_permutation(a.ncols(), opt.reorder_seed);
        pbounds = a.bounds();
      }
      pa_ = permute_symmetric_dist(comm, a, perm_, pbounds, &route_a_);
      pb_aliases_pa_ = &a == &b;
      if (!pb_aliases_pa_)
        pb_ = permute_symmetric_dist(comm, b, perm_, std::move(pbounds), &route_b_);
      ra = &pa_;
      rb = pb_aliases_pa_ ? &pa_ : &pb_;
      a_val_hash_ = distdetail::value_hash(a.local());
      b_val_hash_ = pb_aliases_pa_ ? a_val_hash_ : distdetail::value_hash(b.local());
    }
    last_reorder_bytes_ =
        comm.report().coll_bytes_received() - before_reorder.coll_bytes_received();

    // Budgeted builds bound the SUMMA stage window and capture the ring plan
    // with a bounded hop window (first-class windowed execution: replays
    // stream post-window hops, recomputing per-hop metadata).
    const bool budgeted = opt.max_peak_triples > 0;
    const int ring_window =
        opt.ring_window > 0 ? opt.ring_window
                            : (opt.max_peak_triples > 0 ? std::min(2, comm.size() - 1) : 0);
    auto run_fresh = [&](Algo which, int lyr) -> DistMatrix1D<VT> {
      chosen_ = which;
      layers_ = which == Algo::Split3D ? lyr : 1;
      switch (which) {
        case Algo::Auto: break;  // unreachable: resolved above
        case Algo::SparseAware1D:
          // Auto hands its gathered AMeta to the inspector: exactly one
          // metadata allgather for the whole dispatch.
          sa1d_ = have_meta ? SpgemmPlan1D<VT, SR>(comm, *ra, *rb, opt.sa1d, std::move(meta))
                            : SpgemmPlan1D<VT, SR>(comm, *ra, *rb, opt.sa1d);
          return sa1d_.execute_verified(comm, *ra, *rb);
        case Algo::Ring1D:
          return spgemm_naive_ring_1d<SR>(comm, *ra, *rb, &ring_, ring_window);
        case Algo::Summa2D:
          return spgemm_summa_2d_dist<SR>(comm, *ra, *rb, opt.sa1d.kernel, opt.sa1d.threads,
                                          &grid_, opt.grid_rows, opt.grid_cols, budgeted);
        case Algo::Split3D:
          require_split3d_layers(comm.size(), lyr, "DistSpgemmPlan(Algo::Split3D)");
          return spgemm_split_3d_dist<SR>(comm, *ra, *rb, lyr, opt.sa1d.kernel,
                                          opt.sa1d.threads, &grid_, opt.grid_rows,
                                          opt.grid_cols, budgeted);
      }
      require(false, "DistSpgemmPlan::build: unknown algorithm");
      return {};
    };
    // Panelized build (DESIGN.md §13): one sub-plan per global column
    // window of (the possibly permuted) B, built in ascending panel order;
    // replays recompute each panel restriction and replay its sub-plan.
    auto run_panels = [&](Algo which, int lyr, int k) -> DistMatrix1D<VT> {
      if (k <= 1) {
        panels_ = 1;
        return run_fresh(which, lyr);
      }
      chosen_ = which;
      layers_ = which == Algo::Split3D ? lyr : 1;
      panels_ = k;
      panel_bounds_ = even_split(rb->ncols(), k);
      DistSpgemmOptions sub = opt;
      sub.algo = which;
      sub.layers = which == Algo::Split3D ? lyr : opt.layers;
      sub.reorder = Ordering::Identity;  // the operands are already permuted
      sub.panels = 1;
      panel_plans_.clear();
      panel_plans_.reserve(static_cast<std::size_t>(k));
      std::vector<DistMatrix1D<VT>> outs;
      outs.reserve(static_cast<std::size_t>(k));
      for (int pi = 0; pi < k; ++pi) {
        auto bp = restrict_columns(*rb, panel_bounds_[static_cast<std::size_t>(pi)],
                                   panel_bounds_[static_cast<std::size_t>(pi) + 1]);
        auto sp = std::make_shared<DistSpgemmPlan>();
        outs.push_back(sp->build(comm, *ra, bp, sub));
        panel_plans_.push_back(std::move(sp));
      }
      auto ph = comm.phase(Phase::Other);
      return concat_column_panels(outs);
    };
    // Panel resolution, mirroring spgemm_dist: pinned counts are trusted;
    // panels = 0 with a budget reads the model's smallest feasible
    // panelization for this (backend × ordering × layers) cell, raising the
    // identical ValidationError on every rank when none fits.
    int panels = opt.panels >= 1 ? opt.panels : 1;
    if (opt.panels == 0 && opt.max_peak_triples > 0 && opt.algo != Algo::Auto) {
      const AlgoPrediction* cell = nullptr;
      for (const auto& pr : predictions_)
        if (pr.algo == algo && pr.ordering == ordering_ &&
            (algo != Algo::Split3D || pr.layers == layers)) {
          cell = &pr;
          break;
        }
      if (cell == nullptr || !cell->feasible)
        throw ValidationError(
            ErrorContext{comm.global_rank(comm.rank()), comm.report().comm_ops,
                         "DistSpgemmPlan::build"},
            std::string("spgemm_dist: no column panelization of backend ") + algo_name(algo) +
                " fits max_peak_triples=" + std::to_string(opt.max_peak_triples) +
                " (modeled peak exceeds the budget at every panel count)");
      panels = cell->panels;
    }

    DistMatrix1D<VT> c;
    int failovers = 0;
    if (opt.algo != Algo::Auto) {
      c = run_panels(algo, layers, panels);
    } else {
      // Same degrade policy as spgemm_dist: walk the cost-ranked feasible
      // candidates *of the chosen ordering* (the operands are already
      // permuted for it), skipping any a backend's entry validation or the
      // fault injector's veto rejects (both deterministic and
      // rank-symmetric).
      std::vector<AlgoPrediction> walk = predictions_;
      std::erase_if(walk,
                    [&](const AlgoPrediction& p) { return p.ordering != ordering_; });
      bool done = false;
      for (const auto& cand : distdetail::ranked_candidates(std::move(walk))) {
        if (comm.injector() != nullptr &&
            comm.injector()->vetoes(static_cast<int>(cand.algo))) {
          ++failovers;
          continue;
        }
        try {
          c = run_panels(cand.algo, cand.layers, cand.panels);
          done = true;
          break;
        } catch (const std::invalid_argument&) {
          ++failovers;
        }
      }
      if (!done)
        throw ValidationError(ErrorContext{comm.global_rank(comm.rank()),
                                           comm.report().comm_ops, "DistSpgemmPlan::build"},
                              "spgemm_dist: Auto found no dispatchable backend (all "
                              "cost-feasible candidates failed validation or were vetoed)");
    }
    const Algo algo_run = chosen_;

    if (ordering_ != Ordering::Identity) {
      // Scatter C back to the caller's ordering and bounds, capturing the
      // value-only inverse route; the returned matrix doubles as the
      // template every replay writes its scattered values into.
      c = permute_symmetric_dist(comm, c, perm_.inverse(), a.bounds(), &route_c_inv_);
      c_tmpl_ = c;
    }

    if (algo_run == Algo::SparseAware1D && ordering_ == Ordering::Identity && panels_ == 1) {
      fp_ = sa1d_.fingerprint();  // the inspector already hashed the slices
    } else {
      // Ordered plans must fingerprint the ORIGINAL operands — matches()
      // compares against what the caller passes; the SA-1D sub-plan hashes
      // the permuted pair internally for its own replay guard.
      auto ph = comm.phase(Phase::Plan);
      fp_ = detail1d::fingerprint_of(a, b);
    }
    built_ = true;
    ++builds_;
    ++comm.report().plan_builds[distdetail::algo_slot(chosen_)];
    if (opt_.algo == Algo::Auto) ++comm.report().plan_builds[distdetail::algo_slot(Algo::Auto)];
    fill_stats(stats, comm, before, /*reused=*/false, 0);
    if (stats != nullptr) stats->validation_failovers = failovers;
    return c;
  }

  /// Discards the cached program (keeping the lifetime counters) so the
  /// next call through spgemm_dist_cached rebuilds — the recovery policy's
  /// response to CorruptionDetected/PlanMismatch during a replay.
  void invalidate() { reset_keep_counters(); }

  /// Executor (collective): replays the cached program — values only, no
  /// metadata collectives, no Phase::Plan work. The full local fingerprint
  /// is verified on every call; iterated callers with evolving structure
  /// should go through spgemm_dist_cached.
  DistMatrix1D<VT> execute(Comm& comm, const DistMatrix1D<VT>& a, const DistMatrix1D<VT>& b,
                           DistSpgemmStats* stats = nullptr) {
    {
      auto ph = comm.phase(Phase::Other);
      require(built_, "DistSpgemmPlan::execute: plan was never built");
      require(matches_local(a, b),
              "DistSpgemmPlan::execute: operand structure does not match the plan fingerprint "
              "(iterated callers should use spgemm_dist_cached, which decides replay-vs-rebuild "
              "with the collective matches())");
    }
    return execute_verified(comm, a, b, stats);
  }

  /// Executor without the O(nnz) hash re-check. Precondition: the operand
  /// pair was just verified against this plan (a successful collective
  /// matches(), or the plan was built from these operands). A replay group
  /// of one.
  DistMatrix1D<VT> execute_verified(Comm& comm, const DistMatrix1D<VT>& a,
                                    const DistMatrix1D<VT>& b,
                                    DistSpgemmStats* stats = nullptr) {
    const Replay one{this, &a, &b, stats};
    return std::move(replay_group(comm, std::span<const Replay>(&one, 1))[0]);
  }

  /// One member of a group replay: a built plan, the verified operand pair
  /// it replays, and where its stats go (optional).
  struct Replay {
    DistSpgemmPlan* plan;
    const DistMatrix1D<VT>* a;
    const DistMatrix1D<VT>* b;
    DistSpgemmStats* stats = nullptr;
  };

  /// The replay (collective): runs k built plans with equal non-empty
  /// group_key() — or one plan of any kind — through their backend's single
  /// executor, which fuses the group's collectives (one RDMA fetch wave for
  /// SA-1D, one alltoallv per ring hop, one alltoallv per grid route and one
  /// broadcast pair per SUMMA stage). Per member, in member order, it first
  /// runs the ordering prologue (the value-hash vote and, when the values
  /// changed, the forward value routes onto the permuted operands); after
  /// the executor it runs the inverse scatter back to the caller's
  /// ordering, the replay counters and the stats. Each member's result is
  /// bit-identical to its fresh build whatever the group. Every member
  /// reports the measurements of the whole group (its peak, comm time and
  /// collective bytes), which are exact for a group of one. Precondition:
  /// each member's operands were verified against its plan, and no plan
  /// appears twice.
  static std::vector<DistMatrix1D<VT>> replay_group(Comm& comm, std::span<const Replay> ms) {
    const std::size_t k = ms.size();
    if (k == 0) return {};
    // Structured (not a bare require): a rank whose operands diverged from
    // the verified plan must not enter the replay collectives while peers
    // do — comm.fail raises PlanMismatch machine-wide so every rank unwinds
    // with the identical recoverable error, and the callers' retry loops
    // can rebuild.
    for (const auto& m : ms)
      if (!m.plan->built_ || !m.plan->fp_.quick_equals(detail1d::quick_fingerprint_of(*m.a, *m.b)))
        comm.fail(FaultClass::PlanMismatch, "execute_verified",
                  "DistSpgemmPlan::execute_verified: operand/plan mismatch (rank " +
                      std::to_string(comm.global_rank(comm.rank())) +
                      "'s operand dims/nnz diverged from the plan fingerprint)");
    // Per-call high-water gauge: nested panel sub-plan replays roll up.
    MemGaugeScope gauge(comm.report());
    const RankReport before = comm.report();

    std::vector<std::pair<const DistMatrix1D<VT>*, const DistMatrix1D<VT>*>> ops;
    ops.reserve(k);
    for (const auto& m : ms) ops.push_back(m.plan->ordered_operands(comm, *m.a, *m.b));

    DistSpgemmPlan& p0 = *ms[0].plan;
    std::vector<DistMatrix1D<VT>> cs;
    if (p0.panels_ > 1) {
      require(k == 1, "DistSpgemmPlan::replay_group: a panelized plan replays alone");
      cs.push_back(p0.replay_panels(comm, *ops[0].first, *ops[0].second));
    } else {
      switch (p0.chosen_) {
        case Algo::Auto: break;  // unreachable: build resolved the dispatch
        case Algo::SparseAware1D: {
          std::vector<typename SpgemmPlan1D<VT, SR>::Replay> rs;
          for (std::size_t m = 0; m < k; ++m)
            rs.push_back({&ms[m].plan->sa1d_, ops[m].first, ops[m].second});
          cs = SpgemmPlan1D<VT, SR>::replay(comm, rs);
          break;
        }
        case Algo::Ring1D: {
          std::vector<RingReplay<VT, SR>> rs;
          for (std::size_t m = 0; m < k; ++m)
            rs.push_back({&ms[m].plan->ring_, ops[m].first, ops[m].second});
          cs = spgemm_naive_ring_1d_replay<SR, VT>(comm, rs);
          break;
        }
        case Algo::Summa2D:
        case Algo::Split3D: {
          std::vector<GridReplay<VT, SR>> rs;
          for (std::size_t m = 0; m < k; ++m)
            rs.push_back({&ms[m].plan->grid_, ops[m].first, ops[m].second});
          cs = spgemm_grid_replay<SR, VT>(comm, rs, p0.opt_.max_peak_triples > 0);
          break;
        }
      }
    }

    std::uint64_t value_payload = 0;
    for (std::size_t m = 0; m < k; ++m) {
      DistSpgemmPlan& p = *ms[m].plan;
      if (p.ordering_ != Ordering::Identity) {
        // Value-only inverse scatter through the cached route: C comes back
        // in the caller's ordering. Regular execution comm, not reorder.
        permute_symmetric_replay(comm, cs[m], p.route_c_inv_, p.c_tmpl_);
        cs[m] = p.c_tmpl_;
      }
      ++p.replays_;
      ++comm.report().plan_replays[distdetail::algo_slot(p.chosen_)];
      if (p.opt_.algo == Algo::Auto)
        ++comm.report().plan_replays[distdetail::algo_slot(Algo::Auto)];
      // A reused ordered plan's value traffic includes the inverse scatter
      // (inside replay_coll_recv_bytes) and, when operand values changed,
      // the forward value routes (the measured reorder bytes) — neither is
      // structural metadata.
      value_payload += p.replay_coll_recv_bytes() + p.last_reorder_bytes_;
    }
    for (const auto& m : ms)
      m.plan->fill_stats(m.stats, comm, before, /*reused=*/true, value_payload);
    return cs;
  }

 private:
  /// Ordering prologue of a replay: the operands the backend program runs
  /// on. An ordered plan's cached permuted operands already hold the right
  /// values when the caller's values are unchanged since they were filled
  /// (iterated squaring replays the same plan on the same matrix) — vote on
  /// the hash match through the uncounted control plane so the branch is
  /// rank-uniform, and only on a miss replay the value-only forward routes
  /// (the documented changed-values contract: nonzero reorder bytes, still
  /// zero partition work).
  std::pair<const DistMatrix1D<VT>*, const DistMatrix1D<VT>*> ordered_operands(
      Comm& comm, const DistMatrix1D<VT>& a, const DistMatrix1D<VT>& b) {
    last_partition_seconds_ = 0.0;  // replays never re-partition
    last_reorder_bytes_ = 0;
    if (ordering_ == Ordering::Identity) return {&a, &b};
    std::uint64_t ah, bh;
    bool same_local;
    {
      auto ph = comm.phase(Phase::Reorder);
      ah = distdetail::value_hash(a.local());
      bh = pb_aliases_pa_ ? ah : distdetail::value_hash(b.local());
      same_local = ah == a_val_hash_ && bh == b_val_hash_;
    }
    bool same = true;
    for (const auto& v : comm.exchange_control(same_local ? "1" : "0"))
      if (v == "0") same = false;
    if (!same) {
      const RankReport br = comm.report();
      permute_symmetric_replay(comm, a, route_a_, pa_);
      if (!pb_aliases_pa_) permute_symmetric_replay(comm, b, route_b_, pb_);
      a_val_hash_ = ah;
      b_val_hash_ = bh;
      last_reorder_bytes_ = comm.report().coll_bytes_received() - br.coll_bytes_received();
    }
    return {&pa_, pb_aliases_pa_ ? &pa_ : &pb_};
  }

  /// Panelized replay: recompute each panel's B restriction (values are
  /// this call's — the restriction copies them) and replay its sub-plan in
  /// ascending panel order; concatenation order is deterministic, so the
  /// result is bit-identical to the monolithic replay.
  DistMatrix1D<VT> replay_panels(Comm& comm, const DistMatrix1D<VT>& a,
                                 const DistMatrix1D<VT>& b) const {
    std::vector<DistMatrix1D<VT>> outs;
    outs.reserve(panel_plans_.size());
    for (std::size_t pi = 0; pi < panel_plans_.size(); ++pi) {
      auto bp = restrict_columns(b, panel_bounds_[pi], panel_bounds_[pi + 1]);
      outs.push_back(panel_plans_[pi]->execute_verified(comm, a, bp));
    }
    auto ph = comm.phase(Phase::Other);
    return concat_column_panels(outs);
  }

  /// Clears plan state but keeps the lifetime build/replay counters.
  void reset_keep_counters() {
    const int b = builds_, r = replays_;
    *this = DistSpgemmPlan();
    builds_ = b;
    replays_ = r;
  }

  /// `value_payload`: the collective value bytes the measured window was
  /// expected to receive (zero for a build); anything beyond it is
  /// structural metadata.
  void fill_stats(DistSpgemmStats* stats, Comm& comm, const RankReport& before, bool reused,
                  std::uint64_t value_payload) const {
    if (stats == nullptr) return;
    *stats = DistSpgemmStats{};
    stats->requested = opt_.algo;
    stats->chosen = chosen_;
    stats->layers = layers_;
    stats->requested_ordering = opt_.reorder;
    stats->ordering = ordering_;
    stats->reorder_cut_fraction = rfeatures_.cut_fraction;
    stats->reorder_part_imbalance = rfeatures_.part_imbalance;
    stats->partition_seconds = last_partition_seconds_;
    stats->reorder_coll_bytes = last_reorder_bytes_;
    if (have_inputs_) {
      stats->inputs = inputs_;
      stats->predictions = predictions_;
      // Plan-aware Auto: both decision horizons are recorded — the
      // one-shot trace that chose the build, and the replay repricing
      // (zero plan term, value-only volume) that matches cached executes.
      stats->replay_predictions = replay_predictions_;
      stats->replay_choice = replay_choice_;
      stats->replay_layers = replay_layers_;
    }
    stats->plan_reused = reused;
    stats->horizon_iters = horizon_;
    stats->panels = panels_;
    const RankReport& after = comm.report();
    stats->peak_triples = after.peak_triples;
    stats->peak_bytes = after.peak_bytes;
    stats->plan_seconds = after.plan_s - before.plan_s;
    stats->comm_wait_s = after.comm_s - before.comm_s;
    stats->comm_hidden_s = after.overlap_s - before.overlap_s;
    stats->coll_recv_bytes = (after.bytes_network() - after.rdma_bytes) -
                             (before.bytes_network() - before.rdma_bytes);
    stats->meta_coll_bytes =
        stats->coll_recv_bytes > value_payload ? stats->coll_recv_bytes - value_payload : 0;
  }

  bool built_ = false;
  DistSpgemmOptions opt_;
  Algo chosen_ = Algo::SparseAware1D;
  int layers_ = 1;
  int me_ = 0;
  StructureFingerprint fp_{};
  bool have_inputs_ = false;
  AlgoCostInputs inputs_{};
  std::vector<AlgoPrediction> predictions_;
  std::vector<AlgoPrediction> replay_predictions_;
  Algo replay_choice_ = Algo::Auto;
  int replay_layers_ = 1;
  int horizon_ = 1;
  int builds_ = 0;
  int replays_ = 0;

  // Ordered-plan cache (ordering_ != Identity): the symmetric permutation
  // and its layout, the permuted operands with their forward value routes,
  // the inverse route + C template returning results to the caller's
  // ordering, and FNV hashes of the original operands' value arrays. A
  // replay whose operands still hash-match reuses pa_/pb_ outright — zero
  // partition work, zero reorder collective bytes (DESIGN.md §12).
  Ordering ordering_ = Ordering::Identity;
  Permutation perm_;
  ReorderFeatures rfeatures_{};
  DistMatrix1D<VT> pa_, pb_;
  bool pb_aliases_pa_ = false;
  PermuteRoute route_a_, route_b_, route_c_inv_;
  DistMatrix1D<VT> c_tmpl_;
  std::uint64_t a_val_hash_ = 0, b_val_hash_ = 0;
  // Per-call reorder accounting the next fill_stats reports.
  double last_partition_seconds_ = 0.0;
  std::uint64_t last_reorder_bytes_ = 0;

  // Exactly one of these is populated, per chosen_ (grid_ serves both
  // SUMMA-2D and Split-3D).
  SpgemmPlan1D<VT, SR> sa1d_;
  RingPlan<VT, SR> ring_;
  GridPlan<VT, SR> grid_;

  // Panelized plans (panels_ > 1, DESIGN.md §13): the backend members above
  // stay empty and each panel's replay program lives in its own sub-plan
  // over (A, B restricted to [panel_bounds_[i], panel_bounds_[i+1]))).
  // shared_ptr because reset_keep_counters() copy-assigns a fresh plan.
  int panels_ = 1;
  std::vector<index_t> panel_bounds_;
  std::vector<std::shared_ptr<DistSpgemmPlan>> panel_plans_;
};

/// Iterated-caller entry point over any backend: reuses `plan` when every
/// rank's operand structure still matches it and the options are unchanged
/// (one collective vote — 4 bytes/rank — keeps the replay-vs-rebuild branch
/// uniform and deadlock-free), rebuilds otherwise. The app loops (MCL
/// rounds, BC levels, AMG setup refreshes) all go through this; the replay
/// moves only values whichever backend the plan holds, and under Algo::Auto
/// the cached cost decision short-circuits the metadata re-gather entirely.
template <typename SRIn = void, typename VT>
DistMatrix1D<VT> spgemm_dist_cached(Comm& comm,
                                    DistSpgemmPlan<VT, ResolveSemiring<SRIn, VT>>& plan,
                                    const DistMatrix1D<VT>& a, const DistMatrix1D<VT>& b,
                                    const DistSpgemmOptions& opt = {},
                                    DistSpgemmStats* stats = nullptr) {
  // Self-healing replay (recovery policy, DESIGN.md §9): a recoverable
  // fault — CorruptionDetected from integrity mode, PlanMismatch from a
  // replay guard — unwinds every rank with the identical typed error; all
  // ranks meet in the collective recover() rendezvous (clearing the fault
  // and resetting every barrier), invalidate the plan, and rebuild fresh.
  // Bounded by max_recovery_retries; fatal faults (a dead rank) and
  // validation errors propagate immediately.
  ++comm.report().toplevel_calls;
  int attempts = 0;
  for (;;) {
    try {
      // Validate before the replay-vs-rebuild branch: if options or operand
      // shapes diverged across ranks, some ranks would enter matches()'s
      // allreduce while others enter build()'s gathers — the validation vote
      // throws the identical ValidationError on every rank first. It runs
      // INSIDE the retry scope: in an iterated workload a peer's recoverable
      // fault can poison this rank while it sits in the next call's
      // validation exchange (panelized plans skew rank progress enough to
      // hit this), and surfacing that Corruption here instead of joining
      // recover() would strand the peers' rendezvous until the watchdog.
      distdetail::validate_collective(comm, a, b, opt);
      DistMatrix1D<VT> c;
      if (!plan.empty() && plan.options() == opt && plan.matches(comm, a, b)) {
        c = plan.execute_verified(comm, a, b, stats);
      } else {
        c = plan.build(comm, a, b, opt, stats);
      }
      if (stats != nullptr) stats->recoveries = attempts;
      return c;
    } catch (const Sa1dError& e) {
      const bool recoverable = e.fault_class() == FaultClass::Corruption ||
                               e.fault_class() == FaultClass::PlanMismatch;
      if (!recoverable || attempts >= opt.max_recovery_retries) throw;
      ++attempts;
      comm.recover();  // collective; rethrows if the fault turned fatal
      distdetail::vote_recovery_alignment(comm, "spgemm_dist_cached");
      plan.invalidate();
      ++comm.report().plan_recoveries;
    }
  }
}

}  // namespace sa1d
