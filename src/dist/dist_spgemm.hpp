// The unified distributed SpGEMM front-end: one entry point over the
// sparsity-aware 1D algorithm (paper Algorithm 1), 2D sparse SUMMA, and
// Split-3D. Every backend takes 1D column-distributed operands and returns
// C in B's column distribution (the 2D/3D backends redistribute through
// dist/redistribute.hpp), so the paper's comparative experiments — and the
// applications — can switch algorithms with one enum. The sparsity-oblivious
// 1D comparison point is Spgemm1dOptions::sparsity_aware = false.
//
// Algo::Auto gathers cheap structural statistics (replicated metadata from
// the inspector's Algorithm 2 machinery: nnz, nzc, needed-fraction, planned
// fetch volume) and asks CostModel::predict to rank the concrete backends;
// the decision and the per-algorithm predictions are recorded in
// DistSpgemmStats. This header holds the options, the stats, the cost-input
// gather, the decision functions and the entry validation; the dispatch
// itself exists once, in DistSpgemmPlan (dist/dist_plan.hpp): a plan build
// runs it with capture, a one-shot spgemm_dist without. DESIGN.md §7
// documents the dispatcher, the redistribution data flow, and the
// cost-model features.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/spgemm1d.hpp"
#include "dist/col_panels.hpp"
#include "dist/spgemm3d.hpp"
#include "dist/summa2d.hpp"
#include "part/permutation.hpp"
#include "part/reorder.hpp"
#include "runtime/cost_model.hpp"
#include "sparse/generators.hpp"
#include "util/timer.hpp"

namespace sa1d {

struct DistSpgemmOptions {
  /// Which backend runs; Auto lets the cost model decide.
  Algo algo = Algo::Auto;
  /// Sparsity-aware 1D knobs; `sa1d.kernel` and `sa1d.threads` also drive
  /// the local multiplies of every other backend.
  Spgemm1dOptions sa1d;
  /// Split-3D layer count; 0 = pick the best valid layering (cost model
  /// under Auto, smallest non-trivial one otherwise).
  int layers = 0;
  /// Process-grid shape for the 2D/3D backends (the per-layer grid for
  /// Split-3D): 0 = the nearest-square q_r × q_c factorization of the
  /// (sub-)communicator size; a pinned shape must factor it exactly
  /// (require_grid_shape names the divisors otherwise).
  int grid_rows = 0;
  int grid_cols = 0;
  /// Iterations the application expects to run against one cached plan (MCL
  /// declares its round budget, AMG its refresh interval). > 1 makes Auto
  /// price each backend over the whole horizon — one build plus (h−1)
  /// value-only replays — so the build lands on the *replay-optimal*
  /// backend instead of merely recording the replay_choice disagreement.
  /// 0/1 = one-shot pricing (the pre-horizon behavior).
  int expected_iterations = 0;
  /// Multiplies the caller expects to fuse per spgemm_dist_batched call
  /// (dist/batch_spgemm.hpp): > 1 makes Auto price replays with the
  /// per-phase latency amortized over the batch (AlgoCostInputs::batch), so
  /// a serving workload's plans are built onto the backend that is optimal
  /// *under fusion*. 0/1 = unbatched pricing.
  int expected_batch = 0;
  /// Bounded self-healing: how many times spgemm_dist_cached may collectively
  /// invalidate the plan and rebuild after a recoverable fault
  /// (CorruptionDetected / PlanMismatch) before the error propagates.
  int max_recovery_retries = 2;
  /// Ordering policy (the reorder plan stage, DESIGN.md §12): Identity runs
  /// in the caller's ordering; Partitioned/Random force a symmetric
  /// relabeling of both operands (the multiply runs as P·A·Pᵀ · P·B·Pᵀ and
  /// C is returned in the caller's original ordering); Auto prices every
  /// backend under all three orderings and picks the (backend × ordering)
  /// pair jointly. Non-identity orderings require square operands on
  /// identical bounds with at least P columns — anything else degrades to
  /// Identity, recorded in DistSpgemmStats::ordering.
  Ordering reorder = Ordering::Identity;
  /// Seed of the partitioner / random relabeling (part of the plan identity:
  /// same structure + same seed ⇒ the identical permutation on every call).
  std::uint64_t reorder_seed = 1;
  /// Peak-triples budget for the execution's transient memory (DESIGN.md
  /// §13): the per-rank high-water RankReport::peak_triples gauge of one
  /// call must stay under this. 0 = unbounded (the pre-budget behavior).
  /// A positive budget switches every backend to its bounded variant
  /// (streaming rounds-merges, a bounded SUMMA stage window) and makes the
  /// dispatch resolve a column panelization whose modeled peak fits — or
  /// raise a rank-uniform ValidationError when none does. Part of the
  /// collective options digest: divergent budgets across ranks fail
  /// validation before any data collective.
  std::uint64_t max_peak_triples = 0;
  /// Column-panel count: 0 = resolve from the budget (1 when unbudgeted,
  /// else the smallest feasible count); 1 = pinned monolithic; k > 1 = run
  /// exactly k panels. Panel execution multiplies C in k global column
  /// windows of B and concatenates in ascending panel order — bit-identical
  /// to the monolithic call for any semiring.
  int panels = 0;

  friend bool operator==(const DistSpgemmOptions&, const DistSpgemmOptions&) = default;
};

/// What one spgemm_dist call decided and why. `predictions` (one entry per
/// concrete backend, infeasible ones marked) and `inputs` are filled when
/// the cost model ran — under Algo::Auto, an Auto ordering, or a budget
/// with an unresolved panel count (for plan replays the cached decision
/// trace is reported, gathered once at build time).
///
/// Plan-aware Auto: `replay_predictions`/`replay_choice` reprice the same
/// inputs for *cached replays* (CostModel::predict_replay — zero plan
/// term, value-only collective volume). A replay still executes the
/// build-time `chosen` backend; the replay trace is the repricing under
/// the replay cost regime, recorded next to the one-shot trace so
/// iterated callers can see when the two horizons disagree (acting on the
/// disagreement is a ROADMAP follow-on). Both are derived from the cached
/// inputs with no extra communication.
///
/// The per-call counters below are rank-local deltas measured around the
/// call by the one dispatch (dist/dist_plan.hpp), so one-shot spgemm_dist
/// calls, plan builds and replays all fill them. `meta_coll_bytes` is the
/// collective traffic beyond the pure value payload a cached replay moves —
/// structural metadata (D/cp gathers, triple-borne structure), exactly zero
/// on a plan reuse.
struct DistSpgemmStats {
  Algo requested = Algo::Auto;
  Algo chosen = Algo::Auto;
  int layers = 1;  ///< layer count used when chosen == Split3D
  AlgoCostInputs inputs{};
  std::vector<AlgoPrediction> predictions;
  std::vector<AlgoPrediction> replay_predictions;  ///< replay-priced trace (when the model ran)
  Algo replay_choice = Algo::Auto;  ///< argmin of replay_predictions; Auto = not computed
  int replay_layers = 1;  ///< layer count the replay-priced Split3D choice assumed

  // Joint ordering decision + reorder accounting (DESIGN.md §12).
  // `ordering` is what the call actually ran under — a requested
  // non-identity ordering degrades to Identity for ineligible operands
  // (non-square, mismatched bounds, fewer columns than ranks) or when the
  // partitioner produced no valid layout.
  Ordering requested_ordering = Ordering::Identity;
  Ordering ordering = Ordering::Identity;
  double reorder_cut_fraction = 1.0;    ///< measured cut fraction (when a partition was built)
  double reorder_part_imbalance = 1.0;  ///< measured max/mean part weight
  double partition_seconds = 0.0;       ///< partitioner CPU this call (0 on a plan replay)
  /// Collective bytes the ordering stage received this call: the structure
  /// gather feeding the partitioner plus the forward operand permutes.
  /// Exactly 0 on a value-matched plan replay; the inverse scatter that
  /// returns C in the caller's ordering counts as regular execution comm.
  std::uint64_t reorder_coll_bytes = 0;

  bool plan_reused = false;            ///< this call replayed a cached plan
  double plan_seconds = 0.0;           ///< Phase::Plan CPU delta (this rank)
  std::uint64_t coll_recv_bytes = 0;   ///< collective bytes received (this rank)
  std::uint64_t meta_coll_bytes = 0;   ///< coll_recv_bytes beyond the value-replay volume

  // Overlap accounting (this rank's deltas, filled by every entry point
  // like the counters above): modeled comm seconds the rank
  // actually waited for vs. seconds hidden behind concurrent compute.
  double comm_wait_s = 0.0;    ///< RankReport::comm_s delta
  double comm_hidden_s = 0.0;  ///< RankReport::overlap_s delta
  /// Fraction of modeled comm time hidden behind compute; 0 when nothing
  /// was hidden.
  [[nodiscard]] double overlap_efficiency() const {
    const double tot = comm_wait_s + comm_hidden_s;
    return tot > 0.0 ? comm_hidden_s / tot : 0.0;
  }

  // Robustness accounting (DESIGN.md §9).
  int horizon_iters = 1;          ///< pricing horizon Auto used (from expected_iterations)
  int recoveries = 0;             ///< recoverable-fault plan rebuilds this call performed
  int validation_failovers = 0;   ///< Auto candidates skipped (dispatch validation / veto)

  // Memory-bounded execution accounting (DESIGN.md §13).
  int panels = 1;  ///< column panels the call executed (1 = monolithic)
  /// This rank's high-water transient gauge over the call (triples and the
  /// byte equivalent) — the measured counterpart of the modeled
  /// AlgoPrediction::peak_triples, asserted ≤ max_peak_triples by the
  /// budget tests whenever a feasible plan exists.
  std::uint64_t peak_triples = 0;
  std::uint64_t peak_bytes = 0;

  // Plan-cache accounting (runtime/plan_cache.hpp; DESIGN.md §11): what the
  // multi-tenant cache did for *this* call. hits + misses == 1 for a call
  // routed through the cache, both 0 otherwise; `cache_bytes_resident` is
  // the cache's agreed residency gauge after the call.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;       ///< evictions this call's admission forced
  std::uint64_t cache_bytes_resident = 0;
};

/// Measures this host's local-SpGEMM flop rate and COO triple-processing
/// rate once (cached) and returns `base` with the calibrated compute rates
/// filled in, so CostModel::predict shares a unit system with the measured
/// phase times. ~10 ms on first call.
inline CostParams calibrate_cost_params(CostParams base = {}) {
  struct Rates {
    double flop_s;
    double triple_s;
  };
  static const Rates r = [] {
    Rates out{};
    auto a = erdos_renyi<double>(2000, 12.0, 987);
    std::vector<detail::Workspace<PlusTimes<double>>> ws;
    auto sym = spgemm_local_symbolic<PlusTimes<double>, double>(a, a, LocalKernel::Hybrid, 1, &ws);
    spgemm_local_numeric<PlusTimes<double>, double>(a, a, sym, &ws);  // warm caches
    CpuTimer tf;
    auto c = spgemm_local_numeric<PlusTimes<double>, double>(a, a, sym, &ws);
    out.flop_s = tf.seconds() / static_cast<double>(std::max<index_t>(total_flops(a, a), 1));

    auto triples = c.to_coo().triples();
    SplitMix64 g(13);
    for (std::size_t i = triples.size(); i > 1; --i)
      std::swap(triples[i - 1], triples[static_cast<std::size_t>(g.below(i))]);
    CooMatrix<double> m(c.nrows(), c.ncols(), std::move(triples));
    CpuTimer tt;
    m.canonicalize();
    out.triple_s = tt.seconds() / static_cast<double>(std::max<index_t>(m.nnz(), 1));
    return out;
  }();
  base.flop_s = r.flop_s;
  base.triple_s = r.triple_s;
  return base;
}

/// Gathers the structural statistics CostModel::predict consumes: one
/// metadata allgather (the same D/cp exchange the SA-1D inspector performs)
/// plus local scans, then global reductions — every field is a global
/// aggregate, so all ranks derive the identical Auto decision. Collective;
/// CPU time is accounted as Phase::Plan. `meta_out` (optional) receives the
/// gathered AMeta so an Auto → SA-1D dispatch can hand it straight to the
/// SpgemmPlan1D inspector instead of re-allgathering the same metadata.
template <typename VT>
AlgoCostInputs gather_algo_cost_inputs(Comm& comm, const DistMatrix1D<VT>& a,
                                       const DistMatrix1D<VT>& b,
                                       const Spgemm1dOptions& opt = {},
                                       detail1d::AMeta<VT>* meta_out = nullptr) {
  AlgoCostInputs in;
  in.P = comm.size();
  in.threads = opt.threads;
  in.m = a.nrows();
  in.k = a.ncols();
  in.n = b.ncols();
  in.value_bytes = sizeof(VT);
  in.index_bytes = sizeof(index_t);

  auto meta = detail1d::gather_a_metadata(comm, a);

  std::uint64_t local_flops = 0, fetch_elems = 0, fetch_msgs = 0;
  std::uint64_t needed = 0, remote_nzc = 0;
  {
    auto ph = comm.phase(Phase::Plan);
    BitVector h = detail1d::nonzero_rows(b.local(), a.ncols());

    // Structural flops of this rank's C columns: Σ nnz(A(:,k)) over the
    // nonzeros B(k, j) of the local B slice, looked up in the replicated
    // metadata.
    const auto& bounds = a.bounds();
    for (auto rk : b.local().ir()) {
      const int owner = find_owner(std::span<const index_t>(bounds), rk);
      const auto& gids = meta.gids[static_cast<std::size_t>(owner)];
      const auto& cp = meta.cp[static_cast<std::size_t>(owner)];
      auto it = std::lower_bound(gids.begin(), gids.end(), rk);
      if (it == gids.end() || *it != rk) continue;
      const auto pos = static_cast<std::size_t>(it - gids.begin());
      local_flops += static_cast<std::uint64_t>(cp[pos + 1] - cp[pos]);
    }

    // The SA-1D fetch plan this rank would execute (the inspector's own
    // planner over the H∩D masks) — volume and message counts without
    // moving any data.
    for (int r = 0; r < comm.size(); ++r) {
      if (r == comm.rank()) continue;
      const auto f = detail1d::plan_owner_fetch(comm, meta, h, r, opt);
      remote_nzc += f.needed.size();
      needed += static_cast<std::uint64_t>(std::count(f.needed.begin(), f.needed.end(), true));
      fetch_msgs += f.ranges.size();
      fetch_elems += static_cast<std::uint64_t>(
          plan_elements(f.ranges, std::span<const index_t>(meta.cp[static_cast<std::size_t>(r)])));
    }
  }

  in.nnz_a = static_cast<std::uint64_t>(comm.allreduce_sum(a.local_nnz()));
  in.nnz_b = static_cast<std::uint64_t>(comm.allreduce_sum(b.local_nnz()));
  in.nzc_a = static_cast<std::uint64_t>(comm.allreduce_sum(a.local().nzc()));
  in.flops = comm.allreduce_sum(local_flops);
  in.max_rank_flops = comm.allreduce_max(local_flops);
  in.max_rank_nnz_a = static_cast<std::uint64_t>(comm.allreduce_max(a.local_nnz()));
  in.max_rank_nnz_b = static_cast<std::uint64_t>(comm.allreduce_max(b.local_nnz()));
  in.max_rank_fetch_elems = comm.allreduce_max(fetch_elems);
  in.sa1d_fetch_elems = comm.allreduce_sum(fetch_elems);
  in.sa1d_fetch_msgs = comm.allreduce_sum(fetch_msgs);
  const std::uint64_t needed_total = comm.allreduce_sum(needed);
  const std::uint64_t remote_total = comm.allreduce_sum(remote_nzc);
  in.needed_fraction = remote_total == 0
                           ? 0.0
                           : static_cast<double>(needed_total) / static_cast<double>(remote_total);
  if (meta_out != nullptr) *meta_out = std::move(meta);
  return in;
}

/// Ranks the concrete backends on `in` and returns the cheapest feasible
/// one. Split-3D is scored at its best valid layer count (or `layers_opt`
/// when the caller pinned one); the count used lands in `layers_out`.
/// `replay` prices cached-plan replays (CostModel::predict_replay — zero
/// plan term, value-only volume) instead of one-shot multiplies.
/// `horizon_iters` > 1 prices the declared iteration horizon instead: one
/// build plus (horizon−1) replays per backend, so an iterated caller's
/// build is chosen by total horizon cost (acting on the replay_choice
/// disagreement the pure one-shot pricing only recorded).
/// Deterministic in the inputs — no communication.
inline Algo choose_algo(const CostModel& cm, AlgoCostInputs in, int layers_opt, int* layers_out,
                        std::vector<AlgoPrediction>* predictions, bool replay = false,
                        int horizon_iters = 1) {
  auto price = [&cm, replay, horizon_iters](const AlgoCostInputs& i, Algo a) {
    AlgoPrediction pr = replay ? cm.predict_replay(i, a) : cm.predict(i, a);
    if (!replay && horizon_iters > 1 && pr.feasible) {
      const AlgoPrediction rp = cm.predict_replay(i, a);
      const double h = static_cast<double>(horizon_iters - 1);
      pr.comm_s += h * rp.comm_s;
      pr.comp_s += h * rp.comp_s;
      pr.other_s += h * rp.other_s;
      pr.comp_coeff += h * rp.comp_coeff;
      pr.other_coeff += h * rp.other_coeff;
    }
    pr.layers = i.layers;
    return pr;
  };
  std::vector<AlgoPrediction> preds;

  in.layers = 1;
  preds.push_back(price(in, Algo::SparseAware1D));
  preds.push_back(price(in, Algo::Summa2D));

  // Split-3D: try every non-trivial layering (c = 1 is SUMMA) and keep the
  // best; an explicit layer request pins the candidate.
  AlgoPrediction best3d;
  best3d.algo = Algo::Split3D;
  best3d.ordering = in.ordering;
  best3d.note = layers_opt > 0 ? "the requested layer count does not divide P"
                               : "P is prime: the only layerings are the trivial c=1 and c=P";
  int best_layers = 1;
  for (int c : valid_layer_counts(in.P)) {
    if (layers_opt > 0) {
      if (c != layers_opt) continue;  // pinned: score exactly the request
    } else if (c == 1 || c == in.P) {
      continue;  // c=1 is SUMMA; c=P collapses layers to single ranks
    }
    in.layers = c;
    auto pr = price(in, Algo::Split3D);
    if (pr.feasible && (!best3d.feasible || pr.total_s() < best3d.total_s())) {
      best3d = pr;
      best_layers = c;
    } else if (!pr.feasible && !best3d.feasible) {
      // Surface the real obstacle: a layer count that divides P can still
      // fail on a pinned grid shape that does not factor P/layers.
      best3d.note = pr.note;
    }
  }
  best3d.layers = best_layers;
  preds.push_back(best3d);

  Algo chosen = Algo::SparseAware1D;
  double best = -1.0;
  for (const auto& pr : preds) {
    if (!pr.feasible) continue;
    if (best < 0.0 || pr.total_s() < best) {
      best = pr.total_s();
      chosen = pr.algo;
    }
  }
  if (layers_out != nullptr) *layers_out = chosen == Algo::Split3D ? best_layers : 1;
  if (predictions != nullptr) *predictions = std::move(preds);
  return chosen;
}

/// Joint (backend × ordering) decision (DESIGN.md §12): prices every
/// concrete backend under each candidate ordering — all three under the
/// Auto policy, else exactly the forced one — by running choose_algo once
/// per ordering, then argmins over the union. `partitioned_ok` gates the
/// Partitioned candidate on a valid ReorderPlan; `pinned` restricts the
/// backend argmin to one algorithm (Algo::Auto = free choice), so an
/// explicit-backend caller can still let the model pick its ordering.
/// Deterministic in the inputs — no communication.
inline std::pair<Algo, Ordering> choose_algo_ordered(
    const CostModel& cm, AlgoCostInputs in, Ordering policy, bool partitioned_ok, Algo pinned,
    int layers_opt, int* layers_out, std::vector<AlgoPrediction>* predictions,
    int horizon_iters = 1) {
  std::vector<Ordering> cands;
  if (policy == Ordering::Auto) {
    cands.push_back(Ordering::Identity);
    if (partitioned_ok) cands.push_back(Ordering::Partitioned);
    cands.push_back(Ordering::Random);
  } else {
    cands.push_back(policy == Ordering::Partitioned && !partitioned_ok ? Ordering::Identity
                                                                       : policy);
  }
  std::vector<AlgoPrediction> all;
  for (Ordering o : cands) {
    in.ordering = o;
    std::vector<AlgoPrediction> preds;
    int lyr = 1;
    choose_algo(cm, in, layers_opt, &lyr, &preds, /*replay=*/false, horizon_iters);
    all.insert(all.end(), preds.begin(), preds.end());
  }
  Algo best_algo = pinned != Algo::Auto ? pinned : Algo::SparseAware1D;
  Ordering best_ord = cands.front();
  int best_layers = 1;
  double best = -1.0;
  for (const auto& pr : all) {
    if (!pr.feasible) continue;
    if (pinned != Algo::Auto && pr.algo != pinned) continue;
    if (best < 0.0 || pr.total_s() < best) {
      best = pr.total_s();
      best_algo = pr.algo;
      best_ord = pr.ordering;
      best_layers = pr.layers;
    }
  }
  // Nothing feasible (e.g. a pinned backend the grid rejects): run plain —
  // the dispatch's own validation raises the real diagnostic.
  if (best < 0.0 && policy == Ordering::Auto) best_ord = Ordering::Identity;
  if (layers_out != nullptr) *layers_out = best_algo == Algo::Split3D ? best_layers : 1;
  if (predictions != nullptr) *predictions = std::move(all);
  return {best_algo, best_ord};
}

/// Whether a non-identity ordering can run on this operand pair: symmetric
/// permutation needs square operands living on identical bounds, and the
/// partitioner needs at least one column per rank. Rank-uniform (bounds are
/// replicated), so every rank takes the same degrade branch.
template <typename VT>
bool reorder_eligible(const DistMatrix1D<VT>& a, const DistMatrix1D<VT>& b, int P) {
  return a.nrows() == a.ncols() && b.nrows() == b.ncols() && a.ncols() == b.ncols() &&
         a.bounds() == b.bounds() && a.ncols() >= static_cast<index_t>(P);
}

namespace distdetail {

/// Layer count for an explicit Split3D request with layers = 0: the
/// smallest *non-degenerate* layering (1 < c < P — the smallest prime
/// factor of P), falling back to 1 (= SUMMA on one layer) when P is prime
/// or 1 and no middle option exists.
inline int default_split3d_layers(int P) {
  for (int c : valid_layer_counts(P))
    if (c > 1 && c < P) return c;
  return 1;
}

/// Local validation of one dispatch to `algo` against the options: returns
/// the empty string when valid, else the exact message the backend's entry
/// require would raise (same require_grid_shape / require_split3d_layers
/// text, so callers see identical diagnostics whichever rank detects it).
/// `inj` non-null adds the fault injector's backend vetoes. Pure.
template <typename VT>
std::string local_validation_error(int P, Algo algo, const DistMatrix1D<VT>& a,
                                   const DistMatrix1D<VT>& b, const DistSpgemmOptions& opt,
                                   const FaultInjector* inj) {
  try {
    require(a.ncols() == b.nrows(), "spgemm_dist: inner dimension mismatch");
    require(opt.max_recovery_retries >= 0,
            "spgemm_dist: max_recovery_retries must be non-negative");
    if (inj != nullptr && algo != Algo::Auto)
      require(!inj->vetoes(static_cast<int>(algo)),
              std::string("spgemm_dist: backend ") + algo_name(algo) +
                  " vetoed by fault injection");
    if (algo == Algo::Summa2D)
      require_grid_shape(P, opt.grid_rows, opt.grid_cols, "spgemm_dist(Algo::Summa2D)");
    if (algo == Algo::Split3D) {
      const int layers = opt.layers > 0 ? opt.layers : default_split3d_layers(P);
      require_split3d_layers(P, layers, "spgemm_dist(Algo::Split3D)");
      require_grid_shape(P / layers, opt.grid_rows, opt.grid_cols, "spgemm_split_3d_dist");
    }
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return {};
}

/// Digest of every option the dispatch branches on: the key validate_collective
/// and spgemm_dist_batched vote on through the uncounted control exchange, so
/// ranks that disagree on any of them fail validation before a data
/// collective.
inline std::string options_digest(const DistSpgemmOptions& opt) {
  return std::to_string(static_cast<int>(opt.algo)) + "," + std::to_string(opt.layers) + "," +
         std::to_string(opt.grid_rows) + "," + std::to_string(opt.grid_cols) + "," +
         std::to_string(opt.expected_iterations) + "," + std::to_string(opt.expected_batch) +
         "," + std::to_string(opt.max_recovery_retries) + "," +
         (opt.sa1d.block_fetch_k ? std::to_string(*opt.sa1d.block_fetch_k) : "ab") + "," +
         std::to_string(static_cast<int>(opt.sa1d.kernel)) + "," +
         std::to_string(opt.sa1d.threads) + "," +
         std::to_string(static_cast<int>(opt.sa1d.sparsity_aware)) + "," +
         std::to_string(static_cast<int>(opt.reorder)) + "," + std::to_string(opt.reorder_seed) +
         "," + std::to_string(opt.max_peak_triples) + "," + std::to_string(opt.panels);
}

/// One operand pair of a multiply: (A, B).
template <typename VT>
using OperandPair = std::pair<const DistMatrix1D<VT>*, const DistMatrix1D<VT>*>;

/// Rank-consistent input validation (collective): every rank publishes its
/// first local verdict over `items` plus a digest of everything the
/// dispatch branches on (the options and every item's shape) through the
/// *uncounted* control exchange (Comm::exchange_control — no byte/message
/// counter changes), and the lowest-rank failure is thrown as the
/// byte-identical ValidationError on every rank. Divergent options or
/// operand shapes across ranks — which would send ranks down different
/// collective sequences — are themselves a validation error. Guarantees no
/// rank proceeds into a data collective alone. `batch` names the caller
/// spgemm_dist_batched and prefixes a verdict with its item index; a
/// single call passes one pair.
template <typename VT>
void validate_collective(Comm& comm, std::span<const OperandPair<VT>> items,
                         const DistSpgemmOptions& opt, bool batch = false) {
  const std::string who = batch ? "spgemm_dist_batched" : "spgemm_dist";
  std::string digest;
  std::string verdict;
  {
    auto ph = comm.phase(Phase::Other);
    digest = options_digest(opt);
    for (std::size_t i = 0; i < items.size(); ++i) {
      const auto& [a, b] = items[i];
      digest += "|" + std::to_string(a->nrows()) + "x" + std::to_string(a->ncols()) + "," +
                std::to_string(b->nrows()) + "x" + std::to_string(b->ncols());
      const std::string e =
          local_validation_error(comm.size(), opt.algo, *a, *b, opt, comm.injector());
      if (!e.empty() && verdict.empty())
        verdict = batch ? "batch item " + std::to_string(i) + ": " + e : e;
    }
  }
  auto all = comm.exchange_control(digest + "\n" + verdict);
  // Every rank holds the identical `all`, so every throw below constructs
  // the byte-identical error on every rank — the rank-consistency contract.
  const std::string d0 = all[0].substr(0, all[0].find('\n'));
  for (int p = 0; p < comm.size(); ++p) {
    const auto& s = all[static_cast<std::size_t>(p)];
    const std::string d = s.substr(0, s.find('\n'));
    if (d != d0)
      throw ValidationError(
          ErrorContext{comm.global_rank(p), comm.report().comm_ops, "validate"},
          who + ": options/operands disagree across ranks (rank " +
              std::to_string(comm.global_rank(p)) + " has [" + d + "], rank " +
              std::to_string(comm.global_rank(0)) + " has [" + d0 +
              "]); every rank must pass identical options and globally consistent operands");
  }
  for (int p = 0; p < comm.size(); ++p) {
    const auto& s = all[static_cast<std::size_t>(p)];
    const std::string v = s.substr(s.find('\n') + 1);
    if (!v.empty())
      throw ValidationError(
          ErrorContext{comm.global_rank(p), comm.report().comm_ops, "validate"}, v);
  }
}

template <typename VT>
void validate_collective(Comm& comm, const DistMatrix1D<VT>& a, const DistMatrix1D<VT>& b,
                         const DistSpgemmOptions& opt) {
  const OperandPair<VT> one{&a, &b};
  validate_collective(comm, std::span<const OperandPair<VT>>(&one, 1), opt);
}

/// Auto's degrade order: the feasible predictions ranked by modeled total
/// cost — the dispatch loop walks this, skipping candidates a backend's
/// validation (or an injected veto) rejects.
inline std::vector<AlgoPrediction> ranked_candidates(std::vector<AlgoPrediction> preds) {
  std::erase_if(preds, [](const AlgoPrediction& p) { return !p.feasible; });
  std::stable_sort(preds.begin(), preds.end(), [](const AlgoPrediction& x,
                                                  const AlgoPrediction& y) {
    return x.total_s() < y.total_s();
  });
  return preds;
}

}  // namespace distdetail

/// The unified distributed SpGEMM: C = A ⊕.⊗ B with A, B, C all 1D
/// column-distributed; C inherits B's column distribution whichever backend
/// runs. Collective. `stats` (optional) receives the dispatch decision, the
/// Auto inputs and per-backend predictions, and the per-call counters.
/// Defined in dist/dist_plan.hpp: it is DistSpgemmPlan's dispatch run
/// without capture, so a one-shot call keeps no replay program. Iterated
/// callers hold a DistSpgemmPlan and call spgemm_dist_cached instead.
template <typename SRIn = void, typename VT>
DistMatrix1D<VT> spgemm_dist(Comm& comm, const DistMatrix1D<VT>& a, const DistMatrix1D<VT>& b,
                             const DistSpgemmOptions& opt = {}, DistSpgemmStats* stats = nullptr);

}  // namespace sa1d

// The backend-generic inspector–executor layer (DistSpgemmPlan +
// spgemm_dist_cached) builds on the declarations above; including it here
// makes the cached entry point part of the spgemm_dist front-end.
#include "dist/dist_plan.hpp"  // IWYU pragma: export
