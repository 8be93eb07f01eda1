// α–β network cost model: converts the runtime's exact byte/message counts
// into modeled communication time. Defaults approximate one Slingshot-11
// NIC per node as on NERSC Perlmutter (the paper's testbed).
#pragma once

#include <cstdint>
#include <vector>

#include "runtime/stats.hpp"
#include "util/common.hpp"

namespace sa1d {

struct CostParams {
  double alpha_inter = 2.0e-6;      ///< per-message latency across nodes (s)
  double beta_inter = 1.0 / 24e9;   ///< inverse bandwidth across nodes (s/byte)
  double alpha_intra = 4.0e-7;      ///< per-message latency within a node (s)
  double beta_intra = 1.0 / 100e9;  ///< inverse bandwidth within a node (s/byte)
  int ranks_per_node = 16;          ///< rank→node mapping for intra/inter split

  // Compute-rate constants for CostModel::predict. The defaults approximate
  // the recorded microbench numbers (EXPERIMENTS.md); calibrate_cost_params()
  // in dist/dist_spgemm.hpp measures them on the current host so Auto's
  // predictions live in the same unit system as the measured phase times.
  double flop_s = 6.0e-9;    ///< seconds per local SpGEMM flop (numeric pass)
  double triple_s = 3.0e-8;  ///< seconds per COO triple packed/routed/merged

  // Fitted correction terms (scripts/fit_cost_params.py; defaults are the
  // identity so unfitted runs predict exactly as before).
  /// Fraction of a backend's modeled comm time hidden behind compute by
  /// the nonblocking exchanges. Fit from the measured overlap-efficiency
  /// series in BENCH_dist_backends.json.
  double overlap_discount = 0.0;
  /// Multiplier mapping the analytic even-split imbalance of the grid
  /// backends onto the *measured* per-backend max/mean imbalance the
  /// benches record — the previously unfit unpermuted-2D imbalance term.
  double imb_scale = 1.0;
};

/// Overwrites the fields of `p` that appear as "key": number pairs in the
/// JSON file at `path` (the cost_params.json scripts/fit_cost_params.py
/// writes). Returns false when the file cannot be read; unknown keys are
/// ignored, missing keys keep their current values.
bool load_cost_params(const char* path, CostParams& p);

/// The online-refit hook: returns `base` with any overrides from the file
/// named by the SA1D_COST_PARAMS environment variable applied. Machine
/// applies this at construction, closing the bench_local.sh --refit loop —
/// fitted rates flow into every subsequent run without hand-editing.
CostParams cost_params_from_env(CostParams base);

/// The distributed SpGEMM backends spgemm_dist dispatches over. Auto asks
/// CostModel::predict to rank the concrete four and runs the winner.
enum class Algo { Auto, SparseAware1D, Ring1D, Summa2D, Split3D };

inline const char* algo_name(Algo a) {
  switch (a) {
    case Algo::Auto: return "auto";
    case Algo::SparseAware1D: return "sa1d";
    case Algo::Ring1D: return "ring1d";
    case Algo::Summa2D: return "summa2d";
    case Algo::Split3D: return "split3d";
  }
  return "?";
}

/// Column/row orderings the dispatch can run a multiply under — the reorder
/// plan stage of DESIGN.md §12. Auto is a *policy* value
/// (DistSpgemmOptions::reorder): price every backend under all three and
/// pick jointly; a chosen/predicted ordering is never Auto.
enum class Ordering { Identity, Partitioned, Random, Auto };

inline const char* ordering_name(Ordering o) {
  switch (o) {
    case Ordering::Identity: return "identity";
    case Ordering::Partitioned: return "partitioned";
    case Ordering::Random: return "random";
    case Ordering::Auto: return "auto";
  }
  return "?";
}

/// Cheap structural statistics of one distributed multiply C = A·B, gathered
/// from replicated metadata before any algorithm runs (gather_algo_cost_inputs
/// in dist/dist_spgemm.hpp). Everything here is a global aggregate, so every
/// rank derives the identical Auto decision from its own copy.
struct AlgoCostInputs {
  int P = 1;            ///< communicator size
  int threads = 1;      ///< simulated threads per rank
  int layers = 1;       ///< Split3D layer count the prediction assumes
  int grid_rows = 0;    ///< pinned process-grid rows (0 = nearest-square auto)
  int grid_cols = 0;    ///< pinned process-grid columns (0 = auto)
  index_t m = 0;        ///< rows of A / C
  index_t k = 0;        ///< inner dimension
  index_t n = 0;        ///< columns of B / C
  std::uint64_t nnz_a = 0;
  std::uint64_t nnz_b = 0;
  std::uint64_t nzc_a = 0;              ///< nonzero columns of A (metadata volume)
  std::uint64_t flops = 0;              ///< structural multiply count, global
  std::uint64_t max_rank_flops = 0;     ///< max per-rank flops under B's 1D layout
  std::uint64_t max_rank_nnz_a = 0;     ///< max per-rank nnz(A) under its 1D layout
  std::uint64_t max_rank_nnz_b = 0;     ///< max per-rank nnz(B) under its 1D layout
  std::uint64_t sa1d_fetch_elems = 0;   ///< planned remote fetch volume (elements)
  std::uint64_t sa1d_fetch_msgs = 0;    ///< planned RDMA block fetches
  std::uint64_t max_rank_fetch_elems = 0;  ///< max per-rank planned fetch volume
  double needed_fraction = 1.0;         ///< avg |H∩D| / nzc over remote pairs
  /// Peak-triples budget the prediction must respect
  /// (DistSpgemmOptions::max_peak_triples; 0 = unbounded). predict() marks a
  /// backend infeasible when its modeled per-rank peak exceeds this at every
  /// panel count, else prices the smallest feasible panelization.
  std::uint64_t max_peak_triples = 0;
  /// Column-panel count to price: 0 = resolve (smallest feasible under the
  /// budget, 1 when unbudgeted); >= 1 prices exactly that panelization.
  int panels = 0;
  std::size_t value_bytes = sizeof(double);
  std::size_t index_bytes = sizeof(index_t);
  /// Multiplies expected to share each replay's collective rounds
  /// (DistSpgemmOptions::expected_batch): the batched executor
  /// (dist/batch_spgemm.hpp) concatenates k members' payloads into one
  /// message per phase, so predict_replay divides the per-message latency
  /// (alpha) terms by `batch` while the volume (beta) terms are unchanged.
  int batch = 1;

  // Ordering features (the reorder plan stage, part/reorder.hpp;
  // DESIGN.md §12). `ordering` names the ordering this prediction prices:
  // Identity leaves every term as measured; Partitioned substitutes the
  // measured part-weight imbalance for the analytic even-split term and
  // discounts fetch/broadcast volume by the cut fraction; Random levels the
  // flop skew but pays worst-case fetch volume. Non-identity orderings add
  // a one-shot reorder cost (partition time + permute alltoallv volume)
  // that predict_replay zeroes, so horizon pricing amortizes it over
  // expected_iterations.
  Ordering ordering = Ordering::Identity;
  double reorder_cut_fraction = 1.0;     ///< cut edge weight / total edge weight
  double reorder_part_imbalance = 1.0;   ///< measured max/mean part weight
  double reorder_seconds = 0.0;          ///< measured partitioner CPU (rank-uniform max)
  std::uint64_t reorder_move_elems = 0;  ///< operand triples the forward permutes move
};

/// Modeled per-rank seconds for one backend on one AlgoCostInputs.
/// The compute terms are linear in the CostParams rates —
/// comp_s = flop_s·comp_coeff and other_s = triple_s·other_coeff — and the
/// coefficients are exposed so accumulated prediction-vs-measured records
/// (BENCH_dist_backends.json) can refit the rates offline
/// (scripts/fit_cost_params.py) instead of one-shot calibration.
struct AlgoPrediction {
  Algo algo = Algo::Auto;
  bool feasible = false;
  const char* note = "";  ///< why infeasible / which layer count was assumed
  int layers = 1;         ///< layer count this prediction assumed (Split3D only ≠ 1)
  /// Ordering this row prices (AlgoCostInputs::ordering at predict time).
  Ordering ordering = Ordering::Identity;
  double comm_s = 0.0;
  double comp_s = 0.0;
  double other_s = 0.0;
  /// One-shot ordering cost (partition + permute movement + first inverse
  /// scatter). Paid by the build only — predict_replay zeroes it, so the
  /// horizon pricing in choose_algo amortizes it over the iteration budget.
  double reorder_s = 0.0;
  double comp_coeff = 0.0;   ///< effective flops: comp_s / CostParams.flop_s
  double other_coeff = 0.0;  ///< effective triples: other_s / CostParams.triple_s
  /// Column-panel count this row prices (1 = monolithic). When the inputs
  /// carry a peak-triples budget and panels = 0, predict() resolves this to
  /// the smallest feasible panelization — the (backend × panelization) cell
  /// Auto ranks jointly.
  int panels = 1;
  /// Modeled per-rank peak transient triples at `panels` (upper bound on
  /// the measured RankReport::peak_triples gauge; 0 = not modeled).
  std::uint64_t peak_triples = 0;
  [[nodiscard]] double total_s() const { return comm_s + comp_s + other_s + reorder_s; }
};

/// Modeled per-rank and aggregate times derived from a RankReport. `plan`
/// is the inspector side of the plan/execute split (metadata, masks,
/// symbolic analysis) — a one-time cost that amortizes across reused
/// executions; `other` is per-execute serial bookkeeping.
struct ModeledTime {
  double comp = 0.0;
  double comm = 0.0;
  double plan = 0.0;
  double other = 0.0;
  [[nodiscard]] double total() const { return comp + comm + plan + other; }
};

class CostModel {
 public:
  explicit CostModel(CostParams p = {}) : p_(p) {}

  [[nodiscard]] const CostParams& params() const { return p_; }

  [[nodiscard]] int node_of(int rank) const { return rank / p_.ranks_per_node; }

  /// Modeled network seconds for the RDMA (window get) traffic only —
  /// the paper's "communication time" component in Fig 4/6/8.
  [[nodiscard]] double rdma_seconds(const RankReport& r) const {
    std::uint64_t intra_msgs = r.rdma_msgs - r.rdma_msgs_inter;
    std::uint64_t intra_bytes = r.rdma_bytes - r.rdma_bytes_inter;
    return p_.alpha_inter * static_cast<double>(r.rdma_msgs_inter) +
           p_.beta_inter * static_cast<double>(r.rdma_bytes_inter) +
           p_.alpha_intra * static_cast<double>(intra_msgs) +
           p_.beta_intra * static_cast<double>(intra_bytes);
  }

  /// Modeled network seconds for one rank's recorded traffic.
  [[nodiscard]] double comm_seconds(const RankReport& r) const {
    return p_.alpha_inter * static_cast<double>(r.msgs_inter) +
           p_.beta_inter * static_cast<double>(r.bytes_inter) +
           p_.alpha_intra * static_cast<double>(r.msgs_intra) +
           p_.beta_intra * static_cast<double>(r.bytes_intra);
  }

  /// Modeled per-rank time. `threads_per_rank` applies the measured-Amdahl
  /// rule from DESIGN.md §5: the Comp phase is parallelizable across
  /// intra-rank threads; Plan and Other are serial; comm is network-bound.
  [[nodiscard]] ModeledTime rank_time(const RankReport& r, int threads_per_rank = 1) const {
    ModeledTime t;
    t.comp = r.comp_s / static_cast<double>(threads_per_rank < 1 ? 1 : threads_per_rank);
    t.plan = r.plan_s;
    t.other = r.other_s;
    t.comm = comm_seconds(r);
    return t;
  }

  /// Bulk-synchronous estimate for the whole run: the slowest rank decides.
  [[nodiscard]] ModeledTime run_time(const std::vector<RankReport>& ranks,
                                     int threads_per_rank = 1) const;

  /// Effective α/β for a random peer pair at communicator size P: a blend of
  /// the intra- and inter-node parameters by the expected cross-node
  /// fraction under the block rank→node mapping.
  [[nodiscard]] double alpha_eff(int P) const;
  [[nodiscard]] double beta_eff(int P) const;

  /// Predicts the per-rank cost of running `algo` on the given structural
  /// inputs (DESIGN.md §7 documents the formulas). `feasible` is false when
  /// the process count cannot form the backend's grid (only possible with a
  /// pinned grid_rows/grid_cols or layer count — every P ≥ 1 factors into
  /// some q_r × q_c grid); Split3D uses `in.layers`. Deterministic in the
  /// inputs, so every rank reaches the same Auto decision without extra
  /// communication.
  [[nodiscard]] AlgoPrediction predict(const AlgoCostInputs& in, Algo algo) const;

  /// Predicts the per-rank cost of *replaying* a cached DistSpgemmPlan of
  /// `algo` on the same structure: zero plan-side work, value-only traffic
  /// (sizeof(VT) per element instead of full triples, one RDMA get per
  /// planned block instead of two, no metadata collectives), numeric-only
  /// local passes. Plan-aware Auto reprices iterated decisions with this
  /// (DESIGN.md §8); deterministic in the inputs like predict().
  [[nodiscard]] AlgoPrediction predict_replay(const AlgoCostInputs& in, Algo algo) const;

  /// Modeled per-rank peak transient triples of one budgeted execution of
  /// `algo` at column-panel count `panels` — the upper bound predict() uses
  /// for budget feasibility (DESIGN.md §13). Exposed so benches can record
  /// the predicted-vs-measured peak series next to the time series.
  [[nodiscard]] std::uint64_t predicted_peak_triples(const AlgoCostInputs& in, Algo algo,
                                                     int panels) const;

  /// The *analytic* (unscaled) even-split max/mean load factor predict()
  /// assumes for `algo` on these inputs: the product of the row- and
  /// column-block imbalances of the process grid for the grid backends,
  /// 1 for the 1D ones. The benches record this next to the measured
  /// imbalance so fit_cost_params.py can fit CostParams::imb_scale.
  [[nodiscard]] double predicted_imbalance(const AlgoCostInputs& in, Algo algo) const;

 private:
  CostParams p_;
};

/// A q_r × q_c process grid (q_r·q_c = P) plus the SUMMA stage count over
/// it: the inner dimension is split into lcm(q_r, q_c) fine blocks so each
/// rank's A piece (stages/cols fine blocks) and B piece (stages/rows fine
/// blocks) stay contiguous — on a square grid this degenerates to the
/// classic q stages of whole-block broadcasts.
struct GridShape {
  int rows = 1;
  int cols = 1;
  int stages = 1;
  friend bool operator==(const GridShape&, const GridShape&) = default;
};

/// Grid-shape helpers shared by the 2D/3D backends, their validation
/// errors, and the cost model's pricing.
/// The q_r × q_c factorization of P: the divisor pair nearest square
/// (rows ≤ cols) unless the caller pins one or both sides. A pinned shape
/// that does not factor P is returned as-is with rows·cols ≠ P — callers
/// validate via require_grid_shape (dist/redistribute.hpp) or treat the
/// prediction as infeasible. Every P ≥ 1 has a valid auto shape (primes get
/// 1 × P).
[[nodiscard]] GridShape summa_grid_shape(int P, int grid_rows = 0, int grid_cols = 0);
/// Layer counts c with P = c·(q_r·q_c): every divisor of P, ascending,
/// since any quotient factors into a rectangular grid.
[[nodiscard]] std::vector<int> valid_layer_counts(int P);
/// True iff P admits a non-degenerate Split-3D layering: some c with
/// 1 < c < P (c = 1 is plain SUMMA, c = P collapses every layer to one
/// rank). Auto and the backend-comparison benches dispatch on this;
/// explicit Algo::Split3D requests may still pin a degenerate count.
[[nodiscard]] bool split3d_has_nontrivial_layers(int P);

}  // namespace sa1d
