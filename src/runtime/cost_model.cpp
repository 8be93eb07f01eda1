#include "runtime/cost_model.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <numeric>
#include <sstream>
#include <string>

namespace sa1d {

bool load_cost_params(const char* path, CostParams& p) {
  std::ifstream f(path);
  if (!f) return false;
  std::stringstream ss;
  ss << f.rdbuf();
  const std::string text = ss.str();
  auto read_key = [&text](const char* key, double& out) {
    const std::string quoted = std::string("\"") + key + "\"";
    std::size_t pos = text.find(quoted);
    if (pos == std::string::npos) return;
    pos = text.find(':', pos + quoted.size());
    if (pos == std::string::npos) return;
    // A truncated or malformed value (e.g. a file cut off mid-write, even
    // inside a number like "1.234e") must not clobber a sane default:
    // require a positive finite number that terminates at a JSON delimiter.
    const char* start = text.c_str() + pos + 1;
    char* end = nullptr;
    const double v = std::strtod(start, &end);
    if (end == start || !std::isfinite(v) || v <= 0.0) return;
    while (*end == ' ' || *end == '\t' || *end == '\n' || *end == '\r') ++end;
    if (*end != ',' && *end != '}') return;
    out = v;
  };
  read_key("flop_s", p.flop_s);
  read_key("triple_s", p.triple_s);
  read_key("alpha_inter", p.alpha_inter);
  read_key("beta_inter", p.beta_inter);
  read_key("alpha_intra", p.alpha_intra);
  read_key("beta_intra", p.beta_intra);
  read_key("overlap_discount", p.overlap_discount);
  read_key("imb_scale", p.imb_scale);
  // A discount of 1 would predict free communication for every overlapped
  // backend; cap well below that so a degenerate fit cannot blind Auto.
  p.overlap_discount = std::clamp(p.overlap_discount, 0.0, 0.95);
  p.imb_scale = std::clamp(p.imb_scale, 0.25, 8.0);
  double rpn = static_cast<double>(p.ranks_per_node);
  read_key("ranks_per_node", rpn);
  p.ranks_per_node = std::max(1, static_cast<int>(std::lround(rpn)));
  return true;
}

CostParams cost_params_from_env(CostParams base) {
  const char* path = std::getenv("SA1D_COST_PARAMS");
  if (path != nullptr && path[0] != '\0' && !load_cost_params(path, base))
    std::fprintf(stderr,
                 "sa1d: SA1D_COST_PARAMS=%s is set but unreadable; "
                 "using the default cost rates\n",
                 path);
  return base;
}

ModeledTime CostModel::run_time(const std::vector<RankReport>& ranks,
                                int threads_per_rank) const {
  // The run is bulk-synchronous: each phase completes everywhere before the
  // next starts, so the elapsed estimate is the max over ranks per phase.
  ModeledTime out;
  for (const auto& r : ranks) {
    ModeledTime t = rank_time(r, threads_per_rank);
    out.comp = std::max(out.comp, t.comp);
    out.comm = std::max(out.comm, t.comm);
    out.plan = std::max(out.plan, t.plan);
    out.other = std::max(out.other, t.other);
  }
  return out;
}

GridShape summa_grid_shape(int P, int grid_rows, int grid_cols) {
  GridShape g;
  if (P < 1) return g;
  if (grid_rows != 0 || grid_cols != 0) {
    // A pinned side derives the other from P when it divides; a fully
    // pinned shape is taken verbatim (validation is the caller's job, so
    // the error message can name who pinned it). A nonsensical pin —
    // negative, or one that does not factor P — yields an invalid shape
    // (stages = 0 below), never a silent fallback to the auto grid.
    g.rows = grid_rows != 0 ? grid_rows
                            : (grid_cols > 0 && P % grid_cols == 0 ? P / grid_cols : 0);
    g.cols = grid_cols != 0 ? grid_cols
                            : (grid_rows > 0 && P % grid_rows == 0 ? P / grid_rows : 0);
  } else {
    // Nearest-square factorization, rows ≤ cols: the largest divisor of P
    // not exceeding √P. Primes land on 1 × P.
    int r = 1;
    for (int d = 1; static_cast<long long>(d) * d <= P; ++d)
      if (P % d == 0) r = d;
    g.rows = r;
    g.cols = P / r;
  }
  g.stages = g.rows >= 1 && g.cols >= 1 ? std::lcm(g.rows, g.cols) : 0;
  return g;
}

std::vector<int> valid_layer_counts(int P) {
  std::vector<int> out;
  for (int c = 1; c <= P; ++c)
    if (P % c == 0) out.push_back(c);
  return out;
}

bool split3d_has_nontrivial_layers(int P) {
  for (int c : valid_layer_counts(P))
    if (c > 1 && c < P) return true;
  return false;
}

double CostModel::alpha_eff(int P) const {
  if (P <= p_.ranks_per_node) return p_.alpha_intra;
  double f_inter = 1.0 - static_cast<double>(p_.ranks_per_node) / static_cast<double>(P);
  return f_inter * p_.alpha_inter + (1.0 - f_inter) * p_.alpha_intra;
}

double CostModel::beta_eff(int P) const {
  if (P <= p_.ranks_per_node) return p_.beta_intra;
  double f_inter = 1.0 - static_cast<double>(p_.ranks_per_node) / static_cast<double>(P);
  return f_inter * p_.beta_inter + (1.0 - f_inter) * p_.beta_intra;
}

namespace {

/// Max/mean load factor of even_split(n, parts): the largest block over the
/// average block. 1 when the split is exact; bounded by 2 (parts ≤ n) but
/// significant exactly where rectangular grids bite — small dimensions over
/// uneven factor pairs.
double even_split_imbalance(double n, int parts) {
  if (parts <= 1 || n <= 0.0) return 1.0;
  const double mean = n / static_cast<double>(parts);
  return std::ceil(mean) / mean;
}

/// Rewrites the measured inputs into what they would look like under the
/// requested ordering (DESIGN.md §12). Partitioned: the layout balanced
/// per-rank flops to the measured part imbalance and shrank the remote
/// adjacency to the cut fraction. Random: relabeling levels the flop skew
/// but destroys locality — every remote column is needed, so the fetch
/// volume saturates at the replicated-operand worst case. Identity/Auto
/// pass through. Not idempotent (the cut discount multiplies), so it is
/// applied exactly once per prediction, at the entry points.
AlgoCostInputs ordering_adjusted(const AlgoCostInputs& in) {
  AlgoCostInputs t = in;
  const auto P = static_cast<double>(in.P < 1 ? 1 : in.P);
  const auto flops = static_cast<double>(in.flops);
  switch (in.ordering) {
    case Ordering::Identity:
    case Ordering::Auto:
      break;
    case Ordering::Partitioned: {
      const double cut = std::clamp(in.reorder_cut_fraction, 0.0, 1.0);
      const double imb = std::max(1.0, in.reorder_part_imbalance);
      t.max_rank_flops = static_cast<std::uint64_t>(imb * flops / P);
      t.sa1d_fetch_elems =
          static_cast<std::uint64_t>(cut * static_cast<double>(in.sa1d_fetch_elems));
      t.sa1d_fetch_msgs = std::max<std::uint64_t>(
          static_cast<std::uint64_t>(cut * static_cast<double>(in.sa1d_fetch_msgs)),
          static_cast<std::uint64_t>(in.P < 1 ? 1 : in.P));
      break;
    }
    case Ordering::Random: {
      t.max_rank_flops = static_cast<std::uint64_t>(flops / P) + 1;
      const auto worst = static_cast<std::uint64_t>(
          static_cast<double>(in.nnz_a) * (P - 1.0) / P);
      t.sa1d_fetch_elems = std::max(in.sa1d_fetch_elems, worst);
      t.sa1d_fetch_msgs =
          std::max(in.sa1d_fetch_msgs, static_cast<std::uint64_t>(P * (P - 1.0)));
      break;
    }
  }
  return t;
}

/// The per-rank element volumes and latency of the grid backends (SUMMA-2D
/// is the layers = 1 case), shared by both pricing horizons: predict()
/// charges them at triple width, predict_replay() at value width. One
/// derivation site, so the two horizons cannot drift apart.
struct GridTerms {
  bool ok = false;           ///< layers divide P and the (pinned) shape factors P/layers
  double redist_elems = 0.0; ///< in/out redistribution elements per rank
  double bcast_elems = 0.0;  ///< stage-broadcast elements received per rank
  double latency_msgs = 0.0; ///< α multiplier: stage rounds + all-to-alls (+ layer folds)
  double imb = 1.0;          ///< even_split max/mean load factor of the C blocks
};

GridTerms grid_terms(const AlgoCostInputs& in, int layers, double imb_scale = 1.0) {
  GridTerms t;
  if (layers < 1 || in.P % layers != 0) return t;
  const GridShape g = summa_grid_shape(in.P / layers, in.grid_rows, in.grid_cols);
  if (g.rows * g.cols != in.P / layers || g.stages < 1) return t;
  const auto P = static_cast<double>(in.P < 1 ? 1 : in.P);
  const double cd = static_cast<double>(layers);
  const double qr = static_cast<double>(g.rows);
  const double qc = static_cast<double>(g.cols);
  const double s = static_cast<double>(g.stages);
  const auto nnz_a = static_cast<double>(in.nnz_a);
  const auto nnz_b = static_cast<double>(in.nnz_b);
  const auto flops = static_cast<double>(in.flops);
  // Merged-output proxy: each flop yields one pre-merge partial triple; the
  // scatter ships roughly half of them post-merge — per *layer*, since
  // cross-layer duplicates only merge at the 1D scatter, so the out volume
  // grows toward c× the merged nnz, capped by the flop count.
  const double c_out = std::min(flops, cd * flops / 2.0);
  t.redist_elems = (nnz_a + nnz_b + c_out) / P;
  // Over the lcm(q_r, q_c)-stage loop each rank receives its whole A
  // block-row and B block-column of its layer's inner slice.
  t.bcast_elems = nnz_a / (cd * qr) + nnz_b / (cd * qc);
  // Stage broadcast rounds + the three all-to-alls, plus the c cross-layer
  // fold contributions per output chunk that plain SUMMA does not pay.
  t.latency_msgs = 2.0 * s + 3.0 * P + (cd > 1.0 ? cd : 0.0);
  // Per-rank load imbalance of the grid multiply, analytic part: the
  // even_split block-shape skew (largest row × column block pair) times the
  // operands' measured 1D flop skew — sparsity skews per-block work far
  // more than block *shape* does, and max_rank_flops/avg under the 1D
  // layout is the structural proxy for it the inputs already carry. The
  // fitted imb_scale maps the analytic *excess* onto the recorded max/mean
  // series: imb = 1 + scale·(analytic − 1), so predicted_imbalance (which
  // queries at scale 1) returns the fit's unscaled independent variable.
  const double skew1d = (flops > 0.0 && in.max_rank_flops > 0)
                            ? std::max(1.0, static_cast<double>(in.max_rank_flops) * P / flops)
                            : 1.0;
  double analytic = even_split_imbalance(static_cast<double>(in.m), g.rows) *
                    even_split_imbalance(static_cast<double>(in.n), g.cols) * skew1d;
  if (in.ordering == Ordering::Partitioned) {
    // Under a partitioned ordering the analytic even-split product is
    // replaced by the *measured* part-weight imbalance — the partitioner
    // already balanced exactly the quantity the product approximates — and
    // the stage broadcasts shrink with the cut: a clustered ordering makes
    // off-diagonal blocks hypersparse, so volume tracks the cut fraction.
    // The diagonal blocks always ship, hence the 1/max(qr, qc) floor.
    analytic = std::max(1.0, in.reorder_part_imbalance);
    t.bcast_elems *= std::clamp(in.reorder_cut_fraction, 1.0 / std::max(qr, qc), 1.0);
  }
  t.imb = 1.0 + imb_scale * (analytic - 1.0);
  t.ok = true;
  return t;
}

/// Modeled per-rank peak transient triples of one budgeted execution at
/// column-panel count k — the quantity the RankReport peak_triples gauge
/// high-waters (DESIGN.md §13). Deliberately an *upper* bound: the budget
/// check `modeled ≤ max_peak_triples` must imply `measured ≤ budget`, so
/// every term carries headroom over what the gauge actually charges.
/// Returns a saturating huge value for grid shapes that do not factor, so
/// the panel sweep simply finds no feasible k there.
std::uint64_t modeled_peak_triples(const AlgoCostInputs& in, Algo algo, int k) {
  const double kk = static_cast<double>(k < 1 ? 1 : k);
  const auto P = static_cast<double>(in.P < 1 ? 1 : in.P);
  const auto flops = static_cast<double>(in.flops);
  // Panels are GLOBAL column windows of B/C, while the gauge high-waters the
  // worst single rank: with k ≤ P a rank's local columns sit wholly inside
  // one panel, so that panel replays the rank's entire accumulation in one
  // go and its peak does not move. Per-rank terms therefore shrink with
  // keff = k/P (panels subdividing each rank's columns), while global-volume
  // terms — stage-broadcast payloads, inbound B redistribution — genuinely
  // shrink with k. Calibrated against measured hwm_triples on two fixed
  // workloads (ER n=150 deg 5 and the fig16 block-clustered n=300, both
  // P=4): modeled / measured held between 1.01× and 1.9× across
  // backends × k ∈ {1..64}, never under.
  const double keff = std::max(1.0, kk / P);
  // Per-rank max aggregates, with even-share fallbacks (×2 skew headroom)
  // for hand-built inputs that did not gather them.
  const double mrf =
      in.max_rank_flops > 0 ? static_cast<double>(in.max_rank_flops) : flops / P + 1.0;
  const double mna = in.max_rank_nnz_a > 0
                         ? static_cast<double>(in.max_rank_nnz_a)
                         : 2.0 * static_cast<double>(in.nnz_a) / P + 1.0;
  const double mnb = in.max_rank_nnz_b > 0
                         ? static_cast<double>(in.max_rank_nnz_b)
                         : 2.0 * static_cast<double>(in.nnz_b) / P + 1.0;
  const double mfe = in.max_rank_fetch_elems > 0
                         ? static_cast<double>(in.max_rank_fetch_elems)
                         : 2.0 * static_cast<double>(in.sa1d_fetch_elems) / P;
  // Accumulator high water: the streaming merge holds merged prefix + fresh
  // pushes + its out-buffer — ~2× the rank's panel-share of push volume.
  // (2.27 measured on both calibration workloads; 2.3 keeps it an upper
  // bound.)
  const double acc = 2.3 * mrf / keff;
  double peak = 0.0;
  switch (algo) {
    case Algo::Auto:
      return 0;
    case Algo::SparseAware1D:
      // Ã assembly (planned fetch) and the B̃ mirror are live together; the
      // fetched Ã and the B̃ panel both track the panel's column window, so
      // they shrink with the rank's panel subdivision. The stationary A
      // slice is resident whole regardless.
      peak = 1.2 * (mna + (mnb + mfe) / keff);
      break;
    case Algo::Ring1D:
      // The circulating A slice is doubled at each shift (the arriving
      // slice is charged before the outgoing one is released) and
      // re-circulates whole once per panel; only the accumulator shrinks.
      peak = 2.4 * mna + 2.0 * mrf / keff;
      break;
    case Algo::Summa2D:
    case Algo::Split3D: {
      const int layers = algo == Algo::Split3D ? in.layers : 1;
      if (layers < 1 || in.P % layers != 0)
        return std::numeric_limits<std::uint64_t>::max() / 2;
      const GridShape g = summa_grid_shape(in.P / layers, in.grid_rows, in.grid_cols);
      if (g.rows * g.cols != in.P / layers || g.stages < 1)
        return std::numeric_limits<std::uint64_t>::max() / 2;
      const double cd = static_cast<double>(layers);
      const double qc = static_cast<double>(g.cols);
      const double s = static_cast<double>(g.stages);
      const double skew =
          flops > 0.0 ? std::max(1.0, mrf * P / flops) : 1.0;
      // The grid transients live in two phases that do NOT overlap in time —
      // the gauge high-waters whichever is taller, so summing them (the
      // first cut of this model) over-reserved ~3.5× at high panel counts
      // and forced 4× more panels (and 4× the replay latency) than the
      // budget needed.
      //
      // Redistribution phase: inbound 1D→grid staging + block assembly. A
      // ships whole every panel; inbound B is the global panel window (/k);
      // the outbound partial-C scatter is all-or-nothing per receiving rank
      // (/keff). ×2 covers arrival chunks coexisting with the assembled
      // block (and the scatter's merge out-buffer on the way out). All of
      // this is dead before the multiply's accumulator grows.
      const double c_out = std::min(flops, cd * flops / 2.0);
      const double redist =
          2.0 * skew *
          (static_cast<double>(in.nnz_a) / P + static_cast<double>(in.nnz_b) / (P * kk) +
           c_out / (P * keff));
      // Multiply phase: the accumulator plus the B stage payloads live when
      // it peaks (A stage blocks are released before the merge transient).
      // One rank's B block column spans n/(cd·qc) global columns, so a
      // panel narrower than that — kk > cd·qc — is what shrinks the
      // per-stage staging; this granularity is what makes SUMMA-2D (cd=1,
      // qc=2) and split-3D (cd=2, qc=1) measure identically at P=4. The
      // stage-window bound (≤3 stages staged under a budget) caps the resident
      // fraction on big grids; +130 is the small-problem floor (CSR
      // cursors, fold headers) the two calibration workloads expose.
      const double bwin = cd * qc;
      const double stage_live = 3.0 * skew * std::min(1.0, 3.0 / s) *
                                    (static_cast<double>(in.nnz_b) / bwin) /
                                    std::max(1.0, kk / bwin) +
                                130.0;
      peak = std::max(redist, acc + stage_live);
      break;
    }
  }
  if (!(peak >= 0.0) || peak >= 9.0e18) return std::numeric_limits<std::uint64_t>::max() / 2;
  return static_cast<std::uint64_t>(peak) + 1;
}

}  // namespace

std::uint64_t CostModel::predicted_peak_triples(const AlgoCostInputs& in, Algo algo,
                                                int panels) const {
  return modeled_peak_triples(ordering_adjusted(in), algo, panels);
}

AlgoPrediction CostModel::predict(const AlgoCostInputs& in_raw, Algo algo) const {
  // All formulas below read the ordering-adjusted view of the measurements;
  // the raw inputs only matter for the one-shot reorder term at the end.
  const AlgoCostInputs in = ordering_adjusted(in_raw);
  AlgoPrediction pr;
  pr.algo = algo;
  pr.ordering = in.ordering;
  const auto P = static_cast<double>(in.P < 1 ? 1 : in.P);
  const auto threads = static_cast<double>(in.threads < 1 ? 1 : in.threads);
  const double alpha = alpha_eff(in.P);
  const double beta = beta_eff(in.P);
  const double trip = static_cast<double>(2 * in.index_bytes + in.value_bytes);
  const double elem = static_cast<double>(in.index_bytes + in.value_bytes);
  const auto nnz_a = static_cast<double>(in.nnz_a);
  const auto nnz_b = static_cast<double>(in.nnz_b);
  const auto flops = static_cast<double>(in.flops);
  // Merged-output proxy: each flop yields one pre-merge partial triple; the
  // backends that ship partial C pay for roughly half of them post-merge.
  const double cnnz_est = flops / 2.0;

  switch (algo) {
    case Algo::Auto:
      pr.note = "auto is a dispatch policy, not a backend";
      return pr;

    case Algo::SparseAware1D: {
      pr.feasible = true;
      const auto msgs = static_cast<double>(in.sa1d_fetch_msgs) / P;
      // One-shot pipeline fetches structure and values of every planned
      // block — 2 gets per block (hence 2α per message), moving one index
      // word + one value per element in total — plus the replicated
      // metadata allgather (gids + cp ≈ 2 index words per nonzero column).
      const double fetch_bytes = static_cast<double>(in.sa1d_fetch_elems) * elem / P;
      const double meta_bytes = static_cast<double>(in.nzc_a) * 2.0 *
                                static_cast<double>(in.index_bytes);
      pr.comm_s = alpha * 2.0 * msgs + beta * (fetch_bytes + meta_bytes);
      pr.comp_coeff = static_cast<double>(in.max_rank_flops) / threads;
      // Ã/B̃ assembly + output conversion scale with the moved elements and
      // the stationary operand slice.
      pr.other_coeff = (static_cast<double>(in.sa1d_fetch_elems) + nnz_b + cnnz_est) / P;
      break;
    }

    case Algo::Ring1D: {
      pr.feasible = true;
      // Every A slice visits every rank: (P-1) hops of ~nnz_a/P triples.
      pr.comm_s = alpha * (P - 1.0) + beta * trip * nnz_a * (P - 1.0) / P;
      pr.comp_coeff = static_cast<double>(in.max_rank_flops) / threads;
      // The accumulator holds one partial triple per flop until the final
      // canonicalize (full triple rate: sort + merge); the per-hop column
      // regrouping only *scans* the circulating slice (≈ nnz_a per rank
      // over all hops), which costs about a quarter of the sort rate.
      pr.other_coeff = flops / P + nnz_a / 4.0;
      break;
    }

    case Algo::Summa2D: {
      const GridTerms t = grid_terms(in, 1, p_.imb_scale);
      if (!t.ok) {
        pr.note = "the pinned grid_rows x grid_cols does not factor P";
        return pr;
      }
      pr.feasible = true;
      pr.comm_s = alpha * t.latency_msgs + beta * trip * (t.redist_elems + t.bcast_elems);
      pr.comp_coeff = t.imb * flops / (P * threads);
      pr.other_coeff = t.imb * t.bcast_elems + flops / P + t.redist_elems;
      break;
    }

    case Algo::Split3D: {
      if (in.layers < 1 || in.P % in.layers != 0) {
        pr.note = "layers do not divide P";
        return pr;
      }
      const GridTerms t = grid_terms(in, in.layers, p_.imb_scale);
      if (!t.ok) {
        pr.note = "the pinned grid_rows x grid_cols does not factor P/layers";
        return pr;
      }
      pr.feasible = true;
      pr.comm_s = alpha * t.latency_msgs + beta * trip * (t.redist_elems + t.bcast_elems);
      pr.comp_coeff = t.imb * flops / (P * threads);
      pr.other_coeff = t.imb * t.bcast_elems + flops / P + t.redist_elems;
      break;
    }
  }
  // Column-panel resolution (DESIGN.md §13): unbudgeted runs stay
  // monolithic; a budget resolves the smallest panel count whose modeled
  // peak fits, turning the feasibility cliff into a priced slope. A pinned
  // panel count (in.panels ≥ 1) is priced and budget-checked verbatim.
  {
    int k = in.panels;
    if (k < 1) {
      if (in.max_peak_triples == 0) {
        k = 1;
      } else {
        k = 0;
        for (int cand : {1, 2, 4, 8, 16, 32, 64}) {
          if (modeled_peak_triples(in, algo, cand) <= in.max_peak_triples) {
            k = cand;
            break;
          }
        }
        if (k == 0) {
          pr.panels = 64;
          pr.peak_triples = modeled_peak_triples(in, algo, 64);
          pr.feasible = false;
          pr.note = "no column panelization brings the modeled peak under max_peak_triples";
          return pr;
        }
      }
    }
    pr.panels = k;
    pr.peak_triples = modeled_peak_triples(in, algo, k);
    if (in.max_peak_triples > 0 && pr.peak_triples > in.max_peak_triples) {
      pr.feasible = false;
      pr.note = "modeled peak exceeds max_peak_triples at the pinned panel count";
      return pr;
    }
    if (k > 1) {
      // Panel pricing slope: each extra panel replays the A-side of the
      // backend (B and C volumes are split across panels, so their totals
      // are unchanged) plus one more round of latency.
      const double kd = static_cast<double>(k);
      switch (algo) {
        case Algo::Auto:
          break;
        case Algo::SparseAware1D: {
          // Per-panel fetch plans repeat the message latency and the
          // metadata allgather; the fetched value volume covers disjoint
          // columns, so its total is roughly panel-invariant.
          const auto msgs = static_cast<double>(in.sa1d_fetch_msgs) / P;
          const double meta_bytes = static_cast<double>(in.nzc_a) * 2.0 *
                                    static_cast<double>(in.index_bytes);
          pr.comm_s += (kd - 1.0) * (alpha * 2.0 * msgs + beta * meta_bytes);
          pr.other_coeff += (kd - 1.0) * nnz_b / P;
          break;
        }
        case Algo::Ring1D:
          // A re-circulates whole once per panel: both the hop latency and
          // the shift volume scale with k, as does the per-hop column scan.
          pr.comm_s *= kd;
          pr.other_coeff += (kd - 1.0) * nnz_a / 4.0;
          break;
        case Algo::Summa2D:
        case Algo::Split3D: {
          const GridTerms t =
              grid_terms(in, algo == Algo::Split3D ? in.layers : 1, p_.imb_scale);
          const GridShape g = summa_grid_shape(
              in.P / (algo == Algo::Split3D ? in.layers : 1), in.grid_rows, in.grid_cols);
          const double cd = algo == Algo::Split3D ? static_cast<double>(in.layers) : 1.0;
          const double redist_a = nnz_a / P;
          const double bc_a = nnz_a / (cd * static_cast<double>(g.rows));
          pr.comm_s += (kd - 1.0) *
                       (alpha * t.latency_msgs + beta * trip * (redist_a + bc_a));
          pr.other_coeff += (kd - 1.0) * redist_a;
          break;
        }
      }
    }
  }
  // The compute terms are linear in the calibrated rates; keeping the
  // coefficients lets the offline refit recover flop_s/triple_s from
  // accumulated prediction-vs-measured records.
  pr.comp_s = pr.comp_coeff * p_.flop_s;
  pr.other_s = pr.other_coeff * p_.triple_s;
  // Overlapped execution hides the fitted fraction of the comm term behind
  // the numeric pass (every backend's hot loop is double-buffered or
  // pipelined); with the default discount of 0 this is the identity.
  pr.comm_s *= 1.0 - p_.overlap_discount;
  if (in.ordering == Ordering::Partitioned || in.ordering == Ordering::Random) {
    // One-shot ordering cost, paid by the build only (predict_replay zeroes
    // it, so the horizon pricing amortizes it over expected_iterations):
    // the measured partition CPU plus the structure gather feeding the
    // partitioner (Partitioned only), then the forward operand permutes and
    // the first inverse scatter of C — three alltoallv rounds moving
    // triples, with pack/unpack at the triple rate.
    const double move = static_cast<double>(in.reorder_move_elems);
    double s = 0.0;
    if (in.ordering == Ordering::Partitioned)
      s += in.reorder_seconds + alpha * (P - 1.0) +
           beta * 2.0 * static_cast<double>(in.index_bytes) * nnz_a;
    s += alpha * 3.0 * (P - 1.0) + beta * trip * (move + cnnz_est) / P +
         p_.triple_s * (move + cnnz_est) / P;
    pr.reorder_s = s;
  }
  return pr;
}

AlgoPrediction CostModel::predict_replay(const AlgoCostInputs& in_raw, Algo algo) const {
  // Start from the one-shot prediction (same feasibility rules and compute
  // term), then strip everything a cached replay does not pay: metadata
  // collectives, structure bytes (value-only payloads), the symbolic /
  // sort-and-merge side of `other` (replays run fold programs, not sorts).
  AlgoPrediction pr = predict(in_raw, algo);
  if (!pr.feasible) return pr;
  // Replays reuse the cached partition, permuted operands, and routes: the
  // one-shot ordering cost disappears (the value-only inverse scatter of C
  // that permuted replays still pay is added below as regular comm).
  pr.reorder_s = 0.0;
  const AlgoCostInputs in = ordering_adjusted(in_raw);
  const auto P = static_cast<double>(in.P < 1 ? 1 : in.P);
  // Batched amortization (dist/batch_spgemm.hpp): k fused members share one
  // concatenated message per phase, so each member pays alpha/k per round
  // while its byte volume is unchanged.
  const double alpha = alpha_eff(in.P) / static_cast<double>(in.batch < 1 ? 1 : in.batch);
  const double beta = beta_eff(in.P);
  const double vb = static_cast<double>(in.value_bytes);
  const auto nnz_a = static_cast<double>(in.nnz_a);
  const auto nnz_b = static_cast<double>(in.nnz_b);
  const auto flops = static_cast<double>(in.flops);
  const double cnnz_est = flops / 2.0;

  switch (algo) {
    case Algo::Auto:
      break;
    case Algo::SparseAware1D: {
      // One value get per planned block (structure is cached), no metadata
      // allgather; value copies and the numeric pass remain.
      const auto msgs = static_cast<double>(in.sa1d_fetch_msgs) / P;
      pr.comm_s = alpha * msgs + beta * static_cast<double>(in.sa1d_fetch_elems) * vb / P;
      pr.other_coeff = (static_cast<double>(in.sa1d_fetch_elems) + nnz_b + cnnz_est) / P;
      break;
    }
    case Algo::Ring1D: {
      // Hops shift bare value arrays; the merge replays the cached ⊕-fold
      // program (no per-hop regrouping, no sort). The numeric side is not
      // flops-only, though: each of the P−1 hop multiplies re-walks its
      // cached A-slice structure against the local B column map, so over a
      // full rotation the rank touches (P−1)/P of A's triples — a scan
      // over precomputed indices, priced at the quarter triple rate like
      // the inverse-scatter unpack below. Without this term iterated
      // pricing undersells the ring's per-replay cost by ~35% and Auto
      // picks it over a measured-faster partitioned SA-1D at MCL horizons.
      pr.comm_s = alpha * (P - 1.0) + beta * vb * nnz_a * (P - 1.0) / P;
      pr.other_coeff = flops / P + nnz_a * (P - 1.0) / (4.0 * P);
      break;
    }
    case Algo::Summa2D:
    case Algo::Split3D: {
      // Same element volumes and latency as the one-shot prediction, but
      // the exchanges carry bare values (vb per element, not a triple) and
      // the fold programs replace the sort-side merge work.
      const GridTerms t = grid_terms(in, algo == Algo::Split3D ? in.layers : 1, p_.imb_scale);
      if (!t.ok) break;  // predict() already marked it feasible, so unreachable
      pr.comm_s = alpha * t.latency_msgs + beta * vb * (t.redist_elems + t.bcast_elems);
      pr.other_coeff = flops / P + t.redist_elems;
      break;
    }
  }
  if (pr.panels > 1) {
    // Replay panel slope, mirroring predict(): each extra panel replays the
    // A-side value traffic and one more latency round; B/C value volumes
    // are split across panels so their totals are unchanged.
    const double kd = static_cast<double>(pr.panels);
    switch (algo) {
      case Algo::Auto:
        break;
      case Algo::SparseAware1D: {
        const auto msgs = static_cast<double>(in.sa1d_fetch_msgs) / P;
        pr.comm_s += (kd - 1.0) * alpha * msgs;
        pr.other_coeff += (kd - 1.0) * nnz_b / P;
        break;
      }
      case Algo::Ring1D:
        pr.comm_s *= kd;
        pr.other_coeff += (kd - 1.0) * nnz_a * (P - 1.0) / (4.0 * P);
        break;
      case Algo::Summa2D:
      case Algo::Split3D: {
        const GridTerms t =
            grid_terms(in, algo == Algo::Split3D ? in.layers : 1, p_.imb_scale);
        const GridShape g = summa_grid_shape(
            in.P / (algo == Algo::Split3D ? in.layers : 1), in.grid_rows, in.grid_cols);
        const double cd = algo == Algo::Split3D ? static_cast<double>(in.layers) : 1.0;
        const double redist_a = nnz_a / P;
        const double bc_a = nnz_a / (cd * static_cast<double>(g.rows));
        pr.comm_s +=
            (kd - 1.0) * (alpha * t.latency_msgs + beta * vb * (redist_a + bc_a));
        pr.other_coeff += (kd - 1.0) * redist_a;
        break;
      }
    }
  }
  if (in.ordering == Ordering::Partitioned || in.ordering == Ordering::Random) {
    // Permuted plans return C in the caller's original ordering every call:
    // one value-only inverse-scatter round (cached route, bare values).
    // Regular execution comm, not reorder. The unpack walks precomputed
    // slot indices — a scan, not a sort/route — so like Ring1D's per-hop
    // regrouping it costs about a quarter of the triple rate.
    pr.comm_s += alpha * (P - 1.0) + beta * vb * cnnz_est / P;
    pr.other_coeff += cnnz_est / (4.0 * P);
  }
  pr.comp_s = pr.comp_coeff * p_.flop_s;
  pr.other_s = pr.other_coeff * p_.triple_s;
  pr.comm_s *= 1.0 - p_.overlap_discount;
  return pr;
}

double CostModel::predicted_imbalance(const AlgoCostInputs& in, Algo algo) const {
  if (algo != Algo::Summa2D && algo != Algo::Split3D) return 1.0;
  // Unscaled analytic factor: this is the fit's independent variable, so it
  // must not already contain imb_scale.
  const GridTerms t = grid_terms(ordering_adjusted(in), algo == Algo::Split3D ? in.layers : 1);
  return t.ok ? t.imb : 1.0;
}

}  // namespace sa1d
