// Algorithm 1 of the paper: the sparsity-aware 1D SpGEMM, split into an
// inspector and an executor (the repo's plan/execute refactor).
//
//   C = A · B with A, B, C all 1D column-distributed. B and C are
//   stationary; the only data movement is one-sided fetches of the A
//   columns each rank actually needs:
//
//     1. expose windows over A's local row-id and value arrays
//     2. allgather A's nonzero column ids (D) and per-column prefix (cp)
//     3. H_i := nonzero rows of B_i (dense boolean vector of length k)
//     4. required ids D̃ := H_i ∩ D
//     5. group fetches with the block-fetch strategy (Algorithm 2)
//     6. MPI_Get-style passive-target fetches of the chosen blocks
//     7. compact fetched columns into Ã (only needed columns are kept)
//     8. C_i = Ã · B_i with a local heap/hash hybrid kernel
//
// Steps 2–5, the structural half of 6–7 (row ids), the B̃ row remap, and
// the local engine's symbolic analysis depend only on the operands'
// *sparsity structure*. SpgemmPlan1D runs them once (the inspector) and
// caches the result; execute() replays the plan for any value assignment
// over the same structure, issuing only the value fetches and the numeric
// local pass. Every workload the paper evaluates is an iterated SpGEMM
// (MCL expansion rounds, BC level series, AMG Galerkin products), so the
// metadata/planning work the paper counts as "other" time amortizes to
// zero across reuses. spgemm_1d() remains the one-shot plan-then-execute
// wrapper.
//
// No communication of C is needed: it is born 1D-distributed.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/block_fetch.hpp"
#include "dist/dist_matrix.hpp"
#include "kernels/spgemm_local.hpp"
#include "runtime/machine.hpp"
#include "util/bitvector.hpp"

namespace sa1d {

struct Spgemm1dOptions {
  /// Fetch planner. Unset (the default): per owner, the α–β-optimal plan at
  /// the link's CostParams rates (optimal_fetch_plan). Set: the paper's
  /// Algorithm 2 with this K, at most K gets per remote process — an
  /// ablation input that reproduces the paper's K sweep (fig06).
  std::optional<index_t> block_fetch_k;
  /// Local kernel for C_i = Ã·B_i.
  LocalKernel kernel = LocalKernel::Hybrid;
  /// Simulated OpenMP threads inside the rank (local kernel fan-out).
  int threads = 1;
  /// Ablation: when false, every nonzero column of A is fetched
  /// (sparsity-oblivious 1D), not just H ∩ D.
  bool sparsity_aware = true;
  /// Bounded prefetch depth of the executor's value fetches: it keeps up to
  /// this many gets in flight (values < 1 mean 1; each holds one staging
  /// buffer) while the scatter of earlier blocks and the B̃ gather run,
  /// hiding RDMA time behind the compaction copies. The written Ã values
  /// are bit-identical at every depth.
  int prefetch_inflight = 4;

  /// Every field influences the cached plan, so plan-reusing callers
  /// (spgemm_1d_cached) compare whole option sets to decide replans.
  friend bool operator==(const Spgemm1dOptions&, const Spgemm1dOptions&) = default;
};

/// Per-rank diagnostics of one sparsity-aware multiply.
struct Spgemm1dInfo {
  index_t needed_cols = 0;    ///< |H ∩ D| over remote ranks
  index_t fetched_cols = 0;   ///< columns actually moved (block overshoot incl.)
  index_t fetched_elems = 0;  ///< nonzeros moved from remote ranks
  index_t atilde_nnz = 0;     ///< nnz of the compacted Ã
  index_t atilde_ncols = 0;
  /// Window gets issued. Through the one-shot spgemm_1d wrapper this is 2
  /// per block (one structure get at plan time + one value get at execute
  /// time, as before the split); a reused SpgemmPlan1D::execute issues only
  /// the value get, so standalone executes report 1 per block.
  index_t rdma_calls = 0;
};

/// Structure identity of one rank's (A, B) operand pair: the reuse check
/// of the inspector–executor split. The cheap fields (dims, per-rank nzc,
/// nnz) are verified on every execute; the 64-bit structure hashes over
/// (jc, cp, ir) make matches() robust for app loops whose operand
/// structure genuinely evolves (MCL pruning, BC frontiers).
struct StructureFingerprint {
  index_t a_nrows = 0, a_ncols = 0, b_nrows = 0, b_ncols = 0;
  index_t a_nzc = 0, a_nnz = 0;  ///< this rank's A slice
  index_t b_nzc = 0, b_nnz = 0;  ///< this rank's B slice
  std::uint64_t a_hash = 0, b_hash = 0;

  /// O(1) subset checked by every execute().
  [[nodiscard]] bool quick_equals(const StructureFingerprint& o) const {
    return a_nrows == o.a_nrows && a_ncols == o.a_ncols && b_nrows == o.b_nrows &&
           b_ncols == o.b_ncols && a_nzc == o.a_nzc && a_nnz == o.a_nnz && b_nzc == o.b_nzc &&
           b_nnz == o.b_nnz;
  }

};

namespace detail1d {

/// Metadata every rank replicates about every A slice: global nonzero
/// column ids and the element prefix within the owner's ir/vals arrays.
template <typename VT>
struct AMeta {
  std::vector<std::vector<index_t>> gids;  // [rank] -> global col ids (ascending)
  std::vector<std::vector<index_t>> cp;    // [rank] -> prefix, size nzc+1
};

/// Allgathers D (global nonzero column ids) and cp for all slices of A.
/// The paper counts this metadata exchange as "other" time; the plan/execute
/// split runs it once per structure (Phase::Plan) instead of once per call.
template <typename VT>
AMeta<VT> gather_a_metadata(Comm& comm, const DistMatrix1D<VT>& a) {
  std::vector<index_t> my_gids(static_cast<std::size_t>(a.local().nzc()));
  for (index_t k = 0; k < a.local().nzc(); ++k)
    my_gids[static_cast<std::size_t>(k)] = a.global_col(k);
  AMeta<VT> meta;
  meta.gids = comm.allgatherv(std::span<const index_t>(my_gids));
  meta.cp = comm.allgatherv(std::span<const index_t>(a.local().cp()));
  return meta;
}

/// Dense boolean vector of B_i's nonzero rows (the paper's H_i).
template <typename VT>
BitVector nonzero_rows(const DcscMatrix<VT>& b_local, index_t k) {
  BitVector h(k);
  for (auto r : b_local.ir()) h.set(r);
  return h;
}

/// One owner's slice of the fetch plan: which of its nonzero columns this
/// rank needs, and the gets that move them (none for the rank's own slice).
struct OwnerFetch {
  std::vector<bool> needed;        ///< H∩D over the owner's nonzero columns
  std::vector<FetchRange> ranges;  ///< gets in ascending position order
};

/// The one fetch planner: the SpgemmPlan1D inspector, Auto's cost inputs and
/// the CV/memA advisor all call it, so the predictions price exactly the
/// gets that run. Sparsity-oblivious mode needs every column. With
/// opt.block_fetch_k unset, the ranges are the α–β optimum at the rates of
/// the link between this rank and `owner` (intra- or inter-node by
/// CostModel::node_of), with a value element costing sizeof(VT) bytes;
/// with it set, they are Algorithm 2's K groups.
template <typename VT>
OwnerFetch plan_owner_fetch(const Comm& comm, const AMeta<VT>& meta, const BitVector& h,
                            int owner, const Spgemm1dOptions& opt) {
  const auto& gids = meta.gids[static_cast<std::size_t>(owner)];
  const auto nzc = static_cast<index_t>(gids.size());
  OwnerFetch f;
  f.needed.assign(static_cast<std::size_t>(nzc), !opt.sparsity_aware);
  if (opt.sparsity_aware)
    for (index_t p = 0; p < nzc; ++p)
      if (h.test(gids[static_cast<std::size_t>(p)])) f.needed[static_cast<std::size_t>(p)] = true;
  if (owner == comm.rank() || nzc == 0) return f;
  if (opt.block_fetch_k.has_value()) {
    f.ranges = block_fetch_plan(nzc, *opt.block_fetch_k, f.needed);
    return f;
  }
  const CostModel& cm = comm.cost();
  const CostParams& p = cm.params();
  const bool intra =
      cm.node_of(comm.global_rank(owner)) == cm.node_of(comm.global_rank(comm.rank()));
  const double alpha = intra ? p.alpha_intra : p.alpha_inter;
  const double beta = intra ? p.beta_intra : p.beta_inter;
  f.ranges = optimal_fetch_plan(f.needed,
                                std::span<const index_t>(meta.cp[static_cast<std::size_t>(owner)]),
                                alpha, beta * static_cast<double>(sizeof(VT)));
  return f;
}

inline std::uint64_t hash_mix64(std::uint64_t h, std::uint64_t v) {
  v *= 0x9e3779b97f4a7c15ULL;
  v ^= v >> 32;
  return (h ^ v) * 0x2545f4914f6cdd1dULL;
}

/// Order-sensitive hash of a DCSC slice's structure (jc, cp, ir + dims).
template <typename VT>
std::uint64_t structure_hash(const DcscMatrix<VT>& m) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = hash_mix64(h, static_cast<std::uint64_t>(m.nrows()));
  h = hash_mix64(h, static_cast<std::uint64_t>(m.ncols()));
  for (auto j : m.jc()) h = hash_mix64(h, static_cast<std::uint64_t>(j));
  for (auto c : m.cp()) h = hash_mix64(h, static_cast<std::uint64_t>(c));
  for (auto r : m.ir()) h = hash_mix64(h, static_cast<std::uint64_t>(r));
  return h;
}

/// The O(1) fingerprint fields only (no hashing).
template <typename VT>
StructureFingerprint quick_fingerprint_of(const DistMatrix1D<VT>& a, const DistMatrix1D<VT>& b) {
  StructureFingerprint fp;
  fp.a_nrows = a.nrows();
  fp.a_ncols = a.ncols();
  fp.b_nrows = b.nrows();
  fp.b_ncols = b.ncols();
  fp.a_nzc = a.local().nzc();
  fp.a_nnz = a.local().nnz();
  fp.b_nzc = b.local().nzc();
  fp.b_nnz = b.local().nnz();
  return fp;
}

template <typename VT>
StructureFingerprint fingerprint_of(const DistMatrix1D<VT>& a, const DistMatrix1D<VT>& b) {
  StructureFingerprint fp = quick_fingerprint_of(a, b);
  fp.a_hash = structure_hash(a.local());
  fp.b_hash = &a == &b ? fp.a_hash : structure_hash(b.local());
  return fp;
}

}  // namespace detail1d

/// The cached plan of one sparsity-aware 1D SpGEMM (the inspector side of
/// Algorithm 1). Construction is collective and performs all structural
/// work: metadata exchange, H∩D masks, Algorithm 2's block-fetch planning,
/// the structure fetches, Ã/B̃ assembly maps, and the local engine's
/// symbolic pass — all accounted as Phase::Plan. execute() replays the
/// plan for any (A, B) with matching structure: it issues only the value
/// gets and the numeric local pass, with zero metadata collectives and
/// zero symbolic work. The handle is rank-local (SPMD style), like
/// DistMatrix1D itself.
template <typename VT, typename SR = PlusTimes<VT>>
class SpgemmPlan1D {
 public:
  SpgemmPlan1D() = default;

  /// Inspector (collective): builds the full plan for C = A·B.
  SpgemmPlan1D(Comm& comm, const DistMatrix1D<VT>& a, const DistMatrix1D<VT>& b,
               const Spgemm1dOptions& opt = {})
      : SpgemmPlan1D(comm, a, b, opt, std::nullopt) {}

  /// Inspector with pre-gathered metadata (collective): identical plan, but
  /// the (D, cp) allgather is skipped — `meta` must be the AMeta of *this*
  /// A distribution (gather_algo_cost_inputs hands its copy over, so an
  /// Algo::Auto → SA-1D dispatch performs exactly one metadata exchange).
  SpgemmPlan1D(Comm& comm, const DistMatrix1D<VT>& a, const DistMatrix1D<VT>& b,
               const Spgemm1dOptions& opt, detail1d::AMeta<VT> meta)
      : SpgemmPlan1D(comm, a, b, opt,
                     std::optional<detail1d::AMeta<VT>>(std::move(meta))) {}

 private:
  SpgemmPlan1D(Comm& comm, const DistMatrix1D<VT>& a, const DistMatrix1D<VT>& b,
               const Spgemm1dOptions& opt, std::optional<detail1d::AMeta<VT>> pre_meta) {
    require(a.ncols() == b.nrows(), "SpgemmPlan1D: inner dimension mismatch");
    require(!opt.block_fetch_k.has_value() || *opt.block_fetch_k > 0,
            "SpgemmPlan1D: block_fetch_k must be positive");
    const int P = comm.size();
    const int me = comm.rank();
    opt_ = opt;
    out_bounds_ = b.bounds();
    c_nrows_ = a.nrows();
    c_ncols_ = b.ncols();

    // Structure window only: the inspector never touches A's values.
    Window win_ir = comm.expose(std::span<const index_t>(a.local().ir()));

    // (2) Metadata exchange + (3) H vector + fingerprint.
    detail1d::AMeta<VT> meta;
    BitVector h;
    {
      auto ph = comm.phase(Phase::Plan);
      meta = pre_meta.has_value() ? std::move(*pre_meta) : detail1d::gather_a_metadata(comm, a);
      h = detail1d::nonzero_rows(b.local(), a.ncols());
      // Hashing here (not lazily) is deliberate: later matches()/execute()
      // calls no longer have the inspected operands, so the hashes must be
      // pinned now. One O(nnz) scan inside an inspector that already walks
      // the operands several times; one-shot wrappers pay it as Plan time.
      fp_ = detail1d::fingerprint_of(a, b);
    }

    // (4)+(5) Needed masks and per-rank fetch plans; exact Ã sizing.
    // Exact sizes are derivable from `needed` + cp before any data moves,
    // so the assembly below never grows a vector (in *both* modes — the
    // seed only pre-reserved the oblivious path).
    std::vector<detail1d::OwnerFetch> owners;
    owners.reserve(static_cast<std::size_t>(P));
    std::vector<index_t> atilde_gids;  // global col order; drives the B̃ remap
    std::vector<index_t> atilde_colptr;
    std::vector<index_t> atilde_rows;
    std::size_t kept_cols = 0, kept_nnz = 0;
    {
      auto ph = comm.phase(Phase::Plan);
      for (int r = 0; r < P; ++r) {
        const auto& cp = meta.cp[static_cast<std::size_t>(r)];
        const auto& f = owners.emplace_back(detail1d::plan_owner_fetch(comm, meta, h, r, opt));
        const auto nzc = static_cast<index_t>(f.needed.size());
        for (index_t p = 0; p < nzc; ++p) {
          if (!f.needed[static_cast<std::size_t>(p)]) continue;
          ++kept_cols;
          kept_nnz += static_cast<std::size_t>(cp[static_cast<std::size_t>(p) + 1] -
                                               cp[static_cast<std::size_t>(p)]);
          if (r != me) ++plan_info_.needed_cols;
        }
      }
      atilde_gids.reserve(kept_cols);
      atilde_colptr.reserve(kept_cols + 1);
      atilde_colptr.push_back(0);
      atilde_rows.reserve(kept_nnz);
    }

    // (6)+(7), structural half: fetch remote row-id blocks, compact the
    // needed columns into Ã's structure, and record the value-copy program
    // the executor will replay (local spans + per-block fetch spans).
    std::vector<index_t> buf_ir;
    for (int r = 0; r < P; ++r) {
      const auto& gids = meta.gids[static_cast<std::size_t>(r)];
      const auto& cp = meta.cp[static_cast<std::size_t>(r)];
      const auto nzc = static_cast<index_t>(gids.size());
      if (nzc == 0) continue;
      const auto& needed = owners[static_cast<std::size_t>(r)].needed;

      if (r == me) {
        // Local slice: no fetch; copy structure straight out of A_i and
        // remember the contiguous value spans for execute().
        auto ph = comm.phase(Phase::Plan);
        for (index_t p = 0; p < nzc; ++p) {
          if (!needed[static_cast<std::size_t>(p)]) continue;
          const index_t clo = cp[static_cast<std::size_t>(p)];
          const index_t chi = cp[static_cast<std::size_t>(p) + 1];
          append_span(local_copies_, clo, chi - clo, static_cast<index_t>(atilde_rows.size()));
          atilde_gids.push_back(gids[static_cast<std::size_t>(p)]);
          auto rows = a.local().col_rows_at(p);
          atilde_rows.insert(atilde_rows.end(), rows.begin(), rows.end());
          atilde_colptr.push_back(static_cast<index_t>(atilde_rows.size()));
        }
        continue;
      }

      for (const auto& range : owners[static_cast<std::size_t>(r)].ranges) {
        const index_t elo = cp[static_cast<std::size_t>(range.begin)];
        const index_t ehi = cp[static_cast<std::size_t>(range.end)];
        const index_t len = ehi - elo;
        buf_ir.resize(static_cast<std::size_t>(len));
        comm.get(win_ir, r, elo, len, buf_ir.data());
        ++plan_rdma_calls_;
        plan_info_.fetched_cols += range.end - range.begin;
        plan_info_.fetched_elems += len;

        // Compact: keep only the needed columns out of the fetched block.
        auto ph = comm.phase(Phase::Plan);
        FetchOp op;
        op.owner = r;
        op.elo = elo;
        op.len = len;
        for (index_t p = range.begin; p < range.end; ++p) {
          if (!needed[static_cast<std::size_t>(p)]) continue;
          const index_t clo = cp[static_cast<std::size_t>(p)] - elo;
          const index_t chi = cp[static_cast<std::size_t>(p) + 1] - elo;
          append_span(op.spans, clo, chi - clo, static_cast<index_t>(atilde_rows.size()));
          atilde_gids.push_back(gids[static_cast<std::size_t>(p)]);
          atilde_rows.insert(atilde_rows.end(), buf_ir.begin() + clo, buf_ir.begin() + chi);
          atilde_colptr.push_back(static_cast<index_t>(atilde_rows.size()));
        }
        fetches_.push_back(std::move(op));
      }
    }

    // B̃ structure: row ids (global k-space) -> Ã column positions, plus the
    // value gather map bt_src (B̃ value i comes from B_i's vals[bt_src[i]]).
    // Rows of B whose A column is structurally empty are dropped (they
    // contribute nothing).
    {
      auto ph = comm.phase(Phase::Plan);
      plan_info_.atilde_ncols = static_cast<index_t>(atilde_gids.size());
      plan_info_.atilde_nnz = static_cast<index_t>(atilde_rows.size());
      plan_info_.rdma_calls = plan_rdma_calls_;

      const auto& bl = b.local();
      std::vector<index_t> bt_colptr;
      std::vector<index_t> bt_rows;
      bt_colptr.reserve(static_cast<std::size_t>(b.local_ncols()) + 1);
      bt_colptr.push_back(0);
      index_t next_local = 0;
      for (index_t kcol = 0; kcol < bl.nzc(); ++kcol) {
        // Emit empty columns for structurally empty B columns before this one.
        while (next_local < bl.col_id(kcol)) {
          bt_colptr.push_back(static_cast<index_t>(bt_rows.size()));
          ++next_local;
        }
        auto rows = bl.col_rows_at(kcol);
        const index_t base = bl.cp()[static_cast<std::size_t>(kcol)];
        for (std::size_t p = 0; p < rows.size(); ++p) {
          auto it = std::lower_bound(atilde_gids.begin(), atilde_gids.end(), rows[p]);
          if (it == atilde_gids.end() || *it != rows[p]) continue;
          bt_rows.push_back(static_cast<index_t>(it - atilde_gids.begin()));
          bt_src_.push_back(base + static_cast<index_t>(p));
        }
        bt_colptr.push_back(static_cast<index_t>(bt_rows.size()));
        ++next_local;
      }
      while (next_local < b.local_ncols()) {
        bt_colptr.push_back(static_cast<index_t>(bt_rows.size()));
        ++next_local;
      }

      // Persistent Ã/B̃ shells: structure is final here and moves in; only
      // the value arrays are overwritten (in place) by each execute().
      const auto bt_nnz = bt_rows.size();
      atilde_m_ = CscMatrix<VT>(c_nrows_, plan_info_.atilde_ncols, std::move(atilde_colptr),
                                std::move(atilde_rows),
                                std::vector<VT>(static_cast<std::size_t>(plan_info_.atilde_nnz)));
      btilde_m_ = CscMatrix<VT>(plan_info_.atilde_ncols, b.local_ncols(), std::move(bt_colptr),
                                std::move(bt_rows), std::vector<VT>(bt_nnz));

      // (8), symbolic half: exact C colptr, per-column accumulator class,
      // and the flop-balanced thread partition — structural, so the
      // value-free shells are all it needs.
      sym_ = spgemm_local_symbolic<SR, VT>(atilde_m_, btilde_m_, opt.kernel,
                                                      opt.threads, &ws_);
    }

    // Keep A's structure window alive until every rank finished fetching.
    comm.barrier();
    built_ = true;
  }

 public:
  /// Executor (collective): replays the plan for any (A, B) whose structure
  /// matches the fingerprint — only value gets and the numeric local pass.
  /// The full local fingerprint (cheap fields, then hashes) is verified on
  /// every call, so a structure drift that happens to preserve nzc/nnz
  /// cannot silently replay a stale plan; matches() is the collective
  /// variant for uniform replan-vs-reuse decisions.
  DistMatrix1D<VT> execute(Comm& comm, const DistMatrix1D<VT>& a, const DistMatrix1D<VT>& b,
                           Spgemm1dInfo* info_out = nullptr) {
    {
      auto ph = comm.phase(Phase::Other);
      require(built_, "SpgemmPlan1D::execute: plan was never built");
      require(matches_local(a, b),
              "SpgemmPlan1D::execute: operand structure does not match the plan fingerprint "
              "(iterated callers should decide replan-vs-reuse with the collective matches(), "
              "or use spgemm_1d_cached)");
    }
    return execute_verified(comm, a, b, info_out);
  }

  /// Executor without the O(nnz) hash re-check. Precondition: the operand
  /// pair was just verified against this plan — a successful collective
  /// matches() this iteration, or the plan was built from these operands
  /// (spgemm_1d and spgemm_1d_cached call this). Only the O(1) fingerprint
  /// fields are re-validated. A replay of one member (see replay()).
  DistMatrix1D<VT> execute_verified(Comm& comm, const DistMatrix1D<VT>& a,
                                    const DistMatrix1D<VT>& b,
                                    Spgemm1dInfo* info_out = nullptr) {
    const Replay one{this, &a, &b};
    auto out = replay(comm, std::span<const Replay>(&one, 1));
    if (info_out != nullptr) {
      *info_out = plan_info_;
      info_out->rdma_calls = static_cast<index_t>(fetches_.size());
    }
    return std::move(out[0]);
  }


  [[nodiscard]] bool empty() const { return !built_; }

  /// Exact rank-local reuse check: the O(1) fields first (dims, nzc, nnz —
  /// these reject almost every real structure change, e.g. a BC frontier
  /// growing between levels, without touching the arrays), then the
  /// structure hashes. When a and b are the same object (squaring) the
  /// slice is hashed once.
  [[nodiscard]] bool matches_local(const DistMatrix1D<VT>& a, const DistMatrix1D<VT>& b) const {
    if (!built_ || !quick_matches_local(a, b)) return false;
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

  /// Inspector-side diagnostics (structural; identical for every execute).
  [[nodiscard]] const Spgemm1dInfo& info() const { return plan_info_; }
  /// Structure gets issued by the inspector (one per planned block).
  [[nodiscard]] index_t plan_rdma_calls() const { return plan_rdma_calls_; }
  [[nodiscard]] const Spgemm1dOptions& options() const { return opt_; }
  [[nodiscard]] int executions() const { return executions_; }
  /// The rank-local structure identity the plan was built for (backend-
  /// generic plan layers reuse it instead of re-hashing the operands).
  [[nodiscard]] const StructureFingerprint& fingerprint() const { return fp_; }

  /// Byte-accurate residency of the cached replay program on this rank
  /// (major arrays only; staging buffers and warm workspaces are scratch) —
  /// what the plan cache's budget accounts against.
  [[nodiscard]] std::uint64_t bytes_resident() const {
    auto csc = [](const CscMatrix<VT>& m) {
      return m.colptr().size() * sizeof(index_t) + m.rowids().size() * sizeof(index_t) +
             m.vals().size() * sizeof(VT);
    };
    std::uint64_t b = csc(atilde_m_) + csc(btilde_m_);
    b += local_copies_.size() * sizeof(CopySpan);
    for (const auto& f : fetches_) b += sizeof(FetchOp) + f.spans.size() * sizeof(CopySpan);
    b += bt_src_.size() * sizeof(index_t);
    b += sym_.bounds.size() * sizeof(index_t) + sym_.colptr.size() * sizeof(index_t) +
         sym_.klass.size();
    return b;
  }


  /// One member of a replay: a verified plan plus the operand pair it
  /// replays.
  struct Replay {
    SpgemmPlan1D* plan;
    const DistMatrix1D<VT>* a;
    const DistMatrix1D<VT>* b;
  };

  /// The executor (collective): replays k verified plans in one fetch wave
  /// — execute_verified is the same code with k = 1. Every member's A-value
  /// window is exposed up front and the members' planned value gets flatten
  /// into one member-major pipeline of at most `prefetch_inflight` gets in
  /// flight (one staging ring across the whole group, so member boundaries
  /// never drain it). The first window of gets is posted before the local
  /// copies and the B̃ gathers, which then run while those gets travel; ONE
  /// barrier at the end covers every window. So k multiplies pay one
  /// expose/barrier round and one continuously-full RDMA pipeline. Each
  /// member's value copies, gathers and numeric pass depend only on its own
  /// plan, so every result is bit-identical whatever the group. Results are
  /// returned in member order.
  static std::vector<DistMatrix1D<VT>> replay(Comm& comm, std::span<const Replay> ops) {
    const std::size_t k = ops.size();
    if (k == 0) return {};
    // Structured (not a bare require): a rank whose operands diverged from
    // the verified plan must not skip the window exposes while peers get
    // from them — comm.fail raises PlanMismatch machine-wide so every rank
    // unwinds with the identical recoverable error.
    for (std::size_t m = 0; m < k; ++m)
      if (ops[m].plan == nullptr || !ops[m].plan->built_ ||
          !ops[m].plan->quick_matches_local(*ops[m].a, *ops[m].b))
        comm.fail(FaultClass::PlanMismatch, "execute_verified",
                  "SpgemmPlan1D::replay: member " + std::to_string(m) +
                      "'s operand/plan mismatch (rank " +
                      std::to_string(comm.global_rank(comm.rank())) +
                      "'s operand dims/nnz diverged from the plan fingerprint)");

    // Expose every member's window before any get — peers may be fetching
    // member j while this rank still pipelines member i.
    std::vector<Window> wins;
    wins.reserve(k);
    for (const auto& op : ops)
      wins.push_back(comm.expose(std::span<const VT>(op.a->local().vals())));

    // Transient-memory gauge (DESIGN.md §13): the Ã/B̃ assemblies are the
    // execution's working set — charged for the duration of the call (the
    // shells are plan-resident, but their values are live operand copies
    // only while the multiplies run), every member's at once.
    auto& rep = comm.report();
    std::uint64_t live = 0;
    for (const auto& op : ops)
      live += static_cast<std::uint64_t>(op.plan->atilde_m_.nnz()) +
              static_cast<std::uint64_t>(op.plan->btilde_m_.nnz());
    rep.mem_charge(live, live * sizeof(VT));

    // Prefetch pipeline: member-major flattening of every planned value get,
    // up to `depth` in flight, each with its own staging buffer (the first
    // member's plan owns the ring). A slot is reused only after its block has
    // been drained, bounding memory.
    struct FlatFetch {
      std::size_t m, i;
    };
    std::vector<FlatFetch> flat;
    std::size_t depth = 1;
    for (std::size_t m = 0; m < k; ++m) {
      const auto& p = *ops[m].plan;
      for (std::size_t i = 0; i < p.fetches_.size(); ++i) flat.push_back({m, i});
      depth = std::max(depth, static_cast<std::size_t>(std::max(p.opt_.prefetch_inflight, 1)));
    }
    const std::size_t nf = flat.size();
    depth = std::min(depth, nf);
    auto& bufs = ops[0].plan->prefetch_bufs_;
    if (bufs.size() < depth) bufs.resize(depth);
    std::vector<CommRequest> ring(depth);
    auto issue = [&](std::size_t x) {
      const auto& f = ops[flat[x].m].plan->fetches_[flat[x].i];
      auto& buf = bufs[x % depth];
      buf.resize(static_cast<std::size_t>(f.len));
      ring[x % depth] = comm.iget(wins[flat[x].m], f.owner, f.elo, f.len, buf.data());
    };
    for (std::size_t x = 0; x < depth; ++x) issue(x);

    // Local value spans and B̃ values through the cached gather map: both
    // independent of the fetched values, so they run inside the window.
    for (const auto& op : ops) {
      auto ph = comm.phase(Phase::Other);
      VT* av = op.plan->atilde_m_.mutable_vals().data();
      const VT* src = op.a->local().vals().data();
      for (const auto& s : op.plan->local_copies_)
        std::copy_n(src + s.src, static_cast<std::size_t>(s.len), av + s.dst);
      VT* btv = op.plan->btilde_m_.mutable_vals().data();
      const VT* bv = op.b->local().vals().data();
      for (std::size_t i = 0; i < op.plan->bt_src_.size(); ++i)
        btv[i] = bv[static_cast<std::size_t>(op.plan->bt_src_[i])];
    }
    for (std::size_t x = 0; x < nf; ++x) {
      ring[x % depth].wait();
      {
        auto ph = comm.phase(Phase::Other);
        auto& p = *ops[flat[x].m].plan;
        VT* av = p.atilde_m_.mutable_vals().data();
        const VT* src = bufs[x % depth].data();
        for (const auto& s : p.fetches_[flat[x].i].spans)
          std::copy_n(src + s.src, static_cast<std::size_t>(s.len), av + s.dst);
      }
      if (x + depth < nf) issue(x + depth);
    }

    // Numeric passes in member order.
    std::vector<CscMatrix<VT>> c_locals;
    c_locals.reserve(k);
    for (const auto& op : ops) {
      auto ph = comm.phase(Phase::Comp);
      c_locals.push_back(spgemm_local_numeric<SR, VT>(op.plan->atilde_m_, op.plan->btilde_m_,
                                                      op.plan->sym_, &op.plan->ws_));
    }

    // Keep every member's value window alive until all ranks finished
    // fetching — the group's single synchronization round.
    comm.barrier();

    std::vector<DistMatrix1D<VT>> out;
    out.reserve(k);
    for (std::size_t m = 0; m < k; ++m) {
      auto ph = comm.phase(Phase::Other);
      DcscMatrix<VT> c_dcsc = DcscMatrix<VT>::from_csc(c_locals[m]);
      auto& p = *ops[m].plan;
      ++p.executions_;
      out.emplace_back(p.c_nrows_, p.c_ncols_, p.out_bounds_, comm.rank(), std::move(c_dcsc));
    }
    rep.mem_release(live, live * sizeof(VT));
    return out;
  }

 private:
  /// One contiguous value copy of the executor's replay program.
  struct CopySpan {
    index_t src = 0;  ///< local copies: offset into A_i's vals; fetched: offset into the block
    index_t len = 0;
    index_t dst = 0;  ///< offset into Ã's vals
  };
  /// One planned RDMA value get plus the compaction copies out of it.
  struct FetchOp {
    int owner = 0;
    index_t elo = 0;
    index_t len = 0;
    std::vector<CopySpan> spans;
  };

  static void append_span(std::vector<CopySpan>& spans, index_t src, index_t len, index_t dst) {
    if (!spans.empty() && spans.back().src + spans.back().len == src &&
        spans.back().dst + spans.back().len == dst) {
      spans.back().len += len;  // adjacent kept columns coalesce into one memcpy
    } else {
      spans.push_back({src, len, dst});
    }
  }

  [[nodiscard]] bool quick_matches_local(const DistMatrix1D<VT>& a,
                                         const DistMatrix1D<VT>& b) const {
    return fp_.quick_equals(detail1d::quick_fingerprint_of(a, b));
  }

  bool built_ = false;
  Spgemm1dOptions opt_{};
  StructureFingerprint fp_{};
  std::vector<index_t> out_bounds_{0, 0};
  index_t c_nrows_ = 0;
  index_t c_ncols_ = 0;

  // Cached Ã/B̃ shells (structure final at plan time; execute overwrites
  // values in place) + the value replay program.
  CscMatrix<VT> atilde_m_;
  CscMatrix<VT> btilde_m_;
  std::vector<CopySpan> local_copies_;
  std::vector<FetchOp> fetches_;
  std::vector<index_t> bt_src_;  ///< B̃ value i = B_i.vals[bt_src_[i]]

  // Local engine's cached symbolic result + warm per-thread workspaces.
  LocalSymbolic sym_;
  std::vector<detail::Workspace<SR>> ws_;

  Spgemm1dInfo plan_info_{};
  index_t plan_rdma_calls_ = 0;
  int executions_ = 0;
  std::vector<std::vector<VT>> prefetch_bufs_;  ///< one staging buffer per in-flight get
};

/// The sparsity-aware 1D SpGEMM (paper Algorithm 1). Collective. One-shot
/// plan-then-execute over SpgemmPlan1D; iterated callers should hold the
/// plan and call execute() per iteration instead.
/// Phase accounting: inspector work (metadata, masks, fetch planning,
/// symbolic) → Plan; value assembly + output conversion → Other; the
/// numeric local multiply → Comp; window gets → RDMA counters.
template <typename SRIn = void, typename VT>
DistMatrix1D<VT> spgemm_1d(Comm& comm, const DistMatrix1D<VT>& a, const DistMatrix1D<VT>& b,
                           const Spgemm1dOptions& opt = {}, Spgemm1dInfo* info_out = nullptr) {
  SpgemmPlan1D<VT, ResolveSemiring<SRIn, VT>> plan(comm, a, b, opt);
  auto c = plan.execute_verified(comm, a, b, info_out);
  if (info_out != nullptr) info_out->rdma_calls += plan.plan_rdma_calls();
  return c;
}

/// Iterated-caller entry point: reuses `plan` when every rank's operand
/// structure still matches it (one collective check), rebuilds it
/// otherwise, then executes. The full fingerprint is verified exactly once
/// per call — either by matches() or by the fresh build — so the executor
/// skips its own O(nnz) re-hash. The empty()/matches() decision is uniform
/// across ranks, which keeps the replan collective deadlock-free. The app
/// loops (MCL rounds, BC levels, AMG setup refreshes) all go through this.
template <typename VT, typename SR>
DistMatrix1D<VT> spgemm_1d_cached(Comm& comm, SpgemmPlan1D<VT, SR>& plan,
                                  const DistMatrix1D<VT>& a, const DistMatrix1D<VT>& b,
                                  const Spgemm1dOptions& opt = {},
                                  Spgemm1dInfo* info_out = nullptr) {
  // An option change invalidates the plan just like a structure change:
  // every option field shapes the fetch plan or the local pass.
  if (plan.empty() || plan.options() != opt || !plan.matches(comm, a, b))
    plan = SpgemmPlan1D<VT, SR>(comm, a, b, opt);
  return plan.execute_verified(comm, a, b, info_out);
}

/// The paper's §V advisor: planned RDMA volume over the full size of A
/// (CV/memA). Computable from metadata alone, before any data movement;
/// above ~0.3 the paper recommends graph partitioning first. Collective.
template <typename VT>
double cv_over_mem_a(Comm& comm, const DistMatrix1D<VT>& a, const DistMatrix1D<VT>& b,
                     const Spgemm1dOptions& opt = {}) {
  auto meta = detail1d::gather_a_metadata(comm, a);
  BitVector h = detail1d::nonzero_rows(b.local(), a.ncols());
  std::uint64_t planned = 0;
  for (int r = 0; r < comm.size(); ++r)
    planned += static_cast<std::uint64_t>(
        plan_elements(detail1d::plan_owner_fetch(comm, meta, h, r, opt).ranges,
                      std::span<const index_t>(meta.cp[static_cast<std::size_t>(r)])));
  std::uint64_t planned_total = comm.allreduce_sum(planned);
  auto mem_a = static_cast<std::uint64_t>(a.global_nnz(comm));
  if (mem_a == 0) return 0.0;
  // Fig 5(b)'s ratio of 1.0 means "each process retrieves all of A", so the
  // numerator is the *average per-process* fetched volume (in elements).
  double per_rank = static_cast<double>(planned_total) / static_cast<double>(comm.size());
  return per_rank / static_cast<double>(mem_a);
}

}  // namespace sa1d
