// Batched small-multiply fusion: spgemm_dist_batched admits k multiplies
// against the multi-tenant plan cache (runtime/plan_cache.hpp) and replays
// the hits in groups through DistSpgemmPlan::replay_group, whose backend
// executors fuse the group's per-phase collectives — one concatenated
// alltoallv per grid route exchange instead of k, one fused
// row/column broadcast per SUMMA stage, one interleaved RDMA fetch wave (and
// one barrier) for the whole SA-1D group — so k small multiplies pay ~1× the
// per-message latency (alpha) per phase instead of k×, while each member's
// byte volume, compute order, and ⊕-fold program are untouched. A group of
// one is exactly the sequential replay: the same code runs.
//
// Bit-identity contract: every member's result equals its own sequential
// spgemm_dist_cached call, bit for bit. Fusion only concatenates message
// payloads (member-major within each destination chunk, consumed in
// ascending-source-then-member order); each member's multiply loops and
// fold programs run unchanged with per-member flat counters, so no
// floating-point operation is reordered.
//
// Ordering model (DESIGN.md §11): lookups, votes, admissions, builds, and
// replay groups are all derived in item order by every rank from agreed
// state, so the collective sequence is identical machine-wide. Members are
// grouped by DistSpgemmPlan::group_key() (backend + grid shape + layer
// count); a plan may appear at most once per group (members of the same
// tenant share scratch), and panelized plans replay solo. The batch's one
// fused validation exchange covers its misses' builds too.
// A recoverable fault (CorruptionDetected / PlanMismatch) during the batch
// unwinds every rank identically; the batch-level retry drops the touched
// entries, recovers collectively, and re-runs the whole batch as uniform
// misses — bounded by max_recovery_retries.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "runtime/plan_cache.hpp"

namespace sa1d {

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
  using Replay = typename DistSpgemmPlan<VT, SR>::Replay;
  const std::size_t n = items.size();
  std::vector<DistMatrix1D<VT>> results(n);
  if (stats != nullptr) stats->assign(n, DistSpgemmStats{});
  if (n == 0) return results;
  ++comm.report().toplevel_calls;
  // Outermost gauge scope: the batch's peak covers plan residency plus every
  // member's build/replay transients.
  MemGaugeScope gauge(comm.report());

  // (1) Fused batch validation: one control exchange covers the options
  // digest, every item's shape, and the first local validation failure.
  distdetail::validate_collective<VT>(comm, std::span(items), opt, /*batch=*/true);

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
      std::vector<Entry*> entries(n, nullptr);
      std::vector<std::size_t> miss_items;
      std::string vote;
      for (std::size_t i = 0; i < n; ++i) {
        Entry* e = cache.find(fps[i], opt);
        bool hit = e != nullptr;
        if (!hit) {
          // Within-batch duplicate? Defer onto the pending admission.
          for (auto j : miss_items) {
            if (cachedetail::fp_equal(fps[j], fps[i])) {
              e = entries[j];
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
        entries[i] = e;
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
            const Entry* e = entries[i];
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
      for (auto* e : entries) {
        e->pinned = true;
        cache.touch(e);
      }

      // (3) Build the misses sequentially in item order (each build is the
      // member's own result — the fresh multiply IS its execution).
      for (auto i : miss_items) {
        Entry& e = *entries[i];
        results[i] = e.plan->build_validated(comm, *items[i].first, *items[i].second, opt,
                                             stats != nullptr ? &(*stats)[i] : nullptr);
        e.bytes = cachedetail::agree_max_bytes(comm, e.plan->bytes_resident());
        cache.record_miss(comm);
        if (stats != nullptr) (*stats)[i].cache_misses = 1;
      }

      // (4) Group the hit members by group_key(): equal non-empty keys
      // replay together, a plan at most once per group (same-tenant members
      // share replay scratch, so a tenant's second hit spills into a second
      // group of the key); an empty key replays alone.
      struct Group {
        std::string key;
        std::vector<std::size_t> idx;
        std::vector<Replay> rs;
      };
      std::vector<Group> groups;
      for (std::size_t i = 0; i < n; ++i) {
        bool was_miss = false;
        for (auto j : miss_items) was_miss = was_miss || j == i;
        if (was_miss) continue;
        DistSpgemmPlan<VT, SR>* plan = entries[i]->plan.get();
        const std::string key = plan->group_key();
        Group* g = nullptr;
        for (auto& cand : groups) {
          if (key.empty() || cand.key != key) continue;
          bool has_plan = false;
          for (const auto& r : cand.rs) has_plan = has_plan || r.plan == plan;
          if (!has_plan) {
            g = &cand;
            break;
          }
        }
        if (g == nullptr) {
          groups.push_back(Group{key, {}, {}});
          g = &groups.back();
        }
        g->idx.push_back(i);
        g->rs.push_back({plan, items[i].first, items[i].second,
                         stats != nullptr ? &(*stats)[i] : nullptr});
      }

      // (5) Replay the groups in first-occurrence order.
      for (auto& g : groups) {
        auto cs = DistSpgemmPlan<VT, SR>::replay_group(comm, std::span<const Replay>(g.rs));
        for (std::size_t m = 0; m < g.idx.size(); ++m) {
          results[g.idx[m]] = std::move(cs[m]);
          cache.record_hit(comm, g.rs[m].plan->chosen());
          if (stats != nullptr) (*stats)[g.idx[m]].cache_hits = 1;
        }
      }

      // (6) Release the pins, then run the deferred eviction pass once for
      // the whole batch.
      const std::uint64_t ev_before = cache.stats().evictions;
      for (auto* e : entries) e->pinned = false;
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
