// Multi-tenant LRU plan cache: SpGEMM-as-a-service keeps one DistSpgemmPlan
// per (operand structure, options) tenant behind a byte-budgeted LRU, so a
// serving loop mixing many small multiplies pays each tenant's inspector
// exactly once while total plan residency stays bounded.
//
// Coherence protocol (DESIGN.md §11): the cache is a rank-local object, kept
// consistent across ranks purely by SPMD determinism — every rank sees the
// identical request sequence, so every rank's LRU order, admission sequence
// numbers, and (agreed) residency figures evolve identically. Two collective
// guards make that assumption safe instead of implicit:
//
//   * every lookup votes its verdict ("hit on entry #seq" / "miss") through
//     the *uncounted* control exchange; a divergent vote — a hit on one rank,
//     a miss on another — throws the byte-identical ValidationError on every
//     rank instead of sending ranks into different collective sequences
//     (which would deadlock the machine);
//   * a plan's residency differs per rank (routes are rank-shaped), so the
//     budget accounts the *agreed* max-over-ranks figure, exchanged over the
//     same control plane — zero modeled network time, zero counter noise.
//
// Eviction walks from the LRU tail and is itself deterministic given agreed
// bytes; every backend's victim is dropped the same way.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <list>
#include <memory>
#include <string>
#include <utility>

#include "dist/dist_plan.hpp"

namespace sa1d {

/// Snapshot of a PlanCache's lifetime counters. Rank-local, but every
/// counter is a pure function of the SPMD request sequence, so ranks of a
/// deterministic program report identical values.
struct PlanCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t bytes_resident = 0;
  std::size_t entries = 0;
};

namespace cachedetail {

/// Collectively agrees on one residency figure for a plan whose footprint
/// differs per rank: the maximum, exchanged over the *uncounted* control
/// plane — a counted allreduce here would add modeled alpha per cache
/// operation and eat the very latency the batched executor amortizes.
inline std::uint64_t agree_max_bytes(Comm& comm, std::uint64_t local) {
  auto all = comm.exchange_control(std::to_string(local));
  std::uint64_t mx = 0;
  for (const auto& s : all)
    mx = std::max<std::uint64_t>(mx, std::strtoull(s.c_str(), nullptr, 10));
  return mx;
}

/// Collective cache-coherence vote: every rank publishes its verdict for the
/// same request; any divergence throws the byte-identical ValidationError on
/// every rank (the rank-consistency contract — never a hang).
inline void vote_uniform(Comm& comm, const std::string& verdict, const char* op) {
  auto all = comm.exchange_control(verdict);
  for (int p = 0; p < comm.size(); ++p) {
    if (all[static_cast<std::size_t>(p)] != all[0])
      throw ValidationError(
          ErrorContext{comm.global_rank(p), comm.report().comm_ops, op},
          std::string(op) + ": plan-cache state diverged across ranks (rank " +
              std::to_string(comm.global_rank(p)) + " votes [" +
              all[static_cast<std::size_t>(p)] + "], rank " +
              std::to_string(comm.global_rank(0)) + " votes [" + all[0] +
              "]); rank-local cache mutation or divergent budgets break the SPMD "
              "determinism the cache relies on — mutate the cache uniformly on every rank");
  }
}

/// Full-fingerprint equality (every field, hashes included) — the cache key
/// comparison. quick_equals is the O(1) prefix; the hashes separate tenants
/// whose slices share dims and counts.
inline bool fp_equal(const StructureFingerprint& x, const StructureFingerprint& y) {
  return x.quick_equals(y) && x.a_hash == y.a_hash && x.b_hash == y.b_hash;
}

}  // namespace cachedetail

/// The multi-tenant plan cache. Rank-local handle (SPMD style); every
/// mutating operation below that takes a Comm is collective in the sense
/// that all ranks must call it for the same request sequence.
template <typename VT, typename SR = PlusTimes<VT>>
class PlanCache {
 public:
  struct Entry {
    StructureFingerprint fp{};
    DistSpgemmOptions opt{};
    std::unique_ptr<DistSpgemmPlan<VT, SR>> plan;
    std::uint64_t bytes = 0;  ///< agreed (max-over-ranks) residency
    std::uint64_t seq = 0;    ///< monotonic admission ordinal (vote digest payload)
    bool pinned = false;      ///< live batch member: immune to eviction
  };

  /// `budget_bytes` = 0 disables eviction. It must be identical on every
  /// rank (the vote digest carries the budget, so a divergence surfaces as
  /// a ValidationError, not a hang).
  explicit PlanCache(std::uint64_t budget_bytes = 0) : budget_(budget_bytes) {}

  [[nodiscard]] std::uint64_t budget() const { return budget_; }
  /// Retargets the budget (0 disables eviction). Must be called with the
  /// same value on every rank — like the constructor argument, it is part
  /// of the vote digest, so a divergence surfaces as a ValidationError at
  /// the next request. Enforced lazily at the next admission/batch end.
  void set_budget(std::uint64_t budget_bytes) { budget_ = budget_bytes; }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::uint64_t bytes_resident() const {
    std::uint64_t b = 0;
    for (const auto& e : entries_) b += e.bytes;
    return b;
  }
  [[nodiscard]] PlanCacheStats stats() const {
    return {hits_, misses_, evictions_, bytes_resident(), entries_.size()};
  }
  /// MRU-first entry list (front = most recently used); inspection hook.
  [[nodiscard]] const std::list<Entry>& entries() const { return entries_; }

  [[nodiscard]] bool contains(const DistMatrix1D<VT>& a, const DistMatrix1D<VT>& b,
                              const DistSpgemmOptions& opt = {}) const {
    const auto fp = detail1d::fingerprint_of(a, b);
    for (const auto& e : entries_)
      if (cachedetail::fp_equal(e.fp, fp) && e.opt == opt) return true;
    return false;
  }

  /// Rank-LOCAL removal — a *test hook* for the coherence guard: dropping an
  /// entry on a subset of ranks makes the next vote diverge, which must
  /// surface as the identical typed ValidationError everywhere, never a
  /// hang. Returns true if an entry was removed on this rank.
  bool erase_local(const DistMatrix1D<VT>& a, const DistMatrix1D<VT>& b,
                   const DistSpgemmOptions& opt = {}) {
    const auto fp = detail1d::fingerprint_of(a, b);
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (cachedetail::fp_equal(it->fp, fp) && it->opt == opt) {
        entries_.erase(it);
        return true;
      }
    }
    return false;
  }

  // ---- driver interface (spgemm_dist_cached_mt / spgemm_dist_batched) ----

  /// MRU-order linear scan for a usable entry (full fingerprint + options,
  /// plan actually built). Does not touch the LRU order.
  Entry* find(const StructureFingerprint& fp, const DistSpgemmOptions& opt) {
    for (auto& e : entries_)
      if (cachedetail::fp_equal(e.fp, fp) && e.opt == opt && e.plan != nullptr &&
          !e.plan->empty())
        return &e;
    return nullptr;
  }

  /// Moves `e` to the MRU position. (std::list: pointers stay valid.)
  void touch(Entry* e) {
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (&*it == e) {
        entries_.splice(entries_.begin(), entries_, it);
        return;
      }
    }
  }

  /// Admits a new MRU entry with an empty plan for the caller to build.
  Entry& admit(const StructureFingerprint& fp, const DistSpgemmOptions& opt) {
    entries_.push_front(
        Entry{fp, opt, std::make_unique<DistSpgemmPlan<VT, SR>>(), 0, next_seq_++, false});
    return entries_.front();
  }

  /// Removes a specific entry (e.g. after its build threw, so a dead empty
  /// entry cannot linger in the LRU). Errors unwind machine-wide, so every
  /// rank erases the same entry.
  void erase_entry(Entry* e) {
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (&*it == e) {
        entries_.erase(it);
        return;
      }
    }
  }

  /// Clears every pin — the batched executor's unwind path (it cannot know
  /// which members had pinned before the error).
  void unpin_all() {
    for (auto& e : entries_) e.pinned = false;
  }

  void record_hit(Comm& comm, Algo chosen) {
    ++hits_;
    ++comm.report().cache_hits;
    ++comm.report().cache_hits_by_algo[distdetail::algo_slot(chosen)];
  }
  void record_miss(Comm& comm) {
    ++misses_;
    ++comm.report().cache_misses;
  }
  /// Publishes the residency gauge into the RankReport — and routes the
  /// byte *delta* since the last publish through the same execution memory
  /// gauge the budgeted backends charge (DESIGN.md §13): cache residency and
  /// execution transients report through one pressure path, so peak_bytes
  /// reflects plans held resident on a tenant's behalf, not just in-flight
  /// staging.
  void publish_gauge(Comm& comm) {
    const std::uint64_t now = bytes_resident();
    auto& rep = comm.report();
    rep.cache_bytes_resident = now;
    if (now > last_published_)
      rep.mem_charge(0, now - last_published_);
    else
      rep.mem_release(0, last_published_ - now);
    last_published_ = now;
  }

  /// Evicts from the LRU tail until the agreed residency fits the budget.
  /// Deterministic across ranks (the loop reads only agreed state), so every
  /// rank evicts the same victims in the same order. `keep` (the entry just
  /// admitted) and pinned entries are never victims.
  void enforce_budget(Comm& comm, const Entry* keep = nullptr) {
    if (budget_ == 0) return;
    while (bytes_resident() > budget_) {
      Entry* vic = nullptr;
      for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
        if (!it->pinned && &*it != keep) {
          vic = &*it;
          break;
        }
      }
      if (vic == nullptr) return;  // everything pinned/kept: over budget until released
      ++evictions_;
      ++comm.report().cache_evictions;
      if (vic->plan != nullptr && !vic->plan->empty())
        ++comm.report().cache_evictions_by_algo[distdetail::algo_slot(vic->plan->chosen())];
      erase_entry(vic);
    }
  }

 private:
  std::uint64_t budget_ = 0;
  std::list<Entry> entries_;  ///< front = MRU, evict from the back
  std::uint64_t next_seq_ = 0;
  std::uint64_t last_published_ = 0;  ///< gauge bytes charged at the last publish
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

/// Multi-tenant serving entry point: one validation exchange and one
/// collective coherence vote, then a cache hit replays the tenant's plan
/// (through spgemm_dist_cached's body, so the self-healing retry loop is
/// shared) and a miss admits + builds + runs the byte-budget eviction
/// pass. Results are identical to calling
/// spgemm_dist_cached with a per-tenant plan the caller keeps alive.
template <typename SRIn = void, typename VT>
DistMatrix1D<VT> spgemm_dist_cached_mt(Comm& comm,
                                       PlanCache<VT, ResolveSemiring<SRIn, VT>>& cache,
                                       const DistMatrix1D<VT>& a, const DistMatrix1D<VT>& b,
                                       const DistSpgemmOptions& opt = {},
                                       DistSpgemmStats* stats = nullptr) {
  distdetail::validate_collective(comm, a, b, opt);
  // Outermost gauge scope: a serving-loop call's peak covers plan residency
  // (published below) plus the tenant's execution transients.
  MemGaugeScope gauge(comm.report());
  StructureFingerprint fp;
  {
    auto ph = comm.phase(Phase::Other);
    fp = detail1d::fingerprint_of(a, b);
  }
  auto* entry = cache.find(fp, opt);
  // Coherence vote: hit/miss — and *which* entry — must agree on every rank
  // before anyone enters a data collective.
  cachedetail::vote_uniform(
      comm,
      (entry != nullptr ? "h" + std::to_string(entry->seq) : std::string("m")) + "/b" +
          std::to_string(cache.budget()),
      "spgemm_dist_cached_mt");
  const std::uint64_t ev_before = cache.stats().evictions;
  DistMatrix1D<VT> c;
  if (entry != nullptr) {
    cache.touch(entry);
    const int builds_before = entry->plan->builds();
    c = distdetail::cached_call(comm, *entry->plan, a, b, opt, stats, /*validated=*/true);
    cache.record_hit(comm, entry->plan->chosen());
    if (entry->plan->builds() != builds_before) {
      // Self-healing rebuilt the plan in place; the agreed residency (and
      // the budget) follow suit.
      entry->bytes = cachedetail::agree_max_bytes(comm, entry->plan->bytes_resident());
      cache.enforce_budget(comm, entry);
    }
  } else {
    auto& e = cache.admit(fp, opt);
    try {
      c = distdetail::cached_call(comm, *e.plan, a, b, opt, stats, /*validated=*/true);
    } catch (...) {
      cache.erase_entry(&e);  // errors unwind machine-wide: uniform erase
      throw;
    }
    e.bytes = cachedetail::agree_max_bytes(comm, e.plan->bytes_resident());
    cache.record_miss(comm);
    cache.enforce_budget(comm, &e);
  }
  cache.publish_gauge(comm);
  if (stats != nullptr) {
    stats->cache_hits = entry != nullptr ? 1 : 0;
    stats->cache_misses = entry != nullptr ? 0 : 1;
    stats->cache_evictions = cache.stats().evictions - ev_before;
    stats->cache_bytes_resident = cache.stats().bytes_resident;
  }
  return c;
}

}  // namespace sa1d
