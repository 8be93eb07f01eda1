// Shared-memory SpGEMM engine, column-by-column formulation (paper Fig 1):
// column j of C is the ⊕-combination of A's columns selected by the nonzeros
// of B(:, j). Four accumulators are provided:
//   - SPA   : dense sparse-accumulator, the O(m) reference
//   - Heap  : k-way merge of the selected A columns (Azad et al. 2016)
//   - Hash  : open-addressing per-column table (Nagasaka et al. 2019)
//   - Hybrid: per-column choice among the three by flops and density —
//             the configuration the paper uses for its local multiplies.
//
// The multiply runs structure first (Gustavson, ACM TOMS 1978):
//   1. symbolic — per-column flops, the accumulator class of every column,
//      and C's exact structure: colptr plus the sorted row ids of every
//      column (LocalSymbolic::rowids). Bitmap columns emit rows by walking
//      the bitmap words, small-distinct and hash columns sort their touched
//      rows, and a column with at most one list copies the A column's rows.
//      The flop counts drive a flop-prefix-balanced partition of C's
//      columns across threads, so skewed column distributions do not
//      serialize on one thread.
//   2. numeric — writes values only, into a caller-provided array laid out
//      like the symbolic rowids. With the rows known, a semiring that
//      declares exact_identity() (semiring.hpp) seeds each row with it and
//      accumulates with a plain ⊕: no first-touch test on any product.
//      Other semirings keep an assign-on-first-touch flag. Either way the
//      values are gathered (and the flags cleared) by the known rows: no
//      bitmap walk and no sort. A cached symbolic result replays the
//      numeric pass for any values over the same structure.
// Both phases run on persistent per-thread workspaces: a grow-only
// open-addressing table cleared in O(1) by bumping a generation tag (no
// O(capacity) reset per column), a dense accumulator with a one-bit-per-row
// occupancy bitmap, and reusable heap buffers. The output is byte-identical
// for every thread count.
//
// All four accumulators apply ⊕ to each output row's products in the same
// order (B-column position, then A-row position; the heap breaks row ties by
// B-column position), so their outputs are bit-identical even for
// non-associative floating-point ⊕.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <thread>
#include <type_traits>
#include <vector>

#include "kernels/semiring.hpp"
#include "sparse/csc.hpp"
#include "util/common.hpp"

namespace sa1d {

enum class LocalKernel { Spa, Heap, Hash, Hybrid };

inline const char* kernel_name(LocalKernel k) {
  switch (k) {
    case LocalKernel::Spa: return "spa";
    case LocalKernel::Heap: return "heap";
    case LocalKernel::Hash: return "hash";
    case LocalKernel::Hybrid: return "hybrid";
  }
  return "?";
}

/// Per-column multiply work: flops(j) = Σ_{k : B(k,j)≠0} nnz(A(:,k)).
/// This is the "sparse flops" quantity the paper balances with METIS weights.
template <typename VT>
std::vector<index_t> symbolic_flops(const CscMatrix<VT>& a, const CscMatrix<VT>& b) {
  require(a.ncols() == b.nrows(), "symbolic_flops: inner dimension mismatch");
  std::vector<index_t> flops(static_cast<std::size_t>(b.ncols()), 0);
  for (index_t j = 0; j < b.ncols(); ++j)
    for (auto k : b.col_rows(j)) flops[static_cast<std::size_t>(j)] += a.col_nnz(k);
  return flops;
}

template <typename VT>
index_t total_flops(const CscMatrix<VT>& a, const CscMatrix<VT>& b) {
  auto f = symbolic_flops(a, b);
  index_t t = 0;
  for (auto x : f) t += x;
  return t;
}

/// Splits columns [0, flops.size()) into `parts` contiguous ranges whose
/// flop sums are as even as prefix cuts allow (each column is charged
/// flops+1 so ranges of all-empty columns still spread out). Replaces
/// even_split for the thread partition: on skewed (RMAT-like) inputs an
/// even column split puts nearly all multiply work on one thread.
inline std::vector<index_t> flop_balanced_split(std::span<const index_t> flops, int parts) {
  require(parts > 0, "flop_balanced_split: parts must be positive");
  const auto n = static_cast<index_t>(flops.size());
  std::vector<std::uint64_t> prefix(flops.size() + 1, 0);
  for (std::size_t i = 0; i < flops.size(); ++i)
    prefix[i + 1] = prefix[i] + static_cast<std::uint64_t>(flops[i]) + 1;
  const std::uint64_t total = prefix.back();
  std::vector<index_t> bounds(static_cast<std::size_t>(parts) + 1, 0);
  bounds.back() = n;
  for (int p = 1; p < parts; ++p) {
    std::uint64_t target =
        total / static_cast<std::uint64_t>(parts) * static_cast<std::uint64_t>(p);
    auto it = std::lower_bound(prefix.begin(), prefix.end(), target);
    auto cut = static_cast<index_t>(it - prefix.begin());
    bounds[static_cast<std::size_t>(p)] =
        std::clamp(cut, bounds[static_cast<std::size_t>(p) - 1], n);
  }
  return bounds;
}

namespace detail {

/// Accumulator class of one output column, decided once in the symbolic
/// phase. The two dense classes differ only in how the symbolic pass finds
/// the column's rows: kClassSpa walks the occupancy bitmap (rows come out
/// sorted; right when the column's flops amortize the O(nrows/64) word
/// scan), kClassSpaSort keeps a touched list and sorts it (right for
/// small-distinct columns on a small row dimension). The numeric pass
/// treats both alike.
enum ColClass : std::uint8_t {
  kClassHeap = 0,
  kClassHash = 1,
  kClassSpa = 2,
  kClassSpaSort = 3,
};

/// Hybrid thresholds. A merge of ≤1 lists is a scaled copy (heap fast
/// path); tiny merges stay on the heap; dense accumulation wins whenever
/// the bitmap scan is amortized or the row dimension is cache-resident; the
/// hash table covers the hypersparse remainder (large m, scattered small
/// columns — the Ã·B̃ shape of Algorithm 1).
constexpr index_t kHeapFlopsThreshold = 16;
constexpr index_t kSpaResidentRows = index_t{1} << 13;

inline ColClass classify(index_t col_flops, index_t blists, index_t nrows, LocalKernel kernel) {
  switch (kernel) {
    case LocalKernel::Spa:
      return col_flops >= nrows / 64 ? kClassSpa : kClassSpaSort;
    case LocalKernel::Heap: return kClassHeap;
    case LocalKernel::Hash: return kClassHash;
    case LocalKernel::Hybrid: break;
  }
  if (blists <= 1 || col_flops <= kHeapFlopsThreshold) return kClassHeap;
  if (col_flops >= nrows / 64) return kClassSpa;
  if (nrows <= kSpaResidentRows) return kClassSpaSort;
  return kClassHash;
}

/// Inert filler for unoccupied hash slots. Slot validity is decided by the
/// generation tag alone, so no row id — including -1 or any value an
/// index_t can take on large inputs — can ever collide with "empty".
inline constexpr index_t kHashEmptyKey = std::numeric_limits<index_t>::min();

inline std::size_t hash_mix(index_t r) {
  return static_cast<std::size_t>(static_cast<std::uint64_t>(r) * 0x9e3779b97f4a7c15ULL);
}

/// Persistent per-thread workspace: every buffer is allocated (and grown)
/// at most a handful of times per multiply instead of once per column.
template <SemiringConcept SR>
struct Workspace {
  using T = typename SR::value_type;
  // bool accumulators (OrAnd) are stored as uint8_t: vector<bool> has no
  // data() and its proxy references defeat the raw-pointer inner loops.
  using StoredT = std::conditional_t<std::is_same_v<T, bool>, std::uint8_t, T>;

  // Grow-only open-addressing table shared by the symbolic pass and the
  // numeric hash accumulator. A slot is occupied iff its generation tag
  // equals `gen`; bumping `gen` clears the whole table in O(1). Key and tag
  // share a 16-byte slot so a probe touches one cache line.
  struct HSlot {
    index_t key;
    std::uint64_t gen;
  };
  std::vector<HSlot> hslots;
  std::vector<StoredT> hvals;
  std::uint64_t gen = 0;

  // Dense accumulator (SPA classes; lazily sized to the row dimension) and
  // its occupancy bitmap (1 bit/row, L1-resident). Invariant: `bits` is
  // all-zero between columns.
  std::vector<StoredT> accum;
  std::vector<std::uint64_t> bits;

  // Heap-merge entries: current row of list `list` at position `pos`.
  struct HeapEntry {
    index_t row;
    index_t list;
    index_t pos;
  };
  std::vector<HeapEntry> heap;

  /// Grows the table to hold `distinct_bound` distinct rows at ≤0.5 load.
  /// bit_ceil cannot loop the way the seed's `while (cap <<= 1)` could; the
  /// bound is clamped to the row dimension by callers, so the doubled value
  /// stays far below SIZE_MAX/2.
  void ensure_hash_capacity(index_t distinct_bound) {
    std::size_t want = std::bit_ceil(std::max<std::size_t>(
        16, 2 * static_cast<std::size_t>(std::max<index_t>(distinct_bound, 1))));
    if (want > hslots.size()) {
      hslots.assign(want, {kHashEmptyKey, 0});
      hvals.assign(want, static_cast<StoredT>(SR::zero()));
      gen = 0;  // all tags are 0 → every slot reads as empty once gen > 0
    }
  }

  void ensure_dense(index_t nrows) {
    // accum needs no initialization: a slot is only read after the column
    // seeded it or stored its first product.
    if (accum.size() < static_cast<std::size_t>(nrows))
      accum.resize(static_cast<std::size_t>(nrows));
    const auto words = static_cast<std::size_t>((nrows + 63) / 64);
    if (bits.size() < words) bits.resize(words, 0);
  }
};

/// Appends column j's distinct rows, ascending, by marking the row bitmap
/// (the probes stay L1-resident) and walking its words in order; the scan is
/// amortized by the classify() thresholds.
template <SemiringConcept SR, typename VT>
void symbolic_rows_bitmap(Workspace<SR>& ws, const CscMatrix<VT>& a, const CscMatrix<VT>& b,
                          index_t j, std::vector<index_t>& out) {
  ws.ensure_dense(a.nrows());
  auto* bits = ws.bits.data();
  const index_t* acp = a.colptr().data();
  const index_t* arw = a.rowids().data();
  for (auto k : b.col_rows(j)) {
    for (index_t q = acp[k]; q < acp[k + 1]; ++q) {
      const index_t r = arw[q];
      bits[static_cast<std::size_t>(r) >> 6] |= std::uint64_t{1} << (r & 63);
    }
  }
  const auto words = static_cast<std::size_t>((a.nrows() + 63) / 64);
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t word = bits[w];
    if (word == 0) continue;
    bits[w] = 0;
    const auto base = static_cast<index_t>(w << 6);
    do {
      out.push_back(base + std::countr_zero(word));
      word &= word - 1;
    } while (word != 0);
  }
}

/// Appends column j's distinct rows, ascending, by collecting first touches
/// behind the row bitmap and sorting them (small-distinct columns on a
/// cache-resident row dimension: the sort is cheaper than the word scan).
template <SemiringConcept SR, typename VT>
void symbolic_rows_touched(Workspace<SR>& ws, const CscMatrix<VT>& a, const CscMatrix<VT>& b,
                           index_t j, std::vector<index_t>& out) {
  ws.ensure_dense(a.nrows());
  auto* bits = ws.bits.data();
  const index_t* acp = a.colptr().data();
  const index_t* arw = a.rowids().data();
  const auto first = static_cast<std::ptrdiff_t>(out.size());
  for (auto k : b.col_rows(j)) {
    for (index_t q = acp[k]; q < acp[k + 1]; ++q) {
      const index_t r = arw[q];
      const auto w = static_cast<std::size_t>(r) >> 6;
      const std::uint64_t bit = std::uint64_t{1} << (r & 63);
      if ((bits[w] & bit) == 0) {
        bits[w] |= bit;
        out.push_back(r);
      }
    }
  }
  std::sort(out.begin() + first, out.end());
  for (auto it = out.begin() + first; it != out.end(); ++it)
    bits[static_cast<std::size_t>(*it) >> 6] = 0;
}

/// Appends column j's distinct rows, ascending, through the generation-
/// stamped table (no O(nrows) state needed for sparse columns).
template <SemiringConcept SR, typename VT>
void symbolic_rows_hash(Workspace<SR>& ws, const CscMatrix<VT>& a, const CscMatrix<VT>& b,
                        index_t j, index_t col_flops, std::vector<index_t>& out) {
  ws.ensure_hash_capacity(std::min<index_t>(col_flops, a.nrows()));
  ++ws.gen;
  const std::uint64_t gen = ws.gen;
  auto* slots = ws.hslots.data();
  const std::size_t mask = ws.hslots.size() - 1;
  const index_t* acp = a.colptr().data();
  const index_t* arw = a.rowids().data();
  const auto first = static_cast<std::ptrdiff_t>(out.size());
  for (auto k : b.col_rows(j)) {
    for (index_t q = acp[k]; q < acp[k + 1]; ++q) {
      const index_t r = arw[q];
      std::size_t h = hash_mix(r) & mask;
      while (slots[h].gen == gen && slots[h].key != r) h = (h + 1) & mask;
      if (slots[h].gen != gen) {
        slots[h] = {r, gen};
        out.push_back(r);
      }
    }
  }
  std::sort(out.begin() + first, out.end());
}

/// Symbolic pass over columns [jlo, jhi): classifies each column, records
/// its exact output nnz in counts[j] and appends its sorted rows to `rows`.
template <SemiringConcept SR, typename VT>
void symbolic_range(const CscMatrix<VT>& a, const CscMatrix<VT>& b, index_t jlo, index_t jhi,
                    LocalKernel kernel, std::span<const index_t> flops, Workspace<SR>& ws,
                    std::span<index_t> counts, std::span<std::uint8_t> klass,
                    std::vector<index_t>& rows) {
  for (index_t j = jlo; j < jhi; ++j) {
    const index_t f = flops[static_cast<std::size_t>(j)];
    const auto lists = b.col_rows(j);
    ColClass cls = classify(f, static_cast<index_t>(lists.size()), a.nrows(), kernel);
    klass[static_cast<std::size_t>(j)] = cls;
    const std::size_t before = rows.size();
    if (lists.size() <= 1) {
      // 0 or 1 selected A columns: the output is that column (scaled), so
      // its rows are A's, copied without any accumulator.
      if (!lists.empty()) {
        auto ars = a.col_rows(lists[0]);
        rows.insert(rows.end(), ars.begin(), ars.end());
      }
    } else if (cls == kClassSpa) {
      symbolic_rows_bitmap(ws, a, b, j, rows);
    } else if (cls == kClassSpaSort) {
      symbolic_rows_touched(ws, a, b, j, rows);
    } else {
      symbolic_rows_hash(ws, a, b, j, f, rows);
    }
    counts[static_cast<std::size_t>(j)] = static_cast<index_t>(rows.size() - before);
  }
}

/// Numeric dense column over its known rows. With an exact identity each
/// row is seeded and every product is ⊕-ed in with no test; otherwise the
/// bitmap marks first touches, and the gather clears it by the known rows.
template <SemiringConcept SR, typename VT>
void numeric_dense_col(Workspace<SR>& ws, const CscMatrix<VT>& a, const CscMatrix<VT>& b,
                       index_t j, const index_t* rows, index_t cnt, VT* out_vals) {
  using T = typename SR::value_type;
  using StoredT = typename Workspace<SR>::StoredT;
  ws.ensure_dense(a.nrows());
  auto* bits = ws.bits.data();
  StoredT* accum = ws.accum.data();
  const index_t* acp = a.colptr().data();
  const index_t* arw = a.rowids().data();
  const VT* avl = a.vals().data();
  auto bks = b.col_rows(j);
  auto bvs = b.col_vals(j);
  if constexpr (HasExactIdentity<SR>) {
    const auto e = static_cast<StoredT>(SR::exact_identity());
    for (index_t i = 0; i < cnt; ++i) accum[rows[i]] = e;
  }
  for (std::size_t p = 0; p < bks.size(); ++p) {
    const index_t k = bks[p];
    const T bv = static_cast<T>(bvs[p]);
    for (index_t q = acp[k]; q < acp[k + 1]; ++q) {
      const index_t r = arw[q];
      const T prod = SR::multiply(static_cast<T>(avl[q]), bv);
      if constexpr (HasExactIdentity<SR>) {
        accum[r] = static_cast<StoredT>(SR::add(static_cast<T>(accum[r]), prod));
      } else {
        const auto w = static_cast<std::size_t>(r) >> 6;
        const std::uint64_t bit = std::uint64_t{1} << (r & 63);
        if ((bits[w] & bit) == 0) {
          bits[w] |= bit;
          accum[r] = static_cast<StoredT>(prod);
        } else {
          accum[r] = static_cast<StoredT>(SR::add(static_cast<T>(accum[r]), prod));
        }
      }
    }
  }
  for (index_t i = 0; i < cnt; ++i) {
    out_vals[i] = static_cast<VT>(accum[rows[i]]);
    if constexpr (!HasExactIdentity<SR>) bits[static_cast<std::size_t>(rows[i]) >> 6] = 0;
  }
}

/// Numeric hash column over its known rows; products are ⊕-ed in
/// (B-position, A-position) order, so per-row ⊕ order matches the SPA
/// reference bit for bit. With an exact identity the rows are pre-inserted
/// seeded; otherwise a row is inserted at its first product. Every probe
/// for a present key stops at its slot on the key alone: the slots ahead of
/// it in its chain were all occupied this column when it was inserted.
template <SemiringConcept SR, typename VT>
void numeric_hash_col(Workspace<SR>& ws, const CscMatrix<VT>& a, const CscMatrix<VT>& b,
                      index_t j, const index_t* rows, index_t cnt, VT* out_vals) {
  using T = typename SR::value_type;
  using StoredT = typename Workspace<SR>::StoredT;
  ws.ensure_hash_capacity(cnt);
  ++ws.gen;
  const std::uint64_t gen = ws.gen;
  auto* slots = ws.hslots.data();
  StoredT* hvals = ws.hvals.data();
  const std::size_t mask = ws.hslots.size() - 1;
  const index_t* acp = a.colptr().data();
  const index_t* arw = a.rowids().data();
  const VT* avl = a.vals().data();
  auto find = [&](index_t r) {
    std::size_t h = hash_mix(r) & mask;
    while (slots[h].key != r) h = (h + 1) & mask;
    return h;
  };
  if constexpr (HasExactIdentity<SR>) {
    const auto e = static_cast<StoredT>(SR::exact_identity());
    for (index_t i = 0; i < cnt; ++i) {
      std::size_t h = hash_mix(rows[i]) & mask;
      while (slots[h].gen == gen) h = (h + 1) & mask;
      slots[h] = {rows[i], gen};
      hvals[h] = e;
    }
  }
  auto bks = b.col_rows(j);
  auto bvs = b.col_vals(j);
  for (std::size_t p = 0; p < bks.size(); ++p) {
    const index_t k = bks[p];
    const T bv = static_cast<T>(bvs[p]);
    for (index_t q = acp[k]; q < acp[k + 1]; ++q) {
      const index_t r = arw[q];
      const T prod = SR::multiply(static_cast<T>(avl[q]), bv);
      if constexpr (HasExactIdentity<SR>) {
        const std::size_t h = find(r);
        hvals[h] = static_cast<StoredT>(SR::add(static_cast<T>(hvals[h]), prod));
      } else {
        std::size_t h = hash_mix(r) & mask;
        while (slots[h].gen == gen && slots[h].key != r) h = (h + 1) & mask;
        if (slots[h].gen != gen) {
          slots[h] = {r, gen};
          hvals[h] = static_cast<StoredT>(prod);
        } else {
          hvals[h] = static_cast<StoredT>(SR::add(static_cast<T>(hvals[h]), prod));
        }
      }
    }
  }
  for (index_t i = 0; i < cnt; ++i) out_vals[i] = static_cast<VT>(hvals[find(rows[i])]);
}

/// Numeric heap column: k-way merge of the selected A columns. Row ties pop
/// in ascending B-position (`list`) order, which makes the per-row ⊕ order
/// identical to the SPA reference; rows pop ascending, so the values land in
/// the known rows' order. Merges of one list degenerate to a scaled copy.
template <SemiringConcept SR, typename VT>
void numeric_heap_col(Workspace<SR>& ws, const CscMatrix<VT>& a, const CscMatrix<VT>& b,
                      index_t j, VT* out_vals) {
  using T = typename SR::value_type;
  using Entry = typename Workspace<SR>::HeapEntry;
  auto bks = b.col_rows(j);
  auto bvs = b.col_vals(j);
  if (bks.size() == 1) {
    const T bv = static_cast<T>(bvs[0]);
    auto avs = a.col_vals(bks[0]);
    for (std::size_t q = 0; q < avs.size(); ++q)
      out_vals[q] = static_cast<VT>(SR::multiply(static_cast<T>(avs[q]), bv));
    return;
  }
  auto cmp = [](const Entry& x, const Entry& y) {
    return x.row != y.row ? x.row > y.row : x.list > y.list;
  };
  ws.heap.clear();
  for (std::size_t l = 0; l < bks.size(); ++l) {
    if (a.col_nnz(bks[l]) > 0)
      ws.heap.push_back({a.col_rows(bks[l])[0], static_cast<index_t>(l), 0});
  }
  std::make_heap(ws.heap.begin(), ws.heap.end(), cmp);
  index_t cur_row = -1;
  T cur_val = SR::zero();
  std::size_t w = 0;
  while (!ws.heap.empty()) {
    std::pop_heap(ws.heap.begin(), ws.heap.end(), cmp);
    Entry e = ws.heap.back();
    ws.heap.pop_back();
    index_t k = bks[static_cast<std::size_t>(e.list)];
    T prod = SR::multiply(static_cast<T>(a.col_vals(k)[static_cast<std::size_t>(e.pos)]),
                          static_cast<T>(bvs[static_cast<std::size_t>(e.list)]));
    if (e.row == cur_row) {
      cur_val = SR::add(cur_val, prod);
    } else {
      if (cur_row >= 0) out_vals[w++] = static_cast<VT>(cur_val);
      cur_row = e.row;
      cur_val = prod;
    }
    if (e.pos + 1 < a.col_nnz(k)) {
      ws.heap.push_back({a.col_rows(k)[static_cast<std::size_t>(e.pos) + 1], e.list, e.pos + 1});
      std::push_heap(ws.heap.begin(), ws.heap.end(), cmp);
    }
  }
  if (cur_row >= 0) out_vals[w] = static_cast<VT>(cur_val);
}

/// Numeric pass over columns [jlo, jhi): each column writes its values
/// straight into the output at the offsets the symbolic phase fixed.
template <SemiringConcept SR, typename VT>
void run_range(const CscMatrix<VT>& a, const CscMatrix<VT>& b, index_t jlo, index_t jhi,
               std::span<const index_t> colptr, const index_t* rowids,
               std::span<const std::uint8_t> klass, Workspace<SR>& ws, VT* vals) {
  for (index_t j = jlo; j < jhi; ++j) {
    const index_t off = colptr[static_cast<std::size_t>(j)];
    const index_t cnt = colptr[static_cast<std::size_t>(j) + 1] - off;
    if (cnt == 0) continue;
    switch (klass[static_cast<std::size_t>(j)]) {
      case kClassHeap: numeric_heap_col<SR, VT>(ws, a, b, j, vals + off); break;
      case kClassHash:
        numeric_hash_col<SR, VT>(ws, a, b, j, rowids + off, cnt, vals + off);
        break;
      default: numeric_dense_col<SR, VT>(ws, a, b, j, rowids + off, cnt, vals + off); break;
    }
  }
}

/// Runs fn(t) on `parts` threads (inline when parts == 1).
template <typename F>
void parallel_for_parts(int parts, F&& fn) {
  if (parts == 1) {
    fn(0);
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(parts));
  for (int t = 0; t < parts; ++t) pool.emplace_back(fn, t);
  for (auto& th : pool) th.join();
}

}  // namespace detail

/// Cached symbolic result of one local multiply: everything the numeric
/// pass needs that depends only on the operands' *structure*, C's row ids
/// included. Reusable across value changes (the inspector–executor split of
/// the 1D pipeline caches one of these inside SpgemmPlan1D).
struct LocalSymbolic {
  index_t nrows = 0;                ///< C's row dimension (= a.nrows())
  index_t ncols = 0;                ///< C's column dimension (= b.ncols())
  int nt = 1;                       ///< resolved thread count
  std::vector<index_t> bounds;      ///< flop-balanced thread boundaries, size nt+1
  std::vector<index_t> colptr;      ///< exact C colptr, size ncols+1
  std::vector<index_t> rowids;      ///< C's row ids, sorted within each column
  std::vector<std::uint8_t> klass;  ///< per-column accumulator class
};

/// Symbolic phase on its own: C's exact structure (colptr and row ids),
/// the accumulator class of every column, and the flop-balanced thread
/// partition. Structural only — valid for any value assignment over the
/// same sparsity pattern. `workspaces` (optional) lets callers keep the
/// per-thread scratch warm across calls; it is resized to the resolved
/// thread count.
template <SemiringConcept SR, typename VT>
LocalSymbolic spgemm_local_symbolic(const CscMatrix<VT>& a, const CscMatrix<VT>& b,
                                    LocalKernel kernel = LocalKernel::Hybrid, int threads = 1,
                                    std::vector<detail::Workspace<SR>>* workspaces = nullptr) {
  require(a.ncols() == b.nrows(), "spgemm_local_symbolic: inner dimension mismatch");
  require(threads >= 1, "spgemm_local_symbolic: threads must be >= 1");
  const index_t n = b.ncols();

  // Per-column flops, O(nnz(B)) — drives both the thread partition and the
  // per-column accumulator choice.
  auto flops = symbolic_flops(a, b);
  index_t work = 0;
  for (auto f : flops) work += f;
  // Small-multiply serial fallback: both phases spawn/join a thread round,
  // so each extra thread must bring enough flops to amortize that (~0.1 ms)
  // churn. The output is bit-identical for every thread count, so this is
  // purely a cost choice — distributed callers hit tiny local blocks in hot
  // loops (coarse AMG levels, BC frontiers) with opt.threads > 1.
  constexpr index_t kMinFlopsPerThread = index_t{1} << 14;
  const int nt = static_cast<int>(std::clamp<index_t>(
      std::min<index_t>(work / kMinFlopsPerThread + 1, std::max<index_t>(n, 1)), 1, threads));

  LocalSymbolic sym;
  sym.nrows = a.nrows();
  sym.ncols = n;
  sym.nt = nt;
  sym.bounds = flop_balanced_split(flops, nt);
  sym.colptr.assign(static_cast<std::size_t>(n) + 1, 0);
  sym.klass.assign(static_cast<std::size_t>(n), 0);

  std::vector<detail::Workspace<SR>> local_ws;
  auto& ws = workspaces != nullptr ? *workspaces : local_ws;
  if (ws.size() < static_cast<std::size_t>(nt)) ws.resize(static_cast<std::size_t>(nt));

  // Each thread appends its contiguous column range's rows to its own
  // buffer, reserved once at the range's output bound (a column holds at
  // most min(flops, nrows) rows), so it never regrows. The buffers
  // concatenate in thread order into the exact-size rowids.
  std::vector<std::vector<index_t>> part_rows(static_cast<std::size_t>(nt));
  detail::parallel_for_parts(nt, [&](int t) {
    const auto st = static_cast<std::size_t>(t);
    std::size_t bound = 0;
    for (index_t j = sym.bounds[st]; j < sym.bounds[st + 1]; ++j)
      bound += static_cast<std::size_t>(std::min(flops[static_cast<std::size_t>(j)], a.nrows()));
    part_rows[st].reserve(bound);
    detail::symbolic_range<SR, VT>(a, b, sym.bounds[st], sym.bounds[st + 1], kernel, flops, ws[st],
                                   std::span<index_t>(sym.colptr).subspan(1), sym.klass,
                                   part_rows[st]);
  });
  for (std::size_t j = 0; j < static_cast<std::size_t>(n); ++j)
    sym.colptr[j + 1] += sym.colptr[j];
  sym.rowids.reserve(static_cast<std::size_t>(sym.colptr.back()));
  for (auto& rows : part_rows) {
    sym.rowids.insert(sym.rowids.end(), rows.begin(), rows.end());
    std::vector<index_t>().swap(rows);
  }
  return sym;
}

/// Exact per-column output nnz of C = A·B (structural; semiring-independent):
/// the symbolic phase's column counts on their own.
template <typename VT>
std::vector<index_t> symbolic_nnz(const CscMatrix<VT>& a, const CscMatrix<VT>& b) {
  require(a.ncols() == b.nrows(), "symbolic_nnz: inner dimension mismatch");
  const auto sym = spgemm_local_symbolic<PlusTimes<double>, VT>(a, b);
  std::vector<index_t> counts(static_cast<std::size_t>(b.ncols()));
  for (std::size_t j = 0; j < counts.size(); ++j) counts[j] = sym.colptr[j + 1] - sym.colptr[j];
  return counts;
}

/// Numeric phase replaying a cached symbolic result, values only: writes
/// C's values into `vals`, laid out like sym.rowids. The operands must have
/// the structure the symbolic pass analyzed (values may differ). No value
/// of an earlier call is read: every row is seeded or first-touched anew.
template <SemiringConcept SR, typename VT>
void spgemm_local_numeric_into(const CscMatrix<VT>& a, const CscMatrix<VT>& b,
                               const LocalSymbolic& sym, std::span<VT> vals,
                               std::vector<detail::Workspace<SR>>* workspaces = nullptr) {
  require(a.nrows() == sym.nrows && b.ncols() == sym.ncols,
          "spgemm_local_numeric: operand dimensions do not match the symbolic plan");
  require(a.ncols() == b.nrows(), "spgemm_local_numeric: inner dimension mismatch");
  require(vals.size() == sym.rowids.size(),
          "spgemm_local_numeric: value array does not match the symbolic structure");

  std::vector<detail::Workspace<SR>> local_ws;
  auto& ws = workspaces != nullptr ? *workspaces : local_ws;
  if (ws.size() < static_cast<std::size_t>(sym.nt))
    ws.resize(static_cast<std::size_t>(sym.nt));

  detail::parallel_for_parts(sym.nt, [&](int t) {
    const auto st = static_cast<std::size_t>(t);
    detail::run_range<SR, VT>(a, b, sym.bounds[st], sym.bounds[st + 1], sym.colptr,
                              sym.rowids.data(), sym.klass, ws[st], vals.data());
  });
}

/// Numeric phase returning C as a CscMatrix: the values-only pass plus a
/// copy of the cached structure.
template <SemiringConcept SR, typename VT>
CscMatrix<VT> spgemm_local_numeric(const CscMatrix<VT>& a, const CscMatrix<VT>& b,
                                   const LocalSymbolic& sym,
                                   std::vector<detail::Workspace<SR>>* workspaces = nullptr) {
  std::vector<VT> vals(sym.rowids.size());
  spgemm_local_numeric_into<SR, VT>(a, b, sym, vals, workspaces);
  return CscMatrix<VT>(sym.nrows, sym.ncols, sym.colptr, sym.rowids, std::move(vals));
}

/// C = A ⊕.⊗ B with the chosen accumulator. `threads` > 1 splits C's columns
/// across std::threads on flop-balanced boundaries; the output is identical
/// (bit for bit) for every thread count and every accumulator choice.
/// One-shot convenience over the symbolic/numeric split; the per-thread
/// workspaces stay warm between the two phases.
template <SemiringConcept SR, typename VT>
CscMatrix<VT> spgemm_local(const CscMatrix<VT>& a, const CscMatrix<VT>& b,
                           LocalKernel kernel = LocalKernel::Hybrid, int threads = 1) {
  require(a.ncols() == b.nrows(), "spgemm_local: inner dimension mismatch");
  require(threads >= 1, "spgemm_local: threads must be >= 1");
  std::vector<detail::Workspace<SR>> workspaces;
  auto sym = spgemm_local_symbolic<SR, VT>(a, b, kernel, threads, &workspaces);
  std::vector<VT> vals(sym.rowids.size());
  spgemm_local_numeric_into<SR, VT>(a, b, sym, vals, &workspaces);
  return CscMatrix<VT>(sym.nrows, sym.ncols, std::move(sym.colptr), std::move(sym.rowids),
                       std::move(vals));
}

/// Convenience numeric wrapper over plus-times.
template <typename VT>
CscMatrix<VT> spgemm(const CscMatrix<VT>& a, const CscMatrix<VT>& b,
                     LocalKernel kernel = LocalKernel::Hybrid, int threads = 1) {
  return spgemm_local<PlusTimes<VT>, VT>(a, b, kernel, threads);
}

}  // namespace sa1d
