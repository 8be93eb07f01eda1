// Fetch planning for the sparsity-aware 1D SpGEMM: which contiguous runs of
// an owner's nonzero columns one rank gets, given the H∩D mask of columns
// it needs.
//
// The default planner is the exact minimizer of Hockney's α–β cost
// (Parallel Computing, 1994) of fetching every needed column from one
// owner: α per get plus β per element moved. Algorithm 2 of the paper, a
// fixed split into K groups, is kept as an ablation input.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "util/common.hpp"

namespace sa1d {

/// One contiguous run of nonzero-column *positions* [begin, end) in the
/// owner's DCSC order; fetching it moves elements [cp[begin], cp[end]).
struct FetchRange {
  index_t begin = 0;
  index_t end = 0;

  friend bool operator==(const FetchRange&, const FetchRange&) = default;
};

/// The α–β-optimal fetch plan for one owner.
///   needed     needed[pos] == true iff the column at `pos` participates in
///              the local computation (H ∩ D restricted to this owner)
///   cp         the owner's element prefix, size needed.size() + 1
///   alpha      cost of one get
///   beta_elem  cost of one element moved
/// Among all sets of ranges covering every needed position, the plan
/// minimizes alpha·size() + beta_elem·plan_elements(). An optimal range
/// starts and ends on a needed position, so a plan is a choice, for each
/// gap between two maximal runs of needed positions, of whether one range
/// bridges it. The choices are independent: bridging saves one alpha and
/// moves the gap's elements. One pass therefore bridges exactly the gaps
/// with beta_elem·gap_elems < alpha. beta_elem = 0 bridges every gap (one
/// range per owner); alpha = 0 bridges none (one range per run).
inline std::vector<FetchRange> optimal_fetch_plan(const std::vector<bool>& needed,
                                                  std::span<const index_t> cp, double alpha,
                                                  double beta_elem) {
  require(cp.size() == needed.size() + 1, "optimal_fetch_plan: cp size != nzc + 1");
  const auto nzc = static_cast<index_t>(needed.size());
  std::vector<FetchRange> out;
  for (index_t p = 0; p < nzc;) {
    if (!needed[static_cast<std::size_t>(p)]) {
      ++p;
      continue;
    }
    index_t end = p + 1;
    while (end < nzc && needed[static_cast<std::size_t>(end)]) ++end;
    if (!out.empty() &&
        beta_elem * static_cast<double>(cp[static_cast<std::size_t>(p)] -
                                        cp[static_cast<std::size_t>(out.back().end)]) <
            alpha)
      out.back().end = end;  // bridge the gap since the previous run
    else
      out.push_back({p, end});
    p = end;
  }
  return out;
}

/// Algorithm 2 of the paper: the owner's nzc nonzero columns (in DCSC order)
/// are split into at most K contiguous groups; a group is fetched iff it
/// contains at least one needed column. This bounds the gets per owner by
/// K while still covering every needed column.
/// Postconditions (tested): ranges are disjoint, ascending, within [0,nzc),
/// their union covers every needed position, and size() <= k_groups.
inline std::vector<FetchRange> block_fetch_plan(index_t nzc, index_t k_groups,
                                                const std::vector<bool>& needed) {
  require(k_groups > 0, "block_fetch_plan: K must be positive");
  require(static_cast<index_t>(needed.size()) == nzc, "block_fetch_plan: needed size != nzc");
  std::vector<FetchRange> out;
  if (nzc == 0) return out;

  index_t groups = std::min(k_groups, nzc);
  index_t base = nzc / groups, rem = nzc % groups;
  index_t begin = 0;
  for (index_t g = 0; g < groups; ++g) {
    index_t len = base + (g < rem ? 1 : 0);
    index_t end = begin + len;
    bool choose = false;
    for (index_t p = begin; p < end && !choose; ++p) choose = needed[static_cast<std::size_t>(p)];
    if (choose) out.push_back({begin, end});
    begin = end;
  }
  return out;
}

/// Elements moved by a plan given the owner's cp prefix array.
inline index_t plan_elements(const std::vector<FetchRange>& plan,
                             std::span<const index_t> cp) {
  index_t total = 0;
  for (const auto& r : plan)
    total += cp[static_cast<std::size_t>(r.end)] - cp[static_cast<std::size_t>(r.begin)];
  return total;
}

}  // namespace sa1d
