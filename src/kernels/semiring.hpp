// Semiring abstractions: SpGEMM is computed over a configurable (⊕, ⊗)
// pair so the same kernels serve numeric multiplication (plus-times),
// reachability (or-and), shortest paths (min-plus), and the BC traversals.
#pragma once

#include <algorithm>
#include <concepts>
#include <limits>
#include <type_traits>

namespace sa1d {

/// A semiring provides: value_type, zero() (⊕-identity and annihilator),
/// add(a,b) = a ⊕ b, multiply(a,b) = a ⊗ b.
template <typename SR>
concept SemiringConcept = requires(typename SR::value_type a, typename SR::value_type b) {
  { SR::zero() } -> std::convertible_to<typename SR::value_type>;
  { SR::add(a, b) } -> std::convertible_to<typename SR::value_type>;
  { SR::multiply(a, b) } -> std::convertible_to<typename SR::value_type>;
};

/// A semiring may also declare exact_identity(): an e with add(e, x) equal
/// to x bit for bit for every x that multiply can return. The local numeric
/// pass then seeds each known output row with e and ⊕-accumulates with no
/// first-touch test. zero() is not enough: under IEEE plus-times,
/// +0.0 + (−0.0) is +0.0, so a row whose only product is −0.0 would change.
template <typename SR>
concept HasExactIdentity = SemiringConcept<SR> && requires {
  { SR::exact_identity() } -> std::convertible_to<typename SR::value_type>;
};

/// Standard arithmetic semiring (+, ×). The numeric SpGEMM of the paper.
/// Its exact identity is −0.0 for floating-point T (−0.0 + x is x for every
/// x, ±0.0 and NaN included; a product is never a signaling NaN) and 0
/// otherwise.
template <typename T = double>
struct PlusTimes {
  using value_type = T;
  static constexpr T zero() { return T{0}; }
  static constexpr T exact_identity() {
    if constexpr (std::is_floating_point_v<T>) {
      return -T{0};
    } else {
      return T{0};
    }
  }
  static T add(T a, T b) { return a + b; }
  static T multiply(T a, T b) { return a * b; }
};

/// Boolean reachability semiring (∨, ∧).
struct OrAnd {
  using value_type = bool;
  static constexpr bool zero() { return false; }
  static constexpr bool exact_identity() { return false; }
  static bool add(bool a, bool b) { return a || b; }
  static bool multiply(bool a, bool b) { return a && b; }
};

/// Tropical semiring (min, +) for shortest paths. No exact identity:
/// std::min(inf, NaN) is inf, so seeding a row with inf would drop a NaN
/// product that assign-on-first-touch keeps.
template <typename T = double>
struct MinPlus {
  using value_type = T;
  static constexpr T zero() { return std::numeric_limits<T>::infinity(); }
  static T add(T a, T b) { return std::min(a, b); }
  static T multiply(T a, T b) { return a + b; }
};

/// Resolves the semiring of a distributed entry point: callers omit the
/// argument (void) to get plus-times over their value type, or name any
/// semiring explicitly — spgemm_dist<MinPlus<double>>(…).
template <typename SR, typename VT>
using ResolveSemiring = std::conditional_t<std::is_void_v<SR>, PlusTimes<VT>, SR>;

/// (+, select-second): multiply ignores the A value. With a 0/1 adjacency
/// pattern this propagates and sums B values along edges — the multi-source
/// BFS path-counting step of betweenness centrality. No exact identity:
/// multiply returns b verbatim, so a product can be a signaling NaN, which
/// −0.0 + x would quiet.
template <typename T = double>
struct PlusSelect2nd {
  using value_type = T;
  static constexpr T zero() { return T{0}; }
  static T add(T a, T b) { return a + b; }
  static T multiply(T /*a*/, T b) { return b; }
};

}  // namespace sa1d
