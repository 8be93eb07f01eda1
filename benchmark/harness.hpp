// Measurement harness of the sa1d benchmark. It measures the library only
// from outside: wall time from its own steady_clock reads on the rank
// threads, network time from the exact RankReport byte/message counters run
// through α–β rates pinned here, and layer numbers from the public
// RankReport / DistSpgemmStats / BcResult outputs. It never reads the
// library's modeled clock, its calibrated rates or its overlap credit, so a
// change to the program's own accounting moves no number measured here.
//
// Load model: one closed-loop client. Every rank enters call i after an
// aligning control exchange (which also carries rank 0's stop decision) and
// the next call starts only after every rank finished the previous one.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/machine.hpp"
#include "sparse/dcsc.hpp"
#include "util/timer.hpp"

namespace bench {

using sa1d::Comm;
using sa1d::RankReport;

constexpr int kRanks = 4;
constexpr int kRanksPerNode = 2;
constexpr int kSetupReps = 5;         // minimum set-up passes per run; setup_s is their median
constexpr double kSetupSeconds = 2.0;  // minimum time spent on set-up passes
constexpr int kVerifyStride = 16;  // calls 0, N-1 and every 16th are checked
constexpr int kLayerReps = 5;      // repetitions of each direct layer call

/// α–β link rates the benchmark pins for net_ms_mean: the library's
/// CostParams defaults when the benchmark was defined, copied so that a
/// later change to the library's cost model cannot move this metric.
struct Link {
  double alpha;  // s per message
  double beta;   // s per byte
};
constexpr Link kInter{2.0e-6, 1.0 / 24e9};
constexpr Link kIntra{4.0e-7, 1.0 / 100e9};

/// FNV-1a over 64-bit words (a word-wise variant: one xor-multiply per
/// word keeps hashing a large C slice cheap next to the call it follows).
class Fnv {
 public:
  void word(std::uint64_t w) { h_ = (h_ ^ w) * 0x100000001b3ULL; }
  template <typename T>
  void words(const std::vector<T>& v) {
    static_assert(sizeof(T) == 8);
    word(v.size());
    for (const T& x : v) {
      std::uint64_t w = 0;
      std::memcpy(&w, &x, 8);
      word(w);
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Hash of one DCSC slice: dimensions, structure and value bits.
inline void hash_slice(Fnv& f, const sa1d::DcscMatrix<double>& m) {
  f.word(static_cast<std::uint64_t>(m.nrows()));
  f.word(static_cast<std::uint64_t>(m.ncols()));
  f.words(m.jc());
  f.words(m.cp());
  f.words(m.ir());
  f.words(m.vals());
}

/// A value in {1, 2, 3, 4}, keyed by (seed, key, position). Small integers
/// keep every ⊕ order exact, so results compare bit for bit.
inline double small_int(std::uint64_t seed, std::int64_t key, std::int64_t pos) {
  std::uint64_t x = seed * 0x9e3779b97f4a7c15ULL ^
                    static_cast<std::uint64_t>(key + 1) * 0xbf58476d1ce4e5b9ULL ^
                    static_cast<std::uint64_t>(pos) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  x *= 0xd6e8feb86659fd93ULL;
  x ^= x >> 32;
  return 1.0 + static_cast<double>(x & 3U);
}

/// Linear-interpolation quantile (q in [0, 1]) of an unsorted sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// What the workload's after-call hook hands back for one rank.
struct CallResult {
  std::uint64_t hash = 0;          // hash of this rank's output
  std::uint64_t peak_triples = 0;  // DistSpgemmStats peak (or the RankReport gauge)
  double bc_levels = 0.0;
  double bc_spgemm_s = 0.0;  // Σ BcResult::level_stats comp+plan+other
};

/// One timed call as every run keeps it: rank 0 folds the ranks' readings
/// into this fixed-size record after each call, so the benchmark's own
/// memory does not grow with the number of calls a faster library fits in.
struct Call {
  double makespan = 0.0;  // latest rank exit − earliest rank entry, s
  double net = 0.0;       // max over ranks of the pinned α–β time, s
  std::array<std::uint64_t, kRanks> hash{};
};

/// What one rank did during one timed call, kept in traced runs only.
struct RankCall {
  double cpu = 0.0;  // thread-CPU seconds inside the call
  double comp = 0.0, plan = 0.0, other = 0.0, reorder = 0.0, comm_wait = 0.0, comm_hidden = 0.0;
  std::uint64_t rdma_msgs = 0, rdma_bytes = 0, coll_msgs = 0, coll_bytes = 0, comm_ops = 0;
  std::uint64_t plan_builds = 0, plan_replays = 0;
  std::uint64_t cache_hits = 0, cache_misses = 0, cache_evictions = 0;
  CallResult out;
};

struct Metric {
  const char* name;
  const char* unit;
};

/// The benchmark's metric catalogue; BENCHMARK.json lists the same names.
inline const std::vector<Metric>& end_to_end_metrics() {
  static const std::vector<Metric> m{{"call_ms_p50", "ms"},  {"call_ms_p90", "ms"},
                                     {"items_per_s", "1/s"}, {"net_ms_mean", "ms"},
                                     {"setup_s", "s"},       {"mem_peak_mib", "MiB"}};
  return m;
}
inline const std::vector<Metric>& per_layer_metrics() {
  static const std::vector<Metric> m{
      {"kernels.comp_ms", "ms"},         {"kernels.symbolic_ms", "ms"},
      {"kernels.numeric_ms", "ms"},      {"kernels.numeric_gflops", "GFLOP/s"},
      {"core.plan_ms", "ms"},            {"core.plan_builds", "count"},
      {"core.plan_replays", "count"},    {"core.rdma_msgs", "count"},
      {"core.rdma_kib", "KiB"},          {"dist.other_ms", "ms"},
      {"dist.coll_msgs", "count"},       {"dist.coll_kib", "KiB"},
      {"dist.peak_triples", "count"},    {"dist.wait_ms", "ms"},
      {"dist.imbalance", "ratio"},       {"part.partition_ms", "ms"},
      {"part.reorder_ms", "ms"},         {"part.cut_fraction", "ratio"},
      {"runtime.comm_ops", "count"},     {"runtime.cache_hit_rate", "ratio"},
      {"runtime.cache_misses", "count"}, {"runtime.cache_evictions", "count"},
      {"runtime.autoselect_ms", "ms"},   {"runtime.comm_wait_ms", "ms"},
      {"runtime.comm_hidden_ms", "ms"},  {"apps.bc_levels", "count"},
      {"apps.bc_spgemm_ms", "ms"},       {"apps.bc_local_ms", "ms"},
      {"trace.overhead_pct", "%"}};
  return m;
}

class Harness {
 public:
  struct Value {
    double value = 0.0;
    std::size_t n = 0;  // samples behind the value
  };

  Harness(std::string workload, std::uint64_t seed, double seconds, std::string trace_dir)
      : workload_(std::move(workload)),
        seed_(seed),
        seconds_(seconds),
        trace_dir_(std::move(trace_dir)),
        machine_(kRanks, pinned_params()),
        origin_(std::chrono::steady_clock::now()),
        detail_(kRanks),
        spans_(kRanks + 1) {}

  [[nodiscard]] const std::string& workload() const { return workload_; }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  [[nodiscard]] bool traced() const { return !trace_dir_.empty(); }
  [[nodiscard]] sa1d::Machine& machine() { return machine_; }
  /// Products, sources or multiplies one call completes (items_per_s).
  void set_items_per_call(double n) { items_per_call_ = n; }

  // Host-side accessors, valid after Machine::run returned.
  [[nodiscard]] int calls() const { return static_cast<int>(calls_.size()); }
  [[nodiscard]] std::uint64_t hash(int rank, int call) const {
    return calls_[static_cast<std::size_t>(call)].hash[static_cast<std::size_t>(rank)];
  }

  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - origin_).count();
  }

  /// A span of rank `c`, opened by mark(); close() records it (when
  /// tracing) with the phase and counter deltas as arguments.
  struct Mark {
    double t0;
    RankReport before;
  };
  Mark mark(Comm& c) const { return {now(), c.report()}; }
  void close(Comm& c, const Mark& m, const std::string& name) {
    if (traced()) push_span(c.rank(), name, m.t0, now(), delta_args(m.before, c.report()));
  }
  template <typename F>
  decltype(auto) scoped(Comm& c, const std::string& name, F&& f) {
    const Mark m = mark(c);
    struct Closer {
      Harness& h;
      Comm& c;
      const Mark& m;
      const std::string& name;
      ~Closer() { h.close(c, m, name); }
    } closer{*this, c, m, name};
    return f();
  }
  /// A host-side span (direct layer calls, verification).
  void host_span(const std::string& name, double t0, double t1, const std::string& args = "") {
    if (traced()) push_span(kRanks, name, t0, t1, args);
  }

  /// Runs the workload's set-up between aligning exchanges, at least
  /// kSetupReps times and for at least kSetupSeconds, and records each
  /// pass's wall time (rank 0's reading; both ends are rank-aligned). Many
  /// passes keep the median of a few-millisecond set-up clear of thread
  /// wake-up jitter. The last pass's state is what the timed loop uses.
  template <typename F>
  void setup(Comm& c, F&& body) {
    const double start = now();
    for (int rep = 0;; ++rep) {
      const bool more = rep < kSetupReps || now() - start < kSetupSeconds;
      if (c.exchange_control(c.rank() == 0 && more ? "1" : "0")[0] == "0") break;
      const Mark m = mark(c);
      body();
      c.exchange_control("");
      close(c, m, "setup");
      if (c.rank() == 0) setup_s_.push_back(now() - m.t0);
    }
  }

  /// The timed closed loop: `prep(i)` refreshes inputs (untimed), an
  /// aligning exchange carries rank 0's stop decision, `call(i)` runs
  /// between the two clock reads, and `after(i)` hashes the output
  /// (untimed). In a traced run every other call records spans, so the
  /// per-layer numbers and the tracing overhead come from the same process
  /// and inputs.
  template <typename Prep, typename CallFn, typename After>
  void timed_loop(Comm& c, Prep&& prep, CallFn&& call, After&& after) {
    const auto me = static_cast<std::size_t>(c.rank());
    const double start = now();
    for (int i = 0;; ++i) {
      prep(i);
      const bool stop =
          c.exchange_control(c.rank() == 0 && now() - start >= seconds_ ? "1" : "0")[0] == "1";
      // Every rank wrote call i-1's slot before the exchange; slots are
      // double-buffered, so no rank rewrites this one until rank 0 has
      // entered the next exchange.
      if (c.rank() == 0 && i > 0) fold(slots_[static_cast<std::size_t>((i - 1) % 2)]);
      if (stop) break;
      const RankReport before = c.report();
      const double cpu0 = sa1d::CpuTimer::now_s();
      const double t0 = now();
      if (traced() && i % 2 == 0)
        scoped(c, "call", [&] { call(i); });
      else
        call(i);
      const double t1 = now();
      const double cpu1 = sa1d::CpuTimer::now_s();
      const RankReport at = c.report();
      const CallResult out = after(i);
      slots_[static_cast<std::size_t>(i % 2)][me] = {t0, t1, pinned_net_s(before, at), out.hash};
      if (traced()) detail_[me].push_back(make_detail(before, at, cpu1 - cpu0, out));
    }
    if (c.rank() == 0) mem_peak_mib_ = peak_rss_mib();
  }

  /// Times `f(k)` for k < reps as a collective direct layer call (aligned
  /// start, rank 0's aligned end) and records the median milliseconds.
  template <typename F>
  void layer_call(Comm& c, const char* metric, const std::string& span, int reps, F&& f) {
    std::vector<double> ms;
    for (int k = 0; k < reps; ++k) {
      c.exchange_control("");
      const double t0 = now();
      scoped(c, span, [&] { f(k); });
      c.exchange_control("");
      ms.push_back(1e3 * (now() - t0));
    }
    if (c.rank() == 0) set_layer(metric, median(ms), ms.size());
  }

  /// Per-layer numbers the workload measures itself (build-time partition
  /// figures, direct layer calls). Call from one thread only.
  void set_layer(const std::string& name, double value, std::size_t n) {
    layers_[name] = {value, n};
  }

  /// Computes the metrics, prints `workload metric value unit (n=..)` lines
  /// and the result object as the last stdout line, writes the trace and
  /// the optional record file. Returns the process exit code.
  int finish(int failed, const std::string& record_path, const std::string& compiler) {
    const int attempted = calls();
    const bool correct = failed == 0 && attempted > 0;
    const auto& shown = traced() ? per_layer_metrics() : end_to_end_metrics();
    const auto vals = traced() ? per_layer() : end_to_end();
    for (const auto& m : shown) print_line(m, vals.at(m.name));
    if (!traced())
      print_line({"failed_frac", "ratio"},
                 {attempted > 0 ? static_cast<double>(failed) / attempted : 1.0,
                  static_cast<std::size_t>(attempted)});
    std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n",
                correct ? "true" : "false", attempted, failed,
                metrics_json(shown, vals, false).c_str());
    std::fflush(stdout);
    if (traced()) write_trace();
    if (!record_path.empty()) {
      std::FILE* f = std::fopen(record_path.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "sa1d_bench: cannot write %s\n", record_path.c_str());
        return 1;
      }
      std::fprintf(f,
                   "{\"workload\": \"%s\", \"seed\": %llu, \"traced\": %s, \"nproc\": %u, "
                   "\"compiler\": \"%s\", \"correct\": %s, \"attempted\": %d, \"failed\": %d, "
                   "\"metrics\": %s}\n",
                   workload_.c_str(), static_cast<unsigned long long>(seed_),
                   traced() ? "true" : "false", std::thread::hardware_concurrency(),
                   compiler.c_str(), correct ? "true" : "false", attempted, failed,
                   metrics_json(shown, vals, true).c_str());
      std::fclose(f);
    }
    return correct ? 0 : 1;
  }

 private:
  struct Slot {
    double t0 = 0.0, t1 = 0.0, net = 0.0;
    std::uint64_t hash = 0;
  };

  static sa1d::CostParams pinned_params() {
    sa1d::CostParams p;
    p.ranks_per_node = kRanksPerNode;
    return p;
  }

  static double peak_rss_mib() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
  }

  static double pinned_net_s(const RankReport& b, const RankReport& a) {
    return kInter.alpha * static_cast<double>(a.msgs_inter - b.msgs_inter) +
           kInter.beta * static_cast<double>(a.bytes_inter - b.bytes_inter) +
           kIntra.alpha * static_cast<double>(a.msgs_intra - b.msgs_intra) +
           kIntra.beta * static_cast<double>(a.bytes_intra - b.bytes_intra);
  }

  /// Sum over the concrete backends (slot 0 counts Auto's decision reuse).
  static std::uint64_t backend_sum(const std::array<std::uint64_t, 5>& b,
                                   const std::array<std::uint64_t, 5>& a) {
    std::uint64_t s = 0;
    for (std::size_t i = 1; i < a.size(); ++i) s += a[i] - b[i];
    return s;
  }

  static RankCall make_detail(const RankReport& b, const RankReport& a, double cpu,
                              const CallResult& out) {
    RankCall r;
    r.cpu = cpu;
    r.comp = a.comp_s - b.comp_s;
    r.plan = a.plan_s - b.plan_s;
    r.other = a.other_s - b.other_s;
    r.reorder = a.reorder_s - b.reorder_s;
    r.comm_wait = a.comm_s - b.comm_s;
    r.comm_hidden = a.overlap_s - b.overlap_s;
    r.rdma_msgs = a.rdma_msgs - b.rdma_msgs;
    r.rdma_bytes = a.rdma_bytes - b.rdma_bytes;
    r.coll_msgs = a.coll_msgs_received() - b.coll_msgs_received();
    r.coll_bytes = a.coll_bytes_received() - b.coll_bytes_received();
    r.comm_ops = a.comm_ops - b.comm_ops;
    r.plan_builds = backend_sum(b.plan_builds, a.plan_builds);
    r.plan_replays = backend_sum(b.plan_replays, a.plan_replays);
    r.cache_hits = a.cache_hits - b.cache_hits;
    r.cache_misses = a.cache_misses - b.cache_misses;
    r.cache_evictions = a.cache_evictions - b.cache_evictions;
    r.out = out;
    return r;
  }

  static std::string delta_args(const RankReport& b, const RankReport& a) {
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "\"comp_ms\": %.6f, \"plan_ms\": %.6f, \"other_ms\": %.6f, "
                  "\"reorder_ms\": %.6f, \"comm_wait_ms\": %.6f, \"net_ms\": %.6f, "
                  "\"msgs\": %llu, \"bytes\": %llu, \"rdma_msgs\": %llu, \"comm_ops\": %llu",
                  1e3 * (a.comp_s - b.comp_s), 1e3 * (a.plan_s - b.plan_s),
                  1e3 * (a.other_s - b.other_s), 1e3 * (a.reorder_s - b.reorder_s),
                  1e3 * (a.comm_s - b.comm_s), 1e3 * pinned_net_s(b, a),
                  static_cast<unsigned long long>(a.msgs_network() - b.msgs_network()),
                  static_cast<unsigned long long>(a.bytes_network() - b.bytes_network()),
                  static_cast<unsigned long long>(a.rdma_msgs - b.rdma_msgs),
                  static_cast<unsigned long long>(a.comm_ops - b.comm_ops));
    return buf;
  }

  void fold(const std::array<Slot, kRanks>& s) {
    Call k;
    double lo = s[0].t0, hi = s[0].t1;
    for (std::size_t r = 0; r < s.size(); ++r) {
      lo = std::min(lo, s[r].t0);
      hi = std::max(hi, s[r].t1);
      k.net = std::max(k.net, s[r].net);
      k.hash[r] = s[r].hash;
    }
    k.makespan = hi - lo;
    calls_.push_back(k);
  }

  struct Span {
    std::string name;
    double t0, t1;
    std::string args;
  };
  void push_span(int tid, std::string name, double t0, double t1, std::string args) {
    spans_[static_cast<std::size_t>(tid)].push_back({std::move(name), t0, t1, std::move(args)});
  }

  [[nodiscard]] const RankCall& detail(int rank, int call) const {
    return detail_[static_cast<std::size_t>(rank)][static_cast<std::size_t>(call)];
  }

  std::map<std::string, Value> end_to_end() const {
    std::vector<double> ms;
    double wall = 0.0, net = 0.0;
    for (const Call& k : calls_) {
      ms.push_back(1e3 * k.makespan);
      wall += k.makespan;
      net += k.net;
    }
    const std::size_t n = calls_.size();
    const double calls = static_cast<double>(n);
    return {{"call_ms_p50", {quantile(ms, 0.5), n}},
            {"call_ms_p90", {quantile(ms, 0.9), n}},
            {"items_per_s", {wall > 0.0 ? calls * items_per_call_ / wall : 0.0, n}},
            {"net_ms_mean", {n > 0 ? 1e3 * net / calls : 0.0, n}},
            {"setup_s", {median(setup_s_), setup_s_.size()}},
            {"mem_peak_mib", {mem_peak_mib_, 1}}};
  }

  /// Per-call medians on the critical rank: the rank with the most
  /// thread-CPU in the call, whose work the makespan waits for when P ≤ cores.
  std::map<std::string, Value> per_layer() const {
    std::map<std::string, std::vector<double>> s;
    std::vector<double> traced_ms, plain_ms;
    double hits = 0.0, lookups = 0.0;
    for (int i = 0; i < calls(); ++i) {
      const double span = calls_[static_cast<std::size_t>(i)].makespan;
      if (i % 2 != 0) {
        plain_ms.push_back(span);
        continue;
      }
      traced_ms.push_back(span);
      int crit = 0;
      double max_cpu = 0.0, sum_cpu = 0.0;
      std::uint64_t peak = 0;
      for (int r = 0; r < kRanks; ++r) {
        const RankCall& d = detail(r, i);
        if (d.cpu > max_cpu) {
          max_cpu = d.cpu;
          crit = r;
        }
        sum_cpu += d.cpu;
        peak = std::max(peak, d.out.peak_triples);
      }
      const RankCall& k = detail(crit, i);
      s["kernels.comp_ms"].push_back(1e3 * k.comp);
      s["core.plan_ms"].push_back(1e3 * k.plan);
      s["core.plan_builds"].push_back(static_cast<double>(k.plan_builds));
      s["core.plan_replays"].push_back(static_cast<double>(k.plan_replays));
      s["core.rdma_msgs"].push_back(static_cast<double>(k.rdma_msgs));
      s["core.rdma_kib"].push_back(static_cast<double>(k.rdma_bytes) / 1024.0);
      s["dist.other_ms"].push_back(1e3 * k.other);
      s["dist.coll_msgs"].push_back(static_cast<double>(k.coll_msgs));
      s["dist.coll_kib"].push_back(static_cast<double>(k.coll_bytes) / 1024.0);
      s["dist.peak_triples"].push_back(static_cast<double>(peak));
      s["dist.wait_ms"].push_back(1e3 * (span - max_cpu));
      s["dist.imbalance"].push_back(sum_cpu > 0.0 ? max_cpu * kRanks / sum_cpu : 1.0);
      s["part.reorder_ms"].push_back(1e3 * k.reorder);
      s["runtime.comm_ops"].push_back(static_cast<double>(k.comm_ops));
      s["runtime.cache_misses"].push_back(static_cast<double>(k.cache_misses));
      s["runtime.cache_evictions"].push_back(static_cast<double>(k.cache_evictions));
      s["runtime.comm_wait_ms"].push_back(1e3 * k.comm_wait);
      s["runtime.comm_hidden_ms"].push_back(1e3 * k.comm_hidden);
      s["apps.bc_levels"].push_back(k.out.bc_levels);
      s["apps.bc_spgemm_ms"].push_back(1e3 * k.out.bc_spgemm_s);
      s["apps.bc_local_ms"].push_back(
          k.out.bc_levels > 0 ? 1e3 * (k.cpu - k.out.bc_spgemm_s) : 0.0);
      hits += static_cast<double>(k.cache_hits);
      lookups += static_cast<double>(k.cache_hits + k.cache_misses);
    }
    std::map<std::string, Value> out;
    for (const auto& m : per_layer_metrics()) out[m.name] = {0.0, 0};
    for (auto& [name, v] : s) {
      // Cache misses/evictions are 0 or 1 per call: their mean is the rate.
      double sum = 0.0;
      for (double x : v) sum += x;
      const bool mean = name == "runtime.cache_misses" || name == "runtime.cache_evictions";
      out[name] = {mean ? sum / static_cast<double>(v.size()) : median(v), v.size()};
    }
    out["runtime.cache_hit_rate"] = {lookups > 0.0 ? hits / lookups : 0.0, traced_ms.size()};
    const double plain = median(plain_ms);
    out["trace.overhead_pct"] = {plain > 0.0 ? 100.0 * (median(traced_ms) / plain - 1.0) : 0.0,
                                 traced_ms.size() + plain_ms.size()};
    for (const auto& [name, v] : layers_) out[name] = v;
    return out;
  }

  void print_line(const Metric& m, const Value& v) const {
    std::printf("%s %s %.6g %s (n=%zu)\n", workload_.c_str(), m.name, v.value, m.unit, v.n);
  }

  static std::string metrics_json(const std::vector<Metric>& ms,
                                  const std::map<std::string, Value>& vals, bool with_n) {
    std::string s = "{";
    char buf[256];
    for (const auto& m : ms) {
      const Value& v = vals.at(m.name);
      const double x = std::isfinite(v.value) ? v.value : 0.0;
      if (with_n)
        std::snprintf(buf, sizeof buf, "\"%s\": {\"value\": %.17g, \"unit\": \"%s\", \"n\": %zu}",
                      m.name, x, m.unit, v.n);
      else
        std::snprintf(buf, sizeof buf, "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", m.name, x,
                      m.unit);
      if (s.size() > 1) s += ", ";
      s += buf;
    }
    return s + "}";
  }

  /// Chrome Trace Event Format: pid = the workload, tid = rank (tid 4 is
  /// the host thread that runs the direct layer calls and verification).
  void write_trace() const {
    const std::string path = trace_dir_ + "/" + workload_ + ".trace.json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "sa1d_bench: cannot write %s\n", path.c_str());
      return;
    }
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    std::fprintf(f,
                 "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, "
                 "\"args\": {\"name\": \"%s\"}}",
                 workload_.c_str());
    for (int t = 0; t <= kRanks; ++t) {
      const std::string tname = t < kRanks ? "rank " + std::to_string(t) : "host";
      std::fprintf(f,
                   ",\n{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": %d, "
                   "\"args\": {\"name\": \"%s\"}}",
                   t, tname.c_str());
      for (const auto& sp : spans_[static_cast<std::size_t>(t)])
        std::fprintf(f,
                     ",\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                     "\"ts\": %.3f, \"dur\": %.3f, \"args\": {%s}}",
                     sp.name.c_str(), t, 1e6 * sp.t0, 1e6 * (sp.t1 - sp.t0), sp.args.c_str());
    }
    std::fprintf(f, "\n]}\n");
    std::fclose(f);
  }

  std::string workload_;
  std::uint64_t seed_;
  double seconds_;
  std::string trace_dir_;
  sa1d::Machine machine_;
  std::chrono::steady_clock::time_point origin_;
  double items_per_call_ = 1.0;
  std::array<std::array<Slot, kRanks>, 2> slots_{};  // [call parity][rank]
  std::vector<Call> calls_;                          // folded by rank 0
  std::vector<std::vector<RankCall>> detail_;        // [rank][call], traced runs only
  std::vector<std::vector<Span>> spans_;             // [tid], each written by its thread only
  std::vector<double> setup_s_;
  double mem_peak_mib_ = 0.0;
  std::map<std::string, Value> layers_;
};

}  // namespace bench
