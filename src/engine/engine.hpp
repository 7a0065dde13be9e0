// Parallel whole-network analysis engine.
//
// AnalysisEngine owns a fixed-size worker pool and a per-output-port
// result cache, and runs the WCNC and trajectory analyses of one
// TrafficConfig across threads:
//
//   * WCNC phase -- the used ports are processed level by level along the
//     propagation partial order; ports of one level have no mutual
//     dependencies, so each level is sharded across the pool. Every
//     converged per-port bound is memoized in the cache, which also makes
//     repeated runs on the same engine (benches, sweeps) near-free.
//   * trajectory phase -- VL paths are sharded across the pool by whole
//     VLs (paths of one VL share their prefix recursion, so keeping a VL
//     on one worker preserves the analyzer's memoization). The per-port
//     serialization caps are derived once from the shared WCNC run and
//     injected into every shard-local analyzer instead of being recomputed
//     per thread -- the single biggest saving of the engine.
//   * combine phase -- the per-path minimum of the two bounds (the
//     paper's recommended method), assembled in path-index order.
//
// Determinism: index -> worker sharding is static, every per-port /
// per-path computation is a pure function of the configuration, and
// results are written to preallocated slots by index -- a run with N
// threads is bit-identical to a run with 1 thread, and threads = 1
// executes inline on the calling thread (the legacy serial path).
//
// RunMetrics records wall time per phase, throughput, cache hit rate and
// per-thread task counts; the CLI (--metrics) and the benches print it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/cancel.hpp"
#include "engine/incremental.hpp"
#include "engine/port_cache.hpp"
#include "engine/thread_pool.hpp"
#include "netcalc/netcalc_analyzer.hpp"
#include "trajectory/prefix_cache.hpp"
#include "trajectory/trajectory_analyzer.hpp"
#include "vl/traffic_config.hpp"

namespace afdx::engine {

struct Options {
  /// Worker threads: 1 = the legacy single-threaded path (default),
  /// 0 or negative = one per hardware thread.
  int threads = 1;
};

/// Outcome of the most recent run_incremental on an engine.
struct IncrementalStats {
  /// False until run_incremental is called.
  bool attempted = false;
  /// True when the baseline could not be reused and a full run was done.
  bool full_fallback = false;
  std::string fallback_reason;
  std::size_t changed_links = 0;
  /// Used ports inside the dirty cone (recomputed).
  std::size_t dirty_ports = 0;
  /// Clean used ports whose baseline bounds were reused verbatim.
  std::size_t seeded_ports = 0;
  /// Baseline trajectory prefixes the cone's recursion read from the
  /// baseline's frozen table (clean prefixes it needed; none is copied).
  std::size_t seeded_prefixes = 0;
  /// Paths fully outside the dirty cone whose trajectory bound was
  /// transplanted verbatim from the baseline (no recomputation at all).
  std::size_t transplanted_paths = 0;
};

/// Per-worker-shard view of the most recent trajectory phase. With the
/// locality-aware VL order (VLs sorted by their route prefix, contiguous
/// chunks handed to workers), neighbouring VLs of one shard share their
/// interference neighbourhood -- a healthy shard therefore answers most
/// prefix lookups from its analyzer-local memo, and a low hit rate points
/// at a shard whose VLs were scattered across the topology.
struct ShardMetrics {
  /// VL work items and paths this shard executed.
  std::size_t vls = 0;
  std::size_t paths = 0;
  /// Prefix-bound lookups of the shard's analyzer, split by where they
  /// were answered (neither = freshly computed).
  std::uint64_t lookups = 0;
  std::uint64_t local_hits = 0;
  std::uint64_t shared_hits = 0;
  /// Prefix work the shard's analyzer performed (prefixes computed rather
  /// than looked up, and their segments, candidates and busy rounds).
  trajectory::PrefixWork work;

  [[nodiscard]] double hit_rate() const noexcept {
    return lookups == 0
               ? 0.0
               : static_cast<double>(local_hits + shared_hits) /
                     static_cast<double>(lookups);
  }
};

/// Measurements of the work an engine has performed since construction.
struct RunMetrics {
  Microseconds netcalc_wall_us = 0.0;
  Microseconds trajectory_wall_us = 0.0;
  Microseconds combine_wall_us = 0.0;
  Microseconds total_wall_us = 0.0;
  /// Process CPU time across all workers (>= wall time when the pool is
  /// busy); wall vs cpu exposes how much of the run actually parallelized.
  Microseconds total_cpu_us = 0.0;
  /// Propagation levels of the ports the last WCNC pass computed (0 for
  /// the cyclic fallback; an incremental run counts its dirty cone only)
  /// and the widest level -- the parallelism ceiling of the netcalc phase.
  std::size_t levels = 0;
  std::size_t max_level_width = 0;
  /// VL paths bounded by the most recent run/netcalc_only/trajectory_only.
  std::size_t paths = 0;
  /// Throughput of the most recent run (paths / its wall time).
  double paths_per_second = 0.0;
  /// Cumulative per-port cache statistics.
  CacheStats cache;
  /// Per-port cache activity of the most recent run (delta of `cache`).
  CacheStats cache_run;
  /// Cumulative shared trajectory prefix-cache statistics (all caches of
  /// this engine) and the most recent run's delta.
  trajectory::PrefixCacheStats prefix;
  trajectory::PrefixCacheStats prefix_run;
  /// Cumulative chunks stolen by the work-stealing scheduler.
  std::uint64_t steals = 0;
  /// Per-worker shard statistics of the most recent trajectory phase
  /// (empty until one ran). Ordered by worker index; workers that never
  /// picked up trajectory work are omitted.
  std::vector<ShardMetrics> shards;
  /// Prefix work of the most recent trajectory phase, summed over shards.
  /// A warm rerun answered from the engine's prefix caches computes none.
  trajectory::PrefixWork prefix_work;
  /// Outcome of the most recent run_incremental.
  IncrementalStats incremental;
  int threads = 1;
  /// Cumulative scheduled work items executed per worker (ports in the
  /// WCNC phase, VL shards in the trajectory phase).
  std::vector<std::size_t> tasks_per_thread;

  /// Human-readable multi-line summary.
  void print(std::ostream& out) const;
};

/// Outcome of one VL path in a resilient run.
enum class PathState : std::uint8_t {
  /// A finite combined bound was produced (at least one method succeeded).
  kOk,
  /// Every method failed on this path (e.g. an unstable port on its route).
  kFailed,
  /// The path was never analyzed (cancellation / deadline / a dependency
  /// of its ports was abandoned).
  kSkipped,
};

[[nodiscard]] const char* to_string(PathState state) noexcept;

/// Per-path outcome record of a resilient run.
struct PathStatus {
  PathState state = PathState::kOk;
  /// Why the path failed / was skipped, or which method degraded on an
  /// otherwise-ok path. Empty for a fully clean path.
  std::string message;

  [[nodiscard]] bool ok() const noexcept { return state == PathState::kOk; }
};

/// Knobs of a resilient run (run_resilient).
struct RunControl {
  /// Optional cooperative cancellation / deadline: polled between ports,
  /// levels and paths; remaining work is marked skipped, partial results
  /// are returned.
  const CancelToken* cancel = nullptr;
};

/// Bounds of one full run, aligned with TrafficConfig::all_paths().
struct RunResult {
  std::vector<Microseconds> netcalc;
  std::vector<Microseconds> trajectory;
  std::vector<Microseconds> combined;
  /// Per-path outcomes. run() leaves every entry ok; run_resilient records
  /// containment and cancellation outcomes here instead of throwing, and
  /// non-ok paths carry an infinite combined bound.
  std::vector<PathStatus> status;
  /// Full per-port WCNC detail (buffer bounds, per-class delays, ...).
  netcalc::Result netcalc_result;
  /// Digests of the options the run was computed under -- run_incremental
  /// validates a baseline against these before transplanting results.
  std::uint64_t nc_options_key = 0;
  std::uint64_t tj_options_key = 0;
  /// The prefix bounds the trajectory phase computed, frozen (null when
  /// the phase never ran); run_incremental reads baseline prefixes from
  /// here without locking.
  std::shared_ptr<const trajectory::PrefixTable> prefixes;
  /// Snapshot of the engine metrics at the end of the run.
  RunMetrics metrics;

  /// True when every path is ok.
  [[nodiscard]] bool complete() const noexcept;
};

/// One per-path record delivered to a streaming sink (run_streaming).
struct StreamPathResult {
  /// Index into TrafficConfig::all_paths().
  std::size_t path_index = 0;
  VlId vl = kInvalidVl;
  std::uint32_t dest_index = 0;
  PathState state = PathState::kOk;
  Microseconds netcalc = 0.0;
  Microseconds trajectory = 0.0;
  Microseconds combined = 0.0;
  /// Degradation / failure explanation; empty for a fully clean path.
  std::string message;
};

/// Running aggregate of a streaming run -- everything a 100k-VL capacity
/// sweep needs without materializing per-path vectors or reports.
struct StreamSummary {
  std::size_t paths = 0;
  std::size_t ok = 0;
  std::size_t failed = 0;
  std::size_t skipped = 0;
  /// Largest finite combined bound and the path that attains it.
  Microseconds max_combined = 0.0;
  std::size_t worst_path = 0;
  VlId worst_vl = kInvalidVl;
  /// Sum of the finite combined bounds (for the mean). The accumulation
  /// order follows path completion order, so the last bits of the mean may
  /// differ between thread counts; every per-path bound is still exact.
  Microseconds sum_combined = 0.0;
  double wall_us = 0.0;
  double paths_per_second = 0.0;
  /// Per-run cache activity (deltas over this run): the per-port WCNC
  /// cache and the shared trajectory prefix cache. A warm re-run of the
  /// same configuration on the same engine shows nonzero hits here; all
  /// zeros on a re-run means the reuse machinery is broken.
  CacheStats port_cache;
  trajectory::PrefixCacheStats prefix_cache;
  /// Per-worker shard statistics of the trajectory phase (see ShardMetrics)
  /// and their summed prefix work.
  std::vector<ShardMetrics> shards;
  trajectory::PrefixWork prefix_work;

  [[nodiscard]] Microseconds mean_combined() const noexcept {
    return ok == 0 ? 0.0 : sum_combined / static_cast<Microseconds>(ok);
  }
};

/// Per-path callback of run_streaming. Called under an internal mutex (one
/// call at a time) from worker threads, in path completion order.
using StreamSink = std::function<void(const StreamPathResult&)>;

class AnalysisEngine {
 public:
  explicit AnalysisEngine(const TrafficConfig& config, Options options = {});

  AnalysisEngine(const AnalysisEngine&) = delete;
  AnalysisEngine& operator=(const AnalysisEngine&) = delete;

  /// Both analyses plus the combined per-path minimum.
  [[nodiscard]] RunResult run(const netcalc::Options& nc_options = {},
                              const trajectory::Options& tj_options = {});

  /// Hardened variant of run(): per-task exceptions are contained instead
  /// of tearing down the run. A throwing port (e.g. unstable utilization)
  /// fails only the paths that depend on it; ports downstream of a failed
  /// port are skipped (their inputs are unknown) and every unaffected path
  /// still gets its exact bounds. An expired RunControl::cancel marks the
  /// remaining work skipped and returns the partial results accumulated so
  /// far. Never throws on analysis errors; RunResult::status tells the
  /// story per path.
  [[nodiscard]] RunResult run_resilient(
      const netcalc::Options& nc_options = {},
      const trajectory::Options& tj_options = {},
      const RunControl& control = {});

  /// Streaming variant of run_resilient for configurations too large to
  /// materialize per-path results: every path's record is handed to `sink`
  /// as soon as it is computed (under an internal mutex, in completion
  /// order -- sort by path_index downstream if order matters) and only the
  /// running StreamSummary is kept. Per-path bounds and statuses are
  /// bit-identical to run_resilient at any thread count; pending
  /// incremental transplants are discarded (streaming runs are always
  /// full runs).
  StreamSummary run_streaming(const StreamSink& sink,
                              const netcalc::Options& nc_options = {},
                              const trajectory::Options& tj_options = {},
                              const RunControl& control = {});

  /// Incremental re-analysis against a prior run of a configuration that
  /// shares this engine's network: only ports inside the dirty cone of
  /// `changed_links` (plus every port whose crossing-VL set changed, and
  /// everything downstream) are recomputed, and only the paths ending in
  /// it; clean ports, clean paths and the clean trajectory prefixes the
  /// cone's recursion reads come from `baseline`. When the configuration
  /// shares the baseline's layout (an OverlaySession overlay), no step
  /// walks the whole network with more than a flat O(1) test per element.
  /// Bit-identical to run_resilient by construction -- when the baseline
  /// cannot be validated (different options, different network, cyclic
  /// configuration, ...) it silently falls back to a full run_resilient
  /// and records the reason in metrics().incremental.
  [[nodiscard]] RunResult run_incremental(
      const TrafficConfig& baseline_config, const RunResult& baseline,
      const std::vector<LinkId>& changed_links,
      const netcalc::Options& nc_options = {},
      const trajectory::Options& tj_options = {},
      const RunControl& control = {});

  /// WCNC only (per-port reports and path bounds), served from the cache
  /// when this engine already computed the same options.
  [[nodiscard]] netcalc::Result netcalc_only(
      const netcalc::Options& nc_options = {});

  /// Trajectory only, aligned with TrafficConfig::all_paths().
  [[nodiscard]] std::vector<Microseconds> trajectory_only(
      const trajectory::Options& tj_options = {});

  [[nodiscard]] int thread_count() const noexcept {
    return pool_.thread_count();
  }
  /// The engine's worker pool, for callers that shard auxiliary work
  /// (e.g. the accuracy/cost ladder's per-path escalation waves) across
  /// the same threads instead of spinning up their own.
  [[nodiscard]] ThreadPool& pool() noexcept { return pool_; }
  [[nodiscard]] CacheStats cache_stats() const { return cache_.stats(); }
  /// Metrics accumulated since construction.
  [[nodiscard]] RunMetrics metrics() const;

 private:
  /// Per-port outcome of the resilient WCNC phase.
  struct PortOutcome {
    PathState state = PathState::kOk;
    std::string message;
  };

  /// Everything a trajectory phase needs, resolved once per run: the
  /// options, the serialization caps, their digests and the shared prefix
  /// cache they key. The three run entry points used to recompute the
  /// digests (an O(ports) caps walk each) up to twice per run.
  struct TrajectoryContext {
    trajectory::Options options;
    std::optional<std::vector<Microseconds>> caps;
    std::uint64_t tj_key = 0;
    std::uint64_t caps_sig = 0;
    std::shared_ptr<trajectory::PrefixCache> pcache;
  };

  /// What an incremental run takes from its baseline instead of computing
  /// it (run_incremental fills it; a full run passes none).
  struct Reuse {
    const RunResult* baseline = nullptr;
    /// Dirty and clean ports; the WCNC phase computes the dirty ones.
    const IncrementalPlan* plan = nullptr;
    /// Paths the trajectory phase computes, ascending.
    std::vector<std::size_t> paths;
    /// Per path: the carried-over baseline bound (entries of `paths` are
    /// overwritten by the phase).
    std::vector<Microseconds> trajectory;
    /// The baseline's prefix table, when its trajectory options match.
    std::optional<trajectory::PrefixLayer> layer;
  };

  /// Per-path completion callback of the trajectory phase: (path index,
  /// bound, status). Called concurrently from worker threads.
  using PathCallback =
      std::function<void(std::size_t, Microseconds, const PathStatus&)>;

  /// Builds the context. With nc_result == nullptr the caps come from an
  /// internal default-options WCNC run (served by the port cache), exactly
  /// like the legacy per-analyzer envelope analysis; otherwise from the
  /// provided contained WCNC outcome (failed / skipped ports stay
  /// uncapped -- an infinite cap is simply no refinement).
  [[nodiscard]] TrajectoryContext resolve_trajectory_context(
      const trajectory::Options& options, const netcalc::Result* nc_result,
      const std::vector<PortOutcome>* nc_ports);

  /// Topology-aware schedule of the trajectory phase over `paths`
  /// (ascending path indices): one work item per VL, holding that VL's
  /// paths, ordered lexicographically by the VL's first route (ties by
  /// id), so VLs sharing source ports / route prefixes sit in the same
  /// contiguous chunk and land on the same worker.
  struct VlWork {
    VlId vl = kInvalidVl;
    std::size_t begin = 0;  ///< [begin, end) into `paths`
    std::size_t end = 0;
  };
  [[nodiscard]] std::vector<VlWork> locality_work(
      const std::vector<std::size_t>& paths) const;

  [[nodiscard]] netcalc::Result run_netcalc(const netcalc::Options& options);
  [[nodiscard]] std::vector<Microseconds> run_trajectory(
      const TrajectoryContext& ctx);
  /// The contained WCNC phase: computes every used port, or with `reuse`
  /// only the dirty ones (the clean ones are copied from the baseline),
  /// level by level. Fills `ports` and `delays` for every used port.
  [[nodiscard]] netcalc::Result run_netcalc_contained(
      const netcalc::Options& options, const RunControl& control,
      std::vector<PortOutcome>& ports, netcalc::DelayTable& delays,
      const Reuse* reuse);
  /// The contained trajectory phase over a set of paths (ascending path
  /// indices); every path's outcome goes to `on_path`.
  void run_trajectory_contained(const TrajectoryContext& ctx,
                                const RunControl& control,
                                const std::vector<std::size_t>& paths,
                                const PathCallback& on_path);
  /// Appends one shard's statistics to metrics_.shards and adds its
  /// prefix work to metrics_.prefix_work.
  void record_shard(std::size_t vls, std::size_t paths,
                    const trajectory::Analyzer& analyzer);
  /// run_resilient, optionally reusing a baseline (run_incremental).
  [[nodiscard]] RunResult run_resilient_with(
      const netcalc::Options& nc_options,
      const trajectory::Options& tj_options, const RunControl& control,
      const Reuse* reuse);

  /// The once-built flat flow index of this engine's configuration.
  const netcalc::PortFlowIndex& flow_index();
  /// The shared trajectory prefix cache for one (trajectory options, caps)
  /// context, created on first use. Bounds are pure functions of that
  /// context, so the cache persists across runs of this engine.
  std::shared_ptr<trajectory::PrefixCache> prefix_cache_for(
      std::uint64_t tj_key, std::uint64_t caps_sig);
  /// Sum of the stats of every prefix cache of this engine.
  [[nodiscard]] trajectory::PrefixCacheStats prefix_stats_total() const;

  const TrafficConfig& cfg_;
  ThreadPool pool_;
  PortCache cache_;
  /// Fixed-point round counts per options digest (cyclic configurations
  /// bypass the per-port cache path but still memoize their round count).
  std::unordered_map<std::uint64_t, int> iterations_;
  std::optional<netcalc::PortFlowIndex> flow_index_;
  std::unordered_map<std::uint64_t, std::shared_ptr<trajectory::PrefixCache>>
      prefix_caches_;
  RunMetrics metrics_;
};

}  // namespace afdx::engine
