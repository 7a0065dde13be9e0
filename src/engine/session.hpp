// Baseline / overlay session split for analysis-as-a-service.
//
// The expensive part of every what-if query is the baseline: a full
// engine run over the healthy configuration plus the warm PortCache /
// PrefixCache state it leaves behind. BaselineState captures exactly that
// once -- configuration, options, healthy RunResult (which carries the
// per-port WCNC detail and the shared trajectory prefix cache) -- and is
// immutable afterwards, so any number of concurrent readers can analyze
// against one baseline without copying it.
//
// An OverlaySession is the per-request counterpart: it accumulates VL
// parameter overrides (BAG, frame sizes, priority, jitter) on top of the
// baseline configuration, materializes the overlay TrafficConfig (the
// baseline's shared layout -- network, routes, path and link indexes --
// with the overridden VLs patched in, an O(VLs) copy), and re-bounds only
// the dirty cone via AnalysisEngine::run_incremental, reading clean ports,
// paths and prefixes from the baseline's result. Sessions own their
// private engine, so N sessions on N threads share nothing mutable; the
// baseline and its frozen prefix table are read without locking:
//
//   auto base = BaselineState::build(config);          // once, warm
//   OverlaySession s(base);                            // per request
//   s.override_bag("vl042", 4000.0);
//   engine::RunResult r = s.analyze();                 // dirty cone only
//
// analyze_config() is the low-level entry for overlays the session cannot
// build itself (e.g. a fault scenario's degraded view from
// faults::apply_scenario): the caller passes any compatible configuration
// plus the changed-link seed and still gets the incremental path.
// Every result is bit-identical to a fresh full run of the same overlay
// configuration -- run_incremental guarantees it by construction.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "vl/traffic_config.hpp"

namespace afdx::engine {

/// One immutable warm baseline: configuration + options + healthy bounds +
/// the frozen prefix table incremental re-runs read from. Every index a
/// what-if needs (routes, path and link indexes, the port dependency
/// graph, the VL name index) is built once, in the configuration's shared
/// layout. Immutable, so thread-safe for concurrent readers.
class BaselineState {
 public:
  /// Runs the full (resilient) analysis once and pins the result. The
  /// returned baseline is complete when healthy().complete(); an unstable
  /// configuration still yields a usable baseline with per-path statuses.
  [[nodiscard]] static std::shared_ptr<const BaselineState> build(
      std::shared_ptr<const TrafficConfig> config,
      const netcalc::Options& nc = {}, const trajectory::Options& tj = {},
      int threads = 1);

  [[nodiscard]] const TrafficConfig& config() const noexcept { return *config_; }
  [[nodiscard]] std::shared_ptr<const TrafficConfig> config_ptr() const noexcept {
    return config_;
  }
  [[nodiscard]] const RunResult& healthy() const noexcept { return healthy_; }
  [[nodiscard]] const netcalc::Options& nc_options() const noexcept {
    return nc_;
  }
  [[nodiscard]] const trajectory::Options& tj_options() const noexcept {
    return tj_;
  }
  /// Wall time of the baseline run in microseconds (the cost a warm
  /// what-if avoids re-paying).
  [[nodiscard]] Microseconds build_wall_us() const noexcept {
    return build_wall_us_;
  }

 private:
  BaselineState() = default;

  std::shared_ptr<const TrafficConfig> config_;
  netcalc::Options nc_;
  trajectory::Options tj_;
  RunResult healthy_;
  Microseconds build_wall_us_ = 0.0;
};

/// One VL parameter override of an overlay session. Unset fields keep the
/// baseline value.
struct VlOverride {
  std::string vl;  ///< VL name (names are the stable cross-config id).
  std::optional<Microseconds> bag;
  std::optional<Bytes> s_min;
  std::optional<Bytes> s_max;
  std::optional<Microseconds> max_release_jitter;
  std::optional<std::uint8_t> priority;

  [[nodiscard]] bool empty() const noexcept {
    return !bag && !s_min && !s_max && !max_release_jitter && !priority;
  }
};

/// A per-request mutable view over one shared baseline.
class OverlaySession {
 public:
  /// `threads` sizes the private engine of this session (1 = serve the
  /// request inline on the calling thread, the serving default).
  explicit OverlaySession(std::shared_ptr<const BaselineState> baseline,
                          int threads = 1);

  OverlaySession(const OverlaySession&) = delete;
  OverlaySession& operator=(const OverlaySession&) = delete;

  [[nodiscard]] const BaselineState& baseline() const noexcept {
    return *baseline_;
  }

  /// Registers one VL override (merged field-by-field with any earlier
  /// override of the same VL). Throws afdx::Error on an unknown VL name or
  /// an out-of-contract value (non-positive BAG, illegal frame sizes --
  /// the same checks VirtualLink::validate applies).
  void override_vl(const VlOverride& override_);

  /// Shorthands for the common single-field requests.
  void override_bag(const std::string& vl, Microseconds bag_us);
  void override_s_max(const std::string& vl, Bytes s_max);
  void override_priority(const std::string& vl, std::uint8_t priority);

  [[nodiscard]] std::size_t override_count() const noexcept {
    return overrides_.size();
  }

  /// The overlay configuration: the baseline's layout (network, routes,
  /// indexes) shared, the overridden VLs patched in. Costs O(VLs); the
  /// overrides were validated when registered.
  [[nodiscard]] TrafficConfig materialize() const;

  /// Incremental re-analysis of the materialized overlay against the
  /// baseline. Bit-identical to a fresh full run of materialize().
  [[nodiscard]] RunResult analyze(const RunControl& control = {});

  /// Incremental re-analysis of an externally built overlay configuration
  /// (e.g. a degraded view) sharing the baseline's network. `changed_links`
  /// seeds the dirty cone on top of the plan's own crossing-set diff.
  [[nodiscard]] RunResult analyze_config(const TrafficConfig& current,
                                         const std::vector<LinkId>& changed_links,
                                         const RunControl& control = {});

  /// Statistics of the most recent analyze/analyze_config call.
  [[nodiscard]] const IncrementalStats& last_incremental() const noexcept {
    return last_incremental_;
  }

 private:
  std::shared_ptr<const BaselineState> baseline_;
  int threads_ = 1;
  std::vector<VlOverride> overrides_;
  IncrementalStats last_incremental_;
};

}  // namespace afdx::engine
