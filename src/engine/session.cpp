#include "engine/session.hpp"

#include <chrono>
#include <utility>

#include "common/error.hpp"
#include "obs/trace.hpp"

namespace afdx::engine {

namespace {

using Clock = std::chrono::steady_clock;

/// Applies the set fields of one override to a VL.
void apply(VirtualLink& vl, const VlOverride& o) {
  if (o.bag) vl.bag = *o.bag;
  if (o.s_min) vl.s_min = *o.s_min;
  if (o.s_max) vl.s_max = *o.s_max;
  if (o.max_release_jitter) vl.max_release_jitter = *o.max_release_jitter;
  if (o.priority) vl.priority = *o.priority;
}

}  // namespace

std::shared_ptr<const BaselineState> BaselineState::build(
    std::shared_ptr<const TrafficConfig> config, const netcalc::Options& nc,
    const trajectory::Options& tj, int threads) {
  AFDX_TRACE_SPAN("session.baseline.build", "engine");
  if (config == nullptr) throw Error("BaselineState: null configuration");
  auto state = std::shared_ptr<BaselineState>(new BaselineState());
  state->config_ = std::move(config);
  state->nc_ = nc;
  state->tj_ = tj;
  AnalysisEngine engine(*state->config_, Options{threads});
  const auto t0 = Clock::now();
  state->healthy_ = engine.run_resilient(nc, tj);
  state->build_wall_us_ =
      std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
  return state;
}

OverlaySession::OverlaySession(std::shared_ptr<const BaselineState> baseline,
                               int threads)
    : baseline_(std::move(baseline)), threads_(threads) {
  if (baseline_ == nullptr) throw Error("OverlaySession: null baseline");
}

void OverlaySession::override_vl(const VlOverride& override_) {
  const TrafficConfig& cfg = baseline_->config();
  const std::optional<VlId> id = cfg.find_vl(override_.vl);
  if (!id.has_value()) {
    throw Error("unknown VL '" + override_.vl + "'");
  }
  // Validate the merged VL eagerly so a bad request fails here, with the
  // VL named, instead of deep inside TrafficConfig construction.
  VirtualLink merged = cfg.vl(*id);
  for (const VlOverride& o : overrides_) {
    if (o.vl == override_.vl) apply(merged, o);
  }
  apply(merged, override_);
  merged.validate();

  for (VlOverride& o : overrides_) {
    if (o.vl != override_.vl) continue;
    if (override_.bag) o.bag = override_.bag;
    if (override_.s_min) o.s_min = override_.s_min;
    if (override_.s_max) o.s_max = override_.s_max;
    if (override_.max_release_jitter) {
      o.max_release_jitter = override_.max_release_jitter;
    }
    if (override_.priority) o.priority = override_.priority;
    return;
  }
  overrides_.push_back(override_);
}

void OverlaySession::override_bag(const std::string& vl, Microseconds bag_us) {
  VlOverride o;
  o.vl = vl;
  o.bag = bag_us;
  override_vl(o);
}

void OverlaySession::override_s_max(const std::string& vl, Bytes s_max) {
  VlOverride o;
  o.vl = vl;
  o.s_max = s_max;
  override_vl(o);
}

void OverlaySession::override_priority(const std::string& vl,
                                       std::uint8_t priority) {
  VlOverride o;
  o.vl = vl;
  o.priority = priority;
  override_vl(o);
}

TrafficConfig OverlaySession::materialize() const {
  AFDX_TRACE_SPAN("session.materialize", "engine");
  const TrafficConfig& base = baseline_->config();
  std::vector<std::pair<VlId, VirtualLink>> edits;
  edits.reserve(overrides_.size());
  for (const VlOverride& o : overrides_) {
    const VlId v = *base.find_vl(o.vl);  // validated in override_vl
    edits.emplace_back(v, base.vl(v));
    apply(edits.back().second, o);
  }
  // The baseline's layout is shared: link ids, routes, path order and
  // every index built on them stay the baseline's, which is what lets
  // plan_incremental diff VL parameters only and run_incremental read
  // clean ports and paths by index.
  return base.with_vl_parameters(edits);
}

RunResult OverlaySession::analyze(const RunControl& control) {
  return analyze_config(materialize(), {}, control);
}

RunResult OverlaySession::analyze_config(const TrafficConfig& current,
                                         const std::vector<LinkId>& changed_links,
                                         const RunControl& control) {
  AFDX_TRACE_SPAN("session.analyze", "engine");
  AnalysisEngine engine(current, Options{threads_});
  RunResult result = engine.run_incremental(
      baseline_->config(), baseline_->healthy(), changed_links,
      baseline_->nc_options(), baseline_->tj_options(), control);
  last_incremental_ = result.metrics.incremental;
  return result;
}

}  // namespace afdx::engine
