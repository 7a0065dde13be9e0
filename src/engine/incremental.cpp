#include "engine/incremental.hpp"

namespace afdx::engine {

namespace {

/// Everything the per-port computations read about one VL besides its
/// route. Exact comparison on purpose: any numeric drift must dirty the
/// VL's ports.
bool same_parameters(const VirtualLink& a, const VirtualLink& b) noexcept {
  return a.bag == b.bag && a.s_min == b.s_min && a.s_max == b.s_max &&
         a.max_release_jitter == b.max_release_jitter &&
         a.priority == b.priority;
}

}  // namespace

IncrementalPlan plan_incremental(const TrafficConfig& baseline,
                                 const TrafficConfig& current,
                                 const std::vector<LinkId>& changed_links) {
  IncrementalPlan plan;
  // A shared layout means one network, one set of routes and one VL
  // numbering: only the VL parameters can differ.
  const bool shared = current.shares_layout(baseline);
  const Network& bnet = baseline.network();
  const Network& cnet = current.network();
  const std::size_t n = cnet.link_count();

  if (!shared) {
    if (bnet.link_count() != n) {
      plan.reason = "baseline and current networks have different link sets";
      return plan;
    }
    for (LinkId l = 0; l < n; ++l) {
      const Link& a = bnet.link(l);
      const Link& b = cnet.link(l);
      if (a.source != b.source || a.dest != b.dest || a.rate != b.rate ||
          a.latency != b.latency) {
        plan.reason = "link " + std::to_string(l) + " parameters differ";
        return plan;
      }
    }
  }
  for (LinkId l : changed_links) {
    if (l >= n) {
      plan.reason = "changed link id out of range";
      return plan;
    }
  }
  if (!baseline.unique_vl_names() || !current.unique_vl_names()) {
    plan.reason = "VL names are not unique, so VLs cannot be matched by name";
    return plan;
  }

  // Seeds: the changed links themselves plus every port whose set of
  // crossing VLs -- by name, with their arrival link and parameters --
  // differs from the baseline's. Walking the VLs (matched by name) finds
  // exactly those ports: a VL with edited parameters changes every port it
  // crosses in either configuration; a VL with a different route changes
  // the ports it enters, leaves or reaches from another link; an added or
  // dropped VL changes every port it crosses.
  plan.dirty.assign(n, 0);
  for (LinkId l : changed_links) plan.dirty[l] = 1;
  const auto dirty_route = [&plan](const TrafficConfig& cfg, VlId v) {
    for (LinkId l : cfg.route(v).crossed_links()) plan.dirty[l] = 1;
  };
  plan.base_vl.assign(current.vl_count(), kInvalidVl);
  std::vector<char> matched(shared ? 0 : baseline.vl_count(), 0);
  for (VlId v = 0; v < current.vl_count(); ++v) {
    const std::optional<VlId> bv =
        shared ? std::optional<VlId>(v) : baseline.find_vl(current.vl(v).name);
    if (!bv.has_value()) {
      dirty_route(current, v);
      continue;
    }
    plan.base_vl[v] = *bv;
    if (!shared) matched[*bv] = 1;
    if (!same_parameters(baseline.vl(*bv), current.vl(v))) {
      dirty_route(current, v);
      dirty_route(baseline, *bv);
      continue;
    }
    if (shared) continue;
    const VlRoute& cr = current.route(v);
    const VlRoute& br = baseline.route(*bv);
    for (LinkId l : cr.crossed_links()) {
      if (!br.crosses(l) || br.predecessor(l) != cr.predecessor(l)) {
        plan.dirty[l] = 1;
      }
    }
    for (LinkId l : br.crossed_links()) {
      if (!cr.crosses(l)) plan.dirty[l] = 1;
    }
  }
  for (VlId bv = 0; bv < matched.size(); ++bv) {
    if (!matched[bv]) dirty_route(baseline, bv);
  }

  // Downstream closure along the current configuration's propagation
  // edges. Only the cone is visited.
  std::vector<LinkId> stack;
  for (LinkId l = 0; l < n; ++l) {
    if (plan.dirty[l]) stack.push_back(l);
  }
  while (!stack.empty()) {
    const LinkId p = stack.back();
    stack.pop_back();
    for (LinkId s : current.next_ports(p)) {
      if (!plan.dirty[s]) {
        plan.dirty[s] = 1;
        stack.push_back(s);
      }
    }
  }

  for (LinkId l = 0; l < n; ++l) {
    if (current.vls_on_link(l).empty()) continue;
    (plan.dirty[l] ? plan.dirty_ports : plan.clean_ports).push_back(l);
  }
  plan.compatible = true;
  return plan;
}

}  // namespace afdx::engine
