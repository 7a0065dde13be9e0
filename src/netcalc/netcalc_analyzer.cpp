#include "netcalc/netcalc_analyzer.hpp"

#include <algorithm>
#include <map>

#include "common/arena.hpp"
#include "common/error.hpp"
#include "minplus/operations.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace afdx::netcalc {

namespace {

using minplus::Curve;

/// Per-port, per-priority-class delay bounds (the propagation state).
using LevelDelays = std::map<std::uint8_t, Microseconds>;

/// Sum of upstream port delays of `vl` before it reaches `port` (the delay
/// already accumulated when its frames arrive there), using the VL's own
/// priority class at every crossed port.
Microseconds accumulated_delay(const TrafficConfig& config, VlId vl,
                               LinkId port,
                               const std::vector<LevelDelays>& port_delays) {
  const VlRoute& route = config.route(vl);
  const std::uint8_t level = config.vl(vl).priority;
  Microseconds acc = 0.0;
  for (LinkId l = route.predecessor(port); l != kInvalidLink;
       l = route.predecessor(l)) {
    auto it = port_delays[l].find(level);
    if (it != port_delays[l].end()) acc += it->second;
  }
  return acc;
}

/// Grouped arrival aggregates of the VLs crossing `port`, one curve per
/// priority class (optionally excluding one VL).
std::map<std::uint8_t, Curve> level_aggregates_at(
    const TrafficConfig& config, LinkId port, const Options& options,
    const std::vector<LevelDelays>& port_delays, VlId exclude) {
  const Network& net = config.network();

  // Partition the crossing VLs by priority class, then by the link their
  // frames arrive on. VLs born at this port (source ES output) have no
  // predecessor link and are not serialized with anything: each is its own
  // group.
  std::map<std::uint8_t, std::map<std::pair<bool, LinkId>, std::vector<VlId>>>
      levels;
  LinkId fresh_key = 0;
  for (VlId v : config.vls_on_link(port)) {
    if (v == exclude) continue;
    auto& groups = levels[config.vl(v).priority];
    const LinkId pred = config.route(v).predecessor(port);
    if (pred == kInvalidLink) {
      groups[{false, fresh_key++}].push_back(v);
    } else {
      groups[{true, pred}].push_back(v);
    }
  }

  std::map<std::uint8_t, Curve> out;
  for (const auto& [level, groups] : levels) {
    Curve aggregate;  // zero curve
    for (const auto& [key, members] : groups) {
      Curve group_curve;
      Bits largest_frame = 0.0;
      for (VlId v : members) {
        group_curve = minplus::sum(
            group_curve, arrival_curve_at(config, v, port, port_delays));
        largest_frame = std::max(largest_frame, config.vl(v).burst_bits());
      }
      if (options.grouping && key.first && members.size() >= 2) {
        // Frames of the group are serialized by the shared input link: over
        // any window of length t at most (rate * t + largest frame) bits
        // can arrive. A lone flow on a link is not grouped with anything
        // (the published grouping technique exploits serialization between
        // flows).
        const BitsPerMicrosecond upstream_rate = net.link(key.second).rate;
        group_curve = minplus::minimum(
            group_curve, Curve::affine(largest_frame, upstream_rate));
      }
      aggregate = minplus::sum(aggregate, group_curve);
    }
    out.emplace(level, std::move(aggregate));
  }
  return out;
}

}  // namespace

// The per-port computation: aggregate the crossing VLs per priority class
// (with grouping when enabled), derive each class's residual service, and
// return the class delay bounds plus the port backlog bounds.
PortBounds compute_port_bounds(const TrafficConfig& config, LinkId port,
                               const Options& options,
                               const std::vector<LevelDelays>& port_delays) {
  AFDX_TRACE_SPAN("netcalc.port", "netcalc");
  // Every intermediate curve of this port's computation (aggregates,
  // convolutions, residual services) bump-allocates its breakpoints here
  // and is reclaimed by one rewind on return; the produced PortBounds
  // carries only scalars, so nothing arena-backed escapes the scope.
  static thread_local common::BumpArena curve_arena;
  const common::ArenaScope curve_scope(curve_arena);
  static obs::Counter& ports_computed =
      obs::registry().counter("netcalc.ports_computed");
  ports_computed.add();
  const Network& net = config.network();
  const Link& link = net.link(port);

  Bits port_max_frame = 0.0;
  for (VlId v : config.vls_on_link(port)) {
    port_max_frame = std::max(port_max_frame, config.vl(v).burst_bits());
  }

  const std::map<std::uint8_t, Curve> level_aggregates =
      level_aggregates_at(config, port, options, port_delays, kInvalidVl);
  Curve total_aggregate;
  for (const auto& [level, aggregate] : level_aggregates) {
    total_aggregate = minplus::sum(total_aggregate, aggregate);
  }

  const Curve beta = Curve::rate_latency(link.rate, link.latency);
  const Curve pure_rate = Curve::rate_latency(link.rate, 0.0);
  try {
    PortBounds bounds;
    // Buffer sizing (the memory is shared by all classes of the port) with
    // store-and-forward release: a frame occupies the FIFO until fully
    // transmitted, so the fluid backlog is raised by one maximum frame.
    bounds.backlog =
        minplus::vertical_deviation(total_aggregate, beta) + port_max_frame;
    bounds.queue_backlog =
        minplus::vertical_deviation(total_aggregate, pure_rate);

    // Per-class delays: class k is served after all higher classes and can
    // be blocked by one lower-class frame already in transmission.
    Curve higher;  // zero curve
    for (auto it = level_aggregates.begin(); it != level_aggregates.end();
         ++it) {
      Bits blocking = 0.0;
      for (auto low = std::next(it); low != level_aggregates.end(); ++low) {
        for (VlId v : config.vls_on_link(port)) {
          if (config.vl(v).priority == low->first) {
            blocking = std::max(blocking, config.vl(v).burst_bits());
          }
        }
      }
      const bool only_class = level_aggregates.size() == 1;
      const Curve service =
          only_class ? beta : minplus::residual_service(beta, higher, blocking);
      bounds.level_delays[it->first] =
          minplus::horizontal_deviation(it->second, service);
      higher = minplus::sum(higher, it->second);
    }
    return bounds;
  } catch (const Error&) {
    throw Error("WCNC: unstable output port " +
                net.node(link.source).name + " -> " +
                net.node(link.dest).name + " (utilization " +
                std::to_string(config.utilization(port)) + ")");
  }
}

PortBounds compute_port_bounds(const TrafficConfig& config, LinkId port,
                               const Options& options,
                               const DelayTable& delays,
                               const PortFlowIndex& index) {
  AFDX_TRACE_SPAN("netcalc.port", "netcalc");
  // Every intermediate curve of this port's computation (aggregates,
  // convolutions, residual services) bump-allocates its breakpoints here
  // and is reclaimed by one rewind on return; the produced PortBounds
  // carries only scalars, so nothing arena-backed escapes the scope.
  static thread_local common::BumpArena curve_arena;
  const common::ArenaScope curve_scope(curve_arena);
  static obs::Counter& ports_computed =
      obs::registry().counter("netcalc.ports_computed");
  ports_computed.add();
  const Network& net = config.network();
  const Link& link = net.link(port);
  const PortFlowIndex::Port& p = index.ports[port];

  // Per-class grouped aggregates, ascending class order -- the flat mirror
  // of level_aggregates_at() with the arrival curves inlined (the index
  // stores each member's leaky-bucket parameters and upstream chain).
  std::vector<std::pair<std::uint8_t, Curve>> level_aggregates;
  level_aggregates.reserve(p.class_end - p.class_begin);
  for (std::uint32_t ci = p.class_begin; ci != p.class_end; ++ci) {
    const PortFlowIndex::ClassEntry& ce = index.classes[ci];
    Curve aggregate;  // zero curve
    for (std::uint32_t gi = ce.group_begin; gi != ce.group_end; ++gi) {
      const PortFlowIndex::Group& g = index.groups[gi];
      Curve group_curve;
      for (std::uint32_t mi = g.member_begin; mi != g.member_end; ++mi) {
        const PortFlowIndex::Member& mb = index.members[mi];
        Microseconds acc = 0.0;
        for (std::uint32_t k = mb.chain_begin; k != mb.chain_end; ++k) {
          const LinkId up = index.chains[k];
          if (delays.has(up, ce.cls)) acc += delays.get(up, ce.cls);
        }
        const Microseconds total_jitter = mb.release_jitter + acc;
        group_curve = minplus::sum(
            group_curve,
            Curve::affine(mb.burst + mb.rate * total_jitter, mb.rate));
      }
      if (options.grouping && g.pred != kInvalidLink &&
          g.member_end - g.member_begin >= 2) {
        group_curve = minplus::minimum(
            group_curve,
            Curve::affine(g.largest_frame, net.link(g.pred).rate));
      }
      aggregate = minplus::sum(aggregate, group_curve);
    }
    level_aggregates.emplace_back(ce.cls, std::move(aggregate));
  }

  Curve total_aggregate;
  for (const auto& [level, aggregate] : level_aggregates) {
    total_aggregate = minplus::sum(total_aggregate, aggregate);
  }

  const Curve beta = Curve::rate_latency(link.rate, link.latency);
  const Curve pure_rate = Curve::rate_latency(link.rate, 0.0);
  try {
    PortBounds bounds;
    bounds.backlog =
        minplus::vertical_deviation(total_aggregate, beta) + p.max_frame;
    bounds.queue_backlog =
        minplus::vertical_deviation(total_aggregate, pure_rate);

    Curve higher;  // zero curve
    const bool only_class = level_aggregates.size() == 1;
    for (std::size_t idx = 0; idx < level_aggregates.size(); ++idx) {
      const PortFlowIndex::ClassEntry& ce =
          index.classes[p.class_begin + idx];
      const Curve service =
          only_class
              ? beta
              : minplus::residual_service(beta, higher, ce.lower_blocking);
      bounds.level_delays[level_aggregates[idx].first] =
          minplus::horizontal_deviation(level_aggregates[idx].second, service);
      higher = minplus::sum(higher, level_aggregates[idx].second);
    }
    return bounds;
  } catch (const Error&) {
    throw Error("WCNC: unstable output port " +
                net.node(link.source).name + " -> " +
                net.node(link.dest).name + " (utilization " +
                std::to_string(config.utilization(port)) + ")");
  }
}

std::optional<std::vector<std::vector<LinkId>>> propagation_levels(
    const TrafficConfig& config) {
  std::vector<LinkId> used_ports;
  for (LinkId l = 0; l < config.network().link_count(); ++l) {
    if (!config.vls_on_link(l).empty()) used_ports.push_back(l);
  }
  return propagation_levels(config, used_ports);
}

std::optional<std::vector<std::vector<LinkId>>> propagation_levels(
    const TrafficConfig& config, const std::vector<LinkId>& ports) {
  // In-degree within the port set; -1 marks ports outside it, whose
  // bounds are given, so edges from them impose no order.
  std::vector<int> in_degree(config.network().link_count(), -1);
  for (LinkId port : ports) in_degree[port] = 0;
  for (LinkId port : ports) {
    for (LinkId s : config.next_ports(port)) {
      if (in_degree[s] >= 0) ++in_degree[s];
    }
  }
  std::vector<LinkId> level;
  for (LinkId port : ports) {
    if (in_degree[port] == 0) level.push_back(port);
  }
  std::vector<std::vector<LinkId>> levels;
  std::size_t placed = 0;
  while (!level.empty()) {
    placed += level.size();
    std::vector<LinkId> next;
    for (LinkId p : level) {
      for (LinkId s : config.next_ports(p)) {
        if (in_degree[s] > 0 && --in_degree[s] == 0) next.push_back(s);
      }
    }
    // Ports join the next level in discovery order; keep levels stable.
    std::sort(next.begin(), next.end());
    levels.push_back(std::move(level));
    level = std::move(next);
  }
  if (placed != ports.size()) return std::nullopt;
  return levels;
}

PortReport make_report(const PortBounds& bounds, double utilization) {
  PortReport report;
  report.used = true;
  report.level_delays = bounds.level_delays;
  report.delay = 0.0;
  for (const auto& [level, d] : bounds.level_delays) {
    report.delay = std::max(report.delay, d);
  }
  report.backlog = bounds.backlog;
  report.queue_backlog = bounds.queue_backlog;
  report.utilization = utilization;
  return report;
}

std::vector<Microseconds> path_bounds_from(
    const TrafficConfig& config, const std::vector<LevelDelays>& port_delays) {
  std::vector<Microseconds> out;
  out.reserve(config.all_paths().size());
  for (const VlPath& p : config.all_paths()) {
    const std::uint8_t level = config.vl(p.vl).priority;
    Microseconds total = 0.0;
    for (LinkId l : p.links) {
      auto it = port_delays[l].find(level);
      AFDX_ASSERT(it != port_delays[l].end(), "missing level delay");
      total += it->second;
    }
    out.push_back(total);
  }
  return out;
}

std::vector<Microseconds> path_bounds_from(const TrafficConfig& config,
                                           const DelayTable& delays) {
  std::vector<Microseconds> out;
  out.reserve(config.all_paths().size());
  for (const VlPath& p : config.all_paths()) {
    const std::uint8_t level = config.vl(p.vl).priority;
    Microseconds total = 0.0;
    for (LinkId l : p.links) {
      AFDX_ASSERT(delays.has(l, level), "missing level delay");
      total += delays.get(l, level);
    }
    out.push_back(total);
  }
  return out;
}

minplus::Curve arrival_curve_at(
    const TrafficConfig& config, VlId vl, LinkId port,
    const std::vector<std::map<std::uint8_t, Microseconds>>& port_delays) {
  const VirtualLink& v = config.vl(vl);
  AFDX_REQUIRE(config.route(vl).crosses(port),
               "arrival_curve_at: VL does not cross the port");
  const Microseconds acc = accumulated_delay(config, vl, port, port_delays);
  // The source envelope delayed by up to (release jitter + upstream port
  // delays): the burst grows by rho times the accumulated worst-case delay.
  const Microseconds total_jitter = v.max_release_jitter + acc;
  return minplus::Curve::affine(
      v.burst_bits() + v.rate_bits_per_us() * total_jitter,
      v.rate_bits_per_us());
}

minplus::Curve port_aggregate(
    const TrafficConfig& config, LinkId port, const Options& options,
    const std::vector<std::map<std::uint8_t, Microseconds>>& port_delays,
    VlId exclude) {
  Curve total;
  for (const auto& [level, aggregate] :
       level_aggregates_at(config, port, options, port_delays, exclude)) {
    total = minplus::sum(total, aggregate);
  }
  return total;
}

std::vector<std::map<std::uint8_t, Microseconds>> delay_table(
    const Result& result) {
  std::vector<std::map<std::uint8_t, Microseconds>> out(result.ports.size());
  for (std::size_t l = 0; l < result.ports.size(); ++l) {
    if (result.ports[l].used) out[l] = result.ports[l].level_delays;
  }
  return out;
}

Microseconds Result::bound_for(const TrafficConfig& config, PathRef ref) const {
  const auto& paths = config.all_paths();
  for (std::size_t i = 0; i < paths.size(); ++i) {
    if (paths[i].vl == ref.vl && paths[i].dest_index == ref.dest_index) {
      return path_bounds[i];
    }
  }
  throw Error("WCNC Result::bound_for: unknown path");
}

Result analyze(const TrafficConfig& config, const Options& options) {
  AFDX_TRACE_SPAN("netcalc.analyze", "netcalc");
  const std::size_t n_links = config.network().link_count();

  Result result;
  result.ports.assign(n_links, PortReport{});

  const auto levels = propagation_levels(config);
  if (levels.has_value()) {
    // Feed-forward: one pass in dependency order is exact. The flat delay
    // table and the once-built flow index carry the hot per-port loop.
    DelayTable flat(config);
    const PortFlowIndex index = build_port_flow_index(config);
    for (const std::vector<LinkId>& level : *levels) {
      for (LinkId port : level) {
        const PortBounds b =
            compute_port_bounds(config, port, options, flat, index);
        flat.assign(port, b.level_delays);
        result.ports[port] = make_report(b, config.utilization(port));
      }
    }
    result.iterations = 1;
    result.path_bounds = path_bounds_from(config, flat);
  } else {
    std::vector<LevelDelays> delays(n_links);
    // Cyclic dependencies: monotone fixed point from below. Delays only
    // grow between rounds; stop when stationary.
    std::vector<LinkId> used_ports;
    for (LinkId l = 0; l < n_links; ++l) {
      if (!config.vls_on_link(l).empty()) used_ports.push_back(l);
    }
    int round = 0;
    for (; round < options.max_iterations; ++round) {
      AFDX_TRACE_SPAN("netcalc.fixed_point_round", "netcalc");
      obs::registry().counter("netcalc.fixed_point_rounds").add();
      double max_change = 0.0;
      for (LinkId port : used_ports) {
        PortBounds b = compute_port_bounds(config, port, options, delays);
        for (auto& [level, d] : b.level_delays) {
          const Microseconds prev = delays[port].count(level)
                                        ? delays[port][level]
                                        : 0.0;
          max_change = std::max(max_change, d - prev);
          d = std::max(d, prev);
          delays[port][level] = d;
        }
        result.ports[port] = make_report(b, config.utilization(port));
      }
      if (max_change <= kEpsilon) break;
    }
    AFDX_REQUIRE(round < options.max_iterations,
                 "WCNC: fixed point did not converge (cyclic configuration "
                 "too heavily loaded)");
    result.iterations = round + 1;
    result.path_bounds = path_bounds_from(config, delays);
  }

  return result;
}

}  // namespace afdx::netcalc
