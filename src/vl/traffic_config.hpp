// TrafficConfig: a validated AFDX network plus its static set of virtual
// links and their multicast routes. This is the single input object shared
// by the network-calculus analyzer, the trajectory analyzer and the
// simulator.
//
// Terminology used throughout the analyzers:
//   * a "node" of a VL path is an output port, i.e. a directed link;
//   * a "path" is the ordered link sequence from the source end system's
//     output port to the destination end system (one per destination);
//   * the "predecessor link" of a VL at a switch output port is the link the
//     VL's frames arrive on — flows sharing a predecessor link are
//     serialized, which is what the grouping technique exploits.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "topology/network.hpp"
#include "vl/virtual_link.hpp"

namespace afdx {

/// One unicast path of a (possibly multicast) VL: the ordered directed links
/// from the source end system to one destination end system.
struct VlPath {
  VlId vl = kInvalidVl;
  /// Index of the destination inside VirtualLink::destinations.
  std::uint32_t dest_index = 0;
  std::vector<LinkId> links;
};

/// Identifies one VL path globally: all analyzers report bounds per PathRef.
struct PathRef {
  VlId vl = kInvalidVl;
  std::uint32_t dest_index = 0;

  friend bool operator==(const PathRef&, const PathRef&) = default;
};

/// The static route of one VL: per-destination paths plus the derived tree
/// structure (set of crossed links, unique predecessor per crossed link).
class VlRoute {
 public:
  VlRoute() = default;

  /// Builds the route from per-destination paths; verifies that the union of
  /// the paths forms a tree rooted at the source (common prefixes must be
  /// identical links).
  VlRoute(const Network& net, const VirtualLink& vl,
          std::vector<std::vector<LinkId>> paths);

  [[nodiscard]] const std::vector<std::vector<LinkId>>& paths() const noexcept {
    return paths_;
  }

  /// All links crossed by the VL, without duplicates, in BFS-from-source
  /// order.
  [[nodiscard]] const std::vector<LinkId>& crossed_links() const noexcept {
    return crossed_links_;
  }

  /// True when the VL's tree uses link `l`.
  [[nodiscard]] bool crosses(LinkId l) const {
    return predecessor_.find(l) != predecessor_.end();
  }

  /// The link the VL's frames arrive on before being emitted on `l`;
  /// kInvalidLink when `l` is the source end system's output port.
  /// Requires crosses(l).
  [[nodiscard]] LinkId predecessor(LinkId l) const;

  /// Links of the path to destination `dest_index` strictly before link `l`.
  /// Requires that path to contain `l`.
  [[nodiscard]] std::vector<LinkId> prefix_before(std::uint32_t dest_index,
                                                  LinkId l) const;

 private:
  std::vector<std::vector<LinkId>> paths_;
  std::vector<LinkId> crossed_links_;
  std::unordered_map<LinkId, LinkId> predecessor_;
};

/// A complete, validated AFDX configuration.
///
/// The network, the routes and every index derived from them (paths, the
/// per-link VL lists, the port dependency graph, the VL name index) form
/// one immutable layout that copies share; only the VL parameters and the
/// per-port utilization they induce are per configuration. Copying a
/// configuration, or deriving one with edited VL parameters
/// (with_vl_parameters), therefore costs O(VLs), not O(routes).
class TrafficConfig {
 public:
  /// Builds routes automatically (shortest path per destination) and
  /// validates everything. Throws afdx::Error on any inconsistency.
  TrafficConfig(Network network, std::vector<VirtualLink> vls);

  /// Same, with explicit routes (routes[i][d] is the link path of VL i to
  /// its d-th destination). Pass an empty inner vector to request automatic
  /// routing for that destination.
  TrafficConfig(Network network, std::vector<VirtualLink> vls,
                std::vector<std::vector<std::vector<LinkId>>> routes);

  [[nodiscard]] const Network& network() const noexcept { return layout_->net; }
  [[nodiscard]] std::size_t vl_count() const noexcept { return vls_.size(); }
  [[nodiscard]] const VirtualLink& vl(VlId id) const;
  [[nodiscard]] const VlRoute& route(VlId id) const;
  /// The VL called `name` (the first one when several share the name), or
  /// nullopt. O(1): the name index is built once per layout, on first use.
  [[nodiscard]] std::optional<VlId> find_vl(const std::string& name) const;
  /// False when two VLs share a name (names are then no stable id).
  [[nodiscard]] bool unique_vl_names() const;

  /// Every (VL, destination) pair of the configuration, ordered by VL id,
  /// then destination index.
  [[nodiscard]] const std::vector<VlPath>& all_paths() const noexcept {
    return layout_->all_paths;
  }

  /// The paths of one VL: all_paths()[first_path(id) .. first_path(id + 1)).
  [[nodiscard]] std::size_t first_path(VlId id) const noexcept {
    return layout_->path_begin[id];
  }

  /// The link sequence of one path.
  [[nodiscard]] const VlPath& path(PathRef ref) const;

  /// Ids of the VLs whose tree crosses output port `l`, strictly ascending
  /// by VlId. Callers rely on the order: the trajectory analyzer locates a
  /// VL in its predecessor port's list by binary search.
  [[nodiscard]] const std::vector<VlId>& vls_on_link(LinkId l) const;

  /// Output ports fed by port `l`: every port a VL crossing `l` is
  /// forwarded to next (ascending, no duplicates). These are the edges of
  /// the port dependency graph the analyses propagate along.
  [[nodiscard]] const std::vector<LinkId>& next_ports(LinkId l) const;

  /// True when the port dependency graph is acyclic (the configuration is
  /// feed-forward, so every port can be analyzed after its predecessors).
  [[nodiscard]] bool feed_forward() const;

  /// Long-term utilization of output port `l`:
  /// sum of (8 s_max / BAG) over crossing VLs, divided by the link rate.
  [[nodiscard]] double utilization(LinkId l) const;

  /// Highest utilization over all output ports.
  [[nodiscard]] double max_utilization() const;

  /// True when every output port has utilization <= 1 (necessary for any
  /// delay bound to exist).
  [[nodiscard]] bool stable() const;

  /// A configuration with the parameters of some VLs replaced (BAG, frame
  /// sizes, release jitter, priority) and everything else -- network,
  /// routes and their indexes -- shared with this one. Each replacement
  /// must keep the VL's name, source and destinations and is validated
  /// like any VL; only the utilization of the ports the edited VLs cross
  /// is recomputed.
  [[nodiscard]] TrafficConfig with_vl_parameters(
      const std::vector<std::pair<VlId, VirtualLink>>& edits) const;

  /// True when both configurations share one layout (one was derived from
  /// the other by copying or with_vl_parameters): same network, same
  /// routes, same VL names under the same ids.
  [[nodiscard]] bool shares_layout(const TrafficConfig& other) const noexcept {
    return layout_ == other.layout_;
  }

 private:
  /// Everything derived from the network and the routes.
  struct Layout {
    Network net;
    std::vector<VlRoute> routes;
    std::vector<VlPath> all_paths;
    std::vector<std::size_t> path_begin;       // indexed by VlId, plus end
    std::vector<std::vector<VlId>> link_vls;   // indexed by LinkId
    /// The port dependency graph (indexed by LinkId) and the VL name
    /// index are built on first use: most configurations (generated,
    /// permuted, degraded views) are analyzed once or not at all.
    mutable std::once_flag graph_once;
    mutable std::vector<std::vector<LinkId>> next;
    mutable bool feed_forward = true;
    mutable std::once_flag names_once;
    mutable std::unordered_map<std::string, VlId> by_name;
    mutable bool unique_names = true;
  };

  void build(Network network,
             std::vector<std::vector<std::vector<LinkId>>> routes);
  [[nodiscard]] const Layout& graph_layout() const;
  [[nodiscard]] const Layout& named_layout() const;
  [[nodiscard]] double link_utilization(LinkId l) const;

  std::shared_ptr<const Layout> layout_;
  std::vector<VirtualLink> vls_;
  std::vector<double> utilization_;  // indexed by LinkId
};

}  // namespace afdx
