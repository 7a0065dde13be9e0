#include "vl/traffic_config.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace afdx {

// ---------------------------------------------------------------------------
// VlRoute

VlRoute::VlRoute(const Network& net, const VirtualLink& vl,
                 std::vector<std::vector<LinkId>> paths)
    : paths_(std::move(paths)) {
  AFDX_REQUIRE(paths_.size() == vl.destinations.size(),
               "VL " + vl.name + ": route must have one path per destination");

  for (std::size_t d = 0; d < paths_.size(); ++d) {
    const std::vector<LinkId>& p = paths_[d];
    AFDX_REQUIRE(!p.empty(), "VL " + vl.name + ": empty path");
    AFDX_REQUIRE(net.link(p.front()).source == vl.source,
                 "VL " + vl.name + ": path must start at the source");
    AFDX_REQUIRE(net.link(p.back()).dest == vl.destinations[d],
                 "VL " + vl.name + ": path must end at its destination");
    LinkId prev = kInvalidLink;
    for (LinkId l : p) {
      if (prev != kInvalidLink) {
        AFDX_REQUIRE(net.link(prev).dest == net.link(l).source,
                     "VL " + vl.name + ": discontinuous path");
        AFDX_REQUIRE(net.is_switch(net.link(l).source),
                     "VL " + vl.name + ": path traverses an end system");
      }
      auto [it, inserted] = predecessor_.try_emplace(l, prev);
      if (inserted) {
        crossed_links_.push_back(l);
      } else {
        // The link is shared with a previously registered path: the tree
        // property demands the same predecessor.
        AFDX_REQUIRE(it->second == prev,
                     "VL " + vl.name +
                         ": multicast paths do not form a tree (link reached "
                         "via two different predecessors)");
      }
      prev = l;
    }
  }
}

LinkId VlRoute::predecessor(LinkId l) const {
  auto it = predecessor_.find(l);
  AFDX_ASSERT(it != predecessor_.end(), "predecessor: VL does not cross link");
  return it->second;
}

std::vector<LinkId> VlRoute::prefix_before(std::uint32_t dest_index,
                                           LinkId l) const {
  AFDX_ASSERT(dest_index < paths_.size(), "prefix_before: bad destination");
  const std::vector<LinkId>& p = paths_[dest_index];
  std::vector<LinkId> prefix;
  for (LinkId x : p) {
    if (x == l) return prefix;
    prefix.push_back(x);
  }
  AFDX_ASSERT(false, "prefix_before: link not on path");
  return prefix;  // unreachable
}

// ---------------------------------------------------------------------------
// TrafficConfig

TrafficConfig::TrafficConfig(Network network, std::vector<VirtualLink> vls)
    : vls_(std::move(vls)) {
  build(std::move(network), {});
}

TrafficConfig::TrafficConfig(Network network, std::vector<VirtualLink> vls,
                             std::vector<std::vector<std::vector<LinkId>>> routes)
    : vls_(std::move(vls)) {
  build(std::move(network), std::move(routes));
}

void TrafficConfig::build(Network network,
                          std::vector<std::vector<std::vector<LinkId>>> routes) {
  auto layout = std::make_shared<Layout>();
  layout->net = std::move(network);
  const Network& net = layout->net;
  net.validate();
  AFDX_REQUIRE(routes.empty() || routes.size() == vls_.size(),
               "explicit routes must cover every VL");

  const std::size_t n_links = net.link_count();
  layout->link_vls.assign(n_links, {});
  layout->routes.reserve(vls_.size());
  layout->path_begin.reserve(vls_.size() + 1);

  for (VlId id = 0; id < vls_.size(); ++id) {
    const VirtualLink& vl = vls_[id];
    vl.validate();
    AFDX_REQUIRE(net.is_end_system(vl.source),
                 "VL " + vl.name + ": source must be an end system");

    std::vector<std::vector<LinkId>> paths(vl.destinations.size());
    for (std::size_t d = 0; d < vl.destinations.size(); ++d) {
      const NodeId dest = vl.destinations[d];
      AFDX_REQUIRE(net.is_end_system(dest),
                   "VL " + vl.name + ": destination must be an end system");
      if (!routes.empty() && !routes[id].empty() && !routes[id][d].empty()) {
        paths[d] = routes[id][d];
      } else {
        auto sp = net.shortest_path(vl.source, dest);
        AFDX_REQUIRE(sp.has_value(), "VL " + vl.name +
                                         ": destination " +
                                         net.node(dest).name + " unreachable");
        paths[d] = std::move(*sp);
      }
    }
    layout->routes.emplace_back(net, vl, std::move(paths));

    for (LinkId l : layout->routes.back().crossed_links()) {
      layout->link_vls[l].push_back(id);
    }
    layout->path_begin.push_back(layout->all_paths.size());
    for (std::uint32_t d = 0; d < vl.destinations.size(); ++d) {
      layout->all_paths.push_back(
          VlPath{id, d, layout->routes.back().paths()[d]});
    }
  }
  layout->path_begin.push_back(layout->all_paths.size());

  layout_ = std::move(layout);

  utilization_.resize(n_links);
  for (LinkId l = 0; l < n_links; ++l) utilization_[l] = link_utilization(l);
}

double TrafficConfig::link_utilization(LinkId l) const {
  double total = 0.0;
  for (VlId id : layout_->link_vls[l]) total += vls_[id].rate_bits_per_us();
  return total / layout_->net.link(l).rate;
}

TrafficConfig TrafficConfig::with_vl_parameters(
    const std::vector<std::pair<VlId, VirtualLink>>& edits) const {
  TrafficConfig out = *this;
  for (const auto& [id, edited] : edits) {
    const VirtualLink& current = vl(id);
    AFDX_REQUIRE(edited.name == current.name && edited.source == current.source &&
                     edited.destinations == current.destinations,
                 "VL " + current.name +
                     ": a parameter edit must keep the name, source and "
                     "destinations");
    edited.validate();
    out.vls_[id] = edited;
  }
  for (const auto& edit : edits) {
    for (LinkId l : route(edit.first).crossed_links()) {
      out.utilization_[l] = out.link_utilization(l);
    }
  }
  return out;
}

const VirtualLink& TrafficConfig::vl(VlId id) const {
  AFDX_REQUIRE(id < vls_.size(), "VL id out of range");
  return vls_[id];
}

const VlRoute& TrafficConfig::route(VlId id) const {
  AFDX_REQUIRE(id < layout_->routes.size(), "VL id out of range");
  return layout_->routes[id];
}

const TrafficConfig::Layout& TrafficConfig::graph_layout() const {
  std::call_once(layout_->graph_once, [this] {
    const Layout& layout = *layout_;
    const std::size_t n_links = layout.net.link_count();
    // Port dependency graph: port -> every port a path hops to next.
    layout.next.assign(n_links, {});
    for (const VlPath& p : layout.all_paths) {
      for (std::size_t k = 1; k < p.links.size(); ++k) {
        layout.next[p.links[k - 1]].push_back(p.links[k]);
      }
    }
    std::vector<int> in_degree(n_links, 0);
    for (std::vector<LinkId>& next : layout.next) {
      std::sort(next.begin(), next.end());
      next.erase(std::unique(next.begin(), next.end()), next.end());
      for (LinkId s : next) ++in_degree[s];
    }
    // Kahn's algorithm: the graph is acyclic when every port gets placed.
    std::vector<LinkId> ready;
    for (LinkId l = 0; l < n_links; ++l) {
      if (in_degree[l] == 0) ready.push_back(l);
    }
    std::size_t placed = 0;
    while (!ready.empty()) {
      const LinkId p = ready.back();
      ready.pop_back();
      ++placed;
      for (LinkId s : layout.next[p]) {
        if (--in_degree[s] == 0) ready.push_back(s);
      }
    }
    layout.feed_forward = placed == n_links;
  });
  return *layout_;
}

const TrafficConfig::Layout& TrafficConfig::named_layout() const {
  // Names are part of the layout (with_vl_parameters keeps them), so any
  // configuration sharing it may build the index.
  std::call_once(layout_->names_once, [this] {
    layout_->by_name.reserve(vls_.size());
    for (VlId id = 0; id < vls_.size(); ++id) {
      if (!layout_->by_name.emplace(vls_[id].name, id).second) {
        layout_->unique_names = false;
      }
    }
  });
  return *layout_;
}

std::optional<VlId> TrafficConfig::find_vl(const std::string& name) const {
  const Layout& layout = named_layout();
  const auto it = layout.by_name.find(name);
  if (it == layout.by_name.end()) return std::nullopt;
  return it->second;
}

bool TrafficConfig::unique_vl_names() const {
  return named_layout().unique_names;
}

const VlPath& TrafficConfig::path(PathRef ref) const {
  if (ref.vl < vls_.size() &&
      ref.dest_index < first_path(ref.vl + 1) - first_path(ref.vl)) {
    return layout_->all_paths[first_path(ref.vl) + ref.dest_index];
  }
  throw Error("path not found");
}

const std::vector<VlId>& TrafficConfig::vls_on_link(LinkId l) const {
  AFDX_REQUIRE(l < layout_->link_vls.size(), "link id out of range");
  return layout_->link_vls[l];
}

const std::vector<LinkId>& TrafficConfig::next_ports(LinkId l) const {
  const Layout& layout = graph_layout();
  AFDX_REQUIRE(l < layout.next.size(), "link id out of range");
  return layout.next[l];
}

bool TrafficConfig::feed_forward() const {
  return graph_layout().feed_forward;
}

double TrafficConfig::utilization(LinkId l) const {
  AFDX_REQUIRE(l < utilization_.size(), "link id out of range");
  return utilization_[l];
}

double TrafficConfig::max_utilization() const {
  double worst = 0.0;
  for (double u : utilization_) worst = std::max(worst, u);
  return worst;
}

bool TrafficConfig::stable() const {
  return max_utilization() <= 1.0 + kEpsilon;
}

}  // namespace afdx
