// Unit tests for virtual links, routes and TrafficConfig.
#include "vl/traffic_config.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "config/samples.hpp"
#include "faults/degrade.hpp"
#include "faults/scenario.hpp"
#include "gen/industrial.hpp"

namespace afdx {
namespace {

TEST(VirtualLink, DerivedQuantities) {
  VirtualLink vl{"v", 0, {1}, microseconds_from_ms(4.0), 64, 500};
  EXPECT_DOUBLE_EQ(vl.burst_bits(), 4000.0);
  EXPECT_DOUBLE_EQ(vl.rate_bits_per_us(), 1.0);  // 4000 bits / 4000 us
  EXPECT_DOUBLE_EQ(vl.max_transmission_time(100.0), 40.0);
  EXPECT_DOUBLE_EQ(vl.min_transmission_time(100.0), 5.12);
}

TEST(VirtualLink, ValidateRejectsBadContracts) {
  VirtualLink ok{"v", 0, {1}, 4000.0, 64, 500};
  EXPECT_NO_THROW(ok.validate());

  VirtualLink no_bag = ok;
  no_bag.bag = 0.0;
  EXPECT_THROW(no_bag.validate(), Error);

  VirtualLink bad_sizes = ok;
  bad_sizes.s_min = 600;
  EXPECT_THROW(bad_sizes.validate(), Error);

  VirtualLink too_big = ok;
  too_big.s_max = 2000;
  EXPECT_THROW(too_big.validate(), Error);

  VirtualLink self_dest = ok;
  self_dest.destinations = {0};
  EXPECT_THROW(self_dest.validate(), Error);

  VirtualLink no_dest = ok;
  no_dest.destinations.clear();
  EXPECT_THROW(no_dest.validate(), Error);
}

TEST(TrafficConfig, SampleConfigShape) {
  const TrafficConfig cfg = config::sample_config();
  EXPECT_EQ(cfg.vl_count(), 5u);
  EXPECT_EQ(cfg.all_paths().size(), 5u);
  EXPECT_TRUE(cfg.stable());
  EXPECT_TRUE(cfg.find_vl("v1").has_value());
  EXPECT_FALSE(cfg.find_vl("v9").has_value());
}

TEST(TrafficConfig, SamplePathsAreRoutedAsInThePaper) {
  const TrafficConfig cfg = config::sample_config();
  const Network& net = cfg.network();
  const VlId v1 = *cfg.find_vl("v1");
  const auto& path = cfg.route(v1).paths()[0];
  ASSERT_EQ(path.size(), 3u);  // e1 port, S1 port, S3 port
  EXPECT_EQ(net.node(net.link(path[0]).source).name, "e1");
  EXPECT_EQ(net.node(net.link(path[1]).source).name, "S1");
  EXPECT_EQ(net.node(net.link(path[2]).source).name, "S3");
  EXPECT_EQ(net.node(net.link(path[2]).dest).name, "e6");
}

TEST(TrafficConfig, VlsOnLinkIndexesSharedPorts) {
  const TrafficConfig cfg = config::sample_config();
  const Network& net = cfg.network();
  const LinkId s3_to_e6 =
      *net.link_between(*net.find_node("S3"), *net.find_node("e6"));
  EXPECT_EQ(cfg.vls_on_link(s3_to_e6).size(), 4u);  // v1..v4
  const LinkId s3_to_e7 =
      *net.link_between(*net.find_node("S3"), *net.find_node("e7"));
  EXPECT_EQ(cfg.vls_on_link(s3_to_e7).size(), 1u);  // v5
}

TEST(TrafficConfig, UtilizationOfSharedPort) {
  const TrafficConfig cfg = config::sample_config();
  const Network& net = cfg.network();
  const LinkId s3_to_e6 =
      *net.link_between(*net.find_node("S3"), *net.find_node("e6"));
  // 4 VLs x (4000 bits / 4000 us) / 100 Mb/s = 4 / 100.
  EXPECT_NEAR(cfg.utilization(s3_to_e6), 0.04, 1e-12);
  EXPECT_NEAR(cfg.max_utilization(), 0.04, 1e-12);
}

TEST(TrafficConfig, RoutePredecessorChain) {
  const TrafficConfig cfg = config::sample_config();
  const VlId v1 = *cfg.find_vl("v1");
  const auto& path = cfg.route(v1).paths()[0];
  EXPECT_EQ(cfg.route(v1).predecessor(path[0]), kInvalidLink);
  EXPECT_EQ(cfg.route(v1).predecessor(path[1]), path[0]);
  EXPECT_EQ(cfg.route(v1).predecessor(path[2]), path[1]);
}

TEST(TrafficConfig, MulticastTreeSharesPrefix) {
  const TrafficConfig cfg = config::illustrative_config();
  const VlId v6 = *cfg.find_vl("v6");
  const auto& paths = cfg.route(v6).paths();
  ASSERT_EQ(paths.size(), 2u);
  // Both paths start on the same source port.
  EXPECT_EQ(paths[0].front(), paths[1].front());
  // The tree contains strictly fewer links than the sum of path lengths.
  EXPECT_LT(cfg.route(v6).crossed_links().size(),
            paths[0].size() + paths[1].size());
}

TEST(TrafficConfig, PrefixBeforeReturnsOrderedLinks) {
  const TrafficConfig cfg = config::sample_config();
  const VlId v1 = *cfg.find_vl("v1");
  const auto& path = cfg.route(v1).paths()[0];
  const auto prefix = cfg.route(v1).prefix_before(0, path[2]);
  ASSERT_EQ(prefix.size(), 2u);
  EXPECT_EQ(prefix[0], path[0]);
  EXPECT_EQ(prefix[1], path[1]);
}

TEST(TrafficConfig, RejectsVlFromSwitch) {
  Network net;
  const NodeId e1 = net.add_end_system("e1");
  const NodeId s1 = net.add_switch("S1");
  net.connect(e1, s1);
  std::vector<VirtualLink> vls{{"v", s1, {e1}, 4000.0, 64, 500}};
  EXPECT_THROW(TrafficConfig(std::move(net), std::move(vls)), Error);
}

TEST(TrafficConfig, RejectsUnreachableDestination) {
  Network net;
  const NodeId e1 = net.add_end_system("e1");
  const NodeId s1 = net.add_switch("S1");
  const NodeId e2 = net.add_end_system("e2");
  const NodeId s2 = net.add_switch("S2");
  net.connect(e1, s1);
  net.connect(e2, s2);
  std::vector<VirtualLink> vls{{"v", e1, {e2}, 4000.0, 64, 500}};
  EXPECT_THROW(TrafficConfig(std::move(net), std::move(vls)), Error);
}

TEST(TrafficConfig, ExplicitRouteIsHonoured) {
  Network net;
  const NodeId e1 = net.add_end_system("e1");
  const NodeId e2 = net.add_end_system("e2");
  const NodeId s1 = net.add_switch("S1");
  const NodeId s2 = net.add_switch("S2");
  const NodeId s3 = net.add_switch("S3");
  net.connect(e1, s1);
  net.connect(s1, s3);       // short route
  net.connect(s1, s2);
  net.connect(s2, s3);       // long route
  net.connect(s3, e2);
  const LinkId l_e1s1 = *net.link_between(e1, s1);
  const LinkId l_s1s2 = *net.link_between(s1, s2);
  const LinkId l_s2s3 = *net.link_between(s2, s3);
  const LinkId l_s3e2 = *net.link_between(s3, e2);

  std::vector<VirtualLink> vls{{"v", e1, {e2}, 4000.0, 64, 500}};
  std::vector<std::vector<std::vector<LinkId>>> routes{
      {{l_e1s1, l_s1s2, l_s2s3, l_s3e2}}};
  const TrafficConfig cfg(std::move(net), std::move(vls), std::move(routes));
  EXPECT_EQ(cfg.route(0).paths()[0].size(), 4u);
}

TEST(TrafficConfig, RejectsDiscontinuousExplicitRoute) {
  Network net;
  const NodeId e1 = net.add_end_system("e1");
  const NodeId e2 = net.add_end_system("e2");
  const NodeId s1 = net.add_switch("S1");
  const NodeId s2 = net.add_switch("S2");
  net.connect(e1, s1);
  net.connect(s1, s2);
  net.connect(s2, e2);
  const LinkId l_e1s1 = *net.link_between(e1, s1);
  const LinkId l_s2e2 = *net.link_between(s2, e2);
  std::vector<VirtualLink> vls{{"v", e1, {e2}, 4000.0, 64, 500}};
  std::vector<std::vector<std::vector<LinkId>>> routes{{{l_e1s1, l_s2e2}}};
  EXPECT_THROW(TrafficConfig(std::move(net), std::move(vls), std::move(routes)),
               Error);
}

TEST(TrafficConfig, PathLookupByRef) {
  const TrafficConfig cfg = config::illustrative_config();
  const VlId v6 = *cfg.find_vl("v6");
  const VlPath& p = cfg.path(PathRef{v6, 1});
  EXPECT_EQ(p.vl, v6);
  EXPECT_EQ(p.dest_index, 1u);
  EXPECT_THROW((void)cfg.path(PathRef{v6, 9}), Error);
}

/// Two end systems behind one switch, three VLs; `names` labels them.
TrafficConfig three_vls(const std::vector<std::string>& names) {
  Network net;
  const NodeId e1 = net.add_end_system("e1");
  const NodeId e2 = net.add_end_system("e2");
  const NodeId s1 = net.add_switch("S1");
  net.connect(e1, s1);
  net.connect(s1, e2);
  std::vector<VirtualLink> vls;
  for (std::size_t i = 0; i < names.size(); ++i) {
    vls.push_back(VirtualLink{names[i], e1, {e2}, 4000.0 * (i + 1), 64, 500});
  }
  return TrafficConfig(std::move(net), std::move(vls));
}

TEST(TrafficConfig, FindVlIndexesNames) {
  const TrafficConfig cfg = three_vls({"a", "b", "c"});
  EXPECT_TRUE(cfg.unique_vl_names());
  EXPECT_EQ(cfg.find_vl("a"), std::optional<VlId>(0));
  EXPECT_EQ(cfg.find_vl("c"), std::optional<VlId>(2));
  EXPECT_FALSE(cfg.find_vl("").has_value());
  EXPECT_FALSE(cfg.find_vl("A").has_value());  // case-sensitive
  EXPECT_FALSE(cfg.find_vl("a ").has_value());
  // Copies and derived configurations answer from the same index.
  const TrafficConfig copy = cfg;
  EXPECT_EQ(copy.find_vl("b"), std::optional<VlId>(1));
}

TEST(TrafficConfig, FindVlReturnsTheFirstOfDuplicateNames) {
  // Names are not required to be unique; the lookup returns the lowest
  // id carrying the name.
  const TrafficConfig cfg = three_vls({"x", "y", "x"});
  EXPECT_FALSE(cfg.unique_vl_names());
  EXPECT_EQ(cfg.find_vl("x"), std::optional<VlId>(0));
  EXPECT_EQ(cfg.find_vl("y"), std::optional<VlId>(1));
  EXPECT_FALSE(cfg.find_vl("z").has_value());
}

TEST(TrafficConfig, ParameterEditSharesTheLayoutAndMatchesAFreshBuild) {
  const TrafficConfig cfg = config::illustrative_config();
  const VlId v6 = *cfg.find_vl("v6");
  const Bytes original = cfg.vl(v6).s_max;
  VirtualLink edited = cfg.vl(v6);
  edited.bag /= 2.0;
  edited.s_max = original + 1;
  const TrafficConfig patched = cfg.with_vl_parameters({{v6, edited}});
  EXPECT_TRUE(patched.shares_layout(cfg));
  EXPECT_EQ(patched.vl(v6).s_max, original + 1);
  EXPECT_EQ(cfg.vl(v6).s_max, original);  // the original is untouched

  // Same utilization, bit for bit, as a configuration built from scratch.
  std::vector<VirtualLink> vls;
  std::vector<std::vector<std::vector<LinkId>>> routes;
  for (VlId v = 0; v < cfg.vl_count(); ++v) {
    vls.push_back(v == v6 ? edited : cfg.vl(v));
    routes.push_back(cfg.route(v).paths());
  }
  const TrafficConfig fresh(Network(cfg.network()), std::move(vls),
                            std::move(routes));
  EXPECT_FALSE(fresh.shares_layout(cfg));
  for (LinkId l = 0; l < cfg.network().link_count(); ++l) {
    EXPECT_EQ(patched.utilization(l), fresh.utilization(l)) << "link " << l;
  }
  EXPECT_EQ(patched.max_utilization(), fresh.max_utilization());
}

TEST(TrafficConfig, ParameterEditRejectsRoutingChangesAndBadContracts) {
  const TrafficConfig cfg = config::sample_config();
  VirtualLink renamed = cfg.vl(0);
  renamed.name = "other";
  EXPECT_THROW((void)cfg.with_vl_parameters({{0, renamed}}), Error);
  VirtualLink moved = cfg.vl(0);
  moved.destinations = cfg.vl(4).destinations;
  if (moved.destinations != cfg.vl(0).destinations) {
    EXPECT_THROW((void)cfg.with_vl_parameters({{0, moved}}), Error);
  }
  VirtualLink broken = cfg.vl(0);
  broken.bag = 0.0;
  EXPECT_THROW((void)cfg.with_vl_parameters({{0, broken}}), Error);
}

TEST(TrafficConfig, DependencyGraphAndFeedForward) {
  const TrafficConfig cfg = config::sample_config();
  EXPECT_TRUE(cfg.feed_forward());
  for (LinkId l = 0; l < cfg.network().link_count(); ++l) {
    for (LinkId s : cfg.next_ports(l)) {
      // Every edge is some crossing VL's hop from l to s.
      bool hop = false;
      for (VlId v : cfg.vls_on_link(s)) {
        if (cfg.route(v).predecessor(s) == l) hop = true;
      }
      EXPECT_TRUE(hop) << l << " -> " << s;
    }
  }
}

TEST(TrafficConfig, IllustrativeConfigIsStableAndMultipath) {
  const TrafficConfig cfg = config::illustrative_config();
  EXPECT_TRUE(cfg.stable());
  EXPECT_EQ(cfg.vl_count(), 10u);
  EXPECT_GT(cfg.all_paths().size(), cfg.vl_count());  // multicast present
}


// vls_on_link is strictly ascending by VlId on every port (the trajectory
// analyzer's flow rows find a VL's predecessor position by binary search).
void expect_vls_on_link_ascending(const TrafficConfig& cfg,
                                  const std::string& what) {
  for (LinkId l = 0; l < cfg.network().link_count(); ++l) {
    const std::vector<VlId>& vls = cfg.vls_on_link(l);
    EXPECT_TRUE(std::adjacent_find(vls.begin(), vls.end(),
                                   [](VlId a, VlId b) { return a >= b; }) ==
                vls.end())
        << what << ": link " << l;
  }
}

TEST(TrafficConfig, VlsOnLinkAscendOnGeneratedEditedAndDegradedConfigs) {
  gen::IndustrialOptions o;
  o.domains = 2;
  o.vl_count = 300;
  const TrafficConfig cfg = gen::industrial_config(o);
  expect_vls_on_link_ascending(cfg, "generated");

  std::vector<std::pair<VlId, VirtualLink>> edits;
  for (VlId v = 0; v < cfg.vl_count(); v += 7) {
    VirtualLink edited = cfg.vl(v);
    edited.s_max = std::max<Bytes>(edited.s_min, edited.s_max / 2);
    edits.emplace_back(v, edited);
  }
  expect_vls_on_link_ascending(cfg.with_vl_parameters(edits), "edited");

  const std::vector<faults::FaultScenario> scenarios =
      faults::single_link_scenarios(cfg);
  ASSERT_FALSE(scenarios.empty());
  std::size_t degraded = 0;
  for (const faults::FaultScenario& s : scenarios) {
    const faults::DegradedView view = faults::apply_scenario(cfg, s);
    if (!view.config.has_value()) continue;
    expect_vls_on_link_ascending(*view.config, s.name);
    ++degraded;
  }
  EXPECT_GT(degraded, 0u);
}

}  // namespace
}  // namespace afdx
