// Dirty-cone planning for incremental re-analysis.
//
// Given a baseline configuration, a changed configuration sharing the same
// network (same link ids, endpoints and parameters -- e.g. a fault
// scenario's degraded view, or a parameter overlay), and the set of changed
// links, plan_incremental computes the ports whose WCNC bounds may differ
// from the baseline:
//
//   seeds   = changed links, plus every port whose *crossing-VL tuple set*
//             (VL name, arrival link, BAG, s_min, s_max, release jitter,
//             priority class) differs from the baseline's -- this catches
//             rerouted, added and removed VLs and parameter edits;
//   closure = everything downstream of a seed along the changed
//             configuration's propagation edges (arrival link -> port, per
//             crossing VL).
//
// The seeds are found per VL, not per port: VLs are matched by name
// through the configurations' name indexes, and only the ports of a VL
// whose parameters or route differ are examined. When the changed
// configuration shares the baseline's layout (TrafficConfig::shares_layout,
// e.g. OverlaySession::materialize) routes cannot differ and the diff is
// one parameter comparison per VL; the closure then visits only the cone.
//
// Soundness: a port outside the cone has a bitwise-identical crossing
// tuple set AND every arrival port of every crossing VL outside the cone,
// recursively. The WCNC bounds of a port are a pure function of exactly
// those inputs, so clean ports keep their baseline bounds bit for bit; the
// same closure argument covers the trajectory prefix recursion (its
// interferer chains propagate through the same edges). Because the cone is
// closed downstream along every route, a trajectory prefix (VL, port) has
// a clean upstream chain exactly when its port is clean, and a path is
// clean exactly when its last port is. See README for the discussion.
#pragma once

#include <string>
#include <vector>

#include "vl/traffic_config.hpp"

namespace afdx::engine {

struct IncrementalPlan {
  /// False when the two configurations do not share a network (different
  /// link set or parameters) or VL names do not identify VLs (a name used
  /// twice) -- re-analysis must fall back to a full run.
  bool compatible = false;
  std::string reason;

  /// Per current-config LinkId: true when the port is inside the dirty
  /// cone (bounds must be recomputed).
  std::vector<char> dirty;
  /// Current VlId -> baseline VlId, matched by VL name (kInvalidVl for a
  /// VL the baseline does not carry).
  std::vector<VlId> base_vl;
  /// Used ports of the changed configuration inside the cone, ascending.
  std::vector<LinkId> dirty_ports;
  /// Used ports of the changed configuration outside the cone, ascending.
  std::vector<LinkId> clean_ports;
};

[[nodiscard]] IncrementalPlan plan_incremental(
    const TrafficConfig& baseline, const TrafficConfig& current,
    const std::vector<LinkId>& changed_links);

}  // namespace afdx::engine
