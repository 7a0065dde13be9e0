// Flat (structure-of-arrays) companions to the WCNC per-port computation.
//
// The hot loop of the analyzer recomputes, for every port, the partition of
// its crossing VLs into priority classes and shared-input-link groups, and
// walks one std::map<class, delay> per upstream port while accumulating
// jitter. Both are pure functions of the configuration, so they are built
// once here:
//
//   * DelayTable  -- the per-port per-class delay state as one contiguous
//     array (n_links x distinct-class-count cells, NaN = absent), replacing
//     std::vector<std::map<std::uint8_t, Microseconds>> on the hot path.
//     The map-based APIs remain in netcalc_analyzer.hpp for compatibility.
//   * PortFlowIndex -- the port -> classes -> groups -> members -> upstream
//     chain flattening of the crossing-VL partition, in exactly the
//     iteration order of the map-based aggregation (classes ascending;
//     fresh per-VL groups in encounter order before shared groups by
//     ascending input link; members in encounter order; chains from the
//     port upward), so the flat compute_port_bounds overload reproduces
//     the original floating-point operation order bit for bit.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <map>
#include <vector>

#include "vl/traffic_config.hpp"

namespace afdx::netcalc {

/// Flat per-port per-priority-class delay store. A cell is "absent" (NaN)
/// until set; class values not present anywhere in the configuration have
/// no column at all.
class DelayTable {
 public:
  explicit DelayTable(const TrafficConfig& config);

  /// True when (port, cls) has been set since construction / last clear.
  [[nodiscard]] bool has(LinkId port, std::uint8_t cls) const noexcept {
    const int slot = slot_[cls];
    if (slot < 0) return false;
    return !std::isnan(cells_[port * stride_ + static_cast<std::size_t>(slot)]);
  }

  /// The stored delay; only valid when has() is true.
  [[nodiscard]] Microseconds get(LinkId port, std::uint8_t cls) const noexcept {
    return cells_[port * stride_ + static_cast<std::size_t>(slot_[cls])];
  }

  void set(LinkId port, std::uint8_t cls, Microseconds value);

  /// Replaces the whole row of `port` with the map entries.
  void assign(LinkId port, const std::map<std::uint8_t, Microseconds>& row);

  /// Marks every class of `port` absent again.
  void clear_row(LinkId port);

  /// Number of distinct priority classes (columns).
  [[nodiscard]] std::size_t stride() const noexcept { return stride_; }

 private:
  std::size_t stride_ = 0;
  std::array<std::int16_t, 256> slot_{};  // class -> column, -1 when unused
  std::vector<Microseconds> cells_;       // link-major, NaN = absent
};

/// Once-built flattening of every port's crossing-VL partition (see the
/// file comment for the exact ordering contract).
struct PortFlowIndex {
  struct Member {
    VlId vl = kInvalidVl;
    Bits burst = 0.0;                 // VirtualLink::burst_bits()
    BitsPerMicrosecond rate = 0.0;    // VirtualLink::rate_bits_per_us()
    Microseconds release_jitter = 0.0;
    std::uint32_t chain_begin = 0;    // [begin, end) into `chains`: the
    std::uint32_t chain_end = 0;      // upstream ports, nearest first
  };
  struct Group {
    LinkId pred = kInvalidLink;       // shared input link; invalid = fresh
    std::uint32_t member_begin = 0;   // [begin, end) into `members`
    std::uint32_t member_end = 0;
    Bits largest_frame = 0.0;         // max member burst (grouping cap)
  };
  struct ClassEntry {
    std::uint8_t cls = 0;
    std::uint32_t group_begin = 0;    // [begin, end) into `groups`
    std::uint32_t group_end = 0;
    Bits lower_blocking = 0.0;        // max frame of all lower classes here
  };
  struct Port {
    std::uint32_t class_begin = 0;    // [begin, end) into `classes`
    std::uint32_t class_end = 0;
    Bits max_frame = 0.0;             // largest frame of any crossing VL
  };

  std::vector<Port> ports;            // indexed by LinkId
  std::vector<ClassEntry> classes;
  std::vector<Group> groups;
  std::vector<Member> members;
  std::vector<LinkId> chains;
};

[[nodiscard]] PortFlowIndex build_port_flow_index(const TrafficConfig& config);

/// The same index with rows for `ports` only (the rows of every other port
/// stay empty) -- what an incremental run needs for its dirty cone.
[[nodiscard]] PortFlowIndex build_port_flow_index(
    const TrafficConfig& config, const std::vector<LinkId>& ports);

}  // namespace afdx::netcalc
