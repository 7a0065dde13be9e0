// Thread-safe shared memoization of trajectory prefix bounds.
//
// The trajectory recursion computes one bound per (VL, link) pair -- the
// worst-case time from generation to the end of transmission on that link
// of the VL's multicast tree. The value is a pure function of
// (configuration, analyzer options, serialization caps), so analyzer
// instances working on the same configuration under the same options can
// share results: the engine hands every shard-local Analyzer one
// PrefixCache, and the ~6000 paths of an industrial configuration compute
// each common prefix once instead of once per worker.
//
// A finished run freezes its cache into an immutable PrefixTable (reads
// take no lock). Incremental re-analysis (engine::AnalysisEngine::
// run_incremental) layers the baseline's table under a fresh cache: a
// lookup that misses the cache falls through to the baseline's entry when
// the prefix's port lies outside the dirty cone -- its whole upstream
// dependency chain is then untouched by the change, see the dirty-cone
// discussion in README -- so only the prefixes the cone's recursion
// actually reaches are ever read.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/flat_map.hpp"
#include "vl/traffic_config.hpp"

namespace afdx::trajectory {

struct PrefixCacheStats {
  /// Lookups answered by the cache, including its read-only layer.
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  /// The share of `hits` answered by the read-only layer (baseline
  /// prefixes reused by an incremental run).
  std::uint64_t reused = 0;

  [[nodiscard]] double hit_rate() const noexcept {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }
};

/// Counter delta between two snapshots (later minus earlier) -- per-run
/// activity out of cumulative cache statistics.
inline PrefixCacheStats operator-(const PrefixCacheStats& now,
                                  const PrefixCacheStats& then) {
  return PrefixCacheStats{now.hits - then.hits, now.misses - then.misses,
                          now.reused - then.reused};
}

inline std::uint64_t prefix_key(VlId vl, LinkId link) noexcept {
  return (static_cast<std::uint64_t>(vl) << 32) | link;
}

/// Immutable snapshot of a finished cache. Safe for any number of
/// concurrent readers without locking.
class PrefixTable {
 public:
  [[nodiscard]] std::optional<Microseconds> find(VlId vl,
                                                 LinkId link) const noexcept {
    if (const Microseconds* hit = entries_.find(prefix_key(vl, link))) {
      return *hit;
    }
    return std::nullopt;
  }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

 private:
  friend class PrefixCache;
  common::FlatMap<Microseconds> entries_;
};

/// A read-only layer under a PrefixCache: a baseline table plus what makes
/// its entries valid for the current configuration.
struct PrefixLayer {
  std::shared_ptr<const PrefixTable> table;
  /// Current VL id -> the table's VL id (kInvalidVl: the table has none).
  std::vector<VlId> base_vl;
  /// Per current link: nonzero when the table's entries at this port are
  /// stale (the port is inside the dirty cone).
  std::vector<char> stale;
};

class PrefixCache {
 public:
  /// Returns the bound of (vl, link) from the cache or its layer and counts
  /// a hit, or nullopt and counts a miss. Thread-safe.
  [[nodiscard]] std::optional<Microseconds> lookup(VlId vl, LinkId link);

  /// Stores the bound of (vl, link); the first writer wins (all writers
  /// compute identical values). Thread-safe.
  void store(VlId vl, LinkId link, Microseconds bound);

  /// Installs the read-only layer. Not thread-safe: call before the cache
  /// is shared with concurrent readers.
  void set_layer(PrefixLayer layer);

  /// The entries computed so far as an immutable table (the layer is not
  /// copied). Thread-safe.
  [[nodiscard]] std::shared_ptr<const PrefixTable> snapshot() const;

  [[nodiscard]] PrefixCacheStats stats() const;
  /// Distinct (vl, link) entries stored (the layer not included).
  /// Thread-safe.
  [[nodiscard]] std::size_t size() const;

 private:
  mutable std::mutex mu_;
  common::FlatMap<Microseconds> entries_;
  std::optional<PrefixLayer> layer_;
  PrefixCacheStats stats_;
};

}  // namespace afdx::trajectory
