#include "trajectory/prefix_cache.hpp"

#include "obs/counters.hpp"

namespace afdx::trajectory {

std::optional<Microseconds> PrefixCache::lookup(VlId vl, LinkId link) {
  // Process-wide counters for the observability registry, on top of the
  // per-cache stats that feed the engine's RunMetrics.
  static obs::Counter& hits =
      obs::registry().counter("trajectory.prefix_cache.hits");
  static obs::Counter& misses =
      obs::registry().counter("trajectory.prefix_cache.misses");
  static obs::Counter& reused =
      obs::registry().counter("trajectory.prefix_cache.reused");
  std::lock_guard<std::mutex> lock(mu_);
  if (const Microseconds* hit = entries_.find(prefix_key(vl, link))) {
    ++stats_.hits;
    hits.add();
    return *hit;
  }
  if (layer_.has_value() && !layer_->stale[link] &&
      layer_->base_vl[vl] != kInvalidVl) {
    if (const auto base = layer_->table->find(layer_->base_vl[vl], link)) {
      ++stats_.hits;
      ++stats_.reused;
      hits.add();
      reused.add();
      return base;
    }
  }
  ++stats_.misses;
  misses.add();
  return std::nullopt;
}

void PrefixCache::store(VlId vl, LinkId link, Microseconds bound) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t key = prefix_key(vl, link);
  if (entries_.find(key) == nullptr) entries_.emplace(key, bound);
}

void PrefixCache::set_layer(PrefixLayer layer) { layer_ = std::move(layer); }

std::shared_ptr<const PrefixTable> PrefixCache::snapshot() const {
  auto table = std::make_shared<PrefixTable>();
  std::lock_guard<std::mutex> lock(mu_);
  table->entries_ = entries_;
  return table;
}

PrefixCacheStats PrefixCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::size_t PrefixCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace afdx::trajectory
