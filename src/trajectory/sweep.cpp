#include "trajectory/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>

namespace afdx::trajectory::sweep {

namespace {

Kind initial_kind() noexcept {
  if (const char* env = std::getenv("AFDX_SWEEP"); env != nullptr) {
    if (std::strcmp(env, "scalar") == 0) return Kind::kScalar;
    if (std::strcmp(env, "simd") == 0 && simd_available()) return Kind::kSimd;
  }
  return simd_available() ? Kind::kSimd : Kind::kScalar;
}

std::atomic<Kind>& active_slot() noexcept {
  static std::atomic<Kind> slot{initial_kind()};
  return slot;
}

}  // namespace

bool simd_available() noexcept {
#if defined(AFDX_SWEEP_AVX2)
  static const bool supported = __builtin_cpu_supports("avx2");
  return supported;
#else
  return false;
#endif
}

Kind active() noexcept { return active_slot().load(std::memory_order_relaxed); }

void set_active(Kind kind) noexcept {
  if (kind == Kind::kSimd && !simd_available()) kind = Kind::kScalar;
  active_slot().store(kind, std::memory_order_relaxed);
}

const char* name(Kind kind) noexcept {
  return kind == Kind::kSimd ? "simd" : "scalar";
}

namespace detail {

Microseconds run_scalar(const Columns& cols, const Microseconds* candidates,
                        std::size_t begin, std::size_t count,
                        Microseconds consts, Microseconds envelope,
                        Microseconds best, char* saturated) noexcept {
  for (std::size_t ci = begin; ci < count; ++ci) {
    const Microseconds t = candidates[ci];
    if (envelope - t <= best) break;
    Microseconds w = frame_count(t, cols.own_a, cols.own_period) * cols.own_c;
    for (std::size_t idx = 0; idx < cols.nodes; ++idx) {
      if (saturated[idx]) {
        w += cols.node_cap[idx];
        continue;
      }
      Microseconds node_sum = 0.0;
      for (std::size_t s = cols.node_begin[idx]; s < cols.node_begin[idx + 1];
           ++s) {
        node_sum += frame_count(t, cols.a[s], cols.period[s]) * cols.c[s];
      }
      if (node_sum >= cols.node_cap[idx]) {
        saturated[idx] = 1;
        w += cols.node_cap[idx];
      } else {
        w += node_sum;
      }
    }
    best = std::max(best, w + consts - t);
  }
  return best;
}

}  // namespace detail

Microseconds run(Kind kind, const Columns& cols, const Microseconds* candidates,
                 std::size_t count, Microseconds consts, Microseconds envelope,
                 Microseconds best, char* saturated) noexcept {
#if defined(AFDX_SWEEP_AVX2)
  if (kind == Kind::kSimd && simd_available()) {
    return detail::run_avx2(cols, candidates, count, consts, envelope, best,
                            saturated);
  }
#else
  (void)kind;
#endif
  return detail::run_scalar(cols, candidates, 0, count, consts, envelope, best,
                            saturated);
}

}  // namespace afdx::trajectory::sweep
