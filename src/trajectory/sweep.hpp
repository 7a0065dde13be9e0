// Candidate-sweep kernels for the trajectory analyzer's hot loop.
//
// compute_prefix maximizes R(t) = W(t) + consts - t over an ascending,
// deduplicated list of candidate instants t, where W(t) walks the SoA
// (a, c, period) segment columns node by node:
//
//   W(t) = frame_count(t, own) * own_c
//        + sum over nodes of min(sum over node segs of
//                                frame_count(t, a_s, period_s) * c_s, cap)
//
// That sweep is ~98% of a full analysis at the 10k-VL scale and its scalar
// form is latency-bound: the per-node accumulation is one long serial
// add-dependency chain. The AVX2 kernel therefore vectorizes across
// CANDIDATES -- each of the 4 lanes is one candidate t, and every lane
// accumulates the segment columns in the original segment order -- which
// amortizes the dependency chain 4x without reassociating any addition.
//
// Bit-identity contract (asserted by tests/test_trajectory.cpp golden and
// fuzzed grids): both kernels return the exact same bits.
//   * Per lane, every operation (add, div, floor, mul, add-accumulate,
//     min-by-compare, final fold) is the same IEEE-754 operation in the
//     same order as the scalar loop; no reassociation, no FMA contraction
//     (the AVX2 translation unit is built with -ffp-contract=off).
//   * The saturation latch mirrors the scalar branch exactly: a lane's
//     node value is cap when node_sum >= cap (the scalar's min choice,
//     including ties), and the latch is taken from the highest lane --
//     frame counts are nondecreasing in t even in floating point
//     (monotone rounding), so the highest lane saturating implies every
//     later candidate saturates, which is precisely when the scalar loop
//     would have latched by then.
//   * The envelope early-exit is tested at batch heads only. Extra lanes a
//     breaking scalar loop would not have evaluated cannot change the
//     result: for any candidate with envelope - t <= best, monotonicity
//     gives R(t) <= envelope - t <= best, so folding it is a no-op.
//
// Kernel selection: the AVX2 kernel is compiled when the toolchain
// supports it (cmake -DAFDX_SIMD=ON, the default) and dispatched at run
// time only when the CPU reports AVX2. `AFDX_SWEEP=scalar|simd` in the
// environment forces a kind (the bit-identity tests run both in one
// process this way), as does set_active().
#pragma once

#include <cmath>
#include <cstddef>

#include "common/units.hpp"

namespace afdx::trajectory::sweep {

/// Number of frames of a sporadic flow (period T, arrival window widened by
/// the jitter term a) that can interfere with a packet generated at t. The
/// one definition the analyzer and the scalar kernel share: pure IEEE-754
/// operations, so every caller computes the same bits. The AVX2 kernel
/// uses its lane-wise translation frame_count4 and must not call this one
/// (an out-of-line copy emitted from that translation unit would carry
/// AVX2 code under a symbol the scalar callers share).
inline double frame_count(Microseconds t, Microseconds a,
                          Microseconds period) noexcept {
  const double window = t + a;
  if (window < -kEpsilon) return 0.0;
  return std::floor(window / period + 1e-9) + 1.0;
}

enum class Kind {
  kScalar,
  kSimd,
};

/// SoA view of one prefix's interference columns. `node_begin` has
/// `nodes + 1` entries; node idx owns rows [node_begin[idx],
/// node_begin[idx + 1]) of the a / c / period columns.
struct Columns {
  const Microseconds* a = nullptr;
  const Microseconds* c = nullptr;
  const Microseconds* period = nullptr;
  const std::size_t* node_begin = nullptr;
  const Microseconds* node_cap = nullptr;
  std::size_t nodes = 0;
  /// The study flow's own (first) segment.
  Microseconds own_a = 0.0;
  Microseconds own_c = 0.0;
  Microseconds own_period = 0.0;
};

/// True when the AVX2 kernel is both compiled in and supported by the CPU.
[[nodiscard]] bool simd_available() noexcept;

/// The kernel used by run() callers that pass active(). Defaults to kSimd
/// when simd_available(), overridable by AFDX_SWEEP=scalar|simd in the
/// environment (read once) and by set_active().
[[nodiscard]] Kind active() noexcept;
void set_active(Kind kind) noexcept;
[[nodiscard]] const char* name(Kind kind) noexcept;

/// Sweeps `candidates[0..count)` (ascending, deduplicated) and returns the
/// final max of best and every R(t) = W(t) + consts - t, with the envelope
/// early-exit. `saturated` has cols.nodes entries, zeroed by the caller;
/// it carries the per-node saturation latch across candidates.
/// kind == kSimd requires simd_available().
[[nodiscard]] Microseconds run(Kind kind, const Columns& cols,
                               const Microseconds* candidates,
                               std::size_t count, Microseconds consts,
                               Microseconds envelope, Microseconds best,
                               char* saturated) noexcept;

namespace detail {
/// Scalar kernel starting at candidate index `begin` (the AVX2 kernel
/// finishes its remainder tail here). Exact port of the pre-SIMD loop.
[[nodiscard]] Microseconds run_scalar(const Columns& cols,
                                      const Microseconds* candidates,
                                      std::size_t begin, std::size_t count,
                                      Microseconds consts,
                                      Microseconds envelope, Microseconds best,
                                      char* saturated) noexcept;
#if defined(AFDX_SWEEP_AVX2)
[[nodiscard]] Microseconds run_avx2(const Columns& cols,
                                    const Microseconds* candidates,
                                    std::size_t count, Microseconds consts,
                                    Microseconds envelope, Microseconds best,
                                    char* saturated) noexcept;
#endif
}  // namespace detail

}  // namespace afdx::trajectory::sweep
