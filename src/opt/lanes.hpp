#pragma once
// Lane vectors of the blocked GP kernels and the choice between their two
// variants (DESIGN.md §6, "Two lane variants").

namespace lens::opt {

/// Two doubles operated on lane-wise (a GCC/Clang vector extension). Each
/// lane of +, -, * and / rounds exactly like the scalar operation, so the
/// blocked kernels use it to advance two independent accumulation chains
/// per instruction without moving a bit.
using DoublePair = double __attribute__((vector_size(16)));

/// Four lanes of the same kind. Only AVX2-targeted functions hold one; none
/// passes or returns one by value, whose ABI differs between the two ISAs.
using DoubleQuad = double __attribute__((vector_size(32)));

/// The lane width of the two hot blocked kernels: the four-column groups of
/// CholeskyFactor::solve_lower_many() (which every factorize() runs too) and
/// the posterior draw's 4x4 covariance tiles. Each kernel body is written
/// once over its lane type and keeps every lane's chain, so both variants
/// give the same bits. The four-lane variant needs AVX2: it is picked once,
/// on first use, when the CPU has it, and two lanes otherwise (non-x86
/// builds compile only the two-lane variant).
enum class LaneVariant { kTwoLane, kFourLaneAvx2 };

/// 1 where the four-lane AVX2 variants are compiled (x86 targets), else 0.
#if defined(__x86_64__) || defined(__i386__)
#define LENS_FOUR_LANE_AVX2 1
#else
#define LENS_FOUR_LANE_AVX2 0
#endif

/// The variant the hot kernels run.
LaneVariant lane_variant();

/// "two-lane" or "four-lane avx2".
const char* lane_variant_name(LaneVariant variant);

namespace detail {
/// Test seam: run the hot kernels on `variant` from now on. Returns false,
/// changing nothing, when this CPU or build cannot run it. Call it only
/// between kernel calls, never while one runs on another thread.
bool use_lane_variant(LaneVariant variant);
}  // namespace detail

/// Lane vector loads and stores at any double-aligned address. They take
/// the vector by reference, so none crosses a call by value, and are always
/// inlined, so each compiles for its caller's ISA.
[[gnu::always_inline]] inline void load_lanes(DoublePair& v, const double* from) {
  using Unaligned = double __attribute__((vector_size(16), aligned(8), may_alias));
  v = *reinterpret_cast<const Unaligned*>(from);
}
[[gnu::always_inline]] inline void load_lanes(DoubleQuad& v, const double* from) {
  using Unaligned = double __attribute__((vector_size(32), aligned(8), may_alias));
  v = *reinterpret_cast<const Unaligned*>(from);
}
[[gnu::always_inline]] inline void store_lanes(double* to, const DoublePair& v) {
  using Unaligned = double __attribute__((vector_size(16), aligned(8), may_alias));
  *reinterpret_cast<Unaligned*>(to) = v;
}
[[gnu::always_inline]] inline void store_lanes(double* to, const DoubleQuad& v) {
  using Unaligned = double __attribute__((vector_size(32), aligned(8), may_alias));
  *reinterpret_cast<Unaligned*>(to) = v;
}

}  // namespace lens::opt
