// The SIMD layer's switch: which backend is compiled, the runtime toggle
// and the backend names. It defines no kernel. Each vector kernel lives in
// the header of its one caller, beside its scalar twin and the dispatch
// between them, under a parlis::simd:: name: the tournament tree's sweeps
// (cand_mask8, sweep8_extract, sweep8_count) in lis/tournament_tree.hpp,
// the rank-space run scan (run_masks) in util/rank_space.hpp, and the
// patience kernel's register tiers (patience_tiers_i64) in
// lis/patience.hpp. Three rules hold for all of them:
//
//  1. **Compile-time backend dispatch.** `PARLIS_SIMD` (CMake, default ON)
//     compiles the vector paths when the target ISA has the AVX-512
//     F/DQ/BW/VL quartet (one 512-bit vector is a whole 8-ary tournament
//     level, and compares write `__mmask` registers directly). Every other
//     target — AVX2, SSE, non-x86, `-DPARLIS_SIMD=OFF` — compiles cleanly
//     to the scalar path, which GCC auto-vectorizes where it pays; the
//     vector code is preprocessed away, never #error'd.
//  2. **The scalar twin is always compiled and reachable.** The dispatch
//     consults a process runtime toggle (`set_enabled`). The differential
//     harness flips it and diffs whole solves vectorized-vs-scalar in one
//     process; the forced-scalar CI leg (-DPARLIS_SIMD=OFF) diffs across
//     builds.
//  3. **No hidden relaxation.** The vector bodies follow the twins' exact
//     comparison semantics (total order on int64), so results are
//     bit-for-bit equal. Nothing here touches floating point.
//
// A vector body stays only while a paired bench row at its call site shows
// it >= 10% faster than its twin (EXPERIMENTS.md, "SIMD-kernel
// methodology"); bodies and backend tiers that no row measures are deleted.
//
// ThreadSanitizer: vector loads are invisible to TSan's instrumentation,
// so a racy access inside a vector kernel would silently vanish from the
// race report. Under TSan the backend is therefore forced to scalar at
// compile time — the TSan CI leg races the scalar twins, which are the
// same accesses the vector path performs.
#pragma once

#include <atomic>

// ----------------------------------------------------- backend selection ---

// 4 = AVX-512 (the F/DQ/BW/VL quartet), 0 = scalar twins only.
#if defined(PARLIS_SIMD_ENABLED) && defined(__AVX512F__) && \
    defined(__AVX512DQ__) && defined(__AVX512BW__) && defined(__AVX512VL__)
#if defined(__SANITIZE_THREAD__)
#define PARLIS_SIMD_BACKEND 0  // TSan: race-checkable scalar twins only
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PARLIS_SIMD_BACKEND 0
#else
#define PARLIS_SIMD_BACKEND 4
#endif
#else
#define PARLIS_SIMD_BACKEND 4
#endif
#else
#define PARLIS_SIMD_BACKEND 0
#endif

#if PARLIS_SIMD_BACKEND == 4
#include <immintrin.h>
#endif

namespace parlis::simd {

/// True when the vector backend is compiled in (the runtime toggle can still
/// route every kernel to its scalar twin).
inline constexpr bool kVectorized = PARLIS_SIMD_BACKEND == 4;

/// Compiled backend, for bench/test introspection: "avx512" or "scalar".
inline const char* backend_name() { return kVectorized ? "avx512" : "scalar"; }

// Runtime toggle: default on. The differential harness and the paired
// scalar-vs-SIMD bench rows flip this to diff both paths in one process.
// One relaxed load per kernel call; the kernels all amortize it over at
// least a cache line of work.
inline std::atomic<bool> g_runtime_enabled{true};

inline bool enabled() {
  return kVectorized && g_runtime_enabled.load(std::memory_order_relaxed);
}

/// Returns the previous value (tests restore it).
inline bool set_enabled(bool on) {
  return g_runtime_enabled.exchange(on, std::memory_order_relaxed);
}

}  // namespace parlis::simd
