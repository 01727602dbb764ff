// Internal to src/apps/sw: the two vector widths of sw::compute_tile, so
// tests can run each one whatever the host picks. Callers outside the
// library and its tests use compute_tile (sw.h).
#pragma once

#include "apps/sw/sw.h"

namespace sw::detail {

// The anti-diagonal tile kernel at 4 int32 lanes (x86-64 baseline SSE2, or
// whatever a 16-byte vector is on other targets).
TileBoundary compute_tile_x4(const Params& p, std::string_view a,
                             std::string_view b, const std::vector<int>& top,
                             const std::vector<int>& left, int corner);

#if defined(__x86_64__)
// The same kernel at 8 lanes, compiled for AVX2. Call it only where
// has_avx2() is true. The definition carries the same target attribute: in
// C++ a differing one would declare another version of the function.
[[gnu::target("avx2")]] TileBoundary compute_tile_x8(
    const Params& p, std::string_view a, std::string_view b,
    const std::vector<int>& top, const std::vector<int>& left, int corner);
#endif

// True on an x86-64 CPU (and OS) with AVX2; compute_tile uses the 8-lane
// kernel exactly then.
bool has_avx2();

}  // namespace sw::detail
