// Resident-byte accounting helpers.
//
// The serving layer (serve/session_table.hpp) evicts tenants against an
// explicit memory budget, and its contract is that per-entry resident
// bytes are MEASURED, never estimated: vector footprints come from the
// real capacity() the allocator granted, and arena-backed structures
// report their reserved chunk bytes (tracked at the moment each chunk is
// malloc'd). Everything a tenant holds is one or the other. This header
// holds the one helper everything shares — the capacity-times-element-
// size footprint of a std::vector — so every resident_bytes() accessor in
// the tree sums the same quantity.
//
// What "resident" means here: heap bytes the structure is currently
// holding (capacity, not size; reserved arena chunks, not live payload).
// That is the figure an eviction actually returns to the system, which is
// why budgets are enforced against it.
#pragma once

#include <cstddef>
#include <vector>

namespace parlis {

/// Heap bytes held by `v`: the allocator granted capacity() elements.
/// (A vector's footprint is exactly this — measured, since capacity() is
/// what the growth policy actually requested — plus its sizeof, which the
/// enclosing struct's sizeof already covers.)
template <typename T, typename A>
constexpr size_t vec_bytes(const std::vector<T, A>& v) {
  return v.capacity() * sizeof(T);
}

}  // namespace parlis
