// CRC32C (Castagnoli, polynomial 0x1EDC6F41, reflected 0x82F63B78) — the
// checksum the scan path uses for per-block and per-footer integrity
// (docs/ROBUSTNESS.md). Own implementation, no dependencies: a slice-by-8
// table walk as the portable path and the SSE4.2 crc32 instruction when the
// build targets it (BTR_ARCH_FLAGS includes -mavx2, which implies SSE4.2).
//
// The hardware and software paths produce identical values by construction;
// util_test cross-checks them against known vectors.
#ifndef BTR_UTIL_CRC32C_H_
#define BTR_UTIL_CRC32C_H_

#include <cstddef>

#include "util/types.h"

namespace btr {

// CRC32C of [data, data+n). Equivalent to Crc32cExtend(0, data, n).
u32 Crc32c(const void* data, size_t n);

// Continues a running CRC with more bytes (crc is a previous Crc32c
// result, not a raw internal state).
u32 Crc32cExtend(u32 crc, const void* data, size_t n);

}  // namespace btr

#endif  // BTR_UTIL_CRC32C_H_
