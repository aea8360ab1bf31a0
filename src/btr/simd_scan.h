// SIMD comparison kernels for predicate evaluation (docs/PREDICATES.md).
//
// Every kernel writes a dense selection: bit i of words[i / 64] is set iff
// row i matches (util/bits.h). It overwrites all WordCount(count) words,
// and the bits at or past `count` are zero. Each kernel has two twins — an
// AVX2 body and a scalar reference — chosen at runtime by SimdPolicy
// (util/simd.h), so a BTR_DISABLE_AVX2 build or a ScopedSimd(false) scope
// writes bit-identical words through the scalar path. The property tests
// enforce that equivalence per kernel and per scheme.
//
// The AVX2 bodies compare 8 i32 or 4 f64 lanes per instruction and store
// one word per 64 rows: the i32 kernels narrow four compare masks into one
// 32-bit movemask (two per word), the f64 kernels OR sixteen 4-bit
// movemasks. The rows after the last full 64-row group go through the
// scalar twin.
//
// The range kernels work on closed intervals. An integer leaf's context
// (IntLeafCtx, predicate_eval.cc) turns its comparison into a closed
// [lo, hi] interval (x < 5 becomes [INT32_MIN, 4]); doubles carry explicit
// strictness flags because +-inf endpoints cannot absorb open bounds
// losslessly.
//
// SelectBp128Range is the ByteSlice-flavored centerpiece: it walks the
// FastBP128 stream miniblock by miniblock, using each 128-value frame's
// [min, min + mask] envelope to skip (byte-prune) or whole-accept blocks
// without unpacking, and compares the survivors' unpacked deltas 32 lanes
// per instruction at byte width when the frame's bit width allows
// (<= 8 bits), 8 lanes at word width otherwise. Frames start at multiples
// of 128 rows, so each full frame owns exactly two words.
#ifndef BTR_BTR_SIMD_SCAN_H_
#define BTR_BTR_SIMD_SCAN_H_

#include <vector>

#include "util/bits.h"
#include "util/types.h"

namespace btr::simd {

// Rows i in [0, count) with lo <= values[i] <= hi.
void SelectI32Range(const i32* values, u32 count, i32 lo, i32 hi, u64* words);

// Rows whose value is in `set` (must be sorted ascending). Small sets
// (<= 8) compare against broadcast constants; larger sets binary-search.
void SelectI32Set(const i32* values, u32 count, const std::vector<i32>& set,
                  u64* words);

// IEEE-ordered range with per-bound strictness; NaN never matches.
void SelectF64Range(const double* values, u32 count, double lo, double hi,
                    bool lo_strict, bool hi_strict, u64* words);

// Bit-pattern equality against any of `bit_set` (sorted u64 bit patterns).
// This is the double kEq/kIn kernel: lossless down to NaN payloads and
// signed zeros, matching the storage format's own equality.
void SelectF64BitsSet(const double* values, u32 count,
                      const std::vector<u64>& bit_set, u64* words);

// Range scan directly over a FastBP128 payload (the stream that follows
// the IntSchemeCode::kBp128 byte) holding `count` values.
void SelectBp128Range(const u8* stream, u32 count, i32 lo, i32 hi, u64* words);

}  // namespace btr::simd

#endif  // BTR_BTR_SIMD_SCAN_H_
