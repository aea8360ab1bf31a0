// Zone maps: per-block min/max/null statistics kept *outside* the data
// blocks. The paper (Section 2.1) deliberately excludes statistics and
// indices from BtrBlocks files — "one would like to prune data using
// statistics and indices before accessing a file through a high-latency
// network" — and treats them as an orthogonal layer. This module is that
// layer: zone maps are computed at compression time, serialized to a
// sidecar, and let a scan skip fetching/decompressing blocks that cannot
// contain matching values.
//
// String zones keep the first 8 bytes of the lexicographic min/max, which
// is sufficient for conservative pruning.
#ifndef BTR_BTR_ZONEMAP_H_
#define BTR_BTR_ZONEMAP_H_

#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "btr/column.h"
#include "util/status.h"

namespace btr {

inline constexpr double kDoubleInf = std::numeric_limits<double>::infinity();

struct BlockZone {
  u32 row_count = 0;
  u32 null_count = 0;
  // Only the fields matching the column type are meaningful.
  i32 int_min = 0;
  i32 int_max = 0;
  double double_min = 0;
  double double_max = 0;
  u8 string_min[8] = {0};  // zero-padded 8-byte prefixes
  u8 string_max[8] = {0};
  u8 string_min_len = 0;   // bytes of prefix actually present
  u8 string_max_len = 0;
  // True when every row in the block is NULL (min/max undefined).
  bool all_null = false;
};

struct ColumnZoneMap {
  ColumnType type = ColumnType::kInteger;
  std::vector<BlockZone> zones;  // one per kBlockCapacity block
};

struct TableZoneMap {
  std::vector<ColumnZoneMap> columns;
};

// Computes zones from the uncompressed column (at compression time).
ColumnZoneMap ComputeColumnZoneMap(const Column& column);

// --- pruning probes ---------------------------------------------------------
// Conservative: false means no value of the block lies in the probed set;
// true means some may. An all-NULL zone holds no value. The leaf contexts
// of predicate_eval.cc (via ZoneMayMatchLeaf) turn a predicate leaf into
// these probes; a point probe is a range with lo == hi.
//
// Closed integer range [lo, hi].
bool ZoneMayOverlapIntRange(const BlockZone& zone, i32 lo, i32 hi);
// One double bit pattern (= and IN compare bit patterns). A NaN probe is
// always kept: min/max hold no NaN, so they cannot rule one out.
bool ZoneMayContainDouble(const BlockZone& zone, double value);
// Double range with per-bound strictness (lo_strict: x > lo, else
// x >= lo). NaN-safe on both sides: a NaN bound never matches ordered
// comparisons (the predicate is unsatisfiable, so the zone prunes), and
// blocks whose ordered values were all NaN carry an inverted [+inf, -inf]
// envelope that every range test rejects. Use +-kDoubleInf for an open
// bound.
bool ZoneMayOverlapDoubleRange(const BlockZone& zone, double lo, double hi,
                               bool lo_strict, bool hi_strict);
// Closed string range against the zone's 8-byte min/max prefixes.
// lo_open / hi_open mark absent bounds. Conservative: prefix comparisons
// that cannot decide keep the block, so a strict bound is probed as the
// closed one.
bool ZoneMayOverlapStringRange(const BlockZone& zone, std::string_view lo,
                               bool lo_open, std::string_view hi,
                               bool hi_open);

// --- sidecar framing --------------------------------------------------------
// The "BTRZ" sidecar (docs/FORMAT.md §1.3) lives as an object-store object
// next to the column files; btr::Scanner fetches it before deciding which
// blocks to GET at all.
void SerializeTableZoneMap(const TableZoneMap& zonemap, ByteBuffer* out);
Status ParseTableZoneMap(const u8* data, size_t size, TableZoneMap* out);

}  // namespace btr

#endif  // BTR_BTR_ZONEMAP_H_
