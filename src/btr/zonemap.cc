#include "btr/zonemap.h"

#include <algorithm>
#include <cstring>

#include "util/framing.h"

namespace btr {

namespace {

void FillPrefix(std::string_view s, u8 prefix[8], u8* len) {
  *len = static_cast<u8>(std::min<size_t>(s.size(), 8));
  std::memset(prefix, 0, 8);
  // An empty value may have no storage behind it: memcpy from a null
  // pointer is undefined even for zero bytes.
  if (*len > 0) std::memcpy(prefix, s.data(), *len);
}

// Compares a full value against a stored 8-byte prefix; returns -1/0/+1
// where 0 means "undecidable from the prefix" (value extends past it).
int ComparePrefix(std::string_view value, const u8 prefix[8], u8 prefix_len,
                  bool prefix_is_truncated) {
  size_t common = std::min<size_t>(value.size(), prefix_len);
  int cmp = common == 0 ? 0
                        : std::memcmp(value.data(), prefix, common);
  if (cmp != 0) return cmp;
  if (value.size() < prefix_len) return -1;  // value is a shorter prefix
  if (value.size() == prefix_len && !prefix_is_truncated) return 0;
  // value >= stored prefix, but the stored string may continue.
  return prefix_is_truncated ? 0 : (value.size() > prefix_len ? 1 : 0);
}

}  // namespace

ColumnZoneMap ComputeColumnZoneMap(const Column& column) {
  ColumnZoneMap map;
  map.type = column.type();
  u32 row_count = column.size();
  for (u32 begin = 0; begin < row_count; begin += kBlockCapacity) {
    u32 count = std::min(kBlockCapacity, row_count - begin);
    BlockZone zone;
    zone.row_count = count;
    // `seen` is set only when a value actually enters min/max. It must NOT
    // be cleared by NaN rows: the old code flipped its `first` flag even
    // when a leading NaN skipped the update, leaving min/max stuck at
    // their 0 defaults — for a block of {NaN, -5.0} that reported
    // [−5, 0] as [0, 0] and let range predicates prune blocks that DID
    // contain matches (unsound). See ZoneMapTest.NaNThenNegativeValues.
    bool seen = false;
    std::string_view string_min, string_max;
    for (u32 i = 0; i < count; i++) {
      u32 row = begin + i;
      if (column.IsNull(row)) {
        zone.null_count++;
        continue;
      }
      switch (column.type()) {
        case ColumnType::kInteger: {
          i32 v = column.ints()[row];
          if (!seen || v < zone.int_min) zone.int_min = v;
          if (!seen || v > zone.int_max) zone.int_max = v;
          seen = true;
          break;
        }
        case ColumnType::kDouble: {
          double v = column.doubles()[row];
          // NaNs have no order and never satisfy ordered comparisons, so
          // they stay out of min/max; equality probes for NaN bits are
          // kept conservative in ZoneMayContainDouble.
          if (v != v) break;
          if (!seen || v < zone.double_min) zone.double_min = v;
          if (!seen || v > zone.double_max) zone.double_max = v;
          seen = true;
          break;
        }
        case ColumnType::kString: {
          std::string_view v = column.GetString(row);
          if (!seen || v < string_min) string_min = v;
          if (!seen || v > string_max) string_max = v;
          seen = true;
          break;
        }
      }
    }
    zone.all_null = zone.null_count == count;
    if (column.type() == ColumnType::kDouble && !seen) {
      // Every non-null value was NaN (or the block is all-null): store an
      // inverted [+inf, -inf] envelope so every range test rejects the
      // block while NaN bit-equality probes stay conservatively kept.
      zone.double_min = kDoubleInf;
      zone.double_max = -kDoubleInf;
    }
    if (!zone.all_null && column.type() == ColumnType::kString) {
      FillPrefix(string_min, zone.string_min, &zone.string_min_len);
      FillPrefix(string_max, zone.string_max, &zone.string_max_len);
      // Record truncation in the length byte's high bit-free side channel:
      // a stored prefix shorter than the string means "truncated"; we
      // reuse len==8 as potentially-truncated (conservative).
    }
    map.zones.push_back(zone);
  }
  return map;
}

bool ZoneMayContainDouble(const BlockZone& zone, double value) {
  if (zone.all_null) return false;
  if (value != value) return true;  // NaN probe: stay conservative
  return value >= zone.double_min && value <= zone.double_max;
}

bool ZoneMayOverlapIntRange(const BlockZone& zone, i32 lo, i32 hi) {
  if (zone.all_null) return false;
  return hi >= zone.int_min && lo <= zone.int_max;
}

bool ZoneMayOverlapDoubleRange(const BlockZone& zone, double lo, double hi,
                               bool lo_strict, bool hi_strict) {
  if (zone.all_null) return false;
  if (lo != lo || hi != hi) return false;  // NaN bound: unsatisfiable
  // Empty ranges (inverted, or degenerate with a strict bound) match
  // nothing anywhere.
  if (lo > hi || (lo == hi && (lo_strict || hi_strict))) return false;
  // An all-NaN block carries the inverted envelope [+inf, -inf]: no
  // ordered comparison can match, whatever the bounds — including the
  // unbounded (-inf, +inf) probe the edge tests below would keep.
  if (zone.double_min > zone.double_max) return false;
  if (hi < zone.double_min || (hi_strict && hi == zone.double_min)) {
    return false;
  }
  if (lo > zone.double_max || (lo_strict && lo == zone.double_max)) {
    return false;
  }
  return true;
}

bool ZoneMayOverlapStringRange(const BlockZone& zone, std::string_view lo,
                               bool lo_open, std::string_view hi,
                               bool hi_open) {
  if (zone.all_null) return false;
  // Strictness is deliberately ignored: the stored 8-byte prefixes cannot
  // distinguish "equal" from "undecidable", so exclusive bounds prune
  // exactly as their inclusive counterparts (conservative).
  if (!hi_open) {
    int vs_min = ComparePrefix(hi, zone.string_min, zone.string_min_len,
                               zone.string_min_len == 8);
    if (vs_min < 0) return false;  // upper bound below the block minimum
  }
  if (!lo_open) {
    int vs_max = ComparePrefix(lo, zone.string_max, zone.string_max_len,
                               zone.string_max_len == 8);
    if (vs_max > 0) return false;  // lower bound above the block maximum
  }
  return true;
}

namespace {

constexpr char kZoneMagic[4] = {'B', 'T', 'R', 'Z'};
// A stored BlockZone: the fields in declaration order, all_null as one
// byte at offset 50, then five zero bytes.
constexpr size_t kZoneBytes = 56;

void AppendZone(const BlockZone& zone, ByteBuffer* out) {
  out->AppendValue(zone.row_count);
  out->AppendValue(zone.null_count);
  out->AppendValue(zone.int_min);
  out->AppendValue(zone.int_max);
  out->AppendValue(zone.double_min);
  out->AppendValue(zone.double_max);
  out->Append(zone.string_min, sizeof(zone.string_min));
  out->Append(zone.string_max, sizeof(zone.string_max));
  out->AppendValue(zone.string_min_len);
  out->AppendValue(zone.string_max_len);
  out->AppendValue<u8>(zone.all_null ? 1 : 0);
  constexpr u8 kPadding[5] = {};
  out->Append(kPadding, sizeof(kPadding));
}

// False for a short record, an all_null byte other than 0 or 1, or a
// prefix length past the 8 stored bytes.
bool ReadZone(ByteReader* r, BlockZone* zone) {
  u8 all_null = 0;
  bool ok = r->Read(&zone->row_count) && r->Read(&zone->null_count) &&
            r->Read(&zone->int_min) && r->Read(&zone->int_max) &&
            r->Read(&zone->double_min) && r->Read(&zone->double_max) &&
            r->ReadBytes(zone->string_min, sizeof(zone->string_min)) &&
            r->ReadBytes(zone->string_max, sizeof(zone->string_max)) &&
            r->Read(&zone->string_min_len) && r->Read(&zone->string_max_len) &&
            r->Read(&all_null) && r->Skip(5) && all_null <= 1 &&
            zone->string_min_len <= 8 && zone->string_max_len <= 8;
  zone->all_null = all_null == 1;
  return ok;
}

}  // namespace

void SerializeTableZoneMap(const TableZoneMap& zonemap, ByteBuffer* out) {
  size_t start = BeginFrame(kZoneMagic, out);
  out->AppendValue<u32>(static_cast<u32>(zonemap.columns.size()));
  for (const ColumnZoneMap& column : zonemap.columns) {
    out->AppendValue<u8>(static_cast<u8>(column.type));
    out->AppendValue<u32>(static_cast<u32>(column.zones.size()));
    for (const BlockZone& zone : column.zones) AppendZone(zone, out);
  }
  EndFrame(start, out);
}

Status ParseTableZoneMap(const u8* data, size_t size, TableZoneMap* out) {
  ByteReader r;
  BTR_RETURN_IF_ERROR(OpenFrame(data, size, kZoneMagic, "zone map", &r));
  u32 column_count = 0;
  if (!r.ReadCount(&column_count, 1 + 4)) {  // type byte and zone count
    return Status::Corruption("bad zone map column count");
  }
  out->columns.assign(column_count, {});
  for (ColumnZoneMap& column : out->columns) {
    u8 type = 0;
    u32 zone_count = 0;
    if (!r.Read(&type) || type > 2 || !r.ReadCount(&zone_count, kZoneBytes)) {
      return Status::Corruption("bad zone map column");
    }
    column.type = static_cast<ColumnType>(type);
    column.zones.resize(zone_count);
    for (BlockZone& zone : column.zones) {
      if (!ReadZone(&r, &zone)) return Status::Corruption("bad zone record");
    }
  }
  return Status::Ok();
}

}  // namespace btr
