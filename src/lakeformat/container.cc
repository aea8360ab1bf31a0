#include "lakeformat/container.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "bitmap/roaring.h"
#include "util/bits.h"
#include "util/framing.h"

namespace btr::lakeformat {

void PutVarint(u64 v, ByteBuffer* out) {
  while (v >= 0x80) {
    out->AppendValue<u8>(static_cast<u8>(v) | 0x80);
    v >>= 7;
  }
  out->AppendValue<u8>(static_cast<u8>(v));
}

u64 GetVarint(const u8*& p) {
  u64 v = 0;
  u32 shift = 0;
  while (true) {
    u8 byte = *p++;
    v |= static_cast<u64>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
  }
  return v;
}

void AppendBitPacked(const u64* values, size_t count, u32 bit_width,
                     ByteBuffer* out) {
  size_t offset = out->size();
  size_t packed = CeilDiv(count * bit_width, 8);
  out->Resize(offset + packed);
  u8* base = out->data() + offset;
  std::memset(base, 0, packed);
  u64 bit_pos = 0;
  for (size_t i = 0; i < count; i++, bit_pos += bit_width) {
    u64 byte = bit_pos >> 3;
    u32 shift = static_cast<u32>(bit_pos & 7);
    u64 window = 0;
    std::memcpy(&window, base + byte, sizeof(u64));
    window |= values[i] << shift;
    std::memcpy(base + byte, &window, sizeof(u64));
    // A 64-bit window misses the top bits of a wide value shifted past it.
    if (shift != 0 && bit_width > 64 - shift) {
      base[byte + 8] |= static_cast<u8>(values[i] >> (64 - shift));
    }
  }
}

namespace {

constexpr size_t kChunkRecordBytes = 24;
constexpr size_t kTrailerBytes = 8;  // u32 footer_bytes + magic

struct ChunkMeta {
  u64 offset = 0;
  u32 stored_bytes = 0;  // after the codec
  u32 raw_bytes = 0;     // before the codec
  u32 value_count = 0;
  u8 encoding = 0;  // the value codec's
  u8 codec = 0;
};

struct FileMeta {
  u32 row_count = 0;
  u32 group_rows = 0;
  std::vector<std::pair<std::string, ColumnType>> columns;
  std::vector<std::vector<ChunkMeta>> groups;  // [group][column]
};

// Field by field, so the two padding bytes are zero rather than whatever
// the stack held.
void AppendChunkRecord(const ChunkMeta& chunk, ByteBuffer* out) {
  u8 record[kChunkRecordBytes] = {};
  std::memcpy(record, &chunk.offset, 8);
  std::memcpy(record + 8, &chunk.stored_bytes, 4);
  std::memcpy(record + 12, &chunk.raw_bytes, 4);
  std::memcpy(record + 16, &chunk.value_count, 4);
  record[20] = chunk.encoding;
  record[21] = chunk.codec;
  out->Append(record, sizeof(record));
}

bool ReadChunkRecord(ByteReader* r, ChunkMeta* chunk) {
  return r->Read(&chunk->offset) && r->Read(&chunk->stored_bytes) &&
         r->Read(&chunk->raw_bytes) && r->Read(&chunk->value_count) &&
         r->Read(&chunk->encoding) && r->Read(&chunk->codec) && r->Skip(2);
}

void AppendNullPrefix(const Column& column, u32 begin, u32 count,
                      ByteBuffer* out) {
  RoaringBitmap nulls;
  for (u32 i = 0; i < count; i++) {
    if (column.IsNull(begin + i)) nulls.Add(i);
  }
  nulls.RunOptimize();
  if (nulls.Empty()) {
    out->AppendValue<u32>(0);
  } else {
    out->AppendValue<u32>(static_cast<u32>(nulls.SerializedSizeBytes()));
    nulls.SerializeTo(out);
  }
}

void SerializeFooter(const FileMeta& meta, const char* magic, ByteBuffer* out) {
  size_t footer_start = out->size();
  out->AppendValue<u32>(static_cast<u32>(meta.columns.size()));
  out->AppendValue<u32>(meta.row_count);
  out->AppendValue<u32>(meta.group_rows);
  for (const auto& [name, type] : meta.columns) {
    out->AppendValue<u16>(static_cast<u16>(name.size()));
    out->Append(name.data(), name.size());
    out->AppendValue<u8>(static_cast<u8>(type));
  }
  out->AppendValue<u32>(static_cast<u32>(meta.groups.size()));
  for (const auto& group : meta.groups) {
    for (const ChunkMeta& chunk : group) AppendChunkRecord(chunk, out);
  }
  out->AppendValue<u32>(static_cast<u32>(out->size() - footer_start));
  out->Append(magic, 4);
}

// Checks every count, name and chunk extent against the file, and that
// each group holds the rows the header implies.
Status ParseFooter(const u8* data, size_t size, const ValueCodec& format,
                   FileMeta* meta) {
  auto corrupt = [&](const char* what) {
    return Status::Corruption(std::string(format.name) + ": " + what);
  };
  if (size < kTrailerBytes ||
      std::memcmp(data + size - 4, format.magic, 4) != 0) {
    return corrupt("bad magic");
  }
  u32 footer_bytes = 0;
  std::memcpy(&footer_bytes, data + size - kTrailerBytes, 4);
  if (footer_bytes > size - kTrailerBytes) {
    return corrupt("footer length exceeds the file");
  }
  const u64 footer_start = size - kTrailerBytes - footer_bytes;
  ByteReader r(data + footer_start, footer_bytes);
  u32 column_count = 0;
  if (!r.Read(&column_count) || !r.Read(&meta->row_count) ||
      !r.Read(&meta->group_rows) ||
      column_count > r.remaining() / 3) {  // 3+ bytes each
    return corrupt("column count exceeds the footer");
  }
  meta->columns.resize(column_count);
  for (auto& [name, type] : meta->columns) {
    u8 type_byte = 0;
    if (!r.ReadString(&name) || !r.Read(&type_byte) ||
        type_byte > static_cast<u8>(ColumnType::kString)) {
      return corrupt("column name or type exceeds the footer");
    }
    type = static_cast<ColumnType>(type_byte);
  }
  // The writer emits ceil(rows / group_rows) groups, none for no rows.
  u32 group_count = 0;
  if (!r.Read(&group_count) ||
      (meta->row_count == 0
           ? group_count != 0
           : column_count == 0 || meta->group_rows == 0 ||
                 group_count != CeilDiv(meta->row_count, meta->group_rows)) ||
      r.remaining() % kChunkRecordBytes != 0 ||
      u64{group_count} * column_count != r.remaining() / kChunkRecordBytes) {
    return corrupt("group count does not match the rows and the footer");
  }
  meta->groups.assign(group_count, std::vector<ChunkMeta>(column_count));
  for (u32 g = 0; g < group_count; g++) {
    u32 rows =
        std::min(meta->group_rows, meta->row_count - g * meta->group_rows);
    for (ChunkMeta& chunk : meta->groups[g]) {
      if (!ReadChunkRecord(&r, &chunk)) {
        return corrupt("chunk record exceeds the footer");
      }
      if (chunk.offset > footer_start ||
          chunk.stored_bytes > footer_start - chunk.offset) {
        return corrupt("chunk extends past the footer start");
      }
      if (chunk.value_count != rows ||
          chunk.codec > static_cast<u8>(gpc::CodecKind::kEntropyLz) ||
          (chunk.codec == 0 && chunk.raw_bytes != chunk.stored_bytes)) {
        return corrupt("chunk record does not match its group");
      }
    }
  }
  return Status::Ok();
}

// Unwraps the chunk's gpc frame and null prefix, then hands its values to
// the format; adds the logical value bytes to *bytes.
Status DecodeChunk(const u8* file, const ChunkMeta& chunk, ColumnType type,
                   const ValueCodec& format, ChunkScratch* scratch,
                   u64* bytes) {
  const u8* payload = file + chunk.offset;
  auto codec = static_cast<gpc::CodecKind>(chunk.codec);
  if (codec != gpc::CodecKind::kNone) {
    scratch->raw.Resize(chunk.raw_bytes);
    gpc::GetCodec(codec).Decompress(payload, chunk.stored_bytes,
                                    scratch->raw.data(), chunk.raw_bytes);
    payload = scratch->raw.data();
  }
  u32 null_bytes = 0;
  if (chunk.raw_bytes >= 4) std::memcpy(&null_bytes, payload, 4);
  if (chunk.raw_bytes < 4 || null_bytes > chunk.raw_bytes - 4) {
    return Status::Corruption(std::string(format.name) +
                              ": null prefix longer than its chunk");
  }
  const u8* values = payload + 4;
  u32 count = chunk.value_count;
  scratch->null_flags.assign(count, 0);
  if (null_bytes > 0) {
    RoaringBitmap nulls = RoaringBitmap::Deserialize(values, nullptr);
    nulls.ForEach([&](u32 i) { scratch->null_flags[i] = 1; });
    values += null_bytes;
  }
  if (type == ColumnType::kString) {
    scratch->string_offsets.assign(1, 0);
    scratch->string_offsets.reserve(count + 1);
    scratch->string_pool.clear();
  }
  format.decode(values, count, type, chunk.encoding, scratch);
  switch (type) {
    case ColumnType::kInteger: *bytes += u64{count} * sizeof(i32); break;
    case ColumnType::kDouble: *bytes += u64{count} * sizeof(double); break;
    case ColumnType::kString:
      *bytes += scratch->string_pool.size() + u64{count} * sizeof(u32);
      break;
  }
  return Status::Ok();
}

void AppendRows(const ChunkScratch& scratch, u32 count, Column* column) {
  const auto* pool = reinterpret_cast<const char*>(scratch.string_pool.data());
  for (u32 i = 0; i < count; i++) {
    if (scratch.null_flags[i] != 0) {
      column->AppendNull();
      continue;
    }
    switch (column->type()) {
      case ColumnType::kInteger: column->AppendInt(scratch.ints[i]); break;
      case ColumnType::kDouble: column->AppendDouble(scratch.doubles[i]); break;
      case ColumnType::kString: {
        const u32* offsets = &scratch.string_offsets[i];
        column->AppendString({pool + offsets[0], offsets[1] - offsets[0]});
        break;
      }
    }
  }
}

}  // namespace

ByteBuffer WriteContainer(const Relation& relation, u32 group_rows,
                          gpc::CodecKind codec, const ValueCodec& format) {
  ByteBuffer file;
  FileMeta meta;
  meta.row_count = relation.row_count();
  meta.group_rows = group_rows;
  for (const Column& column : relation.columns()) {
    meta.columns.emplace_back(column.name(), column.type());
  }
  const gpc::Codec& compressor = gpc::GetCodec(codec);
  ByteBuffer chunk;
  for (u32 begin = 0; begin < relation.row_count(); begin += group_rows) {
    u32 rows = std::min(group_rows, relation.row_count() - begin);
    std::vector<ChunkMeta>& group = meta.groups.emplace_back();
    for (const Column& column : relation.columns()) {
      ChunkMeta& cm = group.emplace_back();
      cm.offset = file.size();
      cm.value_count = rows;
      cm.codec = static_cast<u8>(codec);
      chunk.Clear();
      AppendNullPrefix(column, begin, rows, &chunk);
      cm.encoding = format.encode(column, begin, rows, &chunk);
      cm.raw_bytes = static_cast<u32>(chunk.size());
      if (codec == gpc::CodecKind::kNone) {
        file.Append(chunk.data(), chunk.size());
        cm.stored_bytes = cm.raw_bytes;
      } else {
        cm.stored_bytes = static_cast<u32>(
            compressor.Compress(chunk.data(), chunk.size(), &file));
      }
    }
  }
  SerializeFooter(meta, format.magic, &file);
  return file;
}

Status DecodeContainer(const u8* data, size_t size, const ValueCodec& format,
                       u64* bytes, Relation* out) {
  FileMeta meta;
  BTR_RETURN_IF_ERROR(ParseFooter(data, size, format, &meta));
  if (out != nullptr) {
    for (const auto& [name, type] : meta.columns) out->AddColumn(name, type);
  }
  *bytes = 0;
  ChunkScratch scratch;
  for (const auto& group : meta.groups) {
    for (size_t c = 0; c < group.size(); c++) {
      BTR_RETURN_IF_ERROR(DecodeChunk(data, group[c], meta.columns[c].second,
                                      format, &scratch, bytes));
      if (out != nullptr) {
        AppendRows(scratch, group[c].value_count, &out->columns()[c]);
      }
    }
  }
  return Status::Ok();
}

}  // namespace btr::lakeformat
