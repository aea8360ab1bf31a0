#include "btr/file_format.h"

#include <cstdio>
#include <memory>

#include "util/crc32c.h"
#include "util/framing.h"

namespace btr {

namespace {

constexpr char kColumnMagic[4] = {'B', 'T', 'R', 'C'};
constexpr char kMetaMagic[4] = {'B', 'T', 'R', 'M'};
// The smallest column: an empty name, the type, byte count and block count.
constexpr size_t kMinColumnBytes = 2 + 1 + 8 + 4;

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

Status WriteBufferToFile(const ByteBuffer& buffer, const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (f == nullptr) return Status::IoError("cannot open " + path);
  if (buffer.size() > 0 &&
      std::fwrite(buffer.data(), 1, buffer.size(), f.get()) != buffer.size()) {
    return Status::IoError("short write to " + path);
  }
  return Status::Ok();
}

Status ReadFileToBuffer(const std::string& path, ByteBuffer* out) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) return Status::NotFound(path + " missing");
  std::fseek(f.get(), 0, SEEK_END);
  long size = std::ftell(f.get());
  if (size < 0) return Status::IoError("cannot stat " + path);
  std::fseek(f.get(), 0, SEEK_SET);
  out->Resize(static_cast<size_t>(size));
  if (size > 0 && std::fread(out->data(), 1, out->size(), f.get()) !=
                      static_cast<size_t>(size)) {
    return Status::IoError("short read from " + path);
  }
  return Status::Ok();
}

std::string ColumnPath(const std::string& directory, const std::string& table,
                       size_t column_index) {
  return directory + "/" + table + "." + std::to_string(column_index) + ".btr";
}

std::string MetaPath(const std::string& directory, const std::string& table) {
  return directory + "/" + table + ".btrmeta";
}

}  // namespace

std::string TableMetaKey(const std::string& prefix, const std::string& table) {
  return prefix + table + ".btrmeta";
}

std::string ColumnFileKey(const std::string& prefix, const std::string& table,
                          size_t column_index) {
  return prefix + table + "." + std::to_string(column_index) + ".btr";
}

std::string ZoneMapKey(const std::string& prefix, const std::string& table) {
  return prefix + table + ".zones";
}

void SerializeTableMeta(const CompressedRelation& relation, ByteBuffer* out) {
  size_t start = BeginFrame(kMetaMagic, out);
  out->AppendValue<u32>(static_cast<u32>(relation.columns.size()));
  out->AppendValue<u32>(relation.row_count);
  for (const CompressedColumn& column : relation.columns) {
    out->AppendValue<u16>(static_cast<u16>(column.name.size()));
    out->Append(column.name.data(), column.name.size());
    out->AppendValue<u8>(static_cast<u8>(column.type));
    out->AppendValue<u64>(column.uncompressed_bytes);
    out->AppendValue<u32>(static_cast<u32>(column.blocks.size()));
    out->Append(column.block_value_counts.data(),
                column.block_value_counts.size() * sizeof(u32));
  }
  EndFrame(start, out);
}

Status ParseTableMeta(const u8* data, size_t size, TableMeta* out) {
  ByteReader r;
  BTR_RETURN_IF_ERROR(OpenFrame(data, size, kMetaMagic, "table metadata", &r));
  u32 column_count = 0;
  if (!r.ReadCount(&column_count, kMinColumnBytes) ||
      !r.Read(&out->row_count)) {
    return Status::Corruption("truncated metadata header");
  }
  out->columns.assign(column_count, {});
  for (TableMeta::ColumnMeta& column : out->columns) {
    u8 type = 0;
    u32 block_count = 0;
    if (!r.ReadString(&column.name) || !r.Read(&type) ||
        !r.Read(&column.uncompressed_bytes) ||
        !r.ReadCount(&block_count, sizeof(u32))) {
      return Status::Corruption("truncated metadata");
    }
    if (type > 2) return Status::Corruption("bad column type");
    column.type = static_cast<ColumnType>(type);
    column.block_value_counts.resize(block_count);
    if (!r.ReadBytes(column.block_value_counts.data(),
                     block_count * sizeof(u32))) {
      return Status::Corruption("truncated metadata");
    }
  }
  return Status::Ok();
}

void SerializeColumnFileHeader(const std::vector<u32>& block_sizes,
                               const std::vector<u32>& block_crcs,
                               ByteBuffer* out) {
  size_t start = BeginFrame(kColumnMagic, out);
  out->AppendValue<u32>(static_cast<u32>(block_sizes.size()));
  out->Append(block_sizes.data(), block_sizes.size() * sizeof(u32));
  out->Append(block_crcs.data(), block_crcs.size() * sizeof(u32));
  EndFrame(start, out);
}

void SerializeColumnFile(const CompressedColumn& column, ByteBuffer* out) {
  std::vector<u32> sizes;
  std::vector<u32> crcs;
  sizes.reserve(column.blocks.size());
  crcs.reserve(column.blocks.size());
  for (const ByteBuffer& block : column.blocks) {
    sizes.push_back(static_cast<u32>(block.size()));
    crcs.push_back(Crc32c(block.data(), block.size()));
  }
  SerializeColumnFileHeader(sizes, crcs, out);
  for (const ByteBuffer& block : column.blocks) {
    out->Append(block.data(), block.size());
  }
}

bool ColumnFileHeader::Intact(size_t b, const u8* payload,
                              size_t size) const {
  return size == block_size(b) && Crc32c(payload, size) == block_crcs[b];
}

Status ColumnFileHeader::Locate(const u8* object, size_t object_size,
                                size_t b, const u8** payload) const {
  if (block_offsets[b + 1] > object_size) {
    return Status::Corruption("column file truncated");
  }
  *payload = object + block_offsets[b];
  if (!Intact(b, *payload, block_size(b))) {
    return Status::Corruption("block " + std::to_string(b) +
                              " payload CRC mismatch");
  }
  return Status::Ok();
}

Status ParseColumnFileHeader(const u8* data, size_t size,
                             ColumnFileHeader* out) {
  // The block count sets the header's length, so it is bounded by the
  // bytes present before the CRC is checked, and trusted only after.
  ByteReader prefix(data, size);
  u32 block_count = 0;
  if (!prefix.Skip(4) || !prefix.Read(&block_count) ||
      ColumnFileHeaderBytes(block_count) > size) {
    return Status::Corruption("truncated column header");
  }
  ByteReader r;
  BTR_RETURN_IF_ERROR(OpenFrame(data, ColumnFileHeaderBytes(block_count),
                                kColumnMagic, "column header", &r));
  std::vector<u32> sizes(block_count);
  out->block_crcs.resize(block_count);
  if (!r.Skip(4) || !r.ReadBytes(sizes.data(), block_count * sizeof(u32)) ||
      !r.ReadBytes(out->block_crcs.data(), block_count * sizeof(u32))) {
    return Status::Corruption("truncated column header");
  }
  out->block_offsets.resize(block_count + 1);
  out->block_offsets[0] = ColumnFileHeaderBytes(block_count);
  for (u32 b = 0; b < block_count; b++) {
    out->block_offsets[b + 1] = out->block_offsets[b] + sizes[b];
  }
  return Status::Ok();
}

Status WriteCompressedRelation(const CompressedRelation& relation,
                               const std::string& directory) {
  ByteBuffer buffer;
  SerializeTableMeta(relation, &buffer);
  BTR_RETURN_IF_ERROR(
      WriteBufferToFile(buffer, MetaPath(directory, relation.name)));
  for (size_t i = 0; i < relation.columns.size(); i++) {
    buffer.Clear();
    SerializeColumnFile(relation.columns[i], &buffer);
    BTR_RETURN_IF_ERROR(
        WriteBufferToFile(buffer, ColumnPath(directory, relation.name, i)));
  }
  return Status::Ok();
}

Status ReadTableMeta(const std::string& directory,
                     const std::string& table_name, TableMeta* out) {
  ByteBuffer buffer;
  BTR_RETURN_IF_ERROR(ReadFileToBuffer(MetaPath(directory, table_name), &buffer));
  return ParseTableMeta(buffer.data(), buffer.size(), out);
}

Status ReadCompressedColumn(const std::string& directory,
                            const std::string& table_name,
                            const TableMeta& meta, size_t column_index,
                            CompressedColumn* out) {
  if (column_index >= meta.columns.size()) {
    return Status::InvalidArgument("column index out of range");
  }
  const TableMeta::ColumnMeta& cm = meta.columns[column_index];
  out->name = cm.name;
  out->type = cm.type;
  out->uncompressed_bytes = cm.uncompressed_bytes;
  out->block_value_counts = cm.block_value_counts;

  ByteBuffer file;
  BTR_RETURN_IF_ERROR(
      ReadFileToBuffer(ColumnPath(directory, table_name, column_index), &file));
  ColumnFileHeader header;
  BTR_RETURN_IF_ERROR(ParseColumnFileHeader(file.data(), file.size(), &header));
  if (header.block_count() != cm.block_value_counts.size()) {
    return Status::Corruption("metadata/column block count mismatch");
  }
  out->blocks.clear();
  out->blocks.reserve(header.block_count());
  out->block_root_schemes.resize(header.block_count());
  for (size_t b = 0; b < header.block_count(); b++) {
    const u8* payload;
    BTR_RETURN_IF_ERROR(header.Locate(file.data(), file.size(), b, &payload));
    ByteBuffer block;  // copy keeps SIMD read padding per block
    block.Append(payload, header.block_size(b));
    out->block_root_schemes[b] = PeekBlockScheme(block.data());
    out->blocks.push_back(std::move(block));
  }
  return Status::Ok();
}

Status ReadCompressedRelation(const std::string& directory,
                              const std::string& table_name,
                              CompressedRelation* out) {
  TableMeta meta;
  BTR_RETURN_IF_ERROR(ReadTableMeta(directory, table_name, &meta));
  out->name = table_name;
  out->row_count = meta.row_count;
  out->columns.clear();
  out->columns.resize(meta.columns.size());
  for (size_t i = 0; i < meta.columns.size(); i++) {
    BTR_RETURN_IF_ERROR(
        ReadCompressedColumn(directory, table_name, meta, i, &out->columns[i]));
  }
  return Status::Ok();
}

}  // namespace btr
