#include "btr/file_format.h"

#include <cstdio>
#include <memory>

#include "util/crc32c.h"
#include "util/framing.h"

namespace btr {

namespace {

// "BTRT": the metadata with every column's block table. A "BTRM" object,
// whose column files began with their own block headers, is Corruption.
constexpr char kMetaMagic[4] = {'B', 'T', 'R', 'T'};
// The smallest column: an empty name, the type, byte count and block count.
constexpr size_t kMinColumnBytes = 2 + 1 + 8 + 4;
// Per block: its value count, payload size and payload CRC32C.
constexpr size_t kBlockEntryBytes = 3 * sizeof(u32);

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

void BlockTable::Add(const u8* payload, u32 size) {
  block_offsets.push_back(object_size() + size);
  block_crcs.push_back(Crc32c(payload, size));
}

bool BlockTable::Intact(size_t b, const u8* payload, size_t size) const {
  return size == block_size(b) && Crc32c(payload, size) == block_crcs[b];
}

Status BlockTable::Locate(const u8* object, size_t object_size, size_t b,
                          const u8** payload) const {
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

void SerializeTableMeta(const TableMeta& meta, ByteBuffer* out) {
  size_t start = BeginFrame(kMetaMagic, out);
  out->AppendValue<u32>(static_cast<u32>(meta.columns.size()));
  out->AppendValue<u32>(meta.row_count);
  for (const TableMeta::ColumnMeta& column : meta.columns) {
    const BlockTable& blocks = column.blocks;
    out->AppendValue<u16>(static_cast<u16>(column.name.size()));
    out->Append(column.name.data(), column.name.size());
    out->AppendValue<u8>(static_cast<u8>(column.type));
    out->AppendValue<u64>(column.uncompressed_bytes);
    out->AppendValue<u32>(static_cast<u32>(blocks.block_count()));
    out->Append(column.block_value_counts.data(),
                column.block_value_counts.size() * sizeof(u32));
    for (size_t b = 0; b < blocks.block_count(); b++) {
      out->AppendValue<u32>(static_cast<u32>(blocks.block_size(b)));
    }
    out->Append(blocks.block_crcs.data(),
                blocks.block_crcs.size() * sizeof(u32));
  }
  EndFrame(start, out);
}

void SerializeTableMeta(const CompressedRelation& relation, ByteBuffer* out) {
  TableMeta meta;
  meta.row_count = relation.row_count;
  for (const CompressedColumn& column : relation.columns) {
    TableMeta::ColumnMeta& cm = meta.columns.emplace_back();
    cm.name = column.name;
    cm.type = column.type;
    cm.uncompressed_bytes = column.uncompressed_bytes;
    cm.block_value_counts = column.block_value_counts;
    for (const ByteBuffer& block : column.blocks) {
      cm.blocks.Add(block.data(), static_cast<u32>(block.size()));
    }
  }
  SerializeTableMeta(meta, out);
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
        !r.ReadCount(&block_count, kBlockEntryBytes)) {
      return Status::Corruption("truncated metadata");
    }
    if (type > 2) return Status::Corruption("bad column type");
    column.type = static_cast<ColumnType>(type);
    column.block_value_counts.resize(block_count);
    std::vector<u32> sizes(block_count);
    BlockTable& blocks = column.blocks;
    blocks.block_crcs.resize(block_count);
    if (!r.ReadBytes(column.block_value_counts.data(),
                     block_count * sizeof(u32)) ||
        !r.ReadBytes(sizes.data(), block_count * sizeof(u32)) ||
        !r.ReadBytes(blocks.block_crcs.data(), block_count * sizeof(u32))) {
      return Status::Corruption("truncated metadata");
    }
    blocks.block_offsets.resize(block_count + 1);
    for (u32 b = 0; b < block_count; b++) {
      blocks.block_offsets[b + 1] = blocks.block_offsets[b] + sizes[b];
    }
  }
  if (r.remaining() != 0) return Status::Corruption("trailing metadata bytes");
  return Status::Ok();
}

void SerializeColumnFile(const CompressedColumn& column, ByteBuffer* out) {
  for (const ByteBuffer& block : column.blocks) {
    out->Append(block.data(), block.size());
  }
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
  const BlockTable& blocks = cm.blocks;
  if (file.size() != blocks.object_size()) {
    return Status::Corruption("column file size does not match its blocks");
  }
  out->blocks.clear();
  out->blocks.reserve(blocks.block_count());
  out->block_root_schemes.resize(blocks.block_count());
  for (size_t b = 0; b < blocks.block_count(); b++) {
    const u8* payload;
    BTR_RETURN_IF_ERROR(blocks.Locate(file.data(), file.size(), b, &payload));
    ByteBuffer block;  // copy keeps SIMD read padding per block
    block.Append(payload, blocks.block_size(b));
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
