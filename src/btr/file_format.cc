#include "btr/file_format.h"

#include <cstdio>
#include <cstring>
#include <memory>

#include "util/crc32c.h"

namespace btr {

namespace {

constexpr char kColumnMagic[4] = {'B', 'T', 'R', 'C'};
constexpr char kMetaMagic[4] = {'B', 'T', 'R', 'M'};

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

// Bounds-checked cursor over a parse buffer.
struct Reader {
  const u8* p;
  size_t remaining;

  bool Read(void* dst, size_t n) {
    if (n > remaining) return false;
    std::memcpy(dst, p, n);
    p += n;
    remaining -= n;
    return true;
  }
};

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
  size_t start = out->size();
  out->Append(kMetaMagic, 4);
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
  out->AppendValue<u32>(Crc32c(out->data() + start, out->size() - start));
}

Status ParseTableMeta(const u8* data, size_t size, TableMeta* out) {
  // Trailing footer CRC over everything before it: a flipped bit anywhere
  // in the metadata is caught here, before any field is trusted.
  if (size < 4) return Status::Corruption("metadata too small for CRC");
  u32 stored_crc;
  std::memcpy(&stored_crc, data + size - 4, 4);
  if (Crc32c(data, size - 4) != stored_crc) {
    return Status::Corruption("table metadata CRC mismatch");
  }
  size -= 4;
  Reader r{data, size};
  char magic[4];
  if (!r.Read(magic, 4) || std::memcmp(magic, kMetaMagic, 4) != 0) {
    return Status::Corruption("bad metadata magic");
  }
  u32 column_count;
  if (!r.Read(&column_count, 4) || !r.Read(&out->row_count, 4)) {
    return Status::Corruption("truncated metadata header");
  }
  out->columns.clear();
  out->columns.resize(column_count);
  for (TableMeta::ColumnMeta& column : out->columns) {
    u16 name_len;
    if (!r.Read(&name_len, 2)) return Status::Corruption("truncated metadata");
    column.name.resize(name_len);
    u8 type;
    if (!r.Read(column.name.data(), name_len) || !r.Read(&type, 1)) {
      return Status::Corruption("truncated metadata");
    }
    if (type > 2) return Status::Corruption("bad column type");
    column.type = static_cast<ColumnType>(type);
    u32 block_count;
    if (!r.Read(&column.uncompressed_bytes, 8) || !r.Read(&block_count, 4)) {
      return Status::Corruption("truncated metadata");
    }
    column.block_value_counts.resize(block_count);
    if (!r.Read(column.block_value_counts.data(), block_count * sizeof(u32))) {
      return Status::Corruption("truncated metadata");
    }
  }
  return Status::Ok();
}

void SerializeColumnFileHeader(const std::vector<u32>& block_sizes,
                               const std::vector<u32>& block_crcs,
                               ByteBuffer* out) {
  size_t start = out->size();
  out->Append(kColumnMagic, 4);
  out->AppendValue<u32>(static_cast<u32>(block_sizes.size()));
  out->Append(block_sizes.data(), block_sizes.size() * sizeof(u32));
  out->Append(block_crcs.data(), block_crcs.size() * sizeof(u32));
  out->AppendValue<u32>(Crc32c(out->data() + start, out->size() - start));
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
  Reader r{data, size};
  char magic[4];
  if (!r.Read(magic, 4) || std::memcmp(magic, kColumnMagic, 4) != 0) {
    return Status::Corruption("bad column magic");
  }
  u32 block_count;
  if (!r.Read(&block_count, 4)) {
    return Status::Corruption("truncated column header");
  }
  std::vector<u32> sizes(block_count);
  if (!r.Read(sizes.data(), block_count * sizeof(u32))) {
    return Status::Corruption("truncated column block sizes");
  }
  out->block_crcs.resize(block_count);
  if (!r.Read(out->block_crcs.data(), block_count * sizeof(u32))) {
    return Status::Corruption("truncated column block CRCs");
  }
  u32 stored_crc;
  if (!r.Read(&stored_crc, 4)) {
    return Status::Corruption("truncated column header CRC");
  }
  u64 covered = ColumnFileHeaderBytes(block_count) - 4;
  if (Crc32c(data, covered) != stored_crc) {
    return Status::Corruption("column header CRC mismatch");
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
