#include "write/manifest.h"

#include "util/framing.h"

namespace btr::write {

namespace {
constexpr char kManifestMagic[4] = {'B', 'T', 'R', 'V'};
}  // namespace

std::string ManifestKey(const std::string& prefix, const std::string& table) {
  return prefix + table + ".manifest";
}

std::string VersionedName(const std::string& table, u64 version) {
  return table + ".v" + std::to_string(version);
}

std::string IntentKey(const std::string& prefix, const std::string& table,
                      u64 version) {
  return prefix + VersionedName(table, version) + ".intent";
}

bool ParseVersionedKey(const std::string& key, const std::string& prefix,
                       const std::string& table, u64* version) {
  const std::string stem = prefix + table + ".v";
  if (key.compare(0, stem.size(), stem) != 0) return false;
  size_t pos = stem.size();
  if (pos >= key.size() || key[pos] < '0' || key[pos] > '9') return false;
  u64 value = 0;
  while (pos < key.size() && key[pos] >= '0' && key[pos] <= '9') {
    value = value * 10 + (key[pos] - '0');
    pos++;
  }
  // A version stem is always followed by the object suffix (".btrmeta",
  // ".<col>.btr", ".zones", ".intent") — a bare "<table>.v7" or a longer
  // table name that merely starts the same way does not count.
  if (pos >= key.size() || key[pos] != '.') return false;
  *version = value;
  return true;
}

void SerializeManifest(const Manifest& manifest, ByteBuffer* out) {
  size_t start = BeginFrame(kManifestMagic, out);
  out->AppendValue<u32>(kManifestFormatVersion);
  out->AppendValue<u64>(manifest.committed_version);
  out->AppendValue<u16>(static_cast<u16>(manifest.table.size()));
  out->Append(manifest.table.data(), manifest.table.size());
  EndFrame(start, out);
}

Status ParseManifest(const u8* data, size_t size, Manifest* out) {
  ByteReader r;
  BTR_RETURN_IF_ERROR(OpenFrame(data, size, kManifestMagic, "manifest", &r));
  u32 format = 0;
  if (!r.Read(&format)) return Status::Corruption("truncated manifest");
  if (format != kManifestFormatVersion) {
    return Status::Corruption("unsupported manifest format " +
                              std::to_string(format));
  }
  if (!r.Read(&out->committed_version) || !r.ReadString(&out->table)) {
    return Status::Corruption("truncated manifest");
  }
  if (out->committed_version == 0) {
    return Status::Corruption("manifest names version 0");
  }
  return Status::Ok();
}

Status ReadManifest(s3sim::ObjectStore* store, const std::string& prefix,
                    const std::string& table, Manifest* out) {
  out->table = table;
  out->committed_version = 0;
  const std::string key = ManifestKey(prefix, table);
  if (!store->Contains(key)) return Status::Ok();
  std::vector<u8> blob;
  BTR_RETURN_IF_ERROR(store->GetObject(key, &blob));
  return ParseManifest(blob.data(), blob.size(), out);
}

Status ResolveCommittedName(s3sim::ObjectStore* store,
                            const std::string& prefix,
                            const std::string& table, std::string* name) {
  Manifest manifest;
  BTR_RETURN_IF_ERROR(ReadManifest(store, prefix, table, &manifest));
  if (manifest.committed_version == 0) {
    return Status::NotFound("no committed version of " + prefix + table);
  }
  *name = VersionedName(table, manifest.committed_version);
  return Status::Ok();
}

}  // namespace btr::write
