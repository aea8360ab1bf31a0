// Versioned table manifests: the atomic commit point of the write path.
//
// BtrBlocks keeps data files free of metadata (paper Sections 2.1/6.7),
// which makes pointer-swap commits natural: every write of a table stages
// a complete, immutable set of objects under a *versioned* name —
//
//   <prefix><table>.v<N>.btrmeta
//   <prefix><table>.v<N>.<col>.btr
//   <prefix><table>.v<N>.zones
//
// — and publishes it with a single Put of the tiny manifest object
// <prefix><table>.manifest, whose payload names the committed version N.
// A reader (btr::Scanner::Open) resolves the manifest first and then only
// ever touches that version's objects, so a commit racing a scan is
// invisible: the reader sees version N-1 or version N, bit-identical,
// never a mix. A table without a manifest has no committed version.
//
// Versions are never reused: an interrupted write leaves its versioned
// objects (and a write-ahead intent record, src/write/intent.h) behind for
// recovery to roll forward or garbage-collect (src/write/recovery.h), and
// the next writer picks a strictly higher version.
//
// Manifest payload (CRC-trailed like every other framing in this repo):
//   "BTRV" | u32 format | u64 committed_version | u16 name_len | name
//   | u32 CRC32C over all preceding bytes.
#ifndef BTR_WRITE_MANIFEST_H_
#define BTR_WRITE_MANIFEST_H_

#include <string>

#include "s3sim/object_store.h"
#include "util/buffer.h"
#include "util/status.h"
#include "util/types.h"

namespace btr::write {

inline constexpr u32 kManifestFormatVersion = 1;

struct Manifest {
  std::string table;
  // Committed version, >= 1. Version 0 means "no committed version" and is
  // never serialized.
  u64 committed_version = 0;
};

// <prefix><table>.manifest
std::string ManifestKey(const std::string& prefix, const std::string& table);
// "<table>.v<N>" — substituted for the table name in the existing
// TableMetaKey/ColumnFileKey/ZoneMapKey helpers (btr/file_format.h), so
// the versioned layout reuses the unversioned framing unchanged.
std::string VersionedName(const std::string& table, u64 version);
// <prefix><table>.v<N>.intent — the write-ahead intent record staged next
// to the version it describes (src/write/intent.h).
std::string IntentKey(const std::string& prefix, const std::string& table,
                      u64 version);

// True when `key` belongs to version `*version` of `table` under `prefix`
// — i.e. it starts with "<prefix><table>.v<digits>." — regardless of
// which object of the version it is. Recovery uses this to sweep
// orphaned staged objects, writers to skip over versions a crashed
// predecessor already burned.
bool ParseVersionedKey(const std::string& key, const std::string& prefix,
                       const std::string& table, u64* version);

void SerializeManifest(const Manifest& manifest, ByteBuffer* out);
Status ParseManifest(const u8* data, size_t size, Manifest* out);

// Reads and parses <prefix><table>.manifest. A missing manifest is not an
// error: Ok with committed_version == 0 (a table never committed). GETs
// are *not* retried here — callers wrap this in their own retry
// discipline (the scanner's Open already has one).
Status ReadManifest(s3sim::ObjectStore* store, const std::string& prefix,
                    const std::string& table, Manifest* out);

// The name scan-side key construction should use for `table`: the
// committed VersionedName, or NotFound when the table has no manifest.
// Tests and benches that address column objects directly go through this
// instead of hard-coding a layout.
Status ResolveCommittedName(s3sim::ObjectStore* store,
                            const std::string& prefix,
                            const std::string& table, std::string* name);

}  // namespace btr::write

#endif  // BTR_WRITE_MANIFEST_H_
