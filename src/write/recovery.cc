#include "write/recovery.h"

#include <algorithm>
#include <map>
#include <set>

#include "btr/file_format.h"
#include "btr/zonemap.h"
#include "write/intent.h"
#include "write/manifest.h"

namespace btr::write {

namespace {

// Everything one Fsck invocation needs to thread around.
struct FsckContext {
  s3sim::ObjectStore* store;
  const std::string& prefix;
  const std::string& table;
  const FsckOptions& options;
  FsckReport* report;
  exec::RetryState retry;

  FsckContext(s3sim::ObjectStore* s, const std::string& p,
              const std::string& t, const FsckOptions& o, FsckReport* r)
      : store(s), prefix(p), table(t), options(o), report(r), retry(o.retry) {}

  void Note(std::string note) { report->notes.push_back(std::move(note)); }

  Status Get(const std::string& key, std::vector<u8>* out) {
    return exec::RunWithRetries(&retry,
                                [&] { return store->GetObject(key, out); });
  }
  Status Put(const std::string& key, const u8* data, size_t size) {
    return exec::RunWithRetries(&retry,
                                [&] { return store->Put(key, data, size); });
  }
};

bool UploadExists(s3sim::ObjectStore* store, const std::string& id) {
  return store->ListParts(id, nullptr, nullptr).ok();
}

// Deletes a staging/damaged version's footprint: open uploads aborted,
// staged objects deleted, then the intent itself.
Status RollBack(FsckContext& ctx, const IntentRecord& intent,
                const std::string& intent_key) {
  for (const IntentEntry& entry : intent.entries) {
    if (!entry.upload_id.empty() && UploadExists(ctx.store, entry.upload_id)) {
      ctx.report->clean = false;
      if (ctx.options.repair) {
        BTR_RETURN_IF_ERROR(ctx.store->AbortMultipartUpload(entry.upload_id));
        ctx.report->uploads_aborted++;
      }
      ctx.Note("abort upload " + entry.upload_id + " -> " + entry.key);
    }
    if (ctx.store->Contains(entry.key)) {
      ctx.report->clean = false;
      if (ctx.options.repair) {
        BTR_RETURN_IF_ERROR(ctx.store->Delete(entry.key));
        ctx.report->objects_deleted++;
      }
      ctx.Note("delete staged object " + entry.key);
    }
  }
  ctx.report->clean = false;
  if (ctx.options.repair) {
    BTR_RETURN_IF_ERROR(ctx.store->Delete(intent_key));
    ctx.report->intents_deleted++;
  }
  ctx.report->rolled_back++;
  ctx.Note("roll back v" + std::to_string(intent.version) + " (" +
           IntentPhaseName(intent.phase) + ")");
  return Status::Ok();
}

// Completes what the writer started: finish interrupted uploads, verify
// every object against the intent, publish the manifest. On verification
// failure the version is damaged and rolls back instead.
Status RollForward(FsckContext& ctx, const IntentRecord& intent,
                   const std::string& intent_key, u64* committed) {
  // 1. Resume: any entry whose multipart upload is still open has all its
  // parts staged (kStaged guarantees it) — completing it is all that's
  // left. Without --repair we can only report, and verification below
  // must skip the not-yet-assembled objects.
  bool pending_uploads = false;
  for (const IntentEntry& entry : intent.entries) {
    if (entry.upload_id.empty() || !UploadExists(ctx.store, entry.upload_id)) {
      continue;
    }
    ctx.report->clean = false;
    ctx.Note("complete upload " + entry.upload_id + " -> " + entry.key);
    if (!ctx.options.repair) {
      pending_uploads = true;
      continue;
    }
    Status status = exec::RunWithRetries(&ctx.retry, [&] {
      return ctx.store->CompleteMultipartUpload(entry.upload_id);
    });
    // A lost-ack crash fault can report failure after publishing; if the
    // object landed anyway, verification below is the arbiter.
    if (!status.ok() && !ctx.store->Contains(entry.key)) return status;
    ctx.report->uploads_completed++;
  }

  // 2. Verify every object the intent recorded.
  bool all_ok = true;
  if (!pending_uploads) {
    for (const IntentEntry& entry : intent.entries) {
      Status status = VerifyStagedObject(ctx.store, &ctx.retry, entry);
      if (status.IsCorruption() || status.IsNotFound()) {
        all_ok = false;
        ctx.report->verify_failures++;
        ctx.Note("verify failed: " + entry.key);
      } else {
        BTR_RETURN_IF_ERROR(status);
      }
    }
  }
  if (pending_uploads || !all_ok) {
    if (pending_uploads) {
      // Read-only mode with unfinished uploads: repair would complete and
      // verify them; nothing more to decide here.
      ctx.report->rolled_forward++;
      ctx.Note("would roll forward v" + std::to_string(intent.version));
      return Status::Ok();
    }
    return RollBack(ctx, intent, intent_key);
  }

  // 3. Publish — byte-for-byte the manifest the writer would have put.
  ctx.report->clean = false;
  if (ctx.options.repair) {
    Manifest manifest;
    manifest.table = intent.table;
    manifest.committed_version = intent.version;
    ByteBuffer buffer;
    SerializeManifest(manifest, &buffer);
    BTR_RETURN_IF_ERROR(
        ctx.Put(ManifestKey(ctx.prefix, ctx.table), buffer.data(),
                buffer.size()));
    BTR_RETURN_IF_ERROR(ctx.store->Delete(intent_key));
    ctx.report->intents_deleted++;
    *committed = intent.version;
  }
  ctx.report->rolled_forward++;
  ctx.Note("roll forward v" + std::to_string(intent.version));
  return Status::Ok();
}

// Deep-checks the committed version: metadata and zone map parse, every
// column file is as long as its block table says, and every block's
// payload matches its CRC in the metadata.
Status VerifyCommitted(FsckContext& ctx, u64 committed) {
  if (committed == 0) return Status::Ok();
  const std::string name = VersionedName(ctx.table, committed);
  std::vector<u8> blob;
  Status status = ctx.Get(TableMetaKey(ctx.prefix, name), &blob);
  TableMeta meta;
  if (status.ok()) status = ParseTableMeta(blob.data(), blob.size(), &meta);
  if (!status.ok()) {
    ctx.report->verify_failures++;
    ctx.report->clean = false;
    ctx.Note("committed meta unreadable: " + status.ToString());
    return Status::Ok();
  }
  const std::string zones_key = ZoneMapKey(ctx.prefix, name);
  if (ctx.store->Contains(zones_key)) {
    status = ctx.Get(zones_key, &blob);
    TableZoneMap zones;
    if (status.ok()) {
      status = ParseTableZoneMap(blob.data(), blob.size(), &zones);
    }
    if (!status.ok()) {
      ctx.report->verify_failures++;
      ctx.report->clean = false;
      ctx.Note("committed zone map unreadable: " + status.ToString());
    }
  }
  for (size_t c = 0; c < meta.columns.size(); c++) {
    const BlockTable& blocks = meta.columns[c].blocks;
    status = ctx.Get(ColumnFileKey(ctx.prefix, name, c), &blob);
    if (status.ok() && blob.size() != blocks.object_size()) {
      status = Status::Corruption("size does not match its blocks");
    }
    if (!status.ok()) {
      ctx.report->verify_failures++;
      ctx.report->clean = false;
      ctx.Note("committed column " + std::to_string(c) +
               " unreadable: " + status.ToString());
      continue;
    }
    for (size_t b = 0; b < blocks.block_count(); b++) {
      const u8* payload;
      if (!blocks.Locate(blob.data(), blob.size(), b, &payload).ok()) {
        ctx.report->verify_failures++;
        ctx.report->clean = false;
        ctx.Note("committed column " + std::to_string(c) + " block " +
                 std::to_string(b) + " CRC mismatch");
      }
    }
  }
  return Status::Ok();
}

}  // namespace

Status Fsck(s3sim::ObjectStore* store, const std::string& prefix,
            const std::string& table, const FsckOptions& options,
            FsckReport* report) {
  if (store == nullptr || report == nullptr) {
    return Status::InvalidArgument("null store or report");
  }
  *report = FsckReport();
  FsckContext ctx(store, prefix, table, options, report);

  Manifest manifest;
  BTR_RETURN_IF_ERROR(exec::RunWithRetries(
      &ctx.retry, [&] { return ReadManifest(store, prefix, table, &manifest); }));
  u64 committed = manifest.committed_version;
  report->committed_version_before = committed;

  // Collect intents, oldest version first so a sequence of crashed writes
  // resolves in the order it happened.
  const std::string stem = prefix + table + ".v";
  std::map<u64, std::string> intent_keys;
  for (const std::string& key : store->ListKeys(stem)) {
    u64 version = 0;
    if (ParseVersionedKey(key, prefix, table, &version) &&
        key.size() >= 7 && key.compare(key.size() - 7, 7, ".intent") == 0) {
      intent_keys[version] = key;
    }
  }

  std::set<u64> live_versions;  // versions an intent still accounts for
  for (const auto& [version, key] : intent_keys) {
    report->intents_seen++;
    std::vector<u8> blob;
    IntentRecord intent;
    Status status = ctx.Get(key, &blob);
    if (status.ok()) status = ParseIntent(blob.data(), blob.size(), &intent);
    if (!status.ok()) {
      // Unreadable intent: its version can never be trusted. Drop the
      // record; the orphan sweep below GCs whatever it covered.
      report->clean = false;
      ctx.Note("unreadable intent " + key + ": " + status.ToString());
      if (options.repair) {
        BTR_RETURN_IF_ERROR(store->Delete(key));
        report->intents_deleted++;
      } else {
        live_versions.insert(version);
      }
      continue;
    }
    if (version <= committed) {
      report->clean = false;
      if (version < committed && intent.phase == IntentPhase::kStaging) {
        // A later writer committed past this version, and the intent never
        // reached kStaged — so the manifest can never have pointed at it
        // (publication requires a kStaged intent first). Its staged
        // objects and open uploads are unreachable garbage; reclaim them.
        ctx.Note("roll back superseded staging v" + std::to_string(version));
        BTR_RETURN_IF_ERROR(RollBack(ctx, intent, key));
        if (!options.repair) live_versions.insert(version);
      } else {
        // Already published (the writer died between the manifest swap and
        // the intent delete) or a superseded kStaged version that may have
        // been published before being overtaken — the intent alone is
        // garbage; the objects are (or may be) a committed version's and
        // are untouchable.
        ctx.Note("drop stale intent for v" + std::to_string(version));
        if (options.repair) {
          BTR_RETURN_IF_ERROR(store->Delete(key));
          report->intents_deleted++;
        }
      }
      continue;
    }
    if (intent.phase == IntentPhase::kStaged) {
      BTR_RETURN_IF_ERROR(RollForward(ctx, intent, key, &committed));
      if (!options.repair) live_versions.insert(version);
    } else {
      BTR_RETURN_IF_ERROR(RollBack(ctx, intent, key));
      if (!options.repair) live_versions.insert(version);
    }
  }

  // Orphan sweep: anything versioned above the (possibly just-advanced)
  // committed version that no intent accounts for was left by a writer
  // that died before journaling — GC it. Objects at or below `committed`
  // belong to published versions and stay.
  for (const std::string& key : store->ListKeys(stem)) {
    u64 version = 0;
    if (!ParseVersionedKey(key, prefix, table, &version)) continue;
    if (version <= committed || live_versions.count(version) != 0) continue;
    report->clean = false;
    if (options.repair) {
      BTR_RETURN_IF_ERROR(store->Delete(key));
      report->orphans_deleted++;
    }
    ctx.Note("delete orphan " + key);
  }
  // Open uploads are GC'd at *any* version not covered by a live intent:
  // committed data never references an open upload (completing an upload
  // destroys it), so one left below `committed` is garbage from a writer
  // that was overtaken before journaling.
  for (const std::string& id : store->ListMultipartUploads(stem)) {
    std::string key;
    if (!store->ListParts(id, &key, nullptr).ok()) continue;
    u64 version = 0;
    if (!ParseVersionedKey(key, prefix, table, &version)) continue;
    if (live_versions.count(version) != 0) continue;
    report->clean = false;
    if (options.repair) {
      BTR_RETURN_IF_ERROR(store->AbortMultipartUpload(id));
      report->orphans_deleted++;
    }
    ctx.Note("abort orphan upload " + id + " -> " + key);
  }

  if (options.verify_committed) {
    BTR_RETURN_IF_ERROR(VerifyCommitted(ctx, committed));
  }

  report->committed_version_after = committed;
  return Status::Ok();
}

}  // namespace btr::write
