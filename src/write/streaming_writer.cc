#include "write/streaming_writer.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/crc32c.h"
#include "write/manifest.h"

namespace btr::write {

namespace {

// Writer-side observability: what the ingest path did to the store.
struct WriteMetrics {
  obs::Counter& blocks_flushed;
  obs::Counter& parts_uploaded;
  obs::Counter& bytes_staged;
  obs::Counter& commits;
  obs::Counter& commit_failures;
  obs::Counter& verify_failures;

  static WriteMetrics& Get() {
    static WriteMetrics* m = [] {
      obs::Registry& r = obs::Registry::Get();
      return new WriteMetrics{r.GetCounter("write.blocks_flushed"),
                              r.GetCounter("write.parts_uploaded"),
                              r.GetCounter("write.bytes_staged"),
                              r.GetCounter("write.commits"),
                              r.GetCounter("write.commit_failures"),
                              r.GetCounter("write.verify_failures")};
    }();
    return *m;
  }
};

}  // namespace

StreamingWriter::StreamingWriter(s3sim::ObjectStore* store, std::string table,
                                 std::string prefix, WriterConfig config)
    : store_(store),
      table_(std::move(table)),
      prefix_(std::move(prefix)),
      config_(std::move(config)),
      retry_(std::make_unique<exec::RetryState>(config_.retry)) {}

StreamingWriter::~StreamingWriter() = default;

bool StreamingWriter::CrashAt(const char* label) {
  if (!config_.failpoint || !config_.failpoint(label)) return false;
  // A simulated kill: no cleanup, no intent rewrite, nothing — the store
  // is left exactly as the preceding operation left it.
  state_ = State::kDead;
  failed_status_ =
      Status::IoError(std::string("simulated crash at ") + label);
  return true;
}

Status StreamingWriter::Fail(Status status) {
  state_ = State::kDead;
  failed_status_ = status;
  WriteMetrics::Get().commit_failures.Add();
  return failed_status_;
}

Status StreamingWriter::PutWithRetries(const std::string& key, const u8* data,
                                       size_t size) {
  return exec::RunWithRetries(retry_.get(),
                              [&] { return store_->Put(key, data, size); });
}

Status StreamingWriter::WriteIntent(const IntentRecord& intent) {
  ByteBuffer buffer;
  SerializeIntent(intent, &buffer);
  return PutWithRetries(IntentKey(prefix_, table_, version_), buffer.data(),
                        buffer.size());
}

Status StreamingWriter::Begin(const std::vector<ColumnSpec>& schema) {
  if (store_ == nullptr) return Status::InvalidArgument("null object store");
  if (state_ != State::kIdle) {
    return Status::InvalidArgument("Begin called twice");
  }
  if (schema.empty()) return Status::InvalidArgument("empty schema");
  if (CrashAt("begin:start")) return failed_status_;

  // Pick the next version: above the committed one, and above anything a
  // crashed predecessor staged (objects, intents, or open uploads) so
  // versions are never reused and recovery can GC unambiguously.
  Manifest manifest;
  Status status = exec::RunWithRetries(
      retry_.get(), [&] { return ReadManifest(store_, prefix_, table_, &manifest); });
  if (!status.ok()) return Fail(status);
  u64 burned = manifest.committed_version;
  const std::string stem = prefix_ + table_ + ".v";
  for (const std::string& key : store_->ListKeys(stem)) {
    u64 v = 0;
    if (ParseVersionedKey(key, prefix_, table_, &v)) burned = std::max(burned, v);
  }
  for (const std::string& id : store_->ListMultipartUploads(stem)) {
    std::string key;
    if (store_->ListParts(id, &key, nullptr).ok()) {
      u64 v = 0;
      if (ParseVersionedKey(key, prefix_, table_, &v)) {
        burned = std::max(burned, v);
      }
    }
  }
  version_ = burned + 1;

  // The kStaging intent names every object the version will hold; sizes
  // and CRCs are not known yet.
  const std::string versioned = VersionedName(table_, version_);
  IntentRecord staging{table_, version_, IntentPhase::kStaging, {}};
  columns_.clear();
  columns_.resize(schema.size());
  for (size_t c = 0; c < schema.size(); c++) {
    ColumnState& column = columns_[c];
    column.meta.name = schema[c].name;
    column.meta.type = schema[c].type;
    column.accumulator =
        std::make_unique<Column>(schema[c].name, schema[c].type);
    column.key = ColumnFileKey(prefix_, versioned, c);
    status = store_->CreateMultipartUpload(column.key, &column.upload_id);
    if (!status.ok()) return Fail(status);
    staging.entries.push_back({column.key, column.upload_id});
    if (CrashAt("begin:after-create-upload")) return failed_status_;
  }
  if (write_zone_map_) {
    staging.entries.push_back({ZoneMapKey(prefix_, versioned), ""});
  }
  staging.entries.push_back({TableMetaKey(prefix_, versioned), ""});

  status = WriteIntent(staging);
  if (!status.ok()) return Fail(status);
  if (CrashAt("begin:after-intent")) return failed_status_;

  state_ = State::kOpen;
  return Status::Ok();
}

void StreamingWriter::StageBlockBytes(size_t c, const u8* data, u32 size,
                                      u32 value_count) {
  ColumnState& column = columns_[c];
  column.pending.Append(data, size);
  column.meta.blocks.Add(data, size);
  column.meta.block_value_counts.push_back(value_count);
  column.payload_crc = Crc32cExtend(column.payload_crc, data, size);
  WriteMetrics::Get().blocks_flushed.Add();
}

Status StreamingWriter::FlushBlock(size_t c) {
  ColumnState& column = columns_[c];
  BTR_DCHECK(column.accumulator != nullptr && column.accumulator->size() > 0);
  // One accumulator of <= kBlockCapacity rows compresses to exactly one
  // block, through the same scheme picker CompressColumn runs — a
  // streamed table is bit-identical to the one-shot compressed form.
  CompressedColumn compressed =
      CompressColumn(*column.accumulator, config_.compression);
  BTR_CHECK_MSG(compressed.blocks.size() == 1,
                "accumulator flushed more than one block");
  StageBlockBytes(c, compressed.blocks[0].data(),
                  static_cast<u32>(compressed.blocks[0].size()),
                  compressed.block_value_counts[0]);
  column.zones.push_back(ComputeColumnZoneMap(*column.accumulator).zones[0]);
  column.meta.uncompressed_bytes += column.accumulator->UncompressedBytes();
  column.accumulator =
      std::make_unique<Column>(column.meta.name, column.meta.type);
  return Status::Ok();
}

Status StreamingWriter::UploadPending(size_t c) {
  ColumnState& column = columns_[c];
  if (column.pending.empty() && column.next_part > 1) return Status::Ok();
  Status status = exec::RunWithRetries(retry_.get(), [&] {
    return store_->UploadPart(column.upload_id, column.next_part,
                              column.pending.data(), column.pending.size());
  });
  if (!status.ok()) return Fail(status);
  WriteMetrics::Get().parts_uploaded.Add();
  WriteMetrics::Get().bytes_staged.Add(column.pending.size());
  column.next_part++;
  column.pending.Clear();
  if (CrashAt("append:after-part")) return failed_status_;
  return Status::Ok();
}

Status StreamingWriter::Append(const Relation& chunk) {
  if (state_ == State::kDead) return failed_status_;
  if (state_ != State::kOpen) {
    return Status::InvalidArgument("Append before Begin or after Commit");
  }
  if (chunk.columns().size() != columns_.size()) {
    return Status::InvalidArgument("chunk column count does not match schema");
  }
  const u32 rows = chunk.row_count();
  for (size_t c = 0; c < columns_.size(); c++) {
    const Column& src = chunk.columns()[c];
    if (src.name() != columns_[c].meta.name ||
        src.type() != columns_[c].meta.type) {
      return Status::InvalidArgument("chunk column " + std::to_string(c) +
                                     " does not match schema");
    }
    if (src.size() != rows) {
      return Status::InvalidArgument("ragged chunk: column " +
                                     std::to_string(c) + " row count differs");
    }
  }
  // Each column is copied in ranges that end at the next block cut.
  for (size_t c = 0; c < columns_.size(); c++) {
    const Column& src = chunk.columns()[c];
    for (u32 r = 0; r < rows;) {
      Column* acc = columns_[c].accumulator.get();
      u32 n = std::min(rows - r, kBlockCapacity - acc->size());
      acc->AppendRange(src, r, n);
      r += n;
      if (acc->size() == kBlockCapacity) {
        BTR_RETURN_IF_ERROR(FlushBlock(c));
        if (columns_[c].pending.size() >= config_.part_target_bytes) {
          BTR_RETURN_IF_ERROR(UploadPending(c));
        }
      }
    }
  }
  rows_appended_ += rows;
  return Status::Ok();
}

Status StreamingWriter::Commit() {
  BTR_TRACE_SPAN("write.commit");
  if (state_ == State::kDead) return failed_status_;
  if (state_ != State::kOpen) {
    return Status::InvalidArgument("Commit before Begin or after Commit");
  }

  // 1. Flush trailing blocks and ship every column's remaining payload.
  // Each column object goes into the kStaged intent with the size and
  // CRC32C it must have once its parts are assembled.
  const std::string versioned = VersionedName(table_, version_);
  IntentRecord staged{table_, version_, IntentPhase::kStaged, {}};
  for (size_t c = 0; c < columns_.size(); c++) {
    ColumnState& column = columns_[c];
    if (column.accumulator->size() > 0) BTR_RETURN_IF_ERROR(FlushBlock(c));
    BTR_RETURN_IF_ERROR(UploadPending(c));
    staged.entries.push_back({column.key, column.upload_id,
                              column.meta.blocks.object_size(),
                              column.payload_crc});
  }
  if (CrashAt("commit:after-flush")) return failed_status_;
  auto put_staged = [&](const std::string& key, const ByteBuffer& buffer) {
    staged.entries.push_back(
        {key, "", buffer.size(), Crc32c(buffer.data(), buffer.size())});
    return PutWithRetries(key, buffer.data(), buffer.size());
  };

  // 2. Zone-map sidecar and table metadata stage as plain versioned
  // objects (they are small; multipart buys nothing). The metadata holds
  // every column's block table.
  if (write_zone_map_) {
    TableZoneMap zones;
    for (ColumnState& column : columns_) {
      ColumnZoneMap zone_map;
      zone_map.type = column.meta.type;
      zone_map.zones = column.zones;
      zones.columns.push_back(std::move(zone_map));
    }
    ByteBuffer buffer;
    SerializeTableZoneMap(zones, &buffer);
    Status status = put_staged(ZoneMapKey(prefix_, versioned), buffer);
    if (!status.ok()) return Fail(status);
    if (CrashAt("commit:after-zones")) return failed_status_;
  }
  {
    TableMeta meta;
    meta.row_count = static_cast<u32>(rows_appended_);
    for (const ColumnState& column : columns_) {
      meta.columns.push_back(column.meta);
    }
    ByteBuffer buffer;
    SerializeTableMeta(meta, &buffer);
    Status status = put_staged(TableMetaKey(prefix_, versioned), buffer);
    if (!status.ok()) return Fail(status);
    if (CrashAt("commit:after-meta")) return failed_status_;
  }

  // 3. Point of no return for the version's *contents*: the kStaged
  // intent records every object with its expected size and CRC. From here
  // a crash rolls forward — recovery finishes the uploads and swaps the
  // manifest itself (write/recovery.h).
  Status status = WriteIntent(staged);
  if (!status.ok()) return Fail(status);
  if (CrashAt("commit:after-staged-intent")) return failed_status_;

  // 4. Assemble the column objects.
  for (ColumnState& column : columns_) {
    status = exec::RunWithRetries(retry_.get(), [&] {
      return store_->CompleteMultipartUpload(column.upload_id);
    });
    if (!status.ok()) return Fail(status);
    if (CrashAt("commit:after-complete")) return failed_status_;
  }

  // 5. Trust nothing: a PUT that tore or corrupted bytes while *reporting
  // success* (FaultKind::kTruncate/kCorrupt) must not get published. The
  // read-back compares byte counts and CRCs against the journaled intent,
  // at the cost of re-reading the version once.
  for (const IntentEntry& entry : staged.entries) {
    status = VerifyStagedObject(store_, retry_.get(), entry);
    if (status.IsCorruption()) WriteMetrics::Get().verify_failures.Add();
    if (!status.ok()) return Fail(status);
  }
  if (CrashAt("commit:after-verify")) return failed_status_;

  // 6. The atomic commit point: one Put of the tiny manifest publishes
  // the version to every future Scanner::Open.
  Manifest manifest;
  manifest.table = table_;
  manifest.committed_version = version_;
  ByteBuffer buffer;
  SerializeManifest(manifest, &buffer);
  status = PutWithRetries(ManifestKey(prefix_, table_), buffer.data(),
                          buffer.size());
  if (!status.ok()) return Fail(status);
  if (CrashAt("commit:after-manifest")) return failed_status_;

  // 7. The intent is now garbage (version <= committed); drop it.
  (void)store_->Delete(IntentKey(prefix_, table_, version_));
  if (CrashAt("commit:after-intent-delete")) return failed_status_;

  state_ = State::kCommitted;
  WriteMetrics::Get().commits.Add();
  return Status::Ok();
}

Status StreamingWriter::Abort() {
  if (state_ == State::kCommitted) {
    return Status::InvalidArgument("Abort after Commit");
  }
  // Deliberately no cleanup (see class comment): an aborted writer leaves
  // the same state a killed one would, and recovery GCs both.
  state_ = State::kDead;
  failed_status_ = Status::IoError("write aborted");
  return Status::Ok();
}

Status CommitCompressedRelation(const CompressedRelation& relation,
                                const TableZoneMap* zones,
                                const std::string& prefix,
                                s3sim::ObjectStore* store,
                                const WriterConfig& config) {
  if (store == nullptr) return Status::InvalidArgument("null object store");
  if (zones != nullptr && zones->columns.size() != relation.columns.size()) {
    return Status::InvalidArgument("zone map does not match relation");
  }
  StreamingWriter writer(store, relation.name, prefix, config);
  writer.write_zone_map_ = zones != nullptr;
  std::vector<StreamingWriter::ColumnSpec> schema;
  schema.reserve(relation.columns.size());
  for (const CompressedColumn& column : relation.columns) {
    schema.push_back({column.name, column.type});
  }
  BTR_RETURN_IF_ERROR(writer.Begin(schema));
  // Feed the already-compressed blocks straight into the part stream; the
  // staging, intent, verification and manifest-swap machinery is shared
  // with the streaming path.
  for (size_t c = 0; c < relation.columns.size(); c++) {
    const CompressedColumn& column = relation.columns[c];
    StreamingWriter::ColumnState& state = writer.columns_[c];
    state.meta.uncompressed_bytes = column.uncompressed_bytes;
    if (zones != nullptr) state.zones = zones->columns[c].zones;
    for (size_t b = 0; b < column.blocks.size(); b++) {
      writer.StageBlockBytes(c, column.blocks[b].data(),
                             static_cast<u32>(column.blocks[b].size()),
                             column.block_value_counts[b]);
      if (state.pending.size() >= config.part_target_bytes) {
        BTR_RETURN_IF_ERROR(writer.UploadPending(c));
      }
    }
  }
  writer.rows_appended_ = relation.row_count;
  return writer.Commit();
}

}  // namespace btr::write
