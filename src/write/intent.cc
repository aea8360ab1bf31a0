#include "write/intent.h"

#include "util/crc32c.h"
#include "util/framing.h"

namespace btr::write {

namespace {
constexpr char kIntentMagic[4] = {'B', 'T', 'R', 'I'};
// The smallest entry: two empty strings, the size and the CRC.
constexpr size_t kMinEntryBytes = 2 + 2 + 8 + 4;
}  // namespace

const char* IntentPhaseName(IntentPhase phase) {
  switch (phase) {
    case IntentPhase::kStaging: return "staging";
    case IntentPhase::kStaged: return "staged";
  }
  return "?";
}

void SerializeIntent(const IntentRecord& intent, ByteBuffer* out) {
  size_t start = BeginFrame(kIntentMagic, out);
  out->AppendValue<u32>(kIntentFormatVersion);
  out->AppendValue<u64>(intent.version);
  out->AppendValue<u8>(static_cast<u8>(intent.phase));
  out->AppendValue<u16>(static_cast<u16>(intent.table.size()));
  out->Append(intent.table.data(), intent.table.size());
  out->AppendValue<u32>(static_cast<u32>(intent.entries.size()));
  for (const IntentEntry& entry : intent.entries) {
    out->AppendValue<u16>(static_cast<u16>(entry.key.size()));
    out->Append(entry.key.data(), entry.key.size());
    out->AppendValue<u16>(static_cast<u16>(entry.upload_id.size()));
    out->Append(entry.upload_id.data(), entry.upload_id.size());
    out->AppendValue<u64>(entry.size);
    out->AppendValue<u32>(entry.crc32c);
  }
  EndFrame(start, out);
}

Status ParseIntent(const u8* data, size_t size, IntentRecord* out) {
  ByteReader r;
  BTR_RETURN_IF_ERROR(OpenFrame(data, size, kIntentMagic, "intent", &r));
  u32 format = 0;
  if (!r.Read(&format)) return Status::Corruption("truncated intent");
  if (format != kIntentFormatVersion) {
    return Status::Corruption("unsupported intent format " +
                              std::to_string(format));
  }
  u8 phase = 0;
  u32 entry_count = 0;
  if (!r.Read(&out->version) || !r.Read(&phase) || !r.ReadString(&out->table) ||
      !r.ReadCount(&entry_count, kMinEntryBytes)) {
    return Status::Corruption("truncated intent");
  }
  if (phase > static_cast<u8>(IntentPhase::kStaged)) {
    return Status::Corruption("bad intent phase");
  }
  out->phase = static_cast<IntentPhase>(phase);
  out->entries.assign(entry_count, {});
  for (IntentEntry& entry : out->entries) {
    if (!r.ReadString(&entry.key) || !r.ReadString(&entry.upload_id) ||
        !r.Read(&entry.size) || !r.Read(&entry.crc32c)) {
      return Status::Corruption("truncated intent entry");
    }
  }
  return Status::Ok();
}

Status VerifyStagedObject(s3sim::ObjectStore* store, exec::RetryState* retry,
                          const IntentEntry& entry) {
  std::vector<u8> blob;
  BTR_RETURN_IF_ERROR(exec::RunWithRetries(
      retry, [&] { return store->GetObject(entry.key, &blob); }));
  if (blob.size() != entry.size ||
      Crc32c(blob.data(), blob.size()) != entry.crc32c) {
    return Status::Corruption("staged object failed verification: " +
                              entry.key);
  }
  return Status::Ok();
}

}  // namespace btr::write
