// Write-ahead intent records: what a writer promises before it stages.
//
// Before a StreamingWriter uploads anything for version N it Puts
// <prefix><table>.v<N>.intent describing every object the version will
// consist of; the record is rewritten as the write advances through a
// classic presumed-abort two-phase protocol:
//
//   kStaging  declared at Begin. Objects and multipart parts are landing
//             but the set is not yet complete/verified. A crash here
//             rolls *back*: recovery aborts the uploads, deletes the
//             staged objects and the intent — the table stays at the
//             previous committed version.
//   kStaged   declared once every object is fully staged (all multipart
//             parts uploaded, meta/zones Put) with the expected size and
//             CRC32C of each final object recorded. A crash after this
//             point rolls *forward*: recovery completes the uploads,
//             verifies each object against the recorded size/CRC, and
//             performs the manifest pointer-swap itself. Verification
//             failure demotes to roll-back — the old version survives.
//
// After the manifest swap the intent is deleted; an intent whose version
// is <= the committed one is garbage by definition. The record never
// stores data, only names + integrity expectations, so it stays tiny.
//
// Payload framing (CRC-trailed):
//   "BTRI" | u32 format | u64 version | u8 phase | u16 name_len | name |
//   u32 entry_count | per entry: u16 key_len | key | u16 id_len |
//   upload_id | u64 size | u32 crc32c | u32 CRC32C over all preceding.
#ifndef BTR_WRITE_INTENT_H_
#define BTR_WRITE_INTENT_H_

#include <string>
#include <vector>

#include "exec/retry.h"
#include "s3sim/object_store.h"
#include "util/buffer.h"
#include "util/status.h"
#include "util/types.h"

namespace btr::write {

inline constexpr u32 kIntentFormatVersion = 1;

enum class IntentPhase : u8 {
  kStaging = 0,  // crash => roll back
  kStaged = 1,   // crash => roll forward
};

const char* IntentPhaseName(IntentPhase phase);

struct IntentEntry {
  // Final object key this entry will publish (already versioned).
  std::string key;
  // Multipart upload staging the key; empty for plain-Put objects
  // (meta/zones) and cleared once the upload completed.
  std::string upload_id;
  // Expected size and CRC32C of the *final assembled object*. Meaningful
  // (and verified by recovery) only in phase kStaged.
  u64 size = 0;
  u32 crc32c = 0;
};

struct IntentRecord {
  std::string table;
  u64 version = 0;
  IntentPhase phase = IntentPhase::kStaging;
  std::vector<IntentEntry> entries;
};

void SerializeIntent(const IntentRecord& intent, ByteBuffer* out);
Status ParseIntent(const u8* data, size_t size, IntentRecord* out);

// Reads back the object `entry` names, with GETs retried under `retry`,
// and checks it against the size and CRC32C the entry records. Returns
// Ok, Corruption on a mismatch, NotFound when the object is missing, or
// the store's error; the writer and recovery each decide what that means.
Status VerifyStagedObject(s3sim::ObjectStore* store, exec::RetryState* retry,
                          const IntentEntry& entry);

}  // namespace btr::write

#endif  // BTR_WRITE_INTENT_H_
