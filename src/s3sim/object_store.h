// Simulated S3-style object store and end-to-end scan cost model
// (paper Section 6.7). AWS is unavailable offline, so network transfer
// and billing are *modeled* with the constants the paper states, while
// decompression time is *measured* on this machine:
//   - c5n.18xlarge: 100 Gbit/s network, $3.89/h instance rate,
//   - $0.0004 per 1000 GET requests, 16 MiB chunks per request
//     (S3 performance guidelines),
//   - decompression parallelized over columns/blocks across `cores`
//     (the paper's instance has 36 cores; measured single-thread seconds
//     are divided by the modeled core count).
//
// The distinction the paper draws between T_r (uncompressed bytes /
// scan time — what the consumer sees) and T_c (compressed bytes / scan
// time — what the network must sustain) falls out of the model directly.
//
// The store also models *failure*: an installed FaultPlan (s3sim/fault.h)
// makes GETs return transient errors (Status::Throttled/Unavailable), add
// latency spikes, truncate ranges, or flip payload bytes — deterministic
// per (seed, request sequence), so chaos schedules replay exactly. The
// read path (btr::Scanner, via exec::HedgedGet) is expected to retry the
// transient kinds and *detect* the corrupting ones via block CRCs. PUT
// rules do the same to the write path — failed, torn, corrupted or
// crash-interrupted writes — which the streaming writer must retry,
// verify, and recover from (src/write/, docs/WRITE_PATH.md).
#ifndef BTR_S3SIM_OBJECT_STORE_H_
#define BTR_S3SIM_OBJECT_STORE_H_

#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "s3sim/fault.h"
#include "util/buffer.h"
#include "util/random.h"
#include "util/status.h"
#include "util/types.h"

namespace btr::s3sim {

struct S3Config {
  double network_gbps = 100.0;            // instance NIC, Gbit/s
  double request_cost_usd = 0.0004 / 1000.0;  // per GET
  double instance_cost_per_hour = 3.89;   // c5n.18xlarge on-demand
  u64 chunk_bytes = 16ull << 20;          // bytes fetched per GET
  double first_byte_latency_s = 0.030;    // pipeline fill, paid once
  u32 cores = 36;                         // modeled decompression cores

  // --- wall-clock simulation (pipelined scan engine) -----------------------
  // When true, a GET's response lands a per-request first-byte latency
  // plus the per-connection transfer time after the call (IssueGet's
  // arrival; GetChunk waits for it), so the scan engine (btr::Scanner) has
  // real network time to hide: concurrent fetch threads overlap their
  // latencies with each other and with decompression, exactly what the
  // analytic SimulateScan model cannot capture. Accounting
  // (requests/bytes/network_seconds) is unaffected.
  bool simulate_wall_clock = false;
  double wall_clock_request_latency_s = 0.002;  // per-GET first-byte latency
  double wall_clock_gbps = 2.0;                 // per-connection bandwidth
};

// One staged part of a multipart upload, as ListParts reports it.
struct PartInfo {
  u32 part_number = 0;
  u64 size = 0;
  u32 crc32c = 0;  // CRC32C of the part bytes as stored
};

// In-memory object store with request accounting and optional fault
// injection. Objects are opaque byte blobs; GetChunk models one ranged GET.
//
// Thread safety: every member may be called from any number of threads
// concurrently, including Put racing readers of the same key — object
// bytes are immutable once stored, and a racing Put swaps in a fresh blob
// while in-flight GETs keep reading the one they resolved.
class ObjectStore {
 public:
  explicit ObjectStore(const S3Config& config = S3Config()) : config_(config) {}

  // Stores the object, replacing any previous bytes atomically. PUT-class
  // faults apply (see fault.h): the call can fail transiently
  // (Throttled/Unavailable — safe to retry), fail like a mid-call process
  // death (IoError with the write applied or not), or *silently* store
  // torn/corrupt bytes — which is why the commit protocol verifies what
  // actually landed before publishing (docs/WRITE_PATH.md).
  [[nodiscard]] Status Put(const std::string& key, const u8* data, size_t size);
  // Removes the object. Idempotent (Ok when the key does not exist) and
  // never faulted: recovery's garbage collection must be able to converge.
  Status Delete(const std::string& key);
  bool Contains(const std::string& key) const;
  // Status::NotFound when the key does not exist.
  Status ObjectSize(const std::string& key, u64* size) const;
  // Keys starting with `prefix`, sorted. Metadata-plane: never faults.
  std::vector<std::string> ListKeys(const std::string& prefix = "") const;

  // --- multipart uploads -----------------------------------------------------
  // The resumable staging primitive the streaming write path builds on
  // (S3 semantics): parts upload independently and in any order, re-upload
  // of a part number replaces it, and nothing is visible under `key` until
  // CompleteMultipartUpload concatenates the parts in part-number order
  // and publishes the object atomically. An interrupted upload keeps its
  // parts server-side — ListMultipartUploads/ListParts let a recovery pass
  // resume or abort it. Create/Abort/List are metadata-plane (never
  // faulted); UploadPart and Complete are PUT-class requests and take
  // faults like Put.
  Status CreateMultipartUpload(const std::string& key, std::string* upload_id);
  [[nodiscard]] Status UploadPart(const std::string& upload_id, u32 part_number,
                                  const u8* data, size_t size);
  [[nodiscard]] Status CompleteMultipartUpload(const std::string& upload_id);
  // Idempotent: Ok when the upload is unknown (already completed/aborted).
  Status AbortMultipartUpload(const std::string& upload_id);
  // Target key and staged parts (part-number order) of an open upload.
  Status ListParts(const std::string& upload_id, std::string* key,
                   std::vector<PartInfo>* parts) const;
  // Upload ids whose target key starts with `key_prefix`, sorted.
  std::vector<std::string> ListMultipartUploads(
      const std::string& key_prefix = "") const;

  // Reads [offset, offset+length) into out (resized; a range reaching past
  // the end is clipped). Accounts one GET request and the modeled transfer
  // time. Fails with NotFound (unknown key), InvalidArgument (offset past
  // the object end), or an injected fault's status — transient ones
  // (Throttled/Unavailable) are safe to retry. Returns once the response
  // has landed: IssueGet, then a wait until its arrival.
  Status GetChunk(const std::string& key, u64 offset, u64 length,
                  std::vector<u8>* out);

  // GetChunk as a completion: does all of the request's work (lookup,
  // billing, faults, copy, metrics) and returns at once, with *arrival set
  // to when the response lands — the call time plus any injected latency
  // spike and, under simulate_wall_clock, the first-byte latency and the
  // transfer time; the call time for an error. A caller that models the
  // network uses `out` and the status no earlier than *arrival.
  Status IssueGet(const std::string& key, u64 offset, u64 length,
                  std::vector<u8>* out,
                  std::chrono::steady_clock::time_point* arrival);

  // Fetches a whole object as a sequence of chunk_bytes GETs.
  Status GetObject(const std::string& key, std::vector<u8>* out);

  // --- fault injection -------------------------------------------------------
  // Installs a plan (replacing any previous one) and re-arms its rules.
  // Faults apply to GetChunk/GetObject (kGet rules) and to
  // Put/UploadPart/CompleteMultipartUpload (kPut rules); Delete, Contains,
  // ObjectSize, listing and upload create/abort are metadata-plane and
  // never fault.
  void InstallFaultPlan(FaultPlan plan);
  void ClearFaultPlan();
  // Requests that an installed plan failed, tore, corrupted, or delayed.
  u64 faults_injected() const;

  u64 total_requests() const;
  u64 total_bytes_fetched() const;
  // PUT-class requests (Put/UploadPart/Complete), including failed ones.
  u64 total_put_requests() const;
  u64 total_bytes_put() const;  // bytes that actually landed
  // Modeled seconds the network was busy (requests overlap; latency
  // is handled by the scan model, not accumulated per request).
  double network_seconds() const;
  void ResetAccounting();

  const S3Config& config() const { return config_; }

 private:
  struct FaultDecision {
    bool fired = false;
    FaultKind kind = FaultKind::kUnavailable;
    u64 latency_ns = 0;
    u64 truncate_to = 0;
    u64 corrupt_offset = 0;
  };
  // Matches one request against the installed plan (rule counters
  // advance). `offset` is the GET offset, or the part number for
  // UploadPart — either way a targeting dimension for rules.
  FaultDecision EvaluateFaults(const std::string& key, u64 offset,
                               FaultOp op = FaultOp::kGet);
  // Shared body of Put-like writes: applies a PUT fault decision to the
  // bytes (tear/flip/drop) and reports what to store and what to return.
  Status ApplyPutFault(const FaultDecision& fault, const std::string& key,
                       const u8* data, size_t size, std::vector<u8>* stored,
                       bool* apply_write);

  S3Config config_;

  // Object bytes are immutable shared blobs: Put publishes a new blob
  // under the mutex, readers resolve the pointer under the mutex and then
  // copy without holding it.
  using Blob = std::shared_ptr<const std::vector<u8>>;
  mutable std::mutex objects_mutex_;
  std::unordered_map<std::string, Blob> objects_;

  // Multipart staging area: parts live outside objects_ until Complete
  // concatenates and publishes them. Guarded by objects_mutex_ (uploads
  // and objects transition into each other atomically on Complete).
  struct MultipartUpload {
    std::string key;
    std::map<u32, Blob> parts;  // part number -> staged bytes
  };
  std::map<std::string, MultipartUpload> uploads_;  // upload id -> state
  u64 next_upload_id_ = 1;

  mutable std::mutex fault_mutex_;
  FaultPlan fault_plan_;
  Random fault_rng_;
  std::vector<u64> rule_matches_;  // per rule: requests that satisfied it
  std::vector<u64> rule_fires_;    // per rule: times it actually fired
  u64 faults_injected_ = 0;

  mutable std::mutex accounting_mutex_;
  u64 total_requests_ = 0;
  u64 total_bytes_fetched_ = 0;
  u64 total_put_requests_ = 0;
  u64 total_bytes_put_ = 0;
  double network_seconds_ = 0;
};

// One scan's inputs: sizes plus the measured single-thread CPU cost.
struct ScanMeasurement {
  u64 compressed_bytes = 0;
  u64 uncompressed_bytes = 0;
  double single_thread_decompress_seconds = 0;
};

struct ScanResult {
  double seconds = 0;       // end-to-end scan wall clock (modeled)
  u64 requests = 0;
  double cost_usd = 0;      // instance time + request cost
  double tr_gbps = 0;       // T_r: uncompressed GB/s delivered
  double tc_gbit = 0;       // T_c: compressed Gbit/s over the network
  bool network_bound = false;
};

// Network transfer overlaps decompression; the slower side dominates.
ScanResult SimulateScan(const ScanMeasurement& m, const S3Config& config);

}  // namespace btr::s3sim

#endif  // BTR_S3SIM_OBJECT_STORE_H_
