#include "s3sim/object_store.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/crc32c.h"
#include "util/timer.h"

namespace btr::s3sim {

namespace {

// Per-GET observability: request count, ranged-GET size distribution, and
// both the *modeled* network latency (what the cost model charges) and the
// *measured* in-memory serve time. Fault counters track what an installed
// FaultPlan did to the request stream.
struct GetMetrics {
  obs::Counter& requests;
  obs::Counter& bytes_total;
  obs::Histogram& bytes;
  obs::Histogram& modeled_network_ns;
  obs::Histogram& serve_ns;
  obs::Counter& faults_injected;
  obs::Counter& faults_transient;
  obs::Counter& faults_data;  // truncations + corruptions

  static GetMetrics& Get() {
    static GetMetrics* m = [] {
      obs::Registry& r = obs::Registry::Get();
      return new GetMetrics{r.GetCounter("s3.get.requests"),
                            r.GetCounter("s3.get.bytes_total"),
                            r.GetHistogram("s3.get.bytes"),
                            r.GetHistogram("s3.get.modeled_network_ns"),
                            r.GetHistogram("s3.get.serve_ns"),
                            r.GetCounter("s3.get.faults_injected"),
                            r.GetCounter("s3.get.faults_transient"),
                            r.GetCounter("s3.get.faults_data")};
    }();
    return *m;
  }
};

// PUT-side observability, mirroring GetMetrics.
struct PutMetrics {
  obs::Counter& requests;
  obs::Counter& bytes_total;
  obs::Counter& faults_injected;
  obs::Counter& faults_transient;
  obs::Counter& faults_data;  // torn and corrupted writes

  static PutMetrics& Get() {
    static PutMetrics* m = [] {
      obs::Registry& r = obs::Registry::Get();
      return new PutMetrics{r.GetCounter("s3.put.requests"),
                            r.GetCounter("s3.put.bytes_total"),
                            r.GetCounter("s3.put.faults_injected"),
                            r.GetCounter("s3.put.faults_transient"),
                            r.GetCounter("s3.put.faults_data")};
    }();
    return *m;
  }
};

}  // namespace

Status ObjectStore::ApplyPutFault(const FaultDecision& fault,
                                  const std::string& key, const u8* data,
                                  size_t size, std::vector<u8>* stored,
                                  bool* apply_write) {
  PutMetrics& metrics = PutMetrics::Get();
  *apply_write = true;
  stored->assign(data, data + size);
  if (!fault.fired) return Status::Ok();
  metrics.faults_injected.Add();
  switch (fault.kind) {
    case FaultKind::kThrottle:
      metrics.faults_transient.Add();
      *apply_write = false;
      return Status::Throttled("injected throttle on PUT " + key);
    case FaultKind::kUnavailable:
      metrics.faults_transient.Add();
      *apply_write = false;
      return Status::Unavailable("injected unavailability on PUT " + key);
    case FaultKind::kLatency:
      metrics.faults_transient.Add();
      std::this_thread::sleep_for(std::chrono::nanoseconds(fault.latency_ns));
      return Status::Ok();
    case FaultKind::kTruncate:
      // Silent torn write: a prefix lands, success is reported.
      metrics.faults_data.Add();
      stored->resize(std::min<u64>(size, fault.truncate_to));
      return Status::Ok();
    case FaultKind::kCorrupt:
      metrics.faults_data.Add();
      if (!stored->empty()) {
        (*stored)[fault.corrupt_offset % stored->size()] ^= 0x01;
      }
      return Status::Ok();
    case FaultKind::kPartialPart:
      // Reported torn write: a prefix lands, the request fails transiently.
      metrics.faults_data.Add();
      stored->resize(std::min<u64>(size, fault.truncate_to));
      return Status::Unavailable("injected partial write on PUT " + key);
    case FaultKind::kCrashBeforeWrite:
      metrics.faults_transient.Add();
      *apply_write = false;
      return Status::IoError("injected crash before PUT " + key);
    case FaultKind::kCrashAfterWrite:
      metrics.faults_transient.Add();
      return Status::IoError("injected crash after PUT " + key);
  }
  return Status::Ok();
}

Status ObjectStore::Put(const std::string& key, const u8* data, size_t size) {
  {
    std::lock_guard<std::mutex> lock(accounting_mutex_);
    total_put_requests_++;
  }
  PutMetrics::Get().requests.Add();
  FaultDecision fault = EvaluateFaults(key, 0, FaultOp::kPut);
  std::vector<u8> stored;
  bool apply_write = true;
  Status status = ApplyPutFault(fault, key, data, size, &stored, &apply_write);
  if (apply_write) {
    {
      std::lock_guard<std::mutex> lock(accounting_mutex_);
      total_bytes_put_ += stored.size();
    }
    PutMetrics::Get().bytes_total.Add(stored.size());
    Blob blob = std::make_shared<const std::vector<u8>>(std::move(stored));
    std::lock_guard<std::mutex> lock(objects_mutex_);
    objects_[key] = std::move(blob);
  }
  return status;
}

Status ObjectStore::Delete(const std::string& key) {
  std::lock_guard<std::mutex> lock(objects_mutex_);
  objects_.erase(key);
  return Status::Ok();
}

std::vector<std::string> ObjectStore::ListKeys(const std::string& prefix) const {
  std::vector<std::string> keys;
  {
    std::lock_guard<std::mutex> lock(objects_mutex_);
    for (const auto& [key, blob] : objects_) {
      if (key.compare(0, prefix.size(), prefix) == 0) keys.push_back(key);
    }
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

Status ObjectStore::CreateMultipartUpload(const std::string& key,
                                          std::string* upload_id) {
  std::lock_guard<std::mutex> lock(objects_mutex_);
  *upload_id = "mpu-" + std::to_string(next_upload_id_++);
  uploads_[*upload_id].key = key;
  return Status::Ok();
}

Status ObjectStore::UploadPart(const std::string& upload_id, u32 part_number,
                               const u8* data, size_t size) {
  if (part_number == 0) {
    return Status::InvalidArgument("part numbers are 1-based");
  }
  std::string key;
  {
    std::lock_guard<std::mutex> lock(objects_mutex_);
    auto it = uploads_.find(upload_id);
    if (it == uploads_.end()) {
      return Status::NotFound("unknown multipart upload: " + upload_id);
    }
    key = it->second.key;
  }
  {
    std::lock_guard<std::mutex> lock(accounting_mutex_);
    total_put_requests_++;
  }
  PutMetrics::Get().requests.Add();
  FaultDecision fault = EvaluateFaults(key, part_number, FaultOp::kPut);
  std::vector<u8> stored;
  bool apply_write = true;
  Status status = ApplyPutFault(fault, key, data, size, &stored, &apply_write);
  if (apply_write) {
    {
      std::lock_guard<std::mutex> lock(accounting_mutex_);
      total_bytes_put_ += stored.size();
    }
    PutMetrics::Get().bytes_total.Add(stored.size());
    Blob blob = std::make_shared<const std::vector<u8>>(std::move(stored));
    std::lock_guard<std::mutex> lock(objects_mutex_);
    auto it = uploads_.find(upload_id);
    if (it == uploads_.end()) {
      return Status::NotFound("unknown multipart upload: " + upload_id);
    }
    it->second.parts[part_number] = std::move(blob);
  }
  return status;
}

Status ObjectStore::CompleteMultipartUpload(const std::string& upload_id) {
  std::string key;
  {
    std::lock_guard<std::mutex> lock(objects_mutex_);
    auto it = uploads_.find(upload_id);
    if (it == uploads_.end()) {
      return Status::NotFound("unknown multipart upload: " + upload_id);
    }
    key = it->second.key;
    if (it->second.parts.empty()) {
      return Status::InvalidArgument("multipart upload has no parts: " +
                                     upload_id);
    }
  }
  {
    std::lock_guard<std::mutex> lock(accounting_mutex_);
    total_put_requests_++;
  }
  PutMetrics::Get().requests.Add();
  FaultDecision fault = EvaluateFaults(key, 0, FaultOp::kPut);
  if (fault.fired) {
    PutMetrics& metrics = PutMetrics::Get();
    metrics.faults_injected.Add();
    switch (fault.kind) {
      case FaultKind::kThrottle:
        metrics.faults_transient.Add();
        return Status::Throttled("injected throttle completing " + key);
      case FaultKind::kUnavailable:
      case FaultKind::kPartialPart:  // cannot partially complete: transient
        metrics.faults_transient.Add();
        return Status::Unavailable("injected unavailability completing " + key);
      case FaultKind::kLatency:
        metrics.faults_transient.Add();
        std::this_thread::sleep_for(std::chrono::nanoseconds(fault.latency_ns));
        break;
      case FaultKind::kCrashBeforeWrite:
        metrics.faults_transient.Add();
        return Status::IoError("injected crash before completing " + key);
      case FaultKind::kCrashAfterWrite:
      case FaultKind::kTruncate:
      case FaultKind::kCorrupt:
        // Handled below: the completed object publishes, then the ack is
        // lost. Truncate/corrupt make no sense for a concatenation; treat
        // them as the lost-ack crash so plans stay meaningful.
        break;
    }
  }
  bool lost_ack =
      fault.fired && (fault.kind == FaultKind::kCrashAfterWrite ||
                      fault.kind == FaultKind::kTruncate ||
                      fault.kind == FaultKind::kCorrupt);
  {
    std::lock_guard<std::mutex> lock(objects_mutex_);
    auto it = uploads_.find(upload_id);
    if (it == uploads_.end()) {
      return Status::NotFound("unknown multipart upload: " + upload_id);
    }
    // Concatenate in ascending part-number order and publish atomically:
    // readers of `key` see the old object (or nothing) until this swap.
    auto assembled = std::make_shared<std::vector<u8>>();
    size_t total = 0;
    for (const auto& [number, part] : it->second.parts) total += part->size();
    assembled->reserve(total);
    for (const auto& [number, part] : it->second.parts) {
      assembled->insert(assembled->end(), part->begin(), part->end());
    }
    objects_[it->second.key] = std::move(assembled);
    uploads_.erase(it);
  }
  if (lost_ack) {
    PutMetrics::Get().faults_transient.Add();
    return Status::IoError("injected crash after completing " + key);
  }
  return Status::Ok();
}

Status ObjectStore::AbortMultipartUpload(const std::string& upload_id) {
  std::lock_guard<std::mutex> lock(objects_mutex_);
  uploads_.erase(upload_id);
  return Status::Ok();
}

Status ObjectStore::ListParts(const std::string& upload_id, std::string* key,
                              std::vector<PartInfo>* parts) const {
  std::lock_guard<std::mutex> lock(objects_mutex_);
  auto it = uploads_.find(upload_id);
  if (it == uploads_.end()) {
    return Status::NotFound("unknown multipart upload: " + upload_id);
  }
  if (key != nullptr) *key = it->second.key;
  if (parts != nullptr) {
    parts->clear();
    for (const auto& [number, part] : it->second.parts) {
      parts->push_back(
          {number, part->size(), Crc32c(part->data(), part->size())});
    }
  }
  return Status::Ok();
}

std::vector<std::string> ObjectStore::ListMultipartUploads(
    const std::string& key_prefix) const {
  std::vector<std::string> ids;
  std::lock_guard<std::mutex> lock(objects_mutex_);
  for (const auto& [id, upload] : uploads_) {
    if (upload.key.compare(0, key_prefix.size(), key_prefix) == 0) {
      ids.push_back(id);
    }
  }
  return ids;  // std::map iteration: already sorted by id
}

bool ObjectStore::Contains(const std::string& key) const {
  std::lock_guard<std::mutex> lock(objects_mutex_);
  return objects_.count(key) > 0;
}

Status ObjectStore::ObjectSize(const std::string& key, u64* size) const {
  std::lock_guard<std::mutex> lock(objects_mutex_);
  auto it = objects_.find(key);
  if (it == objects_.end()) return Status::NotFound("object not found: " + key);
  *size = it->second->size();
  return Status::Ok();
}

ObjectStore::FaultDecision ObjectStore::EvaluateFaults(const std::string& key,
                                                       u64 offset, FaultOp op) {
  FaultDecision decision;
  std::lock_guard<std::mutex> lock(fault_mutex_);
  if (fault_plan_.Empty()) return decision;
  // Every armed rule counts each matching request — "the 3rd GET of column
  // 2" means the 3rd GET, independent of what other rules did to GETs 1
  // and 2. At most one fault fires per request: the first eligible rule in
  // plan order.
  for (size_t i = 0; i < fault_plan_.rules.size(); i++) {
    const FaultRule& rule = fault_plan_.rules[i];
    if (rule.op != op) continue;
    if (rule_fires_[i] >= rule.max_fires) continue;
    if (!rule.key_substring.empty() &&
        key.find(rule.key_substring) == std::string::npos) {
      continue;
    }
    if (offset < rule.offset_min || offset > rule.offset_max) continue;
    rule_matches_[i]++;
    if (decision.fired) continue;
    if (rule.ordinal != 0 && rule_matches_[i] != rule.ordinal) continue;
    if (rule.probability < 1.0 && fault_rng_.NextDouble() >= rule.probability) {
      continue;
    }
    rule_fires_[i]++;
    faults_injected_++;
    decision.fired = true;
    decision.kind = rule.kind;
    decision.latency_ns = rule.latency_ns;
    decision.truncate_to = rule.truncate_to;
    decision.corrupt_offset = rule.corrupt_offset == ~0ull
                                  ? fault_rng_.Next()
                                  : rule.corrupt_offset;
  }
  return decision;
}

Status ObjectStore::GetChunk(const std::string& key, u64 offset, u64 length,
                             std::vector<u8>* out) {
  std::chrono::steady_clock::time_point arrival;
  Status status = IssueGet(key, offset, length, out, &arrival);
  std::this_thread::sleep_until(arrival);
  return status;
}

Status ObjectStore::IssueGet(const std::string& key, u64 offset, u64 length,
                             std::vector<u8>* out,
                             std::chrono::steady_clock::time_point* arrival) {
  BTR_TRACE_SPAN("s3.get_chunk");
  Timer timer;
  *arrival = std::chrono::steady_clock::now();
  GetMetrics& metrics = GetMetrics::Get();

  Blob blob;
  {
    std::lock_guard<std::mutex> lock(objects_mutex_);
    auto it = objects_.find(key);
    if (it != objects_.end()) blob = it->second;
  }
  // Every attempt is a billable request, including ones the backend fails.
  {
    std::lock_guard<std::mutex> lock(accounting_mutex_);
    total_requests_++;
  }
  metrics.requests.Add();
  if (blob == nullptr) return Status::NotFound("object not found: " + key);
  const std::vector<u8>& object = *blob;
  if (offset > object.size()) {
    return Status::InvalidArgument("offset past end of object: " + key);
  }
  length = std::min<u64>(length, object.size() - offset);

  FaultDecision fault = EvaluateFaults(key, offset);
  if (fault.fired) {
    metrics.faults_injected.Add();
    switch (fault.kind) {
      case FaultKind::kThrottle:
        metrics.faults_transient.Add();
        return Status::Throttled("injected throttle on " + key);
      case FaultKind::kUnavailable:
        metrics.faults_transient.Add();
        return Status::Unavailable("injected unavailability on " + key);
      case FaultKind::kLatency:
        metrics.faults_transient.Add();
        *arrival += std::chrono::nanoseconds(fault.latency_ns);
        break;
      case FaultKind::kTruncate:
        metrics.faults_data.Add();
        length = std::min<u64>(length, fault.truncate_to);
        break;
      case FaultKind::kCorrupt:
        metrics.faults_data.Add();
        break;
      case FaultKind::kPartialPart:
      case FaultKind::kCrashBeforeWrite:
      case FaultKind::kCrashAfterWrite:
        // PUT-only kinds; a plan that aims one at a GET degrades to a
        // transient failure rather than silently doing nothing.
        metrics.faults_transient.Add();
        return Status::Unavailable("injected unavailability on " + key);
    }
  }

  out->resize(length);
  if (length > 0) std::memcpy(out->data(), object.data() + offset, length);
  if (fault.fired && fault.kind == FaultKind::kCorrupt && length > 0) {
    (*out)[fault.corrupt_offset % length] ^= 0x01;  // single flipped bit
  }
  double modeled_seconds =
      static_cast<double>(length) * 8.0 / (config_.network_gbps * 1e9);
  {
    std::lock_guard<std::mutex> lock(accounting_mutex_);
    total_bytes_fetched_ += length;
    network_seconds_ += modeled_seconds;
  }
  if (config_.simulate_wall_clock) {
    double wire_seconds =
        config_.wall_clock_request_latency_s +
        static_cast<double>(length) * 8.0 / (config_.wall_clock_gbps * 1e9);
    *arrival += std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::duration<double>(wire_seconds));
  }
  metrics.bytes_total.Add(length);
  metrics.bytes.Record(length);
  metrics.modeled_network_ns.Record(static_cast<u64>(modeled_seconds * 1e9));
  metrics.serve_ns.Record(static_cast<u64>(timer.ElapsedNanos()));
  return Status::Ok();
}

Status ObjectStore::GetObject(const std::string& key, std::vector<u8>* out) {
  BTR_TRACE_SPAN("s3.get_object");
  u64 size = 0;
  BTR_RETURN_IF_ERROR(ObjectSize(key, &size));
  out->clear();
  out->reserve(size);
  std::vector<u8> chunk;
  for (u64 offset = 0; offset < size; offset += config_.chunk_bytes) {
    BTR_RETURN_IF_ERROR(GetChunk(key, offset, config_.chunk_bytes, &chunk));
    out->insert(out->end(), chunk.begin(), chunk.end());
  }
  return Status::Ok();
}

void ObjectStore::InstallFaultPlan(FaultPlan plan) {
  std::lock_guard<std::mutex> lock(fault_mutex_);
  fault_plan_ = std::move(plan);
  fault_rng_ = Random(fault_plan_.seed);
  rule_matches_.assign(fault_plan_.rules.size(), 0);
  rule_fires_.assign(fault_plan_.rules.size(), 0);
  faults_injected_ = 0;
}

void ObjectStore::ClearFaultPlan() { InstallFaultPlan(FaultPlan()); }

u64 ObjectStore::faults_injected() const {
  std::lock_guard<std::mutex> lock(fault_mutex_);
  return faults_injected_;
}

u64 ObjectStore::total_requests() const {
  std::lock_guard<std::mutex> lock(accounting_mutex_);
  return total_requests_;
}

u64 ObjectStore::total_bytes_fetched() const {
  std::lock_guard<std::mutex> lock(accounting_mutex_);
  return total_bytes_fetched_;
}

u64 ObjectStore::total_put_requests() const {
  std::lock_guard<std::mutex> lock(accounting_mutex_);
  return total_put_requests_;
}

u64 ObjectStore::total_bytes_put() const {
  std::lock_guard<std::mutex> lock(accounting_mutex_);
  return total_bytes_put_;
}

double ObjectStore::network_seconds() const {
  std::lock_guard<std::mutex> lock(accounting_mutex_);
  return network_seconds_;
}

void ObjectStore::ResetAccounting() {
  std::lock_guard<std::mutex> lock(accounting_mutex_);
  total_requests_ = 0;
  total_bytes_fetched_ = 0;
  total_put_requests_ = 0;
  total_bytes_put_ = 0;
  network_seconds_ = 0;
}

ScanResult SimulateScan(const ScanMeasurement& m, const S3Config& config) {
  ScanResult result;
  double network_seconds =
      static_cast<double>(m.compressed_bytes) * 8.0 / (config.network_gbps * 1e9);
  double decompress_seconds =
      m.single_thread_decompress_seconds / std::max(1u, config.cores);
  result.network_bound = network_seconds >= decompress_seconds;
  result.seconds = std::max(network_seconds, decompress_seconds) +
                   config.first_byte_latency_s;
  result.requests =
      (m.compressed_bytes + config.chunk_bytes - 1) / config.chunk_bytes;
  result.cost_usd =
      result.seconds / 3600.0 * config.instance_cost_per_hour +
      static_cast<double>(result.requests) * config.request_cost_usd;
  result.tr_gbps = static_cast<double>(m.uncompressed_bytes) / result.seconds / 1e9;
  result.tc_gbit =
      static_cast<double>(m.compressed_bytes) * 8.0 / result.seconds / 1e9;
  return result;
}

}  // namespace btr::s3sim
