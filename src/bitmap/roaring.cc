#include "bitmap/roaring.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "util/bits.h"

namespace btr {

RoaringBitmap::Container* RoaringBitmap::FindOrCreate(u16 key) {
  // Fast path: appends are usually to the last container.
  if (!containers_.empty() && containers_.back().key == key) {
    return &containers_.back();
  }
  auto it = std::lower_bound(
      containers_.begin(), containers_.end(), key,
      [](const Container& c, u16 k) { return c.key < k; });
  if (it != containers_.end() && it->key == key) return &*it;
  Container fresh;
  fresh.key = key;
  return &*containers_.insert(it, std::move(fresh));
}

const RoaringBitmap::Container* RoaringBitmap::Find(u16 key) const {
  auto it = std::lower_bound(
      containers_.begin(), containers_.end(), key,
      [](const Container& c, u16 k) { return c.key < k; });
  if (it != containers_.end() && it->key == key) return &*it;
  return nullptr;
}

void RoaringBitmap::ToBitset(Container* c) {
  BTR_DCHECK(c->type == ContainerType::kArray);
  c->bitset.assign(kBitsetWords, 0);
  for (u16 v : c->array) c->bitset[v >> 6] |= u64{1} << (v & 63);
  c->array.clear();
  c->array.shrink_to_fit();
  c->type = ContainerType::kBitset;
}

void RoaringBitmap::AddToContainer(Container* c, u16 low) {
  switch (c->type) {
    case ContainerType::kArray: {
      if (!c->array.empty() && c->array.back() == low) return;
      if (c->array.empty() || c->array.back() < low) {
        c->array.push_back(low);
      } else {
        auto it = std::lower_bound(c->array.begin(), c->array.end(), low);
        if (it != c->array.end() && *it == low) return;
        c->array.insert(it, low);
      }
      c->cardinality++;
      if (c->cardinality > kArrayMaxCardinality) ToBitset(c);
      return;
    }
    case ContainerType::kBitset: {
      u64& word = c->bitset[low >> 6];
      u64 mask = u64{1} << (low & 63);
      if ((word & mask) == 0) {
        word |= mask;
        c->cardinality++;
      }
      return;
    }
    case ContainerType::kRun: {
      // Run containers are produced by RunOptimize(), but adds can arrive
      // in any order afterwards (e.g. patching exception positions into a
      // run-compressed selection). Runs must stay sorted and disjoint:
      // Contains() binary-searches them and ForEach() iterates them in
      // stored order.
      // Fast path: ascending append beyond the last run.
      if (!c->runs.empty()) {
        Run& last = c->runs.back();
        u32 end = static_cast<u32>(last.start) + last.length;
        if (low >= last.start && low <= end) return;
        if (low == end + 1) {
          last.length++;
          c->cardinality++;
          return;
        }
        if (low > end) {
          c->runs.push_back(Run{low, 0});
          c->cardinality++;
          return;
        }
      }
      // General case: sorted insert with neighbor merging.
      auto it = std::upper_bound(
          c->runs.begin(), c->runs.end(), low,
          [](u16 v, const Run& r) { return v < r.start; });
      if (it != c->runs.begin()) {
        Run& prev = *(it - 1);
        u32 end = static_cast<u32>(prev.start) + prev.length;
        if (low >= prev.start && low <= end) return;  // already present
        if (low == end + 1) {
          prev.length++;
          c->cardinality++;
          if (it != c->runs.end() &&
              static_cast<u32>(prev.start) + prev.length + 1 == it->start) {
            prev.length += it->length + 1;
            c->runs.erase(it);
          }
          return;
        }
      }
      if (it != c->runs.end() && static_cast<u32>(low) + 1 == it->start) {
        it->start = low;
        it->length++;
        c->cardinality++;
        return;
      }
      c->runs.insert(it, Run{low, 0});
      c->cardinality++;
      return;
    }
  }
}

void RoaringBitmap::Add(u32 value) {
  AddToContainer(FindOrCreate(static_cast<u16>(value >> 16)),
                 static_cast<u16>(value & 0xFFFF));
}

void RoaringBitmap::RunOptimize() {
  for (Container& c : containers_) {
    // Collect runs from the current representation.
    std::vector<Run> runs;
    u32 run_count = 0;
    auto feed = [&](u16 low) {
      if (!runs.empty() &&
          static_cast<u32>(runs.back().start) + runs.back().length + 1 == low) {
        runs.back().length++;
      } else {
        runs.push_back(Run{low, 0});
        run_count++;
      }
    };
    if (c.type == ContainerType::kArray) {
      for (u16 v : c.array) feed(v);
    } else if (c.type == ContainerType::kBitset) {
      for (u32 word = 0; word < kBitsetWords; word++) {
        u64 bits = c.bitset[word];
        while (bits != 0) {
          u32 bit = static_cast<u32>(__builtin_ctzll(bits));
          feed(static_cast<u16>(word * 64 + bit));
          bits &= bits - 1;
        }
      }
    } else {
      continue;  // already runs
    }
    size_t run_bytes = runs.size() * sizeof(Run);
    size_t current_bytes = c.type == ContainerType::kArray
                               ? c.array.size() * sizeof(u16)
                               : kBitsetWords * sizeof(u64);
    if (run_bytes < current_bytes) {
      c.runs = std::move(runs);
      c.array.clear();
      c.array.shrink_to_fit();
      c.bitset.clear();
      c.bitset.shrink_to_fit();
      c.type = ContainerType::kRun;
    }
  }
}

bool RoaringBitmap::ContainerContains(const Container& c, u16 low) {
  switch (c.type) {
    case ContainerType::kArray:
      return std::binary_search(c.array.begin(), c.array.end(), low);
    case ContainerType::kBitset:
      return (c.bitset[low >> 6] >> (low & 63)) & 1;
    case ContainerType::kRun: {
      auto it = std::upper_bound(
          c.runs.begin(), c.runs.end(), low,
          [](u16 v, const Run& r) { return v < r.start; });
      if (it == c.runs.begin()) return false;
      --it;
      return low >= it->start &&
             static_cast<u32>(low) <= static_cast<u32>(it->start) + it->length;
    }
  }
  return false;
}

bool RoaringBitmap::Contains(u32 value) const {
  const Container* c = Find(static_cast<u16>(value >> 16));
  return c != nullptr && ContainerContains(*c, static_cast<u16>(value & 0xFFFF));
}

u64 RoaringBitmap::Cardinality() const {
  u64 total = 0;
  for (const Container& c : containers_) total += c.cardinality;
  return total;
}

// One sweep counts the chunk's set bits and runs, which fixes the smallest
// representation, and finds the span of nonzero words. Only the winner is
// built: the bitset as a copy of the words, the array or the runs by
// extracting them from the span (at most 8 KiB, still in cache). Building
// every candidate during the sweep costs far more on dense chunks, whose
// thousands of values and runs would all be dropped for the bitset.
bool RoaringBitmap::ContainerFromWords(const u64* words, u32 word_count,
                                       Container* c) {
  u32 cardinality = 0;
  u32 run_count = 0;
  u32 first = word_count;  // nonzero words lie in [first, end)
  u32 end = 0;
  u64 carry = 0;  // top bit of the previous word
  auto count = [&](u64 bits) {
    cardinality += PopCount64(bits);
    run_count += PopCount64(bits & ~((bits << 1) | carry));  // run starts
    carry = bits >> 63;
  };
  // Sparse selections are mostly zero words: skip eight at a time.
  constexpr u32 kGroup = 8;
  u32 i = 0;
  for (; i + kGroup <= word_count; i += kGroup) {
    u64 any = 0;
    for (u32 k = 0; k < kGroup; k++) any |= words[i + k];
    if (any == 0) {
      carry = 0;
      continue;
    }
    first = std::min(first, i);
    end = i + kGroup;
    for (u32 k = 0; k < kGroup; k++) count(words[i + k]);
  }
  for (; i < word_count; i++) {
    if (words[i] != 0) {
      first = std::min(first, i);
      end = i + 1;
    }
    count(words[i]);
  }
  if (cardinality == 0) return false;
  c->cardinality = cardinality;
  const size_t current_bytes = cardinality <= kArrayMaxCardinality
                                   ? cardinality * sizeof(u16)
                                   : kBitsetWords * sizeof(u64);
  if (run_count * sizeof(Run) < current_bytes) {
    c->type = ContainerType::kRun;
    c->runs.reserve(run_count);
    for (u32 w = first; w < end; w++) {
      const u32 base = w * 64;
      for (u64 rest = words[w]; rest != 0;) {
        const u32 start = static_cast<u32>(std::countr_zero(rest));
        const u64 above = ~(rest >> start);  // zero along the run
        const u32 length =
            above == 0 ? 64 : static_cast<u32>(std::countr_zero(above));
        if (!c->runs.empty() && static_cast<u32>(c->runs.back().start) +
                                        c->runs.back().length + 1 ==
                                    base + start) {
          c->runs.back().length =
              static_cast<u16>(c->runs.back().length + length);
        } else {
          c->runs.push_back(Run{static_cast<u16>(base + start),
                                static_cast<u16>(length - 1)});
        }
        rest = start + length == 64 ? 0 : rest & (~u64{0} << (start + length));
      }
    }
  } else if (cardinality <= kArrayMaxCardinality) {
    c->type = ContainerType::kArray;
    c->array.resize(cardinality);
    u16* out = c->array.data();
    for (u32 w = first; w < end; w++) {
      for (u64 rest = words[w]; rest != 0; rest &= rest - 1) {
        *out++ = static_cast<u16>(w * 64 + std::countr_zero(rest));
      }
    }
  } else {
    c->type = ContainerType::kBitset;
    c->bitset.assign(kBitsetWords, 0);
    std::memcpy(c->bitset.data(), words, word_count * sizeof(u64));
  }
  return true;
}

RoaringBitmap RoaringBitmap::FromWords(const u64* words, u32 word_count) {
  RoaringBitmap result;
  for (u32 first = 0; first < word_count; first += kBitsetWords) {
    Container c;
    c.key = static_cast<u16>(first / kBitsetWords);
    if (ContainerFromWords(words + first,
                           std::min(kBitsetWords, word_count - first), &c)) {
      result.containers_.push_back(std::move(c));
    }
  }
  return result;
}

void RoaringBitmap::OrInto(u64* words, u32 word_count) const {
  for (const Container& c : containers_) {
    const u32 first = static_cast<u32>(c.key) * kBitsetWords;
    if (first >= word_count) break;
    u64* chunk = words + first;
    const u32 chunk_words = std::min(kBitsetWords, word_count - first);
    const u32 chunk_bits = chunk_words * 64;
    switch (c.type) {
      case ContainerType::kArray:
        for (u16 v : c.array) {
          if (v >= chunk_bits) break;
          SetBit(chunk, v);
        }
        break;
      case ContainerType::kBitset:
        for (u32 w = 0; w < chunk_words; w++) chunk[w] |= c.bitset[w];
        break;
      case ContainerType::kRun:
        for (const Run& run : c.runs) {
          if (run.start >= chunk_bits) break;
          SetBits(chunk, run.start,
                  std::min(static_cast<u32>(run.start) + run.length + 1,
                           chunk_bits));
        }
        break;
    }
  }
}

std::vector<u32> RoaringBitmap::ToVector() const {
  std::vector<u32> out;
  out.reserve(Cardinality());
  ForEach([&](u32 v) { out.push_back(v); });
  return out;
}

namespace {
// Serialized layout:
//   u32 container_count
//   per container: u16 key | u8 type | u32 cardinality | payload
//     array : u32 n       | n * u16
//     bitset: 1024 * u64
//     run   : u32 n       | n * (u16 start, u16 length)
struct SerHeader {
  u16 key;
  u8 type;
};
}  // namespace

void RoaringBitmap::SerializeTo(ByteBuffer* out) const {
  out->AppendValue<u32>(static_cast<u32>(containers_.size()));
  for (const Container& c : containers_) {
    out->AppendValue<u16>(c.key);
    out->AppendValue<u8>(static_cast<u8>(c.type));
    out->AppendValue<u32>(c.cardinality);
    switch (c.type) {
      case ContainerType::kArray:
        out->AppendValue<u32>(static_cast<u32>(c.array.size()));
        out->Append(c.array.data(), c.array.size() * sizeof(u16));
        break;
      case ContainerType::kBitset:
        out->Append(c.bitset.data(), kBitsetWords * sizeof(u64));
        break;
      case ContainerType::kRun:
        out->AppendValue<u32>(static_cast<u32>(c.runs.size()));
        out->Append(c.runs.data(), c.runs.size() * sizeof(Run));
        break;
    }
  }
}

size_t RoaringBitmap::SerializedSizeBytes() const {
  size_t total = sizeof(u32);
  for (const Container& c : containers_) {
    total += sizeof(u16) + sizeof(u8) + sizeof(u32);
    switch (c.type) {
      case ContainerType::kArray:
        total += sizeof(u32) + c.array.size() * sizeof(u16);
        break;
      case ContainerType::kBitset:
        total += kBitsetWords * sizeof(u64);
        break;
      case ContainerType::kRun:
        total += sizeof(u32) + c.runs.size() * sizeof(Run);
        break;
    }
  }
  return total;
}

RoaringBitmap RoaringBitmap::Deserialize(const u8* data, size_t* bytes_consumed) {
  RoaringBitmap result;
  const u8* cursor = data;
  u32 container_count;
  std::memcpy(&container_count, cursor, sizeof(u32));
  cursor += sizeof(u32);
  result.containers_.resize(container_count);
  for (u32 i = 0; i < container_count; i++) {
    Container& c = result.containers_[i];
    std::memcpy(&c.key, cursor, sizeof(u16));
    cursor += sizeof(u16);
    u8 type = *cursor++;
    BTR_CHECK(type <= 2);
    c.type = static_cast<ContainerType>(type);
    std::memcpy(&c.cardinality, cursor, sizeof(u32));
    cursor += sizeof(u32);
    switch (c.type) {
      case ContainerType::kArray: {
        u32 n;
        std::memcpy(&n, cursor, sizeof(u32));
        cursor += sizeof(u32);
        c.array.resize(n);
        std::memcpy(c.array.data(), cursor, n * sizeof(u16));
        cursor += n * sizeof(u16);
        break;
      }
      case ContainerType::kBitset: {
        c.bitset.resize(kBitsetWords);
        std::memcpy(c.bitset.data(), cursor, kBitsetWords * sizeof(u64));
        cursor += kBitsetWords * sizeof(u64);
        break;
      }
      case ContainerType::kRun: {
        u32 n;
        std::memcpy(&n, cursor, sizeof(u32));
        cursor += sizeof(u32);
        c.runs.resize(n);
        std::memcpy(c.runs.data(), cursor, n * sizeof(Run));
        cursor += n * sizeof(Run);
        break;
      }
    }
  }
  if (bytes_consumed != nullptr) *bytes_consumed = static_cast<size_t>(cursor - data);
  return result;
}

}  // namespace btr
