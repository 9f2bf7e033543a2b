#include "relational/flat_key_index.h"

#include <cassert>

namespace certfix {
namespace {

// Control-word tag bytes. Occupied tags carry 7 hash bits so a probe
// rejects almost all foreign slots without touching key memory.
constexpr uint8_t kEmptyTag = 0x00;
constexpr uint8_t kTombTag = 0x01;
constexpr uint64_t kLowBytes = 0x0101010101010101ULL;
constexpr uint64_t kHighBits = 0x8080808080808080ULL;

inline uint8_t OccupiedTag(uint64_t hash) {
  return static_cast<uint8_t>(0x80u | (hash >> 57));
}

// High bit of every byte of `x` that equals zero. Exact for all byte
// positions: the per-byte add (x&0x7f)+0x7f never carries across bytes,
// unlike the classic (x - kLowBytes) borrow trick.
inline uint64_t ZeroBytes(uint64_t x) {
  constexpr uint64_t kLow7 = 0x7f7f7f7f7f7f7f7fULL;
  return ~(((x & kLow7) + kLow7) | x | kLow7);
}

// High bit of every byte of `word` equal to `tag`.
inline uint64_t MatchBytes(uint64_t word, uint8_t tag) {
  return ZeroBytes(word ^ (kLowBytes * static_cast<uint64_t>(tag)));
}

inline uint8_t TagAt(uint64_t word, size_t slot_in_bucket) {
  return static_cast<uint8_t>(word >> (8 * slot_in_bucket));
}

inline void SetTag(uint64_t* word, size_t slot_in_bucket, uint8_t tag) {
  const size_t shift = 8 * slot_in_bucket;
  *word = (*word & ~(0xFFULL << shift))
          | (static_cast<uint64_t>(tag) << shift);
}

size_t NextPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

void FlatIdTable::Reset(size_t arity, size_t expected_keys) {
  arity_ = arity;
  live_ = 0;
  used_ = 0;
  // Size for the 7/8 load cap with one-bucket minimum.
  const size_t min_slots = expected_keys + expected_keys / 7 + 1;
  const size_t buckets =
      NextPow2((min_slots + kSlotsPerBucket - 1) / kSlotsPerBucket);
  tags_.assign(buckets, 0);
  slot_keys_.assign(buckets * kSlotsPerBucket * SlotStride(), 0);
  payloads_.assign(buckets * kSlotsPerBucket, kNotFound);
  arena_.clear();
}

uint64_t FlatIdTable::Hash(const ValueId* key) const {
  // FNV-1a over the ids (the IdKeyHash recipe), then a murmur-style
  // finalizer: the table takes bucket bits from the bottom and tag bits
  // from the top of the same hash, so both ends must be well mixed.
  uint64_t h = 1469598103934665603ULL;
  for (size_t k = 0; k < arity_; ++k) {
    h ^= key[k];
    h *= 1099511628211ULL;
  }
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h;
}

void FlatIdTable::Prefetch(uint64_t hash) const {
  if (tags_.empty()) return;
  const size_t bucket = hash & (tags_.size() - 1);
  __builtin_prefetch(&tags_[bucket]);
  __builtin_prefetch(&slot_keys_[bucket * kSlotsPerBucket * SlotStride()]);
  __builtin_prefetch(&payloads_[bucket * kSlotsPerBucket]);
}

const ValueId* FlatIdTable::SlotKey(size_t slot) const {
  if (arity_ <= kInlineArity) return &slot_keys_[slot * SlotStride()];
  return &arena_[static_cast<size_t>(slot_keys_[slot]) * arity_];
}

bool FlatIdTable::KeyEquals(size_t slot, const ValueId* key) const {
  const ValueId* stored = SlotKey(slot);
  for (size_t k = 0; k < arity_; ++k) {
    if (stored[k] != key[k]) return false;
  }
  return true;
}

void FlatIdTable::PlaceKey(size_t slot, const ValueId* key, bool copy_ids) {
  if (arity_ <= kInlineArity) {
    ValueId* dst = &slot_keys_[slot * SlotStride()];
    for (size_t k = 0; k < arity_; ++k) dst[k] = key[k];
  } else if (copy_ids) {
    slot_keys_[slot] = static_cast<ValueId>(arena_.size() / arity_);
    arena_.insert(arena_.end(), key, key + arity_);
  }
  // !copy_ids with a long key: caller pre-set the arena offset (rehash).
}

uint32_t FlatIdTable::FindHashed(uint64_t hash, const ValueId* key) const {
  if (tags_.empty()) return kNotFound;
  const size_t mask = tags_.size() - 1;
  const uint64_t want = kLowBytes * OccupiedTag(hash);
  size_t bucket = hash & mask;
  for (size_t step = 1;; bucket = (bucket + step++) & mask) {
    const uint64_t word = tags_[bucket];
    uint64_t match = ZeroBytes(word ^ want);
    while (match != 0) {
      const size_t s = static_cast<size_t>(__builtin_ctzll(match)) >> 3;
      const size_t slot = bucket * kSlotsPerBucket + s;
      if (KeyEquals(slot, key)) return payloads_[slot];
      match &= match - 1;
    }
    // An empty slot anywhere in the bucket means the key was never
    // displaced past it — absent. Tombstones do not stop the probe.
    if (MatchBytes(word, kEmptyTag) != 0) return kNotFound;
  }
}

uint32_t FlatIdTable::InsertOrGet(const ValueId* key, uint32_t fresh_payload) {
  assert(fresh_payload != kNotFound);
  if (tags_.empty()) Reset(arity_, kSlotsPerBucket);
  if ((used_ + 1) * 8 > tags_.size() * kSlotsPerBucket * 7) {
    Rehash(live_ + 1);
  }
  const uint64_t hash = Hash(key);
  const uint8_t tag = OccupiedTag(hash);
  const size_t mask = tags_.size() - 1;
  size_t bucket = hash & mask;
  size_t reuse_slot = static_cast<size_t>(-1);  // first tombstone seen
  for (size_t step = 1;; bucket = (bucket + step++) & mask) {
    const uint64_t word = tags_[bucket];
    uint64_t match = MatchBytes(word, tag);
    while (match != 0) {
      const size_t s = static_cast<size_t>(__builtin_ctzll(match)) >> 3;
      const size_t slot = bucket * kSlotsPerBucket + s;
      if (KeyEquals(slot, key)) return payloads_[slot];
      match &= match - 1;
    }
    if (reuse_slot == static_cast<size_t>(-1)) {
      const uint64_t tomb = MatchBytes(word, kTombTag);
      if (tomb != 0) {
        const size_t s = static_cast<size_t>(__builtin_ctzll(tomb)) >> 3;
        reuse_slot = bucket * kSlotsPerBucket + s;
      }
    }
    const uint64_t empty = MatchBytes(word, kEmptyTag);
    if (empty != 0) {
      size_t slot;
      if (reuse_slot != static_cast<size_t>(-1)) {
        slot = reuse_slot;  // recycle the tombstone; used_ unchanged
      } else {
        const size_t s = static_cast<size_t>(__builtin_ctzll(empty)) >> 3;
        slot = bucket * kSlotsPerBucket + s;
        ++used_;
      }
      SetTag(&tags_[slot / kSlotsPerBucket], slot % kSlotsPerBucket, tag);
      PlaceKey(slot, key, /*copy_ids=*/true);
      payloads_[slot] = fresh_payload;
      ++live_;
      return fresh_payload;
    }
  }
}

bool FlatIdTable::Erase(const ValueId* key) {
  if (tags_.empty()) return false;
  const uint64_t hash = Hash(key);
  const uint64_t want = kLowBytes * OccupiedTag(hash);
  const size_t mask = tags_.size() - 1;
  size_t bucket = hash & mask;
  for (size_t step = 1;; bucket = (bucket + step++) & mask) {
    const uint64_t word = tags_[bucket];
    uint64_t match = ZeroBytes(word ^ want);
    while (match != 0) {
      const size_t s = static_cast<size_t>(__builtin_ctzll(match)) >> 3;
      const size_t slot = bucket * kSlotsPerBucket + s;
      if (KeyEquals(slot, key)) {
        SetTag(&tags_[bucket], s, kTombTag);
        payloads_[slot] = kNotFound;
        --live_;  // used_ stays: the tombstone still lengthens probes
        return true;
      }
      match &= match - 1;
    }
    if (MatchBytes(word, kEmptyTag) != 0) return false;
  }
}

void FlatIdTable::Rehash(size_t min_live) {
  FlatIdTable bigger;
  bigger.arity_ = arity_;
  // Doubling the *live* count (not used_) purges tombstone pressure
  // without growing a mostly-dead table.
  bigger.Reset(arity_, min_live * 2);
  bigger.arena_ = std::move(arena_);
  for (size_t bucket = 0; bucket < tags_.size(); ++bucket) {
    const uint64_t word = tags_[bucket];
    for (size_t s = 0; s < kSlotsPerBucket; ++s) {
      const uint8_t tag = TagAt(word, s);
      if (tag == kEmptyTag || tag == kTombTag) continue;
      const size_t slot = bucket * kSlotsPerBucket + s;
      const ValueId* key = arity_ <= kInlineArity
                               ? &slot_keys_[slot * SlotStride()]
                               : &bigger.arena_[static_cast<size_t>(
                                                    slot_keys_[slot]) *
                                                arity_];
      const uint64_t hash = bigger.Hash(key);
      const size_t mask = bigger.tags_.size() - 1;
      size_t b = hash & mask;
      for (size_t step = 1;; b = (b + step++) & mask) {
        const uint64_t empty = MatchBytes(bigger.tags_[b], kEmptyTag);
        if (empty == 0) continue;
        const size_t ns = static_cast<size_t>(__builtin_ctzll(empty)) >> 3;
        const size_t nslot = b * kSlotsPerBucket + ns;
        SetTag(&bigger.tags_[b], ns, OccupiedTag(hash));
        if (arity_ <= kInlineArity) {
          bigger.PlaceKey(nslot, key, /*copy_ids=*/true);
        } else {
          bigger.slot_keys_[nslot] = slot_keys_[slot];  // same arena run
        }
        bigger.payloads_[nslot] = payloads_[slot];
        break;
      }
    }
  }
  bigger.live_ = live_;
  bigger.used_ = live_;
  *this = std::move(bigger);
}

FlatKeyIndex::FlatKeyIndex(const Relation& rel, std::vector<AttrId> attrs)
    : attrs_(std::move(attrs)), pool_(rel.pool()) {
  std::vector<const IdColumn*> cols;
  cols.reserve(attrs_.size());
  for (AttrId a : attrs_) cols.push_back(&rel.Column(a));
  table_.Reset(attrs_.size(), rel.size());

  // Pass 1: assign a dense ordinal per distinct key and count its rows.
  IdKey key(attrs_.size());
  std::vector<uint32_t> row_ordinal(rel.size());
  std::vector<size_t> counts;
  for (size_t i = 0; i < rel.size(); ++i) {
    for (size_t k = 0; k < cols.size(); ++k) key[k] = (*cols[k])[i];
    const uint32_t fresh = static_cast<uint32_t>(counts.size());
    const uint32_t ordinal = table_.InsertOrGet(key.data(), fresh);
    if (ordinal == fresh) counts.push_back(0);
    ++counts[ordinal];
    row_ordinal[i] = ordinal;
  }

  // Pass 2: prefix-sum the counts into arena offsets, then scatter rows
  // in ascending order, so each key's postings are ascending.
  offsets_.assign(counts.size() + 1, 0);
  for (size_t k = 0; k < counts.size(); ++k) {
    offsets_[k + 1] = offsets_[k] + counts[k];
  }
  postings_.resize(rel.size());
  std::vector<size_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (size_t i = 0; i < rel.size(); ++i) {
    postings_[cursor[row_ordinal[i]]++] = i;
  }
}

RowSpan FlatKeyIndex::Lookup(const std::vector<Value>& values) const {
  if (pool_ == nullptr) return RowSpan();  // default-constructed index
  IdKey key(values.size());
  for (size_t k = 0; k < values.size(); ++k) {
    ValueId id = pool_->Find(values[k]);
    if (id == kInvalidValueId) return RowSpan();
    key[k] = id;
  }
  const uint32_t payload = table_.Find(key.data());
  return payload == FlatIdTable::kNotFound ? RowSpan() : Rows(payload);
}

RowSpan FlatKeyIndex::LookupTuple(const Tuple& t,
                                  const std::vector<AttrId>& probe_attrs,
                                  PoolBridge* bridge) const {
  if (pool_ == nullptr) return RowSpan();  // default-constructed index
  // Probes run in tight saturation loops; a thread-local scratch key
  // keeps its capacity across calls so no probe allocates.
  thread_local IdKey key;
  if (!ProjectIds(t, probe_attrs, pool_.get(), bridge, &key)) {
    return RowSpan();
  }
  const uint32_t payload = table_.Find(key.data());
  return payload == FlatIdTable::kNotFound ? RowSpan() : Rows(payload);
}

}  // namespace certfix
