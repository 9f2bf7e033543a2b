/// \file flat_key_index.h
/// \brief Cache-conscious open-addressing index over interned IdKeys.
///
/// A node-based std::unordered_map costs one pointer chase plus a heap
/// node per probe — the dominant cost of the repair hot path once values
/// are interned. This file is the flat index every master lookup uses:
///
///  * FlatIdTable — an open-addressing hash table over fixed-arity
///    ValueId keys. Slots are grouped eight to a cache-line-sized
///    bucket with a one-byte tag per slot packed into a single uint64
///    control word, so a probe inspects one control word (SWAR byte
///    match) and touches key memory only on a tag hit. Short keys
///    (arity <= 4) are stored inline in the slot array; longer keys
///    live in a contiguous arena the slot points into. Deletion is by
///    tombstone; the table resizes at 7/8 occupancy.
///
///  * FlatKeyIndex — tm[Xm] -> master rows ("a hash table that stores
///    tm[Xm] as a key", Sect. 5.1) on a FlatIdTable, with all postings in
///    one contiguous arena instead of a std::vector per key. Lookups
///    (Lookup / LookupTuple, with PoolBridge translation for foreign
///    pools) return a RowSpan view into that arena, rows ascending.

#ifndef CERTFIX_RELATIONAL_FLAT_KEY_INDEX_H_
#define CERTFIX_RELATIONAL_FLAT_KEY_INDEX_H_

#include <cstdint>
#include <vector>

#include "relational/relation.h"

namespace certfix {

/// \brief Non-owning view of a run of row positions.
///
/// Lookup answers are runs inside the postings arena (or a caller's
/// vector, via the converting constructor). Valid only while the
/// underlying storage lives.
class RowSpan {
 public:
  RowSpan() = default;
  RowSpan(const size_t* data, size_t size) : data_(data), size_(size) {}
  /* implicit */ RowSpan(const std::vector<size_t>& rows)
      : data_(rows.data()), size_(rows.size()) {}

  const size_t* begin() const { return data_; }
  const size_t* end() const { return data_ + size_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t operator[](size_t i) const { return data_[i]; }

 private:
  const size_t* data_ = nullptr;
  size_t size_ = 0;
};

/// \brief Open-addressing hash table: fixed-arity ValueId key -> uint32.
///
/// The payload is an opaque uint32 chosen by the caller (a postings
/// ordinal, a summary ordinal, a memo slot). kNotFound is reserved.
/// Not thread-safe for writes; concurrent reads are safe once built.
class FlatIdTable {
 public:
  static constexpr uint32_t kNotFound = 0xFFFFFFFFu;
  static constexpr size_t kSlotsPerBucket = 8;
  /// Keys up to this arity are stored inline in the slot array.
  static constexpr size_t kInlineArity = 4;

  FlatIdTable() = default;
  explicit FlatIdTable(size_t arity, size_t expected_keys = 0) {
    Reset(arity, expected_keys);
  }

  /// Drops all entries (and the key arena) and re-keys the table on
  /// `arity` ids, pre-sizing for `expected_keys` live keys.
  void Reset(size_t arity, size_t expected_keys = 0);

  /// Hash of `key` (arity() ids). Exposed so batched callers can hash
  /// once, prefetch, and later resolve via FindHashed.
  uint64_t Hash(const ValueId* key) const;

  /// Prefetches the control word + slots of the home bucket for `hash`.
  void Prefetch(uint64_t hash) const;

  /// Payload stored under `key`, or kNotFound.
  uint32_t Find(const ValueId* key) const { return FindHashed(Hash(key), key); }
  uint32_t FindHashed(uint64_t hash, const ValueId* key) const;

  /// Payload already stored under `key` if present; otherwise inserts
  /// `fresh_payload` and returns it. `fresh_payload` must not be
  /// kNotFound.
  uint32_t InsertOrGet(const ValueId* key, uint32_t fresh_payload);

  /// Tombstones `key`. Returns false when the key is absent. Arena
  /// storage of erased long keys is reclaimed only by Reset.
  bool Erase(const ValueId* key);

  size_t size() const { return live_; }
  size_t arity() const { return arity_; }
  size_t num_buckets() const { return tags_.size(); }

 private:
  size_t SlotStride() const {
    // Arity 0 (a key over no attributes) still needs one slot word so
    // slot indexing stays well-formed; the ids are never read.
    return (arity_ == 0 || arity_ > kInlineArity) ? 1 : arity_;
  }
  const ValueId* SlotKey(size_t slot) const;
  void PlaceKey(size_t slot, const ValueId* key, bool copy_ids);
  bool KeyEquals(size_t slot, const ValueId* key) const;
  void Rehash(size_t min_live);

  size_t arity_ = 0;
  size_t live_ = 0;  ///< occupied slots
  size_t used_ = 0;  ///< occupied + tombstoned slots (drives resize)
  std::vector<uint64_t> tags_;      ///< one control word per bucket
  std::vector<ValueId> slot_keys_;  ///< inline ids, or arena offsets
  std::vector<uint32_t> payloads_;  ///< one per slot
  std::vector<ValueId> arena_;      ///< long-key storage, arity_ each
};

/// \brief Index of a relation's rows by their projection on a key list
/// (see file comment).
///
/// Keys are IdKeys in the indexed relation's pool space, so building the
/// index scans id columns (no string rendering), and probes by tuples
/// sharing the pool are pure integer hashing. Probes from another pool
/// translate value-by-value — through a caller-provided PoolBridge when
/// available (amortizing each distinct value to one hash), else via
/// ValuePool::Find; a probe value absent from the indexed pool answers
/// "no rows" without touching the table.
class FlatKeyIndex {
 public:
  FlatKeyIndex() = default;
  /// Builds the index over `rel` keyed by the projection on `attrs`.
  FlatKeyIndex(const Relation& rel, std::vector<AttrId> attrs);

  /// Row positions whose projection equals `values` (list order matters).
  RowSpan Lookup(const std::vector<Value>& values) const;

  /// Row positions matching the projection of `t` (a tuple over another
  /// schema) on `probe_attrs`; |probe_attrs| must equal the key arity.
  /// `bridge`, when given, must translate t's pool into the indexed pool.
  RowSpan LookupTuple(const Tuple& t, const std::vector<AttrId>& probe_attrs,
                      PoolBridge* bridge = nullptr) const;

  const std::vector<AttrId>& key_attrs() const { return attrs_; }
  size_t num_keys() const { return table_.size(); }
  /// The pool the keys are interned in (the indexed relation's pool).
  const PoolPtr& pool() const { return pool_; }

 private:
  /// Postings run of a payload stored in table_.
  RowSpan Rows(uint32_t payload) const {
    return RowSpan(postings_.data() + offsets_[payload],
                   offsets_[payload + 1] - offsets_[payload]);
  }

  std::vector<AttrId> attrs_;
  PoolPtr pool_;
  FlatIdTable table_;
  std::vector<size_t> offsets_;   ///< per payload, +1 sentinel
  std::vector<size_t> postings_;  ///< all rows, grouped by key
};

}  // namespace certfix

#endif  // CERTFIX_RELATIONAL_FLAT_KEY_INDEX_H_
