// mayo/core -- memoization cache for evaluation probes.
//
// Keys are the raw IEEE-754 bit patterns of the probed argument vectors
// (d, s_hat, theta), concatenated as uint64 words: bitwise-identical
// arguments hit, everything else misses.  The one canonicalization is
// -0.0 -> +0.0: the two zeros compare equal and every model evaluates
// identically at them, so raw-bit keys would split one semantic probe
// into two cache entries (and charge the simulation twice).  Hashing the
// words directly replaces the previous scheme of re-concatenating all
// arguments into a fresh std::vector<double> per probe -- key construction
// for a lookup now reuses one scratch buffer and touches no heap.
//
// Collisions are handled by exact key comparison inside the hash bucket.
// The hash function is injectable so the collision path is testable with a
// degenerate hash (see test_core_probe_cache.cpp).
//
// An optional capacity bounds memory: insertion beyond it evicts the
// oldest-inserted entry (deterministic FIFO; eviction order is a pure
// function of the insertion sequence, never of pointer values or time).
// Capacity 0 (the default) means unlimited, the historical behaviour.
//
// The stored value type is a template parameter: the Evaluator keeps a
// performance row plus the mask of analyses it holds, and completes a
// row in place (mutable find), so completion never moves its FIFO slot;
// the opamp models keep their per-(d, theta) design contexts behind
// unique_ptr, so a context never moves while the cache grows.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <unordered_map>
#include <utility>
#include <vector>

#include "linalg/vector.hpp"
#include "obs/obs.hpp"

namespace mayo::core {

template <class Value>
class BasicProbeCache {
 public:
  using Key = std::vector<std::uint64_t>;
  using HashFn = std::uint64_t (*)(const std::uint64_t* words,
                                   std::size_t count);

  /// FNV-1a over the bytes of the key words (the default hash).
  static std::uint64_t fnv1a(const std::uint64_t* words, std::size_t count) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::size_t w = 0; w < count; ++w) {
      for (int i = 0; i < 8; ++i) {
        h ^= (words[w] >> (8 * i)) & 0xFF;
        h *= 0x100000001B3ull;
      }
    }
    return h;
  }

  /// `counters` receives this cache's hit/miss/eviction events; nullptr
  /// routes to the shared probe-cache group of the global obs registry.
  explicit BasicProbeCache(std::size_t capacity = 0, HashFn hash = nullptr,
                           obs::CacheCounters* counters = nullptr)
      : capacity_(capacity),
        hash_(hash ? hash : &fnv1a),
        counters_(counters ? counters
                           : &obs::registry().counters.probe_cache) {}

  /// Key word of one double: the raw bit pattern, with -0.0 canonicalized
  /// to +0.0 (the zeros are semantically one probe point; see the module
  /// comment).
  static std::uint64_t word_of(double x) {
    std::uint64_t bits;
    std::memcpy(&bits, &x, sizeof(bits));
    return bits == 0x8000000000000000ull ? 0 : bits;
  }

  /// Appends the key words of `v` to `key`.
  static void append_bits(Key& key, const linalg::Vector& v) {
    const std::size_t base = key.size();
    key.resize(base + v.size());
    for (std::size_t i = 0; i < v.size(); ++i) key[base + i] = word_of(v[i]);
  }
  /// Appends the key words of `count` doubles at `p`.
  static void append_bits(Key& key, const double* p, std::size_t count) {
    const std::size_t base = key.size();
    key.resize(base + count);
    for (std::size_t i = 0; i < count; ++i) key[base + i] = word_of(p[i]);
  }

  /// Stored value for `key`, or nullptr.  The pointer is invalidated by the
  /// next insert() or clear().
  const Value* find(const Key& key) const {
    const auto it = buckets_.find(hash_(key.data(), key.size()));
    if (it != buckets_.end()) {
      for (const auto& [stored, value] : it->second) {
        if (stored == key) {
          counters_->hits.add();
          return &value;
        }
      }
    }
    counters_->misses.add();
    return nullptr;
  }
  /// Mutable form: the caller may update the value in place (same key,
  /// same FIFO position).
  Value* find(const Key& key) {
    return const_cast<Value*>(std::as_const(*this).find(key));
  }

  /// Inserts (key, value) and returns the stored value; evicts the oldest
  /// entry when at capacity.  The caller guarantees the key is not already
  /// present (probe-then-insert).  The reference is invalidated like find().
  Value& insert(Key key, Value value) {
    if (capacity_ > 0 && size_ >= capacity_) evict_oldest();
    const std::uint64_t h = hash_(key.data(), key.size());
    auto& stored = buckets_[h].emplace_back(std::move(key), std::move(value));
    if (capacity_ > 0) order_.push_back(h);
    ++size_;
    return stored.second;
  }

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }
  void clear() {
    buckets_.clear();
    order_.clear();
    size_ = 0;
  }

 private:
  void evict_oldest() {
    // Entries within a bucket are appended in insertion order, so the
    // oldest entry of the oldest-inserted hash is the bucket front.
    const std::uint64_t h = order_.front();
    order_.pop_front();
    const auto it = buckets_.find(h);
    it->second.erase(it->second.begin());
    if (it->second.empty()) buckets_.erase(it);
    --size_;
    counters_->evictions.add();
  }

  std::size_t capacity_;
  HashFn hash_;
  obs::CacheCounters* counters_;
  std::unordered_map<std::uint64_t, std::vector<std::pair<Key, Value>>>
      buckets_;
  std::deque<std::uint64_t> order_;  ///< insertion order (only if bounded)
  std::size_t size_ = 0;
};

/// The cache of plain value vectors (constraint values c(d)).
using ProbeCache = BasicProbeCache<linalg::Vector>;

}  // namespace mayo::core
