// ProbeCache contract: keys are raw IEEE-754 bit patterns with -0.0
// canonicalized to +0.0 (numerically equal zeros are one probe point),
// hash collisions are resolved by exact key comparison (regression-tested
// with a degenerate hash), and a bounded cache evicts in deterministic
// FIFO order.
#include "core/probe_cache.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>

#include "linalg/vector.hpp"

namespace mayo::core {
namespace {

using linalg::Vector;

ProbeCache::Key key_of(const Vector& v) {
  ProbeCache::Key key;
  ProbeCache::append_bits(key, v);
  return key;
}

std::uint64_t degenerate_hash(const std::uint64_t*, std::size_t) {
  return 42;  // every key collides
}

TEST(ProbeCache, FindsExactKeyAndMissesOthers) {
  ProbeCache cache;
  cache.insert(key_of(Vector{1.0, 2.0}), Vector{10.0});
  ASSERT_NE(cache.find(key_of(Vector{1.0, 2.0})), nullptr);
  EXPECT_EQ((*cache.find(key_of(Vector{1.0, 2.0})))[0], 10.0);
  EXPECT_EQ(cache.find(key_of(Vector{1.0, 2.5})), nullptr);
  EXPECT_EQ(cache.find(key_of(Vector{1.0})), nullptr);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ProbeCache, SignedZerosShareOneKey) {
  // Regression: raw bit-pattern keys used to treat +0.0 and -0.0 as two
  // probes, so a -0.0 coordinate (e.g. the product of a negated exact
  // zero) re-simulated a point the cache already held.  The zeros compare
  // equal and every model evaluates identically at them: one key.
  EXPECT_EQ(ProbeCache::word_of(-0.0), ProbeCache::word_of(0.0));
  EXPECT_EQ(ProbeCache::word_of(0.0), 0u);
  ProbeCache cache;
  cache.insert(key_of(Vector{0.0}), Vector{1.0});
  const Vector* hit = cache.find(key_of(Vector{-0.0}));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ((*hit)[0], 1.0);
  // Mixed-sign zeros anywhere in a multi-word key hit too.
  cache.insert(key_of(Vector{-0.0, 3.0}), Vector{2.0});
  ASSERT_NE(cache.find(key_of(Vector{0.0, 3.0})), nullptr);
  EXPECT_EQ((*cache.find(key_of(Vector{0.0, 3.0})))[0], 2.0);
  // Nonzero values keep their exact bit patterns (no wider collapsing):
  // the smallest subnormal is still distinct from zero.
  EXPECT_NE(ProbeCache::word_of(5e-324), ProbeCache::word_of(0.0));
  EXPECT_EQ(cache.find(key_of(Vector{5e-324})), nullptr);
}

TEST(ProbeCache, AppendBitsConcatenates) {
  ProbeCache::Key key;
  ProbeCache::append_bits(key, Vector{1.0});
  const double tail[2] = {2.0, 3.0};
  ProbeCache::append_bits(key, tail, 2);
  EXPECT_EQ(key, key_of(Vector{1.0, 2.0, 3.0}));
}

TEST(ProbeCache, CollisionsResolvedByExactComparison) {
  // With the degenerate hash every key lands in one bucket; lookups must
  // still return exactly the matching key's value.
  ProbeCache cache(0, &degenerate_hash);
  for (double x : {1.0, 2.0, 3.0, 4.0})
    cache.insert(key_of(Vector{x}), Vector{10.0 * x});
  EXPECT_EQ(cache.size(), 4u);
  for (double x : {1.0, 2.0, 3.0, 4.0}) {
    const Vector* hit = cache.find(key_of(Vector{x}));
    ASSERT_NE(hit, nullptr) << x;
    EXPECT_EQ((*hit)[0], 10.0 * x);
  }
  EXPECT_EQ(cache.find(key_of(Vector{5.0})), nullptr);
}

TEST(ProbeCache, FifoEvictionIsDeterministic) {
  ProbeCache cache(3);
  for (double x : {1.0, 2.0, 3.0})
    cache.insert(key_of(Vector{x}), Vector{x});
  EXPECT_EQ(cache.size(), 3u);
  // Fourth insert evicts the oldest (1.0), regardless of hash layout.
  cache.insert(key_of(Vector{4.0}), Vector{4.0});
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.find(key_of(Vector{1.0})), nullptr);
  EXPECT_NE(cache.find(key_of(Vector{2.0})), nullptr);
  EXPECT_NE(cache.find(key_of(Vector{3.0})), nullptr);
  EXPECT_NE(cache.find(key_of(Vector{4.0})), nullptr);
  // And the next one evicts 2.0.
  cache.insert(key_of(Vector{5.0}), Vector{5.0});
  EXPECT_EQ(cache.find(key_of(Vector{2.0})), nullptr);
  EXPECT_NE(cache.find(key_of(Vector{3.0})), nullptr);
}

TEST(ProbeCache, FifoEvictionUnderFullCollision) {
  // Eviction picks the oldest *entry*, even when every key shares one
  // bucket (entries within a bucket are in insertion order).
  ProbeCache cache(2, &degenerate_hash);
  cache.insert(key_of(Vector{1.0}), Vector{1.0});
  cache.insert(key_of(Vector{2.0}), Vector{2.0});
  cache.insert(key_of(Vector{3.0}), Vector{3.0});
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.find(key_of(Vector{1.0})), nullptr);
  EXPECT_NE(cache.find(key_of(Vector{2.0})), nullptr);
  EXPECT_NE(cache.find(key_of(Vector{3.0})), nullptr);
}

TEST(ProbeCache, InsertReturnsTheStoredValue) {
  // The returned reference is the cached value itself: writes through it
  // are what a later find() sees.
  ProbeCache cache;
  Vector& stored = cache.insert(key_of(Vector{1.0}), Vector{10.0});
  stored[0] = 11.0;
  EXPECT_EQ(cache.find(key_of(Vector{1.0})), &stored);
  EXPECT_EQ((*cache.find(key_of(Vector{1.0})))[0], 11.0);

  // A move-only owning value (the opamp models cache unique_ptr design
  // contexts) keeps its pointee in place while the cache grows, even when
  // every key shares one bucket whose storage reallocates.
  BasicProbeCache<std::unique_ptr<int>> owning(0, &degenerate_hash);
  int* first =
      owning.insert(key_of(Vector{1.0}), std::make_unique<int>(7)).get();
  for (double x : {2.0, 3.0, 4.0, 5.0})
    owning.insert(key_of(Vector{x}), std::make_unique<int>(0));
  EXPECT_EQ(owning.find(key_of(Vector{1.0}))->get(), first);
  EXPECT_EQ(*first, 7);
}

TEST(ProbeCache, ZeroCapacityIsUnlimited) {
  ProbeCache cache;
  EXPECT_EQ(cache.capacity(), 0u);
  for (int i = 0; i < 100; ++i)
    cache.insert(key_of(Vector{static_cast<double>(i)}), Vector{1.0});
  EXPECT_EQ(cache.size(), 100u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.find(key_of(Vector{1.0})), nullptr);
}

}  // namespace
}  // namespace mayo::core
