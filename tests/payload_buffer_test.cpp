// PayloadBuffer aliasing semantics: refcounted sharing, copy-on-write
// detach, CRC generation caching, and the zero-copy stripe/replica
// paths built on top of them.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#include "common/buffer.hpp"
#include "common/checksum.hpp"
#include "common/slab.hpp"
#include "erasure/codec.hpp"
#include "resilience/primitives.hpp"
#include "staging/object.hpp"
#include "staging/object_store.hpp"

namespace corec {
namespace {

using staging::DataObject;
using staging::ObjectDescriptor;
using staging::ObjectStore;
using staging::StoredKind;

Bytes pattern_bytes(std::size_t n, std::uint8_t seed = 1) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>(seed + i * 7);
  }
  return b;
}

ObjectDescriptor desc(VarId var) {
  return {var, 0, geom::BoundingBox::line(0, 63), staging::kWholeObject};
}

TEST(PayloadBuffer, CopyBumpsRefcountWithoutAllocating) {
  payload_metrics().reset();
  auto buf = PayloadBuffer::wrap(pattern_bytes(256));
  EXPECT_EQ(payload_metrics().allocations.load(), 1u);
  EXPECT_EQ(payload_metrics().bytes_copied.load(), 0u);

  PayloadBuffer a = buf;
  PayloadBuffer b = buf;
  EXPECT_TRUE(a.shares_with(buf));
  EXPECT_TRUE(b.shares_with(a));
  EXPECT_EQ(buf.use_count(), 3);
  // N-way "replication" of the payload: still one backing store.
  EXPECT_EQ(payload_metrics().allocations.load(), 1u);
  EXPECT_EQ(payload_metrics().bytes_copied.load(), 0u);
  EXPECT_EQ(a, b);
}

TEST(PayloadBuffer, SlicesShareTheBackingStore) {
  auto buf = PayloadBuffer::wrap(pattern_bytes(64));
  auto mid = buf.slice(16, 32);
  EXPECT_EQ(mid.size(), 32u);
  EXPECT_TRUE(mid.shares_with(buf));
  EXPECT_EQ(mid.data(), buf.data() + 16);
  EXPECT_EQ(mid[0], buf[16]);

  // Slice-of-slice composes offsets; out-of-range lengths clamp.
  auto tail = mid.slice(24, 100);
  EXPECT_EQ(tail.size(), 8u);
  EXPECT_EQ(tail.data(), buf.data() + 40);
  EXPECT_TRUE(buf.slice(64, 4).empty());
  EXPECT_TRUE(buf.slice(10, 0).empty());
}

TEST(PayloadBuffer, MutationDetachesAndLeavesSiblingsIntact) {
  payload_metrics().reset();
  auto original = pattern_bytes(128);
  auto a = PayloadBuffer::wrap(Bytes(original));
  PayloadBuffer b = a;

  MutableByteSpan w = b.mutable_span();
  w[0] ^= 0xFF;
  EXPECT_EQ(payload_metrics().cow_detaches.load(), 1u);
  EXPECT_FALSE(a.shares_with(b));
  EXPECT_EQ(a, original) << "sibling view must not see the mutation";
  EXPECT_NE(b[0], original[0]);
}

TEST(PayloadBuffer, SoleOwnerMutatesInPlaceButBumpsGeneration) {
  payload_metrics().reset();
  auto a = PayloadBuffer::wrap(pattern_bytes(64));
  const std::uint8_t* before = a.data();
  std::uint64_t gen = a.generation();
  a.mutable_span()[3] = 0;
  EXPECT_EQ(payload_metrics().cow_detaches.load(), 0u);
  EXPECT_EQ(a.data(), before) << "sole full-range owner mutates in place";
  EXPECT_GT(a.generation(), gen);
}

TEST(PayloadBuffer, PartialViewDetachesEvenWhenSoleOwner) {
  payload_metrics().reset();
  auto whole = PayloadBuffer::wrap(pattern_bytes(64));
  auto view = whole.slice(8, 16);
  whole = PayloadBuffer();  // view is now the store's only user
  EXPECT_EQ(view.use_count(), 1);
  view.mutable_span()[0] = 0xAB;
  // Writing through a partial view must never scribble on bytes
  // outside the view, so it still takes a private copy.
  EXPECT_EQ(payload_metrics().cow_detaches.load(), 1u);
  EXPECT_EQ(view.size(), 16u);
  EXPECT_EQ(view[0], 0xAB);
}

TEST(PayloadBuffer, CrcCachedUntilGenerationChanges) {
  payload_metrics().reset();
  auto a = PayloadBuffer::wrap(pattern_bytes(512));
  std::uint32_t crc1 = a.crc32c();
  std::uint32_t crc2 = a.crc32c();
  EXPECT_EQ(crc1, crc2);
  EXPECT_EQ(payload_metrics().crc_computed.load(), 1u);
  EXPECT_EQ(payload_metrics().crc_cache_hits.load(), 1u);

  a.mutable_span()[100] ^= 0x01;
  std::uint32_t crc3 = a.crc32c();
  EXPECT_NE(crc3, crc1) << "mutation must invalidate the cached tag";
  EXPECT_EQ(payload_metrics().crc_computed.load(), 2u);
}

TEST(PayloadBuffer, SharedViewsCacheCrcIndependently) {
  payload_metrics().reset();
  auto a = PayloadBuffer::wrap(pattern_bytes(256));
  PayloadBuffer b = a;
  std::uint32_t tag = a.crc32c();
  // b is a distinct view object: its cache starts cold even though the
  // store (and thus the value) is shared.
  EXPECT_EQ(b.crc32c(), tag);
  EXPECT_EQ(payload_metrics().crc_computed.load(), 2u);
  EXPECT_EQ(b.crc32c(), tag);
  EXPECT_EQ(payload_metrics().crc_cache_hits.load(), 1u);
}

TEST(PayloadBuffer, CopyWithCrcCachesTheTagOfTheBytesItWrote) {
  payload_metrics().reset();
  const Bytes src = pattern_bytes(40000);
  auto buf = PayloadBuffer::copy_with_crc(src);
  EXPECT_EQ(buf, src);
  EXPECT_EQ(payload_metrics().crc_computed.load(), 1u);
  EXPECT_EQ(payload_metrics().bytes_copied.load(), 0u);
  EXPECT_EQ(buf.crc32c(), crc32c(src));
  EXPECT_EQ(payload_metrics().crc_computed.load(), 1u);
  EXPECT_EQ(payload_metrics().crc_cache_hits.load(), 1u);
  // The seeded tag obeys the generation rule like a computed one.
  buf.mutable_span()[7] ^= 0x10;
  EXPECT_NE(buf.crc32c(), crc32c(src));
  EXPECT_EQ(payload_metrics().crc_computed.load(), 2u);
  EXPECT_TRUE(PayloadBuffer::copy_with_crc(ByteSpan()).empty());
}

TEST(PayloadBuffer, EmptyBufferEdges) {
  PayloadBuffer empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.crc32c(), 0u);
  EXPECT_TRUE(empty.to_bytes().empty());
  EXPECT_TRUE(empty.slice(0, 10).empty());
  EXPECT_EQ(empty.use_count(), 0);
  EXPECT_TRUE(empty.mutable_span().empty());

  auto wrapped = PayloadBuffer::wrap(Bytes{});
  EXPECT_TRUE(wrapped.empty());
  EXPECT_EQ(wrapped.crc32c(), 0u);
  EXPECT_EQ(wrapped, empty);
}

TEST(PayloadBuffer, WireClaimedChecksumNeverSeedsTheCache) {
  payload_metrics().reset();
  auto buf = PayloadBuffer::wrap(pattern_bytes(128));
  // A directory-claimed tag is stamped on the object without teaching
  // the buffer's cache — a later probe must genuinely re-checksum.
  auto obj = DataObject::with_checksum(desc(7), buf, /*crc=*/0xDEADBEEF);
  EXPECT_EQ(obj.checksum, 0xDEADBEEFu);
  EXPECT_EQ(payload_metrics().crc_computed.load(), 0u);
  EXPECT_NE(obj.data.crc32c(), 0xDEADBEEFu);
  EXPECT_EQ(payload_metrics().crc_computed.load(), 1u);
}

TEST(ObjectStore, CorruptingOneReplicaNeverAliasesSiblings) {
  auto payload = pattern_bytes(96, 5);
  auto obj = DataObject::real(desc(3), PayloadBuffer::wrap(Bytes(payload)));

  // Replica placement: the same object lands in three stores with the
  // payload shared (refcount 3, one allocation).
  ObjectStore primary, replica1, replica2;
  ASSERT_TRUE(primary.put(obj, StoredKind::kPrimary).ok());
  ASSERT_TRUE(replica1.put(obj, StoredKind::kReplica).ok());
  ASSERT_TRUE(replica2.put(obj, StoredKind::kReplica).ok());
  EXPECT_GE(obj.data.use_count(), 4);

  ASSERT_TRUE(replica1.flip_byte(obj.desc, 17));
  const auto* r1 = replica1.find(obj.desc);
  const auto* r2 = replica2.find(obj.desc);
  const auto* pr = primary.find(obj.desc);
  ASSERT_NE(r1, nullptr);
  ASSERT_NE(r2, nullptr);
  ASSERT_NE(pr, nullptr);
  EXPECT_FALSE(r1->object.data == payload) << "target replica corrupted";
  EXPECT_EQ(r2->object.data, payload) << "sibling replica aliased!";
  EXPECT_EQ(pr->object.data, payload) << "primary aliased!";
  EXPECT_EQ(obj.data, payload) << "source buffer aliased!";

  // Determinism on degenerate targets: phantom and zero-length objects
  // are no-ops, not crashes.
  ObjectStore other;
  auto ph = DataObject::make_phantom(desc(4), 4096);
  ASSERT_TRUE(other.put(ph, StoredKind::kPrimary).ok());
  EXPECT_FALSE(other.flip_byte(ph.desc, 0));
  auto zero = DataObject::real(desc(5), Bytes{});
  ASSERT_TRUE(other.put(zero, StoredKind::kPrimary).ok());
  EXPECT_FALSE(other.flip_byte(zero.desc, 9));
  EXPECT_FALSE(other.flip_byte(desc(99), 0));  // absent
}

TEST(StripePayload, DataShardsAreZeroCopyViewsAndDecodable) {
  const std::size_t k = 4, m = 2;
  auto codec = std::move(erasure::make_reed_solomon(k, m)).value();
  auto payload = pattern_bytes(4 * 1024 - 13, 9);  // forces a padded tail
  auto obj = DataObject::real(desc(11), PayloadBuffer::wrap(Bytes(payload)));
  const std::size_t chunk = (payload.size() + k - 1) / k;
  {
    // Dirty a block of the tail chunk's size class and hand it back to
    // this thread's magazine, so the tail's padding must be zeroed.
    slab::Block dirty = slab::allocate(chunk);
    std::memset(dirty.data(), 0xA5, dirty.capacity());
  }

  payload_metrics().reset();
  auto stripe = resilience::make_stripe_payload(*codec, obj, k, m);
  ASSERT_EQ(stripe.shards.size(), k + m);
  EXPECT_EQ(stripe.chunk_size, chunk);
  const ByteSpan tail = stripe.shards[k - 1].data.span();
  for (std::size_t i = payload.size() - (k - 1) * chunk; i < chunk; ++i) {
    EXPECT_EQ(tail[i], 0u) << "tail padding byte " << i;
  }

  // All full data chunks are views into obj's backing store; only the
  // padded tail chunk and the parity block allocate.
  for (std::size_t i = 0; i + 1 < k; ++i) {
    EXPECT_TRUE(stripe.shards[i].data.shares_with(obj.data))
        << "data shard " << i << " was copied";
  }
  EXPECT_FALSE(stripe.shards[k - 1].data.shares_with(obj.data));
  EXPECT_TRUE(stripe.shards[k].data.shares_with(stripe.shards[k + 1].data))
      << "parity shards should share one allocation";
  EXPECT_EQ(payload_metrics().allocations.load(), 2u);
  EXPECT_EQ(payload_metrics().cow_detaches.load(), 0u)
      << "encoding reads shared views; nothing may detach";

  // Shard checksums really cover the shard bytes.
  for (const auto& shard : stripe.shards) {
    EXPECT_EQ(shard.checksum, crc32c(shard.data.span()));
    EXPECT_EQ(shard.logical_size, chunk);
  }

  // The stripe decodes: drop m shards, recover, compare to source.
  std::vector<Bytes> blocks;
  for (const auto& shard : stripe.shards) blocks.push_back(shard.data.to_bytes());
  blocks[1].assign(chunk, 0);
  blocks[k].assign(chunk, 0);
  std::vector<MutableByteSpan> spans(blocks.begin(), blocks.end());
  ASSERT_TRUE(codec->decode(spans, {1, k}).ok());
  Bytes rebuilt;
  for (std::size_t i = 0; i < k; ++i) {
    rebuilt.insert(rebuilt.end(), blocks[i].begin(), blocks[i].end());
  }
  rebuilt.resize(payload.size());
  EXPECT_EQ(rebuilt, payload);
}

TEST(PayloadBuffer, ConcurrentReadersOfDistinctViews) {
  // Views may be copied/sliced/read from many threads at once as long
  // as each individual view object stays thread-private. Run under
  // tsan to prove the refcount/generation contract.
  auto buf = PayloadBuffer::wrap(pattern_bytes(64 * 1024, 17));
  std::vector<std::thread> threads;
  std::atomic<std::uint64_t> sum{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&buf, &sum, t] {
      PayloadBuffer mine = buf;  // private view, shared store
      auto view = mine.slice(static_cast<std::size_t>(t) * 4096, 4096);
      std::uint64_t local = view.crc32c();
      for (std::size_t i = 0; i < view.size(); i += 512) local += view[i];
      sum.fetch_add(local, std::memory_order_relaxed);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_NE(sum.load(), 0u);
  EXPECT_EQ(buf.use_count(), 1);
}

TEST(PayloadBuffer, InPlaceWriteAfterViewDroppedOnAnotherThread) {
  // One thread reads a view and drops it; another then writes the
  // remaining sole view. mutable_span() decides to write in place with
  // an acquiring check, so the write is ordered after the other
  // thread's reads. Under tsan, deciding by a bare use_count() load
  // reports a race here.
  payload_metrics().reset();
  const Bytes original = pattern_bytes(4096, 3);
  auto buf = PayloadBuffer::wrap(Bytes(original));
  const std::uint8_t* before = buf.data();
  std::atomic<std::uint64_t> seen{0};
  std::thread reader([view = buf, &seen]() mutable {
    std::uint64_t local = 0;
    for (std::size_t i = 0; i < view.size(); ++i) local += view[i];
    seen.store(local, std::memory_order_relaxed);
    view = PayloadBuffer();
  });
  // Only a relaxed count load waits for the drop, so nothing else
  // orders the reader's accesses before the write below.
  while (buf.use_count() > 1) std::this_thread::yield();
  MutableByteSpan w = buf.mutable_span();
  std::memset(w.data(), 0, w.size());
  reader.join();

  EXPECT_EQ(payload_metrics().cow_detaches.load(), 0u);
  EXPECT_EQ(buf.data(), before) << "sole full-range owner writes in place";
  std::uint64_t expect = 0;
  for (std::uint8_t b : original) expect += b;
  EXPECT_EQ(seen.load(), expect) << "the reader saw the bytes before the write";
  EXPECT_EQ(buf, Bytes(4096, 0));
}

}  // namespace
}  // namespace corec
