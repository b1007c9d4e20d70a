// Metadata wire format: descriptor/location round trips, directory
// snapshot/restore, and rejection of malformed input.
#include "staging/wire.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace corec::staging {
namespace {

ObjectDescriptor sample_desc() {
  return {7, 42, geom::BoundingBox::cube(-4, 0, 8, 3, 15, 63), 2};
}

ObjectLocation sample_encoded_location() {
  ObjectLocation loc;
  loc.primary = 3;
  loc.protection = Protection::kEncoded;
  loc.stripe_servers = {3, 9, 1, 5};
  loc.k = 3;
  loc.m = 1;
  loc.chunk_size = 4096;
  loc.logical_size = 12000;
  return loc;
}

TEST(Wire, BoxRoundTrip) {
  for (const auto& box :
       {geom::BoundingBox::line(-100, 100),
        geom::BoundingBox::rect(0, 0, 7, 9),
        geom::BoundingBox::cube(-4, 0, 8, 3, 15, 63)}) {
    Bytes buf;
    BufferWriter w(&buf);
    encode_box(box, &w);
    BufferReader r(buf);
    auto decoded = decode_box(&r);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value(), box);
    EXPECT_EQ(r.remaining(), 0u);
  }
}

TEST(Wire, DescriptorRoundTrip) {
  Bytes buf;
  BufferWriter w(&buf);
  encode_descriptor(sample_desc(), &w);
  BufferReader r(buf);
  auto decoded = decode_descriptor(&r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), sample_desc());
}

TEST(Wire, LocationRoundTripEncoded) {
  Bytes buf;
  BufferWriter w(&buf);
  encode_location(sample_encoded_location(), &w);
  BufferReader r(buf);
  auto decoded = decode_location(&r);
  ASSERT_TRUE(decoded.ok());
  const ObjectLocation& loc = decoded.value();
  EXPECT_EQ(loc.primary, 3u);
  EXPECT_EQ(loc.protection, Protection::kEncoded);
  EXPECT_EQ(loc.stripe_servers, (std::vector<ServerId>{3, 9, 1, 5}));
  EXPECT_EQ(loc.k, 3u);
  EXPECT_EQ(loc.m, 1u);
  EXPECT_EQ(loc.chunk_size, 4096u);
  EXPECT_EQ(loc.logical_size, 12000u);
}

TEST(Wire, LocationRoundTripReplicated) {
  ObjectLocation loc;
  loc.primary = 1;
  loc.protection = Protection::kReplicated;
  loc.replicas = {4, 6};
  loc.logical_size = 99;
  Bytes buf;
  BufferWriter w(&buf);
  encode_location(loc, &w);
  BufferReader r(buf);
  auto decoded = decode_location(&r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().replicas, (std::vector<ServerId>{4, 6}));
  EXPECT_TRUE(decoded.value().stripe_servers.empty());
}

TEST(Wire, DirectorySnapshotRestore) {
  Directory dir;
  for (Version v = 0; v < 5; ++v) {
    ObjectDescriptor desc{1, v,
                          geom::BoundingBox::rect(v * 10, 0, v * 10 + 9,
                                                  9),
                          kWholeObject};
    ObjectLocation loc = sample_encoded_location();
    loc.logical_size = 100 + v;
    dir.upsert(desc, loc);
  }
  Bytes snapshot = snapshot_directory(dir);

  Directory restored;
  ASSERT_TRUE(restore_directory(snapshot, &restored).ok());
  EXPECT_EQ(restored.size(), dir.size());
  dir.for_each([&](const ObjectDescriptor& desc,
                   const ObjectLocation& loc) {
    const ObjectLocation* rloc = restored.find(desc);
    ASSERT_NE(rloc, nullptr) << desc.to_string();
    EXPECT_EQ(rloc->logical_size, loc.logical_size);
    EXPECT_EQ(rloc->stripe_servers, loc.stripe_servers);
  });
  // Geometric queries work on the restored directory.
  auto hits = restored.query_latest(
      1, 10, geom::BoundingBox::rect(0, 0, 100, 9));
  EXPECT_EQ(hits.size(), 5u);
}

TEST(Wire, RejectsGarbage) {
  Directory dir;
  Bytes garbage{1, 2, 3, 4, 5, 6, 7, 8, 9};
  EXPECT_FALSE(restore_directory(garbage, &dir).ok());
  EXPECT_EQ(dir.size(), 0u);
}

TEST(Wire, RejectsTruncatedSnapshot) {
  Directory dir;
  dir.upsert(sample_desc(), sample_encoded_location());
  Bytes snapshot = snapshot_directory(dir);
  snapshot.resize(snapshot.size() - 3);
  Directory restored;
  EXPECT_FALSE(restore_directory(snapshot, &restored).ok());
}

TEST(Wire, RejectsTrailingBytes) {
  Directory dir;
  Bytes snapshot = snapshot_directory(dir);
  snapshot.push_back(0xFF);
  Directory restored;
  Status st = restore_directory(snapshot, &restored);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(Wire, RejectsInvertedBoxCorners) {
  Bytes buf;
  BufferWriter w(&buf);
  w.put<std::uint8_t>(1);
  w.put<std::int64_t>(10);
  w.put<std::int64_t>(5);  // hi < lo
  BufferReader r(buf);
  EXPECT_FALSE(decode_box(&r).ok());
}

TEST(Wire, RejectsBadProtectionTag) {
  Bytes buf;
  BufferWriter w(&buf);
  w.put<ServerId>(0);
  w.put<std::uint8_t>(77);  // not a Protection value
  BufferReader r(buf);
  EXPECT_FALSE(decode_location(&r).ok());
}

TEST(Wire, RejectsHostileReplicaCount) {
  // A length field claiming more entries than the buffer can hold must
  // fail fast instead of over-allocating or walking off the end.
  Bytes buf;
  BufferWriter w(&buf);
  w.put<ServerId>(0);
  w.put<std::uint8_t>(
      static_cast<std::uint8_t>(Protection::kReplicated));
  w.put<std::uint32_t>(0xFFFFFFFFu);  // replica count
  BufferReader r(buf);
  auto decoded = decode_location(&r);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(Wire, RejectsDuplicateDescriptorInSnapshot) {
  Directory dir;
  dir.upsert(sample_desc(), sample_encoded_location());
  Bytes snapshot = snapshot_directory(dir);

  // Forge a snapshot naming the same descriptor twice: double the
  // record, patch the count from 1 to 2.
  Bytes forged;
  BufferWriter w(&forged);
  w.put<std::uint32_t>(0xC0DEC001);
  w.put<std::uint64_t>(2);
  const std::size_t header = sizeof(std::uint32_t) + sizeof(std::uint64_t);
  for (int rep = 0; rep < 2; ++rep) {
    forged.insert(forged.end(), snapshot.begin() + header, snapshot.end());
  }
  Directory restored;
  Status st = restore_directory(forged, &restored);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("duplicate"), std::string::npos)
      << st.to_string();
}

TEST(Wire, SnapshotBytesAreCanonical) {
  // Same contents, different mutation history => identical bytes.
  Directory a;
  Directory b;
  for (Version v = 0; v < 6; ++v) {
    ObjectDescriptor desc{2, v, geom::BoundingBox::rect(v * 8, 0, v * 8 + 7, 7),
                          kWholeObject};
    a.upsert(desc, sample_encoded_location());
  }
  for (Version v = 6; v-- > 0;) {  // reverse order, with churn
    ObjectDescriptor desc{2, v, geom::BoundingBox::rect(v * 8, 0, v * 8 + 7, 7),
                          kWholeObject};
    ObjectLocation junk;
    junk.primary = 9;
    b.upsert(desc, junk);
    b.remove(desc);
    b.upsert(desc, sample_encoded_location());
  }
  EXPECT_EQ(snapshot_directory(a), snapshot_directory(b));
}

TEST(Wire, OpRecordRoundTrip) {
  OpRecord up;
  up.seq = 77;
  up.kind = MetaOpKind::kUpsert;
  up.desc = sample_desc();
  up.loc = sample_encoded_location();
  OpRecord rm;
  rm.seq = 78;
  rm.kind = MetaOpKind::kRemove;
  rm.desc = sample_desc();

  Bytes buf;
  BufferWriter w(&buf);
  encode_op_record(up, &w);
  encode_op_record(rm, &w);

  BufferReader r(buf);
  auto up2 = decode_op_record(&r);
  ASSERT_TRUE(up2.ok());
  EXPECT_EQ(up2.value().seq, 77u);
  EXPECT_EQ(up2.value().kind, MetaOpKind::kUpsert);
  EXPECT_EQ(up2.value().desc, sample_desc());
  EXPECT_EQ(up2.value().loc.stripe_servers,
            sample_encoded_location().stripe_servers);
  auto rm2 = decode_op_record(&r);
  ASSERT_TRUE(rm2.ok());
  EXPECT_EQ(rm2.value().seq, 78u);
  EXPECT_EQ(rm2.value().kind, MetaOpKind::kRemove);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Wire, OpRecordRejectsBadKind) {
  Bytes buf;
  BufferWriter w(&buf);
  w.put<std::uint64_t>(1);
  w.put<std::uint8_t>(9);  // not a MetaOpKind
  BufferReader r(buf);
  EXPECT_FALSE(decode_op_record(&r).ok());
}

TEST(Wire, SnapshotDecodeSurvivesTruncationSweep) {
  Directory dir;
  for (Version v = 0; v < 4; ++v) {
    ObjectDescriptor desc{1, v, geom::BoundingBox::rect(v * 4, 0, v * 4 + 3, 3),
                          kWholeObject};
    dir.upsert(desc, sample_encoded_location());
  }
  Bytes snapshot = snapshot_directory(dir);
  // Every strict prefix must produce a clean error, never a crash or a
  // silently partial restore that passes the trailing-bytes check.
  for (std::size_t len = 0; len < snapshot.size(); ++len) {
    Bytes prefix(snapshot.begin(),
                 snapshot.begin() + static_cast<std::ptrdiff_t>(len));
    Directory restored;
    EXPECT_FALSE(restore_directory(prefix, &restored).ok())
        << "prefix length " << len;
  }
}

TEST(Wire, SnapshotDecodeSurvivesBitFlipSweep) {
  Directory dir;
  for (Version v = 0; v < 3; ++v) {
    ObjectDescriptor desc{3, v, geom::BoundingBox::rect(v * 4, 0, v * 4 + 3, 3),
                          kWholeObject};
    dir.upsert(desc, sample_encoded_location());
  }
  Bytes snapshot = snapshot_directory(dir);
  // Single-bit corruption anywhere must never crash or over-allocate;
  // decoding either fails or yields a value-corrupted directory.
  for (std::size_t byte = 0; byte < snapshot.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes flipped = snapshot;
      flipped[byte] ^= static_cast<std::uint8_t>(1u << bit);
      Directory restored;
      Status st = restore_directory(flipped, &restored);
      (void)st;  // reaching here without UB/crash is the assertion
    }
  }
}

// ---- hardened BufferReader paths (network-facing decode) -----------------

TEST(Wire, ReaderRejectsOverflowingBlobLength) {
  // A declared length near 2^64 used to wrap `pos_ + n` back into
  // range; the overflow-safe check must reject it before allocating.
  Bytes buf;
  BufferWriter w(&buf);
  w.put<std::uint64_t>(std::numeric_limits<std::uint64_t>::max() - 4);
  buf.push_back(0xAB);  // a few real bytes after the hostile prefix
  buf.push_back(0xCD);
  BufferReader r(buf);
  Bytes out;
  Status st = r.get_bytes(&out);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(out.empty());
}

TEST(Wire, ReaderRejectsBlobAboveConfiguredMax) {
  Bytes buf;
  BufferWriter w(&buf);
  w.put_bytes(Bytes(512, 0x5A));  // well-formed 512-byte blob
  BufferReader tight(buf, /*max_blob=*/128);
  Bytes out;
  Status st = tight.get_bytes(&out);
  EXPECT_FALSE(st.ok()) << "blob above the reader's max must be rejected";
  // The same bytes decode fine with a roomier ceiling.
  BufferReader roomy(buf, /*max_blob=*/1024);
  ASSERT_TRUE(roomy.get_bytes(&out).ok());
  EXPECT_EQ(out.size(), 512u);
}

TEST(Wire, ReaderBlobLengthSweepNeverOverallocates) {
  // Fuzz-ish: sweep every u64 length prefix with a handful of trailing
  // bytes. All oversized declarations must fail cleanly; only lengths
  // <= trailing bytes may succeed.
  const Bytes tail = {1, 2, 3, 4, 5, 6, 7};
  for (std::uint64_t declared :
       {std::uint64_t{0}, std::uint64_t{3}, std::uint64_t{7},
        std::uint64_t{8}, std::uint64_t{4096},
        std::uint64_t{1} << 32, std::uint64_t{1} << 63,
        std::numeric_limits<std::uint64_t>::max() - 7,
        std::numeric_limits<std::uint64_t>::max()}) {
    Bytes buf;
    BufferWriter w(&buf);
    w.put<std::uint64_t>(declared);
    buf.insert(buf.end(), tail.begin(), tail.end());
    BufferReader r(buf);
    Bytes out;
    Status st = r.get_bytes(&out);
    if (declared <= tail.size()) {
      EXPECT_TRUE(st.ok()) << "declared " << declared;
      EXPECT_EQ(out.size(), declared);
    } else {
      EXPECT_FALSE(st.ok()) << "declared " << declared;
    }
  }
}

TEST(Wire, ReaderPodUnderrunIsOverflowSafe) {
  // get<T> near the end of the buffer must fail, not wrap.
  Bytes buf = {0x01, 0x02, 0x03};
  BufferReader r(buf);
  std::uint64_t v = 0;
  EXPECT_FALSE(r.get(&v).ok());
  std::uint16_t s = 0;
  ASSERT_TRUE(r.get(&s).ok());  // 2 of 3 bytes
  std::uint16_t s2 = 0;
  EXPECT_FALSE(r.get(&s2).ok());  // only 1 byte left
}

}  // namespace
}  // namespace corec::staging
