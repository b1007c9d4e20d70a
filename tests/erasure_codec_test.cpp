// Reed-Solomon codec behaviour: exhaustive erasure-pattern
// recovery sweeps (the MDS property on real bytes), incremental parity
// updates, and input validation.
#include "erasure/codec.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "common/rng.hpp"

namespace corec::erasure {
namespace {

Bytes random_block(Rng* rng, std::size_t size) {
  Bytes b(size);
  for (auto& v : b) v = static_cast<std::uint8_t>(rng->next_u32());
  return b;
}

struct CodecCase {
  std::size_t k;
  std::size_t m;
  std::size_t block_size;
  RsConstruction construction;
};

void PrintTo(const CodecCase& c, std::ostream* os) {
  *os << "k=" << c.k << " m=" << c.m << " size=" << c.block_size
      << (c.construction == RsConstruction::kVandermonde ? " vand"
                                                         : " cauchy");
}

class RsCodecTest : public ::testing::TestWithParam<CodecCase> {
 protected:
  void SetUp() override {
    auto codec_or = make_reed_solomon(GetParam().k, GetParam().m,
                                      GetParam().construction);
    ASSERT_TRUE(codec_or.ok());
    codec_ = std::move(codec_or).value();
  }

  // Builds a random stripe: returns (blocks, original data copy).
  std::vector<Bytes> make_stripe(Rng* rng) {
    std::vector<Bytes> blocks;
    for (std::size_t i = 0; i < codec_->k(); ++i) {
      blocks.push_back(random_block(rng, GetParam().block_size));
    }
    for (std::size_t i = 0; i < codec_->m(); ++i) {
      blocks.emplace_back(GetParam().block_size, 0);
    }
    std::vector<ByteSpan> data;
    std::vector<MutableByteSpan> parity;
    for (std::size_t i = 0; i < codec_->k(); ++i) {
      data.emplace_back(blocks[i]);
    }
    for (std::size_t i = codec_->k(); i < codec_->n(); ++i) {
      parity.emplace_back(blocks[i]);
    }
    EXPECT_TRUE(codec_->encode(data, parity).ok());
    return blocks;
  }

  std::unique_ptr<Codec> codec_;
};

TEST_P(RsCodecTest, RecoversEveryErasurePatternUpToM) {
  Rng rng(0xC0DEC + GetParam().k * 131 + GetParam().m);
  auto original = make_stripe(&rng);
  const std::size_t n = codec_->n();

  // Enumerate all erasure subsets of size 1..m.
  std::vector<std::size_t> erased;
  std::function<void(std::size_t)> rec = [&](std::size_t start) {
    if (!erased.empty()) {
      auto blocks = original;
      for (std::size_t e : erased) {
        std::fill(blocks[e].begin(), blocks[e].end(), 0xDD);
      }
      std::vector<MutableByteSpan> spans;
      for (auto& b : blocks) spans.emplace_back(b);
      ASSERT_TRUE(codec_->decode(spans, erased).ok());
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(blocks[i], original[i]) << "block " << i;
      }
    }
    if (erased.size() == codec_->m()) return;
    for (std::size_t i = start; i < n; ++i) {
      erased.push_back(i);
      rec(i + 1);
      erased.pop_back();
    }
  };
  rec(0);
}

TEST_P(RsCodecTest, TooManyErasuresIsDataLoss) {
  Rng rng(99);
  auto blocks = make_stripe(&rng);
  std::vector<std::size_t> erased;
  for (std::size_t i = 0; i <= codec_->m(); ++i) erased.push_back(i);
  std::vector<MutableByteSpan> spans;
  for (auto& b : blocks) spans.emplace_back(b);
  Status st = codec_->decode(spans, erased);
  EXPECT_EQ(st.code(), StatusCode::kDataLoss);
}

TEST_P(RsCodecTest, UpdateParityMatchesFullReencode) {
  Rng rng(0xF00D + GetParam().k);
  auto blocks = make_stripe(&rng);
  const std::size_t k = codec_->k();

  // Update data block `target` with new content; maintain parity
  // incrementally from the delta and compare to a full re-encode.
  for (std::size_t target = 0; target < k; ++target) {
    Bytes new_content = random_block(&rng, GetParam().block_size);
    Bytes delta(GetParam().block_size);
    for (std::size_t i = 0; i < delta.size(); ++i) {
      delta[i] = blocks[target][i] ^ new_content[i];
    }
    auto incremental = blocks;
    incremental[target] = new_content;
    {
      std::vector<MutableByteSpan> parity;
      for (std::size_t i = k; i < codec_->n(); ++i) {
        parity.emplace_back(incremental[i]);
      }
      ASSERT_TRUE(codec_->update_parity(target, delta, parity).ok());
    }
    // Full re-encode reference.
    auto reference = incremental;
    {
      std::vector<ByteSpan> data;
      std::vector<MutableByteSpan> parity;
      for (std::size_t i = 0; i < k; ++i) data.emplace_back(reference[i]);
      for (std::size_t i = k; i < codec_->n(); ++i) {
        parity.emplace_back(reference[i]);
      }
      ASSERT_TRUE(codec_->encode(data, parity).ok());
    }
    for (std::size_t i = k; i < codec_->n(); ++i) {
      EXPECT_EQ(incremental[i], reference[i]) << "parity " << i - k;
    }
    blocks = incremental;
  }
}

TEST_P(RsCodecTest, DecodeWithNoErasuresIsNoop) {
  Rng rng(5);
  auto blocks = make_stripe(&rng);
  auto copy = blocks;
  std::vector<MutableByteSpan> spans;
  for (auto& b : blocks) spans.emplace_back(b);
  ASSERT_TRUE(codec_->decode(spans, {}).ok());
  EXPECT_EQ(blocks, copy);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, RsCodecTest,
    ::testing::Values(
        CodecCase{1, 1, 64, RsConstruction::kVandermonde},
        CodecCase{3, 1, 64, RsConstruction::kVandermonde},
        CodecCase{3, 1, 64, RsConstruction::kCauchy},
        CodecCase{3, 2, 128, RsConstruction::kVandermonde},
        CodecCase{3, 2, 128, RsConstruction::kCauchy},
        CodecCase{6, 2, 256, RsConstruction::kVandermonde},
        CodecCase{6, 3, 32, RsConstruction::kCauchy},
        CodecCase{4, 2, 1, RsConstruction::kVandermonde},
        CodecCase{10, 4, 128, RsConstruction::kCauchy},
        CodecCase{8, 3, 1024, RsConstruction::kVandermonde}));

TEST(RsCodec, RejectsInvalidGeometry) {
  EXPECT_FALSE(make_reed_solomon(0, 1).ok());
  EXPECT_FALSE(make_reed_solomon(1, 0).ok());
  EXPECT_FALSE(make_reed_solomon(200, 100).ok());
}

TEST(RsCodec, NameReflectsGeometry) {
  auto codec = make_reed_solomon(3, 1);
  ASSERT_TRUE(codec.ok());
  EXPECT_EQ(codec.value()->name(), "rs-vandermonde(3,1)");
  auto cauchy = make_reed_solomon(4, 2, RsConstruction::kCauchy);
  ASSERT_TRUE(cauchy.ok());
  EXPECT_EQ(cauchy.value()->name(), "rs-cauchy(4,2)");
}

TEST(RsCodec, MismatchedBlockSizesRejected) {
  auto codec_or = make_reed_solomon(2, 1);
  ASSERT_TRUE(codec_or.ok());
  auto& codec = *codec_or.value();
  Bytes a(16), b(8), p(16);
  std::vector<ByteSpan> data{ByteSpan(a), ByteSpan(b)};
  std::vector<MutableByteSpan> parity{MutableByteSpan(p)};
  EXPECT_EQ(codec.encode(data, parity).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace corec::erasure
