// Erasure codec interface. A codec turns k equal-size data blocks into
// m parity blocks and can reconstruct any missing blocks as long as at
// least k of the k+m survive (MDS property).
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/buffer.hpp"
#include "common/status.hpp"

namespace corec::erasure {

/// Erasure-codec interface; make_reed_solomon() is the implementation.
class Codec {
 public:
  virtual ~Codec() = default;

  /// Number of data blocks per stripe.
  virtual std::size_t k() const = 0;
  /// Number of parity blocks per stripe (fault tolerance level).
  virtual std::size_t m() const = 0;
  /// Total stripe width n = k + m.
  std::size_t n() const { return k() + m(); }

  /// Human-readable name, e.g. "rs-vandermonde(6,2)".
  virtual std::string name() const = 0;

  /// Computes parity[0..m) from data[0..k). All spans must share one
  /// block size; parity buffers are overwritten.
  Status encode(const std::vector<ByteSpan>& data,
                const std::vector<MutableByteSpan>& parity) const {
    return encode_view(data.data(), data.size(), parity.data(),
                       parity.size());
  }

  /// Reconstructs the blocks listed in `erased` (global indices:
  /// 0..k-1 data, k..n-1 parity). `blocks` holds all n block buffers;
  /// entries at erased indices are outputs, all others must contain the
  /// surviving contents. Fails with DataLoss if |erased| > m.
  Status decode(const std::vector<MutableByteSpan>& blocks,
                const std::vector<std::size_t>& erased) const {
    return decode_view(blocks.data(), blocks.size(), erased.data(),
                       erased.size());
  }

  /// Pointer-based primitives behind encode()/decode(). Callers that
  /// manage their own span scratch (the stripe encoder in
  /// resilience/primitives) use these directly to avoid materializing
  /// a std::vector per call.
  virtual Status encode_view(const ByteSpan* data, std::size_t nd,
                             const MutableByteSpan* parity,
                             std::size_t np) const = 0;
  virtual Status decode_view(const MutableByteSpan* blocks,
                             std::size_t nb, const std::size_t* erased,
                             std::size_t ne) const = 0;

  /// Incremental parity maintenance: given the delta (old XOR new) of
  /// data block `index`, updates all parity blocks in place. This is the
  /// operation the paper identifies as the erasure-coding write
  /// penalty: every update of an encoded object must touch all parities.
  virtual Status update_parity(std::size_t index, ByteSpan delta,
                               const std::vector<MutableByteSpan>& parity)
      const = 0;
};

/// Which Reed-Solomon generator-matrix construction to use.
enum class RsConstruction { kVandermonde, kCauchy };

/// Creates a systematic Reed-Solomon codec over GF(2^8).
/// Requires 1 <= k, 1 <= m, k + m <= 255.
StatusOr<std::unique_ptr<Codec>> make_reed_solomon(
    std::size_t k, std::size_t m,
    RsConstruction construction = RsConstruction::kVandermonde);

}  // namespace corec::erasure
