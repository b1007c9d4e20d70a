#include <algorithm>
#include <array>
#include <cstring>
#include <sstream>

#include "erasure/codec.hpp"
#include "erasure/matrix.hpp"
#include "gf/gf256.hpp"

namespace corec::erasure {
namespace {

/// Systematic Reed-Solomon codec: generator = [I; P] where P is the
/// m x k parity-coefficient block derived from a Vandermonde or Cauchy
/// matrix. MDS: any k of the n = k + m blocks reconstruct the stripe.
class ReedSolomonCodec final : public Codec {
 public:
  ReedSolomonCodec(std::size_t k, std::size_t m, GfMatrix generator,
                   RsConstruction construction)
      : k_(k), m_(m), generator_(std::move(generator)),
        construction_(construction) {}

  std::size_t k() const override { return k_; }
  std::size_t m() const override { return m_; }

  std::string name() const override {
    std::ostringstream os;
    os << (construction_ == RsConstruction::kVandermonde
               ? "rs-vandermonde"
               : "rs-cauchy")
       << "(" << k_ << "," << m_ << ")";
    return os.str();
  }

  Status encode_view(const ByteSpan* data, std::size_t nd,
                     const MutableByteSpan* parity,
                     std::size_t np) const override {
    COREC_RETURN_IF_ERROR(check_blocks(data, nd, parity, np));
    // Fused parity rows: each parity block is produced in one pass
    // over the data with the coefficient row held in registers,
    // instead of m separate zero-fill + k read-modify-write sweeps.
    std::array<const std::uint8_t*, gf::kGroupOrder> srcs;
    for (std::size_t d = 0; d < k_; ++d) srcs[d] = data[d].data();
    for (std::size_t p = 0; p < m_; ++p) {
      gf::region_mul_multi(generator_.row(k_ + p), srcs.data(), k_,
                           parity[p]);
    }
    return Status::Ok();
  }

  Status decode_view(const MutableByteSpan* blocks, std::size_t nb,
                     const std::size_t* erased,
                     std::size_t ne) const override {
    if (nb != n()) {
      return Status::InvalidArgument("decode: expected n blocks");
    }
    if (ne > m_) {
      return Status::DataLoss("more erasures than parity blocks");
    }
    if (ne == 0) return Status::Ok();
    for (std::size_t i = 0; i < ne; ++i) {
      if (erased[i] >= n()) {
        return Status::InvalidArgument("erased index range");
      }
    }
    const std::size_t block_size = blocks[0].size();
    for (std::size_t i = 0; i < nb; ++i) {
      if (blocks[i].size() != block_size) {
        return Status::InvalidArgument("decode: block size mismatch");
      }
    }

    std::vector<bool> is_erased(n(), false);
    for (std::size_t i = 0; i < ne; ++i) is_erased[erased[i]] = true;

    // Pick k surviving blocks; rows of the generator matrix restricted
    // to them form the decode system D = A * original.
    std::vector<std::size_t> survivors;
    for (std::size_t i = 0; i < n() && survivors.size() < k_; ++i) {
      if (!is_erased[i]) survivors.push_back(i);
    }
    if (survivors.size() < k_) {
      return Status::DataLoss("fewer than k surviving blocks");
    }
    GfMatrix a = generator_.select_rows(survivors);
    COREC_ASSIGN_OR_RETURN(GfMatrix a_inv, a.inverted());

    // Reconstruct every erased *data* block in one fused pass:
    // data[d] = sum_j a_inv[d][j] * survivor[j].
    std::array<const std::uint8_t*, gf::kGroupOrder> srcs;
    for (std::size_t j = 0; j < k_; ++j) {
      srcs[j] = blocks[survivors[j]].data();
    }
    for (std::size_t i = 0; i < ne; ++i) {
      std::size_t d = erased[i];
      if (d >= k_) continue;
      gf::region_mul_multi(a_inv.row(d), srcs.data(), k_, blocks[d]);
    }
    // Re-derive erased parity blocks from the (now complete) data.
    for (std::size_t j = 0; j < k_; ++j) srcs[j] = blocks[j].data();
    for (std::size_t i = 0; i < ne; ++i) {
      std::size_t p = erased[i];
      if (p < k_) continue;
      gf::region_mul_multi(generator_.row(p), srcs.data(), k_,
                           blocks[p]);
    }
    return Status::Ok();
  }

  Status update_parity(std::size_t index, ByteSpan delta,
                       const std::vector<MutableByteSpan>& parity)
      const override {
    if (index >= k_) {
      return Status::InvalidArgument("update_parity: data index range");
    }
    if (parity.size() != m_) {
      return Status::InvalidArgument("update_parity: expected m parities");
    }
    for (std::size_t p = 0; p < m_; ++p) {
      if (parity[p].size() != delta.size()) {
        return Status::InvalidArgument("update_parity: size mismatch");
      }
      gf::region_mul_add(generator_.at(k_ + p, index), delta, parity[p]);
    }
    return Status::Ok();
  }

 private:
  Status check_blocks(const ByteSpan* data, std::size_t nd,
                      const MutableByteSpan* parity,
                      std::size_t np) const {
    if (nd != k_ || np != m_) {
      return Status::InvalidArgument("encode: wrong block counts");
    }
    std::size_t size = data[0].size();
    for (std::size_t i = 0; i < nd; ++i) {
      if (data[i].size() != size) {
        return Status::InvalidArgument("encode: data size mismatch");
      }
    }
    for (std::size_t i = 0; i < np; ++i) {
      if (parity[i].size() != size) {
        return Status::InvalidArgument("encode: parity size mismatch");
      }
    }
    return Status::Ok();
  }

  std::size_t k_;
  std::size_t m_;
  GfMatrix generator_;  // n x k systematic generator
  RsConstruction construction_;
};

}  // namespace

StatusOr<std::unique_ptr<Codec>> make_reed_solomon(
    std::size_t k, std::size_t m, RsConstruction construction) {
  if (k == 0 || m == 0 || k + m > gf::kGroupOrder) {
    return Status::InvalidArgument("reed-solomon requires 1<=k, 1<=m, "
                                   "k+m<=255");
  }
  GfMatrix gen;
  if (construction == RsConstruction::kVandermonde) {
    gen = GfMatrix::vandermonde(k + m, k);
    Status st = gen.make_systematic();
    if (!st.ok()) return st;
  } else {
    // Systematic Cauchy: identity on top, Cauchy block below.
    gen = GfMatrix(k + m, k);
    for (std::size_t i = 0; i < k; ++i) gen.at(i, i) = 1;
    GfMatrix cauchy = GfMatrix::cauchy(m, k);
    for (std::size_t r = 0; r < m; ++r) {
      for (std::size_t c = 0; c < k; ++c) {
        gen.at(k + r, c) = cauchy.at(r, c);
      }
    }
  }
  return std::unique_ptr<Codec>(new ReedSolomonCodec(
      k, m, std::move(gen), construction));
}

}  // namespace corec::erasure
