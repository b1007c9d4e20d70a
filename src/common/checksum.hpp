// End-to-end integrity checksums. CRC32C (Castagnoli polynomial,
// iSCSI/ext4 flavour) over object and shard payloads: cheap enough to
// recompute on every read in the simulator, strong enough to catch the
// silent single-/few-bit corruption class the scrubber hunts for.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/buffer.hpp"

namespace corec {

/// CRC32C over `len` bytes, continuing from `seed` (pass the previous
/// result to checksum a payload in pieces). `crc32c(nullptr, 0) == 0`.
/// Runs the hardware kernel when the CPU has SSE4.2, the portable
/// slice-by-8 loop otherwise (see checksum_kernels.hpp).
std::uint32_t crc32c(const std::uint8_t* data, std::size_t len,
                     std::uint32_t seed = 0);

inline std::uint32_t crc32c(ByteSpan data, std::uint32_t seed = 0) {
  return crc32c(data.data(), data.size(), seed);
}

/// Copies `len` bytes from `src` to `dst` (the ranges must not overlap)
/// and returns crc32c(src, len, seed). The SSE4.2 kernel reads `src`
/// once, checksumming the bytes it wrote while they are in L1; the
/// portable one is memcpy then crc32c.
std::uint32_t crc32c_copy(std::uint8_t* dst, const std::uint8_t* src,
                          std::size_t len, std::uint32_t seed = 0);

/// CRC32C of A || B from crc32c(A), crc32c(B) and |B| (zlib's
/// crc32_combine). The relation is an xor, so it also strips a prefix:
/// crc32c_combine(crc32c(A), crc32c(A || B), |B|) == crc32c(B).
/// Costs O(log |B|) polynomial products, independent of the bytes.
std::uint32_t crc32c_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                             std::size_t len_b);

/// Name of the kernel crc32c() and crc32c_copy() run: "portable" or
/// "sse42".
const char* crc32c_kernel_name();

}  // namespace corec
