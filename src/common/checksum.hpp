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

/// Name of the kernel crc32c() runs: "portable" or "sse42".
const char* crc32c_kernel_name();

}  // namespace corec
