// CRC32C kernel table behind corec::crc32c(). The dispatcher picks the
// SSE4.2 kernel (hardware CRC32 instruction, three interleaved streams)
// when the build compiled it and CPUID reports SSE4.2, and the portable
// slice-by-8 loop otherwise. Both compute the same function bit for
// bit, and each has a copying form behind corec::crc32c_copy(); tests
// and benchmarks reach each kernel directly through here.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace corec::detail {

using Crc32cFn = std::uint32_t (*)(const std::uint8_t* data,
                                   std::size_t len, std::uint32_t seed);

using Crc32cCopyFn = std::uint32_t (*)(std::uint8_t* dst,
                                       const std::uint8_t* src,
                                       std::size_t len, std::uint32_t seed);

struct Crc32cKernel {
  const char* name;   // "portable" or "sse42"
  Crc32cFn fn;        // same contract as corec::crc32c
  Crc32cCopyFn copy;  // same contract as corec::crc32c_copy
};

/// The kernel crc32c() dispatches to (resolved once on first use).
const Crc32cKernel& crc32c_selected_kernel();

/// Kernel lookup by name; nullptr when the kernel is not compiled into
/// this build or not supported by the running CPU.
const Crc32cKernel* crc32c_kernel_by_name(std::string_view name);

/// Every kernel this build can run on this CPU, portable first.
std::vector<const Crc32cKernel*> crc32c_available_kernels();

/// True when the build compiled the SSE4.2 kernel (x86 with a compiler
/// that accepts -msse4.2), whatever the running CPU supports.
bool crc32c_sse42_compiled();

}  // namespace corec::detail
