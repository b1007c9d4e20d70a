#include "bench.hpp"

#include <cstdlib>
#include <cstring>
#include <fstream>

#include "common/checksum.hpp"

namespace perfbench {

void fill_bytes(std::uint8_t* out, std::size_t n, std::uint64_t salt) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const std::uint64_t v = mix64(salt ^ (i * 0x2545f4914f6cdd1dULL));
    std::memcpy(out + i, &v, 8);
  }
  if (i < n) {
    const std::uint64_t v = mix64(salt ^ (i * 0x2545f4914f6cdd1dULL));
    std::memcpy(out + i, &v, n - i);
  }
}

double peak_rss_mib(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status"
               : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

namespace {
volatile std::uint32_t g_crc_sink = 0;  // keeps the timed CRCs live
}  // namespace

double crc_mib_s(std::size_t object_bytes, bool smoke) {
  std::vector<std::uint8_t> buf(object_bytes);
  fill_bytes(buf.data(), buf.size(), 11);
  const std::size_t per_pass = smoke ? (4u << 20) : (64u << 20);
  const std::size_t iters = std::max<std::size_t>(1, per_pass / buf.size());
  return rate_mib_s(static_cast<double>(iters * buf.size()), [&] {
    for (std::size_t i = 0; i < iters; ++i) {
      g_crc_sink = g_crc_sink ^ corec::crc32c(buf.data(), buf.size());
    }
  });
}

}  // namespace perfbench
