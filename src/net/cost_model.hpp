// Calibrated cost model for the simulated interconnect, server CPU work
// and the parallel file system. This is the substitute for Titan's Gemini
// network + AMD Interlagos staging nodes: every latency the benchmarks
// report is assembled from these primitives plus queueing delay.
#pragma once

#include <cstddef>

#include "common/types.hpp"

namespace corec::net {

/// All rates in bytes/second, all latencies in virtual nanoseconds.
struct CostModel {
  // --- interconnect -----------------------------------------------------
  /// One-way message latency between any two staging servers or between
  /// a client and a server ("l" in the paper's model).
  SimTime link_latency = from_micros(1.5);
  /// Per-link streaming bandwidth (Gemini-class ~5 GB/s effective).
  double link_bandwidth = 5.0e9;

  // --- server CPU -------------------------------------------------------
  /// Fixed CPU cost to accept/dispatch one request at a server
  /// (RDMA-class completion handling, sub-microsecond).
  SimTime request_overhead = from_micros(0.5);
  /// GF(2^8) region multiply-accumulate throughput of one staging core
  /// (bytes of source processed per second per parity row). Default is a
  /// conservative portable-kernel figure; `CostModel::calibrated()`
  /// replaces it with the measured rate of this build's dispatched
  /// SIMD kernels (typically several times higher).
  double gf_region_rate = 1.2e9;
  /// Plain memory-copy throughput (replica materialization, local reads).
  double memcpy_rate = 6.0e9;

  // --- metadata service ---------------------------------------------------
  /// Cost of one directory lookup/update round (DataSpaces DHT hop).
  SimTime metadata_op = from_micros(4.0);

  // --- classifier ---------------------------------------------------------
  /// CPU cost of one hot/cold classification decision.
  SimTime classify_op = from_micros(0.4);

  // --- parallel file system (checkpoint target, Fig. 2) -------------------
  /// Request latency of the PFS (Lustre RPC + seek class).
  SimTime pfs_latency = from_seconds(0.005);
  /// Aggregate PFS bandwidth available to the staging servers.
  double pfs_bandwidth = 2.0e9;

  /// Time to move `bytes` across one link (latency + serialization).
  SimTime transfer_time(std::size_t bytes) const {
    return link_latency +
           static_cast<SimTime>(static_cast<double>(bytes) /
                                link_bandwidth * 1e9);
  }

  /// CPU time to produce `m` parity rows over `k` data blocks of
  /// `block_bytes` each (Reed-Solomon encode: m*k region ops).
  SimTime encode_time(std::size_t k, std::size_t m,
                      std::size_t block_bytes) const {
    double bytes = static_cast<double>(k) * static_cast<double>(m) *
                   static_cast<double>(block_bytes);
    return static_cast<SimTime>(bytes / gf_region_rate * 1e9);
  }

  /// CPU time to reconstruct `erased` blocks from k survivors
  /// (erased*k region ops; matrix inversion cost is negligible).
  SimTime decode_time(std::size_t k, std::size_t erased,
                      std::size_t block_bytes) const {
    double bytes = static_cast<double>(k) * static_cast<double>(erased) *
                   static_cast<double>(block_bytes);
    return static_cast<SimTime>(bytes / gf_region_rate * 1e9);
  }

  /// Time for a local memory copy of `bytes`.
  SimTime copy_time(std::size_t bytes) const {
    return static_cast<SimTime>(static_cast<double>(bytes) /
                                memcpy_rate * 1e9);
  }

  /// Time to write `bytes` to the PFS (checkpointing).
  SimTime pfs_write_time(std::size_t bytes) const {
    return pfs_latency +
           static_cast<SimTime>(static_cast<double>(bytes) /
                                pfs_bandwidth * 1e9);
  }

  /// Titan-like defaults with `gf_region_rate` replaced by the encode
  /// rate measured on this machine with the dispatched GF kernels
  /// (measured once, then cached for the process). Opt-in — it trades
  /// run-to-run determinism of simulated times for encode costs that
  /// track the hardware actually running the experiment.
  static CostModel calibrated();
};

/// Measures the real GF region-op throughput of this build (bytes/sec)
/// by timing the Reed-Solomon encode kernel — including the SIMD
/// dispatch, so the rate reflects the COREC_GF_KERNEL in effect — so
/// simulated encode costs can be anchored to the hardware actually
/// running the benchmark.
double calibrate_encode_rate(std::size_t block_bytes = 1u << 20);

/// The GF kernel the calibration (and all erasure coding in this
/// process) runs on: "portable", "ssse3" or "avx2".
const char* gf_kernel_in_use();

}  // namespace corec::net
