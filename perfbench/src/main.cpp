// perfbench — the repository benchmark. Runs one workload, verifies
// every byte it reads, and prints a context line followed by the result
// as one JSON object on the last line of stdout:
//
//   perfbench --workload serve_small|serve_bulk|corec_s3d --seed N
//             --seconds S --trace 0|1 --server-bin PATH --out-dir DIR
//             [--rev REV] [--smoke]
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics from a traced pass (see README.md). The exit code
// is nonzero when verification fails or any operation fails.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include <sched.h>

#include "bench.hpp"
#include "net/cost_model.hpp"

namespace {

using perfbench::Args;
using perfbench::Metric;
using perfbench::Result;

// Every per-layer metric (name, unit), in report order. A traced run of
// a workload that never enters a layer reports that layer's work as 0.
// BENCHMARK.json lists the same names; `run.py --smoke` checks both.
constexpr const char* kPerLayer[][2] = {
    {"rpc.recv_per_frame", "calls/frame"},
    {"rpc.writev_per_frame", "calls/frame"},
    {"rpc.backpressure_pauses", "count"},
    {"rpc.codec_us", "us"},
    {"rpc.transport_us", "us"},
    {"rpc.client_retries", "count"},
    {"client.put_samples", "count"},
    {"client.get_samples", "count"},
    {"buffer.pool_miss_per_frame", "ratio"},
    {"buffer.pool_oversize_per_frame", "ratio"},
    {"buffer.bytes_copied_per_user_byte", "ratio"},
    {"buffer.cow_detaches", "count"},
    {"checksum.crc_calls", "count"},
    {"checksum.crc_mib_s", "MiB/s"},
    {"fabric.put_p50_us", "us"},
    {"fabric.put_p99_us", "us"},
    {"fabric.get_p50_us", "us"},
    {"fabric.get_p99_us", "us"},
    {"fabric.lock_contention", "ratio"},
    {"service.put_p50_us", "us"},
    {"service.put_p99_us", "us"},
    {"service.get_p50_us", "us"},
    {"service.get_p99_us", "us"},
    {"directory.upsert_us", "us"},
    {"directory.upsert_calls", "count"},
    {"directory.find_us", "us"},
    {"directory.find_calls", "count"},
    {"directory.query_latest_us", "us"},
    {"directory.query_latest_calls", "count"},
    {"core.protect_us", "us"},
    {"core.end_of_step_ms", "ms"},
    {"core.recovery_ms", "ms"},
    {"core.fast_path_ratio", "ratio"},
    {"core.demotions", "count"},
    {"core.promotions", "count"},
    {"core.repair_backlog_end", "count"},
    {"gf.encode_mib_s", "MiB/s"},
    {"gf.decode_mib_s", "MiB/s"},
    {"erasure.bytes_encoded", "B"},
    {"erasure.encode_ms", "ms"},
    {"sim.write_ms", "ms"},
    {"sim.read_ms", "ms"},
    {"sim.write.transport_ms", "ms"},
    {"sim.write.metadata_ms", "ms"},
    {"sim.write.encode_ms", "ms"},
    {"sim.write.decode_ms", "ms"},
    {"sim.write.classify_ms", "ms"},
    {"sim.write.copy_ms", "ms"},
    {"sim.read.transport_ms", "ms"},
    {"sim.read.metadata_ms", "ms"},
    {"sim.read.encode_ms", "ms"},
    {"sim.read.decode_ms", "ms"},
    {"sim.read.classify_ms", "ms"},
    {"sim.read.copy_ms", "ms"},
    {"self.client_ms", "ms"},
    {"self.codec_ms", "ms"},
    {"self.fabric_ms", "ms"},
    {"self.service_ms", "ms"},
    {"self.core_ms", "ms"},
    {"self.directory_ms", "ms"},
    {"trace.overhead_ratio", "ratio"},
};

/// Orders a traced run's metrics by kPerLayer, adding 0 for layers the
/// workload does not use.
void complete_per_layer(Result& r) {
  std::vector<Metric> ordered;
  for (const auto& entry : kPerLayer) {
    Metric m{entry[0], 0.0, entry[1]};
    for (const Metric& got : r.metrics) {
      if (got.name == m.name) m.value = got.value;
    }
    ordered.push_back(m);
  }
  for (const Metric& got : r.metrics) {
    bool listed = false;
    for (const auto& entry : kPerLayer) listed |= got.name == entry[0];
    if (!listed) r.fail("metric " + got.name + " missing from the catalog");
  }
  r.metrics = std::move(ordered);
}

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload serve_small|serve_bulk|corec_s3d"
               " --seed N --seconds S --trace 0|1 --server-bin PATH"
               " --out-dir DIR [--rev REV] [--smoke]\n");
}

bool parse_args(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      args->workload = v;
    } else if (a == "--seed") {
      args->seed = std::strtoull(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0') return false;
    } else if (a == "--seconds") {
      args->seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !(args->seconds > 0)) {
        return false;
      }
    } else if (a == "--trace") {
      if (v != "0" && v != "1") return false;
      args->trace = v == "1";
    } else if (a == "--server-bin") {
      args->server_bin = v;
    } else if (a == "--out-dir") {
      args->out_dir = v;
    } else if (a == "--rev") {
      args->rev = v;
    } else {
      return false;
    }
  }
  return (args->workload == "serve_small" || args->workload == "serve_bulk" ||
          args->workload == "corec_s3d") &&
         !args->out_dir.empty() &&
         (args->workload == "corec_s3d" || !args->server_bin.empty());
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string m = line.substr(colon + 1);
        m.erase(0, m.find_first_not_of(' '));
        return m;
      }
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  char buf[64];
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.12g", ms[i].value);
    out += (i == 0 ? "\"" : ", \"") + ms[i].name + "\": {\"value\": " +
           buf + ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return out + "}";
}

/// CPUs this process may run on.
int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  return sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 0;
}

std::string context_json(const Args& args, int usable, const Result& r) {
  std::string out = "{\"workload\": \"" + args.workload + "\"";
  out += ", \"seed\": " + std::to_string(args.seed);
  out += ", \"seconds\": " + std::to_string(args.seconds);
  out += ", \"trace\": " + std::string(args.trace ? "1" : "0");
  out += ", \"smoke\": " + std::string(args.smoke ? "true" : "false");
  out += ", \"nproc\": " + std::to_string(usable);
  out += ", \"hardware_threads\": " +
         std::to_string(std::thread::hardware_concurrency());
  out += ", \"cpu_model\": \"" + json_escape(cpu_model()) + "\"";
  out += ", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\"";
  out += ", \"gf_kernel\": \"" +
         std::string(corec::net::gf_kernel_in_use()) + "\"";
  out += ", \"rev\": \"" + json_escape(args.rev) + "\"";
  for (const std::string& n : r.notes) out += ", " + n;
  out += ", \"info\": " + metrics_json(r.info) + "}";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    usage();
    return 2;
  }
  // Counted before a workload narrows the affinity mask.
  const int usable = usable_cpus();
  Result r = args.workload == "corec_s3d" ? perfbench::run_corec_s3d(args)
                                          : perfbench::run_serve(args);
  if (args.trace) complete_per_layer(r);
  if (r.attempted == 0) r.fail("no operation attempted");
  for (Metric& m : r.metrics) {
    if (!std::isfinite(m.value)) {
      r.fail("non-finite metric " + m.name);
      m.value = 0.0;  // keeps the result line valid JSON
    }
  }
  for (const std::string& e : r.errors) {
    std::fprintf(stderr, "perfbench: %s\n", e.c_str());
  }

  const std::string context = context_json(args, usable, r);
  const std::string result =
      std::string("{\"correct\": ") + (r.correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(r.attempted) +
      ", \"failed\": " + std::to_string(r.failed) +
      ", \"metrics\": " + metrics_json(r.metrics) + "}";
  {
    const std::string path = args.out_dir + "/result-" + args.workload +
                             "-seed" + std::to_string(args.seed) + "-trace" +
                             (args.trace ? "1" : "0") + ".json";
    std::ofstream rec(path);
    rec << "{\"context\": " << context << ", \"result\": " << result
        << "}\n";
  }
  std::printf("{\"context\": %s}\n%s\n", context.c_str(), result.c_str());
  std::fflush(stdout);
  return r.correct && r.failed == 0 ? 0 : 1;
}
