// serve_small and serve_bulk: a corec-server child process on loopback
// driven by this process through the library rpc::Client. One requester
// thread on one connection runs a closed loop: it waits for each reply
// before it sends again, as a simulation rank blocks on its put. The
// requester owns a fixed key set that puts overwrite and gets read back;
// each get is compared, outside the timed call, with the bytes of the
// last acknowledged put of its key.
//
// The requester and every server thread share one CPU at a time (see
// CpuRotation), so they hand off by context switch on that CPU. The
// figures then price the program's work per op rather than cross-CPU
// wake-ups, and do not depend on how many of the host's cores happen to
// be free.
//
// The traced run adds in-process replays of the recorded op stream
// through the layers the server composes (frame codec, ThreadFabric),
// so client latency splits into codec, fabric and the rest (transport).
#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "rpc/client.hpp"
#include "rpc/frame.hpp"
#include "rpc/protocol.hpp"
#include "staging/thread_fabric.hpp"
#include "trace.hpp"

extern char** environ;

namespace perfbench {
namespace {

namespace rpc = corec::rpc;
namespace staging = corec::staging;
using corec::PayloadBuffer;

constexpr std::size_t kThreads = 1;
constexpr std::size_t kConnections = 1;
constexpr std::size_t kFabricServers = 4;
// The server shape under test; recorded in every result.
const std::vector<std::string> kServerFlags = {
    "--host", "127.0.0.1", "--port", "0", "--servers", "4", "--loops", "1"};

struct Shape {
  std::size_t object_bytes;
  std::size_t keys_per_thread;
  std::size_t payloads_per_thread;  // pre-built put bodies
  std::uint64_t put_percent;
  int setup_repeats;
  // A measured phase is cut into slices of this length; each reported
  // rate and percentile is the median over slices, so a burst of outside
  // load moves one slice, not the result. Long enough that every slice
  // holds at least 100 gets (ten beyond the p90).
  double window_s;
};

Shape shape_of(const Args& args) {
  if (args.workload == "serve_small") {
    // 4 KiB objects, 1024 keys: a 4 MiB working set that stays in cache.
    return args.smoke ? Shape{4096, 16, 8, 50, 2, 0.25}
                      : Shape{4096, 1024, 64, 50, 15, 0.5};
  }
  // 2 MiB objects (one 64^3-double S3D block), 256 keys: 512 MiB, far
  // above the last-level cache; three puts to one get.
  return args.smoke ? Shape{256u << 10, 4, 2, 75, 2, 0.25}
                    : Shape{2u << 20, 256, 8, 75, 5, 1.0};
}

/// Keeps the requester thread and every thread of the server on one CPU
/// at a time. Each set-up and each window of warm-up and measurement
/// moves to the next CPU, so a run samples every CPU it may use and the
/// median over windows does not hang on one core whose hardware
/// neighbour is busy.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
      }
    }
  }

  const std::vector<int>& cpus() const { return cpus_; }

  /// Seconds the host has kept the current CPU from this machine since
  /// boot: the steal column of /proc/stat, 0 where it is not accounted.
  /// Wall time minus its growth is the time the CPU actually ran.
  double steal_s() const {
    std::ifstream in("/proc/stat");
    const std::string tag = "cpu" + std::to_string(current_) + " ";
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind(tag, 0) != 0) continue;
      std::istringstream fields(line.substr(tag.size()));
      // user nice system idle iowait irq softirq steal
      std::uint64_t v[8] = {};
      for (std::uint64_t& x : v) fields >> x;
      return static_cast<double>(v[7]) /
             static_cast<double>(::sysconf(_SC_CLK_TCK));
    }
    return 0.0;
  }

  /// Moves the calling thread, and every thread of `server_pid` when it
  /// is positive, to CPU number `step` of the rotation. Threads and
  /// processes started afterwards inherit it.
  void hop(std::size_t step, int server_pid) {
    if (cpus_.empty()) return;
    current_ = cpus_[step % cpus_.size()];
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(current_, &one);
    sched_setaffinity(0, sizeof(one), &one);
    if (server_pid <= 0) return;
    const std::string dir = "/proc/" + std::to_string(server_pid) + "/task";
    DIR* tasks = ::opendir(dir.c_str());
    if (tasks == nullptr) return;
    while (const dirent* e = ::readdir(tasks)) {
      const pid_t tid = static_cast<pid_t>(std::atoi(e->d_name));
      if (tid > 0) sched_setaffinity(tid, sizeof(one), &one);
    }
    ::closedir(tasks);
  }

 private:
  std::vector<int> cpus_;
  int current_ = 0;
};

staging::ObjectDescriptor desc_of(std::size_t thread, std::uint64_t key) {
  const auto cell = static_cast<corec::geom::Coord>(key);
  return {static_cast<corec::VarId>(7000 + thread), 1,
          corec::geom::BoundingBox::line(cell * 8, cell * 8 + 7),
          staging::kWholeObject};
}

// ---- server child process --------------------------------------------------

class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { kill_now(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Spawns the server and waits for its "listening on HOST:PORT" line.
  corec::Status start(const std::string& bin) {
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) {
      return corec::Status::Internal("pipe2 failed");
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    std::vector<std::string> argv_s = {bin};
    argv_s.insert(argv_s.end(), kServerFlags.begin(), kServerFlags.end());
    std::vector<char*> argv;
    for (auto& s : argv_s) argv.push_back(s.data());
    argv.push_back(nullptr);
    const int rc = posix_spawn(&pid_, bin.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    out_fd_ = fds[0];
    if (rc != 0) {
      pid_ = -1;
      return corec::Status::Internal("cannot spawn " + bin + ": " +
                                     std::strerror(rc));
    }
    std::string line;
    while (line.find('\n') == std::string::npos) {
      if (!read_some(&line, 10000)) {
        return corec::Status::Internal("server did not report its port");
      }
    }
    const auto at = line.find("listening on ");
    const auto paren = line.find(" (", at);
    const auto colon = line.rfind(':', paren);
    if (at == std::string::npos || colon == std::string::npos) {
      return corec::Status::Internal("unexpected server banner: " + line);
    }
    port_ = static_cast<std::uint16_t>(
        std::strtoul(line.c_str() + colon + 1, nullptr, 10));
    return corec::Status::Ok();
  }

  std::uint16_t port() const { return port_; }
  int pid() const { return pid_; }

  /// SIGTERM, then collects the shutdown report until the pipe closes.
  std::string stop() {
    std::string out;
    if (pid_ <= 0) return out;
    ::kill(pid_, SIGTERM);
    while (read_some(&out, 30000)) {
    }
    kill_now();
    return out;
  }

 private:
  bool read_some(std::string* out, int timeout_ms) {
    pollfd p{out_fd_, POLLIN, 0};
    if (::poll(&p, 1, timeout_ms) <= 0) return false;
    char buf[4096];
    const ssize_t n = ::read(out_fd_, buf, sizeof(buf));
    if (n <= 0) return false;
    out->append(buf, static_cast<std::size_t>(n));
    return true;
  }

  void kill_now() {
    if (pid_ > 0) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == 0) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
      }
      pid_ = -1;
    }
    if (out_fd_ >= 0) {
      ::close(out_fd_);
      out_fd_ = -1;
    }
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::uint16_t port_ = 0;
};

/// Value following `"key":` in the server's JSON stats line.
double json_number(const std::string& text, const std::string& key) {
  const auto at = text.find("\"" + key + "\":");
  return at == std::string::npos
             ? 0.0
             : std::strtod(text.c_str() + at + key.size() + 3, nullptr);
}

/// The count printed just before `label` ("..., 3 backpressure pauses").
double count_before(const std::string& text, const std::string& label) {
  const auto at = text.find(" " + label);
  if (at == std::string::npos) return 0.0;
  const auto start = text.rfind(' ', at - 1);
  return std::strtod(text.c_str() + (start == std::string::npos ? 0 : start),
                     nullptr);
}

// ---- requester threads -----------------------------------------------------

struct Op {
  bool put;
  std::uint32_t key;
  std::uint32_t slot;
};

/// One requester thread's inputs, expected state and observations.
struct Worker {
  std::size_t index = 0;
  std::vector<PayloadBuffer> payloads;
  struct Live {
    std::uint32_t slot = 0;
    std::uint64_t seq = 0;
  };
  std::vector<Live> live;
  std::uint64_t seq = 0;
  std::uint64_t rng_state = 0;
  struct Sample {
    double t;   // completion, seconds into the phase
    double us;  // client-observed latency
    bool put;
  };
  std::vector<Sample> samples;         // untraced measurement
  std::vector<Sample> traced_samples;  // traced windows
  std::uint64_t attempted = 0, failed = 0;
  std::vector<Op> log;
  std::vector<std::string> errors;

  void error(std::string e) {
    ++failed;
    if (errors.size() < 5) errors.push_back(std::move(e));
  }
};

/// The first 16 bytes of every put body carry (key, sequence), so a get
/// that returns a stale or misplaced object fails verification.
void stamp(PayloadBuffer& buf, std::uint64_t key, std::uint64_t seq) {
  corec::MutableByteSpan s = buf.mutable_span();
  std::memcpy(s.data(), &key, 8);
  std::memcpy(s.data() + 8, &seq, 8);
}

corec::Status put_key(rpc::Client& client, Worker& w, std::uint32_t key,
                      std::uint32_t slot, std::uint64_t op_id, double* us) {
  static const std::uint32_t kSpan = trace::intern("client.put");
  const std::uint64_t seq = ++w.seq;
  stamp(w.payloads[slot], key, seq);
  // A fresh view: the client computes the CRC of the body it sends.
  PayloadBuffer body = w.payloads[slot].slice(0, w.payloads[slot].size());
  trace::Scope span(kSpan, op_id);
  const auto a = Clock::now();
  corec::Status st = client.put(desc_of(w.index, key), std::move(body));
  *us = micros_between(a, Clock::now());
  if (st.ok()) w.live[key] = {slot, seq};
  return st;
}

bool verify(const Worker& w, std::uint32_t key, const PayloadBuffer& got) {
  const Worker::Live& l = w.live[key];
  const PayloadBuffer& want = w.payloads[l.slot];
  std::uint64_t k = 0, s = 0;
  if (got.size() != want.size() || got.size() < 16) return false;
  std::memcpy(&k, got.data(), 8);
  std::memcpy(&s, got.data() + 8, 8);
  return k == key && s == l.seq &&
         std::memcmp(got.data() + 16, want.data() + 16, got.size() - 16) == 0;
}

void seed_keys(rpc::Client& client, Worker& w) {
  double us = 0.0;
  for (std::uint32_t key = 0; key < w.live.size(); ++key) {
    ++w.attempted;
    const auto slot = static_cast<std::uint32_t>(key % w.payloads.size());
    corec::Status st = put_key(client, w, key, slot, 0, &us);
    if (!st.ok()) w.error("seed put: " + st.to_string());
  }
}

struct PhaseSpec {
  Clock::time_point start;     // samples are timed from here
  Clock::time_point deadline;  // no op starts after it
  bool record = false;         // keep latencies and bytes
  bool traced = false;         // record spans and the op log
};

void run_phase(rpc::Client& client, Worker& w, const Shape& shape,
               const PhaseSpec& spec) {
  static const std::uint32_t kGetSpan = trace::intern("client.get");
  Rng rng(w.rng_state);
  const auto deadline = spec.deadline;
  std::uint64_t op_id = (static_cast<std::uint64_t>(w.index) << 48) +
                        w.attempted;
  while (Clock::now() < deadline) {
    const bool is_put = rng.below(100) < shape.put_percent;
    const auto key = static_cast<std::uint32_t>(rng.below(w.live.size()));
    const auto slot =
        static_cast<std::uint32_t>(rng.below(w.payloads.size()));
    ++w.attempted;
    double us = 0.0;
    if (is_put) {
      corec::Status st = put_key(client, w, key, slot, ++op_id, &us);
      if (!st.ok()) {
        w.error("put: " + st.to_string());
        continue;
      }
    } else {
      auto got = [&] {
        trace::Scope s(kGetSpan, ++op_id);
        const auto a = Clock::now();
        auto g = client.get(desc_of(w.index, key));
        us = micros_between(a, Clock::now());
        return g;
      }();
      if (!got.ok()) {
        w.error("get: " + got.status().to_string());
        continue;
      }
      if (!verify(w, key, got->payload)) {
        w.error("get of key " + std::to_string(key) +
                " returned bytes that differ from the last acknowledged put");
        continue;
      }
    }
    if (spec.record) {
      (spec.traced ? w.traced_samples : w.samples)
          .push_back({seconds_between(spec.start, Clock::now()), us, is_put});
    }
    if (spec.traced) w.log.push_back({is_put, key, slot});
  }
  w.rng_state = rng.next();
}

/// One measured phase, all threads merged.
struct Summary {
  std::vector<double> put_us, get_us;  // every sample
  // Medians over windows.
  double ops_s = 0.0;
  double put_p50_us = 0.0, put_p90_us = 0.0;
  double get_p50_us = 0.0, get_p90_us = 0.0;
  double mean_us = 0.0;

  double ops() const {
    return static_cast<double>(put_us.size() + get_us.size());
  }
};

/// Merges and clears every thread's `which` samples of a `seconds`-long
/// phase. `steal_s[i]`, when given, is the time the host took the CPU of
/// window i away from this machine; the rate counts only the rest.
Summary summarize(std::vector<Worker>& workers,
                  std::vector<Worker::Sample> Worker::*which, double seconds,
                  double window_s, const std::vector<double>& steal_s = {}) {
  Summary s;
  const auto windows = static_cast<std::size_t>(
      std::max(1.0, std::round(seconds / window_s)));
  std::vector<double> count(windows, 0.0);
  std::vector<std::vector<double>> put_w(windows), get_w(windows);
  double total_us = 0.0;
  for (Worker& w : workers) {
    for (const Worker::Sample& x : w.*which) {
      const auto i = std::min(
          windows - 1, static_cast<std::size_t>(x.t / seconds *
                                                static_cast<double>(windows)));
      count[i] += 1;
      (x.put ? put_w[i] : get_w[i]).push_back(x.us);
      (x.put ? s.put_us : s.get_us).push_back(x.us);
      total_us += x.us;
    }
    (w.*which).clear();
  }
  std::vector<double> rate, put50, put90, get50, get90;
  for (std::size_t i = 0; i < windows; ++i) {
    const double ran = seconds / static_cast<double>(windows) -
                       (i < steal_s.size() ? steal_s[i] : 0.0);
    if (ran > 0) rate.push_back(count[i] / ran);
    if (!put_w[i].empty()) {
      put50.push_back(percentile(put_w[i], 0.50));
      put90.push_back(percentile(put_w[i], 0.90));
    }
    if (!get_w[i].empty()) {
      get50.push_back(percentile(get_w[i], 0.50));
      get90.push_back(percentile(get_w[i], 0.90));
    }
  }
  s.ops_s = median(rate);
  s.put_p50_us = median(put50);
  s.put_p90_us = median(put90);
  s.get_p50_us = median(get50);
  s.get_p90_us = median(get90);
  s.mean_us = s.ops() == 0 ? 0.0 : total_us / s.ops();
  return s;
}

template <typename Fn>
void on_all_workers(std::vector<Worker>& workers, Fn&& fn) {
  std::vector<std::thread> threads;
  for (Worker& w : workers) threads.emplace_back([&fn, &w] { fn(w); });
  for (std::thread& t : threads) t.join();
}

// ---- in-process replays (traced run) ---------------------------------------

struct FabricReplay {
  std::vector<double> put_us, get_us;
  double lock_contention = 0.0;
  std::uint64_t failed = 0;
};

/// Replays each thread's recorded ops against an in-process ThreadFabric
/// shaped like the server's, the way the server executes them.
FabricReplay replay_fabric(std::vector<Worker>& workers) {
  static const std::uint32_t kPutSpan = trace::intern("fabric.put");
  static const std::uint32_t kGetSpan = trace::intern("fabric.get");
  staging::ThreadFabric fabric(kFabricServers);
  std::vector<std::vector<std::uint32_t>> crcs(workers.size());
  for (Worker& w : workers) {
    for (const PayloadBuffer& p : w.payloads) {
      crcs[w.index].push_back(p.crc32c());
    }
  }
  auto store = [&](Worker& w, std::uint32_t key, std::uint32_t slot) {
    const staging::ObjectDescriptor desc = desc_of(w.index, key);
    const PayloadBuffer& p = w.payloads[slot];
    const corec::ServerId primary = fabric.route(desc);
    corec::Status st = fabric.put(
        primary,
        staging::DataObject::with_checksum(desc, p, crcs[w.index][slot]),
        staging::StoredKind::kPrimary);
    if (st.ok()) {
      staging::ObjectLocation loc;
      loc.primary = primary;
      loc.logical_size = p.size();
      loc.object_checksum = crcs[w.index][slot];
      fabric.directory().upsert(desc, std::move(loc));
    }
    return st.ok();
  };
  for (Worker& w : workers) {
    for (std::uint32_t key = 0; key < w.live.size(); ++key) {
      store(w, key, static_cast<std::uint32_t>(key % w.payloads.size()));
    }
  }
  const corec::ShardMetricsSnapshot before = fabric.shard_metrics();
  std::vector<FabricReplay> per(workers.size());
  on_all_workers(workers, [&](Worker& w) {
    FabricReplay& out = per[w.index];
    std::uint64_t op_id = static_cast<std::uint64_t>(w.index) << 48;
    for (const Op& op : w.log) {
      const auto a = Clock::now();
      if (op.put) {
        trace::Scope s(kPutSpan, ++op_id);
        if (!store(w, op.key, op.slot)) ++out.failed;
        out.put_us.push_back(micros_between(a, Clock::now()));
      } else {
        trace::Scope s(kGetSpan, ++op_id);
        if (!fabric.get(desc_of(w.index, op.key)).ok()) ++out.failed;
        out.get_us.push_back(micros_between(a, Clock::now()));
      }
    }
  });
  FabricReplay all;
  for (FabricReplay& p : per) {
    all.put_us.insert(all.put_us.end(), p.put_us.begin(), p.put_us.end());
    all.get_us.insert(all.get_us.end(), p.get_us.begin(), p.get_us.end());
    all.failed += p.failed;
  }
  const corec::ShardMetricsSnapshot after = fabric.shard_metrics();
  const double acquisitions =
      static_cast<double>(after.lock_acquisitions - before.lock_acquisitions);
  all.lock_contention =
      acquisitions == 0
          ? 0.0
          : static_cast<double>(after.contended_acquisitions -
                                before.contended_acquisitions) /
                acquisitions;
  return all;
}

/// Feeds head + payload into `fa` in the chunks a socket read would
/// deliver and returns the frame; only the assembler's own work adds to
/// *us.
rpc::Frame feed(rpc::FrameAssembler& fa, const corec::Bytes& head,
                const PayloadBuffer& payload, double* us, bool* ok) {
  std::size_t off = 0;
  const std::size_t total = head.size() + payload.size();
  while (off < total) {
    auto a = Clock::now();
    corec::MutableByteSpan span = fa.next_span();
    *us += micros_between(a, Clock::now());
    if (span.empty()) {
      *ok = false;
      return {};
    }
    std::size_t n = 0;
    while (n < span.size() && off < total) {
      const bool in_head = off < head.size();
      const std::uint8_t* src =
          in_head ? head.data() + off : payload.data() + (off - head.size());
      const std::size_t avail =
          in_head ? head.size() - off : total - off;
      const std::size_t k = std::min(avail, span.size() - n);
      std::memcpy(span.data() + n, src, k);
      n += k;
      off += k;
    }
    a = Clock::now();
    *ok &= fa.advance(n).ok();
    *us += micros_between(a, Clock::now());
  }
  const auto a = Clock::now();
  if (!fa.frame_ready()) {
    *ok = false;
    return {};
  }
  rpc::Frame f = fa.take_frame();
  *us += micros_between(a, Clock::now());
  return f;
}

corec::Bytes frame_head(rpc::OpCode op, std::uint64_t id,
                        const corec::Bytes& prefix, std::size_t payload) {
  rpc::FrameHeader h;
  h.opcode = static_cast<std::uint8_t>(op);
  h.request_id = id;
  h.body_len = static_cast<std::uint32_t>(prefix.size() + payload);
  corec::Bytes head;
  rpc::encode_frame_header(h, &head);
  head.insert(head.end(), prefix.begin(), prefix.end());
  return head;
}

/// Mean µs per op of request and response encode plus FrameAssembler
/// parse and body decode, on one server-side and one client-side
/// assembler, over the recorded op stream.
double replay_codec(const std::vector<Worker>& workers, bool* ok) {
  rpc::FrameAssembler server_side, client_side;
  double us = 0.0;
  std::uint64_t ops = 0, id = 0;
  auto timed = [&us](auto&& fn) {
    const auto a = Clock::now();
    auto v = fn();
    us += micros_between(a, Clock::now());
    return v;
  };
  for (const Worker& w : workers) {
    for (const Op& op : w.log) {
      ++ops;
      const staging::ObjectDescriptor desc = desc_of(w.index, op.key);
      const PayloadBuffer& p = w.payloads[op.slot];
      if (op.put) {
        const corec::Bytes head = timed([&] {
          rpc::PutRequest req;
          req.desc = desc;
          req.checksum = 1;
          req.logical_size = p.size();
          return frame_head(rpc::OpCode::kPut, ++id,
                            rpc::encode_put_prefix(req), p.size());
        });
        rpc::Frame in = feed(server_side, head, p, &us, ok);
        *ok &= timed([&] { return rpc::decode_put_request(in.body); }).ok();
        const corec::Bytes resp = timed([&] {
          return frame_head(rpc::OpCode::kPut, id, {}, 0);
        });
        rpc::Frame back = feed(client_side, resp, {}, &us, ok);
        *ok &= back.header.request_id == id;
      } else {
        const corec::Bytes head = timed([&] {
          return frame_head(rpc::OpCode::kGet, ++id,
                            rpc::encode_get_request(desc), 0);
        });
        rpc::Frame in = feed(server_side, head, {}, &us, ok);
        *ok &= timed([&] { return rpc::decode_get_request(in.body); }).ok();
        staging::StoredObject stored;
        stored.object = staging::DataObject::with_checksum(desc, p, 1);
        const corec::Bytes resp = timed([&] {
          return frame_head(rpc::OpCode::kGet, id,
                            rpc::encode_get_response_prefix(stored), p.size());
        });
        rpc::Frame back = feed(client_side, resp, p, &us, ok);
        *ok &= timed([&] { return rpc::decode_get_response(back.body); }).ok();
      }
    }
  }
  return ops == 0 ? 0.0 : us / static_cast<double>(ops);
}

}  // namespace

Result run_serve(const Args& args) {
  Result r;
  const Shape shape = shape_of(args);
  std::string flags;
  for (const std::string& f : kServerFlags) {
    flags += (flags.empty() ? "" : " ") + f;
  }
  CpuRotation rotation;
  r.notes.push_back("\"server_flags\": \"" + flags +
                    " (sync dispatch)\", \"client\": \"rpc::Client, " +
                    std::to_string(kThreads) + " thread, " +
                    std::to_string(kConnections) +
                    " connection, closed loop\", \"cpu_rotation\": " +
                    std::to_string(rotation.cpus().size()));

  // Inputs: every put body is built here, before any timing.
  std::vector<Worker> workers(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    Worker& w = workers[t];
    w.index = t;
    w.rng_state = mix64(args.seed * 0x1000193ULL + t);
    w.live.resize(shape.keys_per_thread);
    for (std::size_t s = 0; s < shape.payloads_per_thread; ++s) {
      corec::Bytes b(shape.object_bytes);
      fill_bytes(b.data(), b.size(), mix64(args.seed ^ (t << 32) ^ s));
      w.payloads.push_back(PayloadBuffer::wrap(std::move(b)));
    }
  }

  // Set-up: server start, pool connect and key seeding, repeated on a
  // fresh server each time, each on the next CPU of the rotation; the
  // last one stays up for the measurement. Like every rate below, a
  // set-up time leaves out what the host stole from its CPU.
  ServerProcess server;
  std::unique_ptr<rpc::Client> client;
  std::vector<double> setups;
  for (int rep = 0; rep < shape.setup_repeats; ++rep) {
    client.reset();
    server.stop();
    rotation.hop(static_cast<std::size_t>(rep), 0);
    const double steal0 = rotation.steal_s();
    const auto a = Clock::now();
    corec::Status st = server.start(args.server_bin);
    if (!st.ok()) {
      r.fail("server start: " + st.to_string());
      return r;
    }
    rpc::ClientOptions opts;
    opts.port = server.port();
    opts.pool_size = kConnections;
    client = std::make_unique<rpc::Client>(opts);
    st = client->connect_pool();
    if (!st.ok()) {
      r.fail("connect: " + st.to_string());
      return r;
    }
    on_all_workers(workers, [&](Worker& w) { seed_keys(*client, w); });
    setups.push_back(seconds_between(a, Clock::now()) -
                     (rotation.steal_s() - steal0));
  }

  // Warm-up, then the measurement, both cut into windows that each run
  // on the next CPU of the rotation. A traced run alternates untraced
  // and traced windows of equal length, so the tracing overhead it
  // reports is not confounded by drift in the host's load.
  std::size_t hops = 0;
  std::vector<double> window_steal;
  auto phase = [&](double seconds, bool record, bool traced) {
    const auto start = Clock::now();
    const auto windows = static_cast<std::size_t>(
        std::max(1.0, std::round(seconds / shape.window_s)));
    window_steal.clear();
    for (std::size_t i = 1; i <= windows; ++i) {
      rotation.hop(hops++, server.pid());
      const double steal0 = rotation.steal_s();
      const PhaseSpec spec{
          start,
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(
                          seconds * static_cast<double>(i) /
                          static_cast<double>(windows))),
          record, traced};
      on_all_workers(workers,
                     [&](Worker& w) { run_phase(*client, w, shape, spec); });
      window_steal.push_back(rotation.steal_s() - steal0);
    }
  };
  phase(args.smoke ? 0.05 : std::min(1.0, args.seconds * 0.1), false, false);
  const auto& pm = corec::payload_metrics();
  std::uint64_t copied = 0, cows = 0, crcs = 0;
  double measured_s = args.seconds;
  std::vector<double> measured_steal;
  if (!args.trace) {
    phase(args.seconds, true, false);
    measured_steal = window_steal;
  } else {
    const int pairs = static_cast<int>(
        std::max(1.0, std::round(args.seconds / 2 / shape.window_s)));
    measured_s = args.seconds / 2 / pairs;
    // Pairs alternate which half runs first, so neither mode always
    // follows the other.
    for (int i = 0; i < 2 * pairs; ++i) {
      const bool traced_window = (i % 2 == 0) == (i / 2 % 2 == 1);
      if (!traced_window) {
        phase(measured_s, true, false);
        continue;
      }
      const std::uint64_t copied0 = pm.bytes_copied.load();
      const std::uint64_t cow0 = pm.cow_detaches.load();
      const std::uint64_t crc0 = pm.crc_computed.load();
      trace::set_enabled(true);
      phase(measured_s, true, true);
      trace::set_enabled(false);
      copied += pm.bytes_copied.load() - copied0;
      cows += pm.cow_detaches.load() - cow0;
      crcs += pm.crc_computed.load() - crc0;
    }
  }
  Summary plain = summarize(workers, &Worker::samples, measured_s,
                            shape.window_s, measured_steal);
  Summary traced =
      summarize(workers, &Worker::traced_samples, measured_s, shape.window_s);

  // Storage efficiency of the served path: user bytes of the live key
  // set over the bytes the server reports stored.
  double efficiency = 0.0;
  auto stat = client->stat();
  if (!stat.ok()) {
    r.fail("stat: " + stat.status().to_string());
  } else if (stat->total_bytes > 0) {
    efficiency = static_cast<double>(kThreads * shape.keys_per_thread *
                                     shape.object_bytes) /
                 static_cast<double>(stat->total_bytes);
  }
  const rpc::ClientStatsSnapshot cstats = client->stats();
  const double server_rss = peak_rss_mib(server.pid());
  client.reset();
  const std::string report = server.stop();
  if (report.find("corec-server stats {") == std::string::npos) {
    r.fail("server shutdown report missing");
  }

  for (Worker& w : workers) {
    r.attempted += w.attempted;
    r.failed += w.failed;
    for (std::string& e : w.errors) r.fail(e);
  }

  if (!args.trace) {
    r.add("setup_s", median(setups), "s");
    r.add("ops_s", plain.ops_s, "1/s");
    r.add("mib_s",
          plain.ops_s * static_cast<double>(shape.object_bytes) / (1 << 20),
          "MiB/s");
    r.add("put_p50_us", plain.put_p50_us, "us");
    r.add("put_p90_us", plain.put_p90_us, "us");
    r.add("get_p50_us", plain.get_p50_us, "us");
    r.add("get_p90_us", plain.get_p90_us, "us");
    r.add("storage_efficiency", efficiency, "ratio");
    r.add("peak_rss_mib", server_rss, "MiB");
    r.note("put_samples", static_cast<double>(plain.put_us.size()), "count");
    r.note("get_samples", static_cast<double>(plain.get_us.size()), "count");
    r.note("put_p99_us", percentile(plain.put_us, 0.99), "us");
    r.note("get_p99_us", percentile(plain.get_us, 0.99), "us");
    r.note("window_s", shape.window_s, "s");
    r.note("stolen_s",
           std::accumulate(measured_steal.begin(), measured_steal.end(), 0.0),
           "s");
    return r;
  }

  // ---- traced run: per-layer metrics ---------------------------------------
  const double frames_in = json_number(report, "frames_in");
  r.add("rpc.recv_per_frame", json_number(report, "recv_per_frame"),
        "calls/frame");
  r.add("rpc.writev_per_frame", json_number(report, "writev_per_frame"),
        "calls/frame");
  r.add("rpc.backpressure_pauses",
        count_before(report, "backpressure pauses"), "count");
  r.add("rpc.client_retries", static_cast<double>(cstats.retries), "count");
  r.add("buffer.pool_miss_per_frame",
        json_number(report, "pool_miss_per_frame"), "ratio");
  r.add("buffer.pool_oversize_per_frame",
        frames_in == 0 ? 0.0 : json_number(report, "pool_oversize") / frames_in,
        "ratio");
  r.add("buffer.bytes_copied_per_user_byte",
        static_cast<double>(copied) /
            (traced.ops() * static_cast<double>(shape.object_bytes)),
        "ratio");
  r.add("buffer.cow_detaches", static_cast<double>(cows), "count");
  r.add("checksum.crc_calls", static_cast<double>(crcs), "count");
  r.add("checksum.crc_mib_s", crc_mib_s(shape.object_bytes, args.smoke),
        "MiB/s");
  r.add("client.put_samples", static_cast<double>(traced.put_us.size()),
        "count");
  r.add("client.get_samples", static_cast<double>(traced.get_us.size()),
        "count");

  r.add("trace.overhead_ratio", traced.mean_us / plain.mean_us, "ratio");

  bool codec_ok = true;
  const double codec_us = replay_codec(workers, &codec_ok);
  if (!codec_ok) r.fail("codec replay failed to round-trip a frame");
  trace::set_enabled(true);
  FabricReplay fab = replay_fabric(workers);
  trace::set_enabled(false);
  if (fab.failed != 0) r.fail("fabric replay: operations failed");
  r.add("rpc.codec_us", codec_us, "us");
  std::vector<double> fab_all = fab.put_us;
  fab_all.insert(fab_all.end(), fab.get_us.begin(), fab.get_us.end());
  const double fabric_mean_us = mean(fab_all);
  r.add("rpc.transport_us", traced.mean_us - fabric_mean_us - codec_us, "us");
  r.add("fabric.put_p50_us", percentile(fab.put_us, 0.50), "us");
  r.add("fabric.put_p99_us", percentile(fab.put_us, 0.99), "us");
  r.add("fabric.get_p50_us", percentile(fab.get_us, 0.50), "us");
  r.add("fabric.get_p99_us", percentile(fab.get_us, 0.99), "us");
  r.add("fabric.lock_contention", fab.lock_contention, "ratio");

  double client_self = 0.0, fabric_self = 0.0;
  for (const auto& [name, t] : trace::totals()) {
    if (name.rfind("client.", 0) == 0) client_self += t.self_ms;
    if (name.rfind("fabric.", 0) == 0) fabric_self += t.self_ms;
  }
  r.add("self.client_ms", client_self, "ms");
  r.add("self.codec_ms", codec_us * traced.ops() / 1e3, "ms");
  r.add("self.fabric_ms", fabric_self, "ms");
  r.note("server_peak_rss_mib", server_rss, "MiB");
  r.note("recv_data_calls", json_number(report, "recv_data_calls"), "count");
  r.note("frames_in", frames_in, "count");

  const std::string path = args.out_dir + "/spans-" + args.workload + ".csv";
  if (!trace::write_csv(path)) r.fail("cannot write " + path);
  return r;
}

}  // namespace perfbench
