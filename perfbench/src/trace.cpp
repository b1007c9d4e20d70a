#include "trace.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

namespace perfbench::trace {

struct Span {
  std::uint32_t name = 0;
  std::int64_t parent = -1;  // index in the same thread's log
  std::uint64_t op = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

struct ThreadLog {
  std::size_t thread = 0;
  std::vector<Span> spans;
  std::vector<std::size_t> open;  // stack of unfinished span indices
};

namespace {

std::atomic<bool> g_enabled{false};
std::mutex g_mu;  // guards g_names and g_logs
std::vector<std::string> g_names;
std::vector<std::unique_ptr<ThreadLog>> g_logs;
thread_local ThreadLog* t_log = nullptr;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ThreadLog* this_thread_log() {
  if (t_log == nullptr) {
    std::lock_guard<std::mutex> lk(g_mu);
    g_logs.push_back(std::make_unique<ThreadLog>());
    g_logs.back()->thread = g_logs.size() - 1;
    t_log = g_logs.back().get();
  }
  return t_log;
}

// Self time of each span: its duration minus its direct children's.
std::vector<std::int64_t> self_ns(const ThreadLog& log) {
  std::vector<std::int64_t> self(log.spans.size());
  for (std::size_t i = 0; i < log.spans.size(); ++i) {
    self[i] = log.spans[i].end_ns - log.spans[i].start_ns;
  }
  for (const Span& s : log.spans) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
    }
  }
  return self;
}

}  // namespace

std::uint32_t intern(const std::string& name) {
  std::lock_guard<std::mutex> lk(g_mu);
  for (std::size_t i = 0; i < g_names.size(); ++i) {
    if (g_names[i] == name) return static_cast<std::uint32_t>(i);
  }
  g_names.push_back(name);
  return static_cast<std::uint32_t>(g_names.size() - 1);
}

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

Scope::Scope(std::uint32_t name, std::uint64_t op) {
  if (!enabled()) return;
  log_ = this_thread_log();
  Span s;
  s.name = name;
  s.op = op;
  if (!log_->open.empty()) {
    const std::size_t parent = log_->open.back();
    s.parent = static_cast<std::int64_t>(parent);
    if (op == 0) s.op = log_->spans[parent].op;
  }
  index_ = log_->spans.size();
  log_->open.push_back(index_);
  s.start_ns = now_ns();
  log_->spans.push_back(s);
}

Scope::~Scope() {
  if (log_ == nullptr) return;
  log_->spans[index_].end_ns = now_ns();
  log_->open.pop_back();
}

std::map<std::string, Totals> totals() {
  std::lock_guard<std::mutex> lk(g_mu);
  std::map<std::string, Totals> out;
  for (const auto& log : g_logs) {
    const std::vector<std::int64_t> self = self_ns(*log);
    for (std::size_t i = 0; i < log->spans.size(); ++i) {
      const Span& s = log->spans[i];
      Totals& t = out[g_names[s.name]];
      t.count += 1;
      t.total_ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
      t.self_ms += static_cast<double>(self[i]) / 1e6;
    }
  }
  return out;
}

std::vector<double> durations_us(const std::string& name) {
  std::lock_guard<std::mutex> lk(g_mu);
  std::vector<double> out;
  for (const auto& log : g_logs) {
    for (const Span& s : log->spans) {
      if (g_names[s.name] == name) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
      }
    }
  }
  return out;
}

void clear() {
  std::lock_guard<std::mutex> lk(g_mu);
  for (auto& log : g_logs) {
    log->spans.clear();
    log->open.clear();
  }
}

bool write_csv(const std::string& path) {
  std::lock_guard<std::mutex> lk(g_mu);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "thread,index,name,parent,op,start_ns,end_ns\n");
  for (const auto& log : g_logs) {
    for (std::size_t i = 0; i < log->spans.size(); ++i) {
      const Span& s = log->spans[i];
      std::fprintf(f, "%zu,%zu,%s,%lld,%llu,%lld,%lld\n", log->thread, i,
                   g_names[s.name].c_str(),
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.op),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench::trace
