// In-memory span recorder for the traced run. A span is one timed call
// into a layer (name, start, end, parent span, op id); spans opened on
// one thread nest by scope, and a layer's self time is its span time
// minus the time of the spans it encloses. Recording is off unless
// enabled, so untraced runs pay one branch per scope.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench::trace {

/// Returns the id of a span name (interned once per name).
std::uint32_t intern(const std::string& name);

void set_enabled(bool on);
bool enabled();

/// Opens a span for the lifetime of the scope. `op` ties the spans of
/// one request together; 0 inherits the enclosing span's op.
class Scope {
 public:
  explicit Scope(std::uint32_t name, std::uint64_t op = 0);
  ~Scope();

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  struct ThreadLog* log_ = nullptr;
  std::size_t index_ = 0;
};

struct Totals {
  std::uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

/// Per span name: call count, summed duration and summed self time.
std::map<std::string, Totals> totals();

/// Durations (µs) of every recorded span called `name`.
std::vector<double> durations_us(const std::string& name);

/// Drops every recorded span (the logs stay registered).
void clear();

/// Writes every span as CSV (thread,index,name,parent,op,start_ns,
/// end_ns). Returns false on an I/O error.
bool write_csv(const std::string& path);

}  // namespace perfbench::trace
