#include "workloads/driver.hpp"

#include <algorithm>
#include <cassert>

#include "staging/hyperslab.hpp"

namespace corec::workloads {

namespace {

/// Spacing between successive analysis-rank read requests within a
/// step (analysis ranks process as they go; they do not fire all
/// requests in one instant).
constexpr SimTime kReadStagger = from_micros(300);
/// Salt of the deterministic real-payload contents.
constexpr std::uint64_t kPayloadSeed = 99;

}  // namespace

double RunMetrics::avg_write_response() const {
  RunningStat pooled;
  for (const auto& s : steps) pooled.merge(s.write_response);
  return pooled.mean();
}

double RunMetrics::avg_read_response() const {
  RunningStat pooled;
  for (const auto& s : steps) pooled.merge(s.read_response);
  return pooled.mean();
}

std::size_t RunMetrics::data_loss_reads() const {
  std::size_t n = 0;
  for (const auto& s : steps) n += s.data_loss_reads;
  return n;
}

std::size_t RunMetrics::corrupt_reads() const {
  std::size_t n = 0;
  for (const auto& s : steps) n += s.corrupt_reads;
  return n;
}

WorkloadDriver::WorkloadDriver(staging::StagingService* service,
                               DriverOptions options)
    : service_(service), options_(options) {
  if (options_.verify_reads) options_.real_payloads = true;
}

void WorkloadDriver::add_hook(Version step, std::function<void()> hook) {
  hooks_.emplace(step, std::move(hook));
}

void WorkloadDriver::fill_payload(VarId var, const geom::BoundingBox& box,
                                  Version step,
                                  const geom::BoundingBox& domain,
                                  Bytes* payload, Bytes* mirror,
                                  std::size_t element_size) {
  payload->resize(static_cast<std::size_t>(box.volume()) * element_size);
  // Deterministic content: a cheap hash of (var, step, byte index)
  // salted by the box corner, so every region/version is distinct.
  std::uint64_t salt =
      (static_cast<std::uint64_t>(var) << 40) ^
      (static_cast<std::uint64_t>(step) << 20) ^
      (static_cast<std::uint64_t>(box.lo()[0]) * 2654435761u) ^
      kPayloadSeed;
  for (std::size_t i = 0; i < payload->size(); ++i) {
    std::uint64_t h = salt + i * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    (*payload)[i] = static_cast<std::uint8_t>(h >> 56);
  }
  if (mirror != nullptr) {
    Status st = staging::copy_region(*payload, box,
                                     MutableByteSpan(*mirror), domain,
                                     box, element_size);
    assert(st.ok());
    (void)st;
  }
}

RunMetrics WorkloadDriver::run(const WorkloadPlan& plan) {
  RunMetrics metrics;
  metrics.steps.resize(plan.steps.size());
  const std::size_t elem = plan.element_size;
  assert(elem == service_->options().fit.element_size &&
         "service must be configured with the plan's element size");

  mirrors_.clear();
  const std::size_t domain_bytes =
      static_cast<std::size_t>(plan.domain.volume()) * elem;
  auto mirror_of = [&](VarId var) -> Bytes* {
    if (!options_.verify_reads) return nullptr;
    Bytes& m = mirrors_[var];
    if (m.size() != domain_bytes) m.assign(domain_bytes, 0);
    return &m;
  };

  auto& sim = service_->sim();
  SimTime start = sim.now();
  SimTime t = start;

  for (Version step = 0; step < plan.steps.size(); ++step) {
    sim.run_until(t);
    auto [lo, hi] = hooks_.equal_range(step);
    for (auto it = lo; it != hi; ++it) it->second();

    StepMetrics& sm = metrics.steps[step];
    const StepPlan& sp = plan.steps[step];

    // --- write phase (simulation ranks) ---------------------------------
    SimTime write_end = t;
    Bytes payload;
    for (const auto& w : sp.writes) {
      staging::OpResult res;
      if (options_.real_payloads) {
        fill_payload(w.var, w.box, step, plan.domain, &payload,
                     mirror_of(w.var), elem);
        res = service_->put(w.var, step, w.box, payload);
      } else {
        res = service_->put_phantom(w.var, step, w.box);
      }
      ++metrics.total_writes;
      if (res.status.ok()) {
        sm.write_response.add(to_seconds(res.response_time()));
        sm.write_bd += res.breakdown;
      } else {
        ++sm.write_failures;
      }
      write_end = std::max(write_end, res.completed);
    }
    sim.run_until(write_end);

    // --- read phase (analysis ranks) -------------------------------------
    SimTime read_end = write_end;
    Bytes out;
    std::size_t read_index = 0;
    for (const auto& r : sp.reads) {
      sim.run_until(write_end +
                    static_cast<SimTime>(read_index++) *
                        kReadStagger);
      Bytes* out_ptr = options_.real_payloads ? &out : nullptr;
      staging::OpResult res =
          service_->get(r.var, step, r.box, out_ptr);
      ++metrics.total_reads;
      if (res.status.ok()) {
        sm.read_response.add(to_seconds(res.response_time()));
        sm.read_bd += res.breakdown;
        if (options_.verify_reads) {
          ++sm.verified_reads;
          // A piece was found, so the var has been written and its
          // mirror exists.
          auto expected = staging::extract_region(*mirror_of(r.var),
                                                  plan.domain, r.box,
                                                  elem);
          assert(expected.ok());
          if (!(expected.value() == out)) ++sm.corrupt_reads;
        }
      } else if (res.status.code() == StatusCode::kDataLoss) {
        ++sm.data_loss_reads;
        ++sm.read_failures;
      } else if (res.status.code() == StatusCode::kNotFound) {
        // The workload read a region nothing has written yet (sparse
        // write patterns, cases 2 and 4) — expected, not a fault.
        ++sm.not_found_reads;
      } else {
        ++sm.read_failures;
      }
      read_end = std::max(read_end, res.completed);
    }
    sim.run_until(read_end);

    service_->end_time_step(step);
    metrics.write_bd += sm.write_bd;
    metrics.read_bd += sm.read_bd;
    t = read_end + options_.step_gap;
  }

  sim.run_until(t);
  metrics.makespan = sim.now() - start;
  metrics.storage_efficiency = service_->storage_efficiency();
  return metrics;
}

}  // namespace corec::workloads
