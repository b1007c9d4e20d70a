// corec_s3d: the in-process CoREC engine (StagingService + CorecScheme)
// on real payloads, configured as `corec-sim --s3d 4480 --scale 4
// --steps 10 --verify --fail 4:2 --replace 6:2` configures it: 4096
// writer ranks x 32 KiB blocks and 128 analysis reads per step, RS(3+1),
// 8 servers in 4 cabinets, server 2 killed at step 4 and replaced at
// step 6. The benchmark drives the plan itself, on the virtual-time
// schedule corec-sim uses (puts, staggered gets, a compute gap), so
// payload generation and read verification stay outside the timed
// calls. The seed picks the payload bytes; the engine's work and its
// virtual-time outcome are the same for every seed.
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/corec_scheme.hpp"
#include "decorators.hpp"
#include "erasure/codec.hpp"
#include "sim/simulation.hpp"
#include "staging/service.hpp"
#include "trace.hpp"
#include "workloads/mechanisms.hpp"
#include "workloads/s3d.hpp"

namespace perfbench {
namespace {

using corec::SimTime;
using corec::Version;
namespace staging = corec::staging;
namespace workloads = corec::workloads;

constexpr corec::ServerId kFailServer = 2;
constexpr Version kFailStep = 4;
constexpr Version kReplaceStep = 6;
// corec-sim's schedule: the compute gap between steps and the spacing
// of analysis reads within a step.
constexpr SimTime kStepGap = corec::from_seconds(0.02);
constexpr SimTime kReadStagger = corec::from_micros(300);

struct Config {
  workloads::S3dConfig s3d;
  std::size_t object_bytes = 0;
};

Config make_config(bool smoke) {
  Config c;
  // Smoke runs shrink the blocks to 4^3 doubles and keep enough steps
  // to cross the failure and the replacement.
  c.s3d = workloads::scaled(workloads::s3d_4480(), smoke ? 16 : 4);
  c.s3d.time_steps = smoke ? 7 : 10;
  c.object_bytes = static_cast<std::size_t>(c.s3d.block_extent) *
                   static_cast<std::size_t>(c.s3d.block_extent) *
                   static_cast<std::size_t>(c.s3d.block_extent) *
                   c.s3d.element_size;
  return c;
}

staging::ServiceOptions make_service_options(const Config& c) {
  staging::ServiceOptions opts = workloads::s3d_service_options(c.s3d);
  opts.topology = corec::net::Topology(4, 2, 1);  // --servers 8 --cabinets 4
  opts.seed = 42;
  return opts;
}

/// Value of the element at global grid point (x, y, z) after step
/// `step`: every byte of every version is distinct and recomputable,
/// so reads verify without a mirror of the domain.
struct Field {
  std::uint64_t seed;
  corec::geom::Coord dy, dz;  // domain extents of the two inner dims

  std::uint64_t at(Version step, corec::geom::Coord x, corec::geom::Coord y,
                   corec::geom::Coord z) const {
    const auto linear = static_cast<std::uint64_t>((x * dy + y) * dz + z);
    return mix64(seed ^ (static_cast<std::uint64_t>(step) << 40) ^ linear);
  }

  /// Row-major (last dimension fastest) contents of `box` at `step`.
  void fill(const corec::geom::BoundingBox& box, Version step,
            std::uint8_t* out) const {
    std::size_t off = 0;
    for (auto x = box.lo()[0]; x <= box.hi()[0]; ++x) {
      for (auto y = box.lo()[1]; y <= box.hi()[1]; ++y) {
        for (auto z = box.lo()[2]; z <= box.hi()[2]; ++z) {
          const std::uint64_t v = at(step, x, y, z);
          std::memcpy(out + off, &v, 8);
          off += 8;
        }
      }
    }
  }

  bool matches(const corec::geom::BoundingBox& box, Version step,
               const corec::Bytes& got) const {
    if (got.size() != box.volume() * 8) return false;
    std::size_t off = 0;
    for (auto x = box.lo()[0]; x <= box.hi()[0]; ++x) {
      for (auto y = box.lo()[1]; y <= box.hi()[1]; ++y) {
        for (auto z = box.lo()[2]; z <= box.hi()[2]; ++z) {
          const std::uint64_t v = at(step, x, y, z);
          if (std::memcmp(got.data() + off, &v, 8) != 0) return false;
          off += 8;
        }
      }
    }
    return true;
  }
};

/// Virtual-time outcome of one plan execution; identical for every
/// execution of one seed.
struct Exact {
  SimTime write_response_sum = 0;
  SimTime read_response_sum = 0;
  std::uint64_t writes_ok = 0;
  std::uint64_t reads_ok = 0;
  staging::Breakdown write_bd;
  staging::Breakdown read_bd;
  double storage_efficiency = 0.0;
  corec::core::CorecStats stats;
  std::size_t repair_backlog = 0;

  bool operator==(const Exact& o) const {
    auto same_bd = [](const staging::Breakdown& a,
                      const staging::Breakdown& b) {
      return a.transport == b.transport && a.metadata == b.metadata &&
             a.encode == b.encode && a.decode == b.decode &&
             a.classify == b.classify && a.copy == b.copy;
    };
    return write_response_sum == o.write_response_sum &&
           read_response_sum == o.read_response_sum &&
           writes_ok == o.writes_ok && reads_ok == o.reads_ok &&
           same_bd(write_bd, o.write_bd) && same_bd(read_bd, o.read_bd) &&
           storage_efficiency == o.storage_efficiency &&
           stats.writes_replicated == o.stats.writes_replicated &&
           stats.writes_encoded == o.stats.writes_encoded &&
           stats.demotions == o.stats.demotions &&
           stats.promotions == o.stats.promotions &&
           repair_backlog == o.repair_backlog;
  }
};

struct Episode {
  double setup_s = 0.0;
  double timed_s = 0.0;  // sum of the timed engine calls
  double bytes_moved = 0.0;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::vector<double> put_us;
  std::vector<double> get_us;
  Exact exact;
  std::uint64_t bytes_copied = 0;
  std::uint64_t cow_detaches = 0;
  std::uint64_t crc_calls = 0;
  double bytes_written = 0.0;
};

struct SpanIds {
  std::uint32_t put = trace::intern("service.put");
  std::uint32_t get = trace::intern("service.get");
  std::uint32_t end_step = trace::intern("service.end_time_step");
  std::uint32_t kill = trace::intern("service.kill_server");
  std::uint32_t replace = trace::intern("service.replace_server");
};

/// Builds the plan and the service once and tears them down: the
/// set-up cost a run pays before its first put.
double measure_setup(const Config& c) {
  const auto t0 = Clock::now();
  workloads::WorkloadPlan plan = workloads::make_s3d_plan(c.s3d);
  corec::sim::Simulation sim;
  staging::StagingService service(
      make_service_options(c), &sim,
      workloads::make_scheme(workloads::Mechanism::kCorec));
  return seconds_between(t0, Clock::now());
}

Episode run_episode(const Config& c, std::uint64_t seed, bool traced,
                    std::vector<std::uint8_t>& step_buf, Result& r) {
  static const SpanIds ids;
  Episode ep;
  const auto& pm = corec::payload_metrics();
  const std::uint64_t copied0 = pm.bytes_copied.load();
  const std::uint64_t cow0 = pm.cow_detaches.load();
  const std::uint64_t crc0 = pm.crc_computed.load();

  const auto s0 = Clock::now();
  workloads::WorkloadPlan plan = workloads::make_s3d_plan(c.s3d);
  corec::sim::Simulation sim;
  std::unique_ptr<staging::ResilienceScheme> scheme =
      workloads::make_scheme(workloads::Mechanism::kCorec);
  auto* corec_scheme = dynamic_cast<corec::core::CorecScheme*>(scheme.get());
  if (traced) scheme = std::make_unique<TimedScheme>(std::move(scheme));
  TimedMetadata timed_meta;  // outlives the service that points at it
  staging::StagingService service(make_service_options(c), &sim,
                                  std::move(scheme));
  if (traced) service.attach_metadata(&timed_meta);
  ep.setup_s = seconds_between(s0, Clock::now());
  if (corec_scheme == nullptr) {
    r.fail("corec_s3d: mechanism factory did not build a CorecScheme");
    return ep;
  }

  trace::set_enabled(traced);
  const Field field{seed, c.s3d.domain_y(), c.s3d.domain_z()};
  const std::size_t elem = plan.element_size;
  std::uint64_t op_id = 0;
  auto timed = [&ep](Clock::time_point a) {
    const auto b = Clock::now();
    ep.timed_s += seconds_between(a, b);
    return micros_between(a, b);
  };

  SimTime t = sim.now();
  corec::Bytes out;
  for (Version step = 0; step < plan.steps.size(); ++step) {
    sim.run_until(t);
    if (step == kFailStep) {
      trace::Scope s(ids.kill);
      const auto a = Clock::now();
      service.kill_server(kFailServer);
      timed(a);
    }
    if (step == kReplaceStep) {
      trace::Scope s(ids.replace);
      const auto a = Clock::now();
      service.replace_server(kFailServer);
      timed(a);
    }
    const workloads::StepPlan& sp = plan.steps[step];

    // Every rank's block for this step, generated before any put.
    std::vector<std::size_t> offset(sp.writes.size());
    std::size_t total = 0;
    for (std::size_t i = 0; i < sp.writes.size(); ++i) {
      offset[i] = total;
      total += static_cast<std::size_t>(sp.writes[i].box.volume()) * elem;
    }
    if (step_buf.size() < total) step_buf.resize(total);
    for (std::size_t i = 0; i < sp.writes.size(); ++i) {
      field.fill(sp.writes[i].box, step, step_buf.data() + offset[i]);
    }

    SimTime write_end = t;
    for (std::size_t i = 0; i < sp.writes.size(); ++i) {
      const auto& w = sp.writes[i];
      const std::size_t n = static_cast<std::size_t>(w.box.volume()) * elem;
      staging::OpResult res;
      {
        trace::Scope s(ids.put, ++op_id);
        const auto a = Clock::now();
        res = service.put(w.var, step, w.box,
                          corec::ByteSpan(step_buf.data() + offset[i], n));
        ep.put_us.push_back(timed(a));
      }
      ++ep.ops;
      ep.bytes_moved += static_cast<double>(n);
      ep.bytes_written += static_cast<double>(n);
      if (res.status.ok()) {
        ++ep.exact.writes_ok;
        ep.exact.write_response_sum += res.response_time();
        ep.exact.write_bd += res.breakdown;
      } else {
        ++ep.failed;
        r.fail("put failed at step " + std::to_string(step) + ": " +
               res.status.to_string());
      }
      write_end = std::max(write_end, res.completed);
    }
    sim.run_until(write_end);

    SimTime read_end = write_end;
    SimTime read_index = 0;
    for (const auto& rd : sp.reads) {
      sim.run_until(write_end + read_index++ * kReadStagger);
      staging::OpResult res;
      {
        trace::Scope s(ids.get, ++op_id);
        const auto a = Clock::now();
        res = service.get(rd.var, step, rd.box, &out);
        ep.get_us.push_back(timed(a));
      }
      ++ep.ops;
      if (res.status.ok()) {
        ep.bytes_moved += static_cast<double>(out.size());
        ++ep.exact.reads_ok;
        ep.exact.read_response_sum += res.response_time();
        ep.exact.read_bd += res.breakdown;
        if (!field.matches(rd.box, step, out)) {
          ++ep.failed;
          r.fail("read at step " + std::to_string(step) + " of " +
                 rd.box.to_string() + " returned wrong bytes");
        }
      } else {
        // Data loss, a missing region and any other error all fail:
        // every read targets a region written earlier in its step.
        ++ep.failed;
        r.fail("get failed at step " + std::to_string(step) + ": " +
               res.status.to_string());
      }
      read_end = std::max(read_end, res.completed);
    }
    sim.run_until(read_end);

    {
      trace::Scope s(ids.end_step);
      const auto a = Clock::now();
      service.end_time_step(step);
      timed(a);
    }
    t = read_end + kStepGap;
  }
  sim.run_until(t);
  trace::set_enabled(false);

  ep.exact.storage_efficiency = service.storage_efficiency();
  ep.exact.stats = corec_scheme->stats();
  ep.exact.repair_backlog = service.scheme().repair_backlog();
  if (ep.exact.repair_backlog != 0) {
    r.fail("repair backlog " + std::to_string(ep.exact.repair_backlog) +
           " at the end of the run");
  }
  if (service.stored_bytes() != service.stored_bytes_recomputed()) {
    r.fail("stored_bytes() " + std::to_string(service.stored_bytes()) +
           " != stored_bytes_recomputed() " +
           std::to_string(service.stored_bytes_recomputed()));
  }
  ep.bytes_copied = pm.bytes_copied.load() - copied0;
  ep.cow_detaches = pm.cow_detaches.load() - cow0;
  ep.crc_calls = pm.crc_computed.load() - crc0;
  return ep;
}

/// GF encode/decode and CRC32C rates on this workload's stripe
/// geometry (RS(3+1) over one block) and object size.
void kernel_rates(const Config& c, bool smoke, Result& r) {
  const std::size_t k = 3, m = 1;
  const std::size_t chunk = (c.object_bytes + k - 1) / k;
  const int iters = smoke ? 16 : 1024;
  std::vector<std::uint8_t> blocks((k + m) * chunk);
  fill_bytes(blocks.data(), blocks.size(), 7);
  std::vector<corec::ByteSpan> data;
  std::vector<corec::MutableByteSpan> all;
  for (std::size_t i = 0; i < k + m; ++i) {
    all.emplace_back(blocks.data() + i * chunk, chunk);
    if (i < k) data.emplace_back(blocks.data() + i * chunk, chunk);
  }
  auto codec = corec::erasure::make_reed_solomon(k, m);
  if (!codec.ok()) {
    r.fail("make_reed_solomon: " + codec.status().to_string());
    return;
  }
  const corec::erasure::Codec& rs = **codec;
  const double stripe_bytes = static_cast<double>(k * chunk) * iters;
  bool ok = true;
  const double enc = rate_mib_s(stripe_bytes, [&] {
    for (int i = 0; i < iters; ++i) {
      ok &= rs.encode_view(data.data(), k, &all[k], m).ok();
    }
  });
  const std::size_t erased = 1;
  const double dec = rate_mib_s(stripe_bytes, [&] {
    for (int i = 0; i < iters; ++i) {
      ok &= rs.decode_view(all.data(), all.size(), &erased, 1).ok();
    }
  });
  if (!ok) r.fail("GF kernel rate pass: encode/decode failed");

  r.add("gf.encode_mib_s", enc, "MiB/s");
  r.add("gf.decode_mib_s", dec, "MiB/s");
  r.add("checksum.crc_mib_s", crc_mib_s(c.object_bytes, smoke), "MiB/s");
}

void add_exact(const Exact& e, Result& r) {
  auto per_op_ms = [](SimTime sum, std::uint64_t n) {
    return n == 0 ? 0.0 : corec::to_seconds(sum) * 1e3 / static_cast<double>(n);
  };
  r.add("sim.write_ms", per_op_ms(e.write_response_sum, e.writes_ok), "ms");
  r.add("sim.read_ms", per_op_ms(e.read_response_sum, e.reads_ok), "ms");
  const struct {
    const char* name;
    SimTime staging::Breakdown::*field;
  } cats[] = {{"transport", &staging::Breakdown::transport},
              {"metadata", &staging::Breakdown::metadata},
              {"encode", &staging::Breakdown::encode},
              {"decode", &staging::Breakdown::decode},
              {"classify", &staging::Breakdown::classify},
              {"copy", &staging::Breakdown::copy}};
  for (const auto& cat : cats) {
    r.add(std::string("sim.write.") + cat.name + "_ms",
          per_op_ms(e.write_bd.*cat.field, e.writes_ok), "ms");
    r.add(std::string("sim.read.") + cat.name + "_ms",
          per_op_ms(e.read_bd.*cat.field, e.reads_ok), "ms");
  }
}

}  // namespace

Result run_corec_s3d(const Args& args) {
  Result r;
  const Config c = make_config(args.smoke);
  r.notes.push_back(
      "\"engine_config\": \"corec-sim --s3d 4480 --scale " +
      std::to_string(64 / c.s3d.block_extent) + " --steps " +
      std::to_string(c.s3d.time_steps) +
      " --verify --fail 4:2 --replace 6:2\"");

  std::vector<double> setups;
  for (int i = 0; i < 21; ++i) setups.push_back(measure_setup(c));

  std::vector<std::uint8_t> step_buf;
  std::vector<Episode> episodes;
  const auto start = Clock::now();
  // Untraced passes until the time is used (at least one). A traced run
  // makes two untraced passes and then a traced one, and reports the
  // tracing overhead against the second: both pay no first-touch faults.
  do {
    episodes.push_back(run_episode(c, args.seed, false, step_buf, r));
    setups.push_back(episodes.back().setup_s);
  } while (args.trace ? episodes.size() < 2
                      : seconds_between(start, Clock::now()) < args.seconds);
  if (args.trace) {
    trace::clear();
    episodes.push_back(run_episode(c, args.seed, true, step_buf, r));
  }

  for (const Episode& ep : episodes) {
    r.attempted += ep.ops;
    r.failed += ep.failed;
    if (!(ep.exact == episodes.front().exact)) {
      r.fail("virtual-time outcome differs between passes of one seed");
    }
  }
  const Exact& exact = episodes.front().exact;
  const double peak = peak_rss_mib();

  if (!args.trace) {
    // Each figure is the median over passes, so outside load that slows
    // one pass does not move the result.
    std::vector<double> ops_s, mib_s, put50, put90, get50, get90;
    std::vector<double> all_put, all_get;
    for (const Episode& ep : episodes) {
      std::vector<double> put = ep.put_us, get = ep.get_us;
      ops_s.push_back(static_cast<double>(ep.ops) / ep.timed_s);
      mib_s.push_back(ep.bytes_moved / (1 << 20) / ep.timed_s);
      put50.push_back(percentile(put, 0.50));
      put90.push_back(percentile(put, 0.90));
      get50.push_back(percentile(get, 0.50));
      get90.push_back(percentile(get, 0.90));
      all_put.insert(all_put.end(), put.begin(), put.end());
      all_get.insert(all_get.end(), get.begin(), get.end());
    }
    r.add("setup_s", median(setups), "s");
    r.add("ops_s", median(ops_s), "1/s");
    r.add("mib_s", median(mib_s), "MiB/s");
    r.add("put_p50_us", median(put50), "us");
    r.add("put_p90_us", median(put90), "us");
    r.add("get_p50_us", median(get50), "us");
    r.add("get_p90_us", median(get90), "us");
    r.add("storage_efficiency", exact.storage_efficiency, "ratio");
    r.add("peak_rss_mib", peak, "MiB");
    r.note("passes", static_cast<double>(episodes.size()), "count");
    r.note("put_samples_per_pass",
           static_cast<double>(episodes.front().put_us.size()), "count");
    r.note("get_samples_per_pass",
           static_cast<double>(episodes.front().get_us.size()), "count");
    r.note("put_p99_us", percentile(all_put, 0.99), "us");
    r.note("get_p99_us", percentile(all_get, 0.99), "us");
    Result exact_info;
    add_exact(exact, exact_info);
    for (const Metric& m : exact_info.metrics) r.info.push_back(m);
    return r;
  }

  // ---- traced pass: per-layer metrics --------------------------------------
  const Episode& plain = episodes[episodes.size() - 2];
  const Episode& traced = episodes.back();
  const auto totals = trace::totals();
  auto total = [&totals](const std::string& name) {
    auto it = totals.find(name);
    return it == totals.end() ? trace::Totals{} : it->second;
  };
  auto mean_us = [&](const std::string& name) {
    const trace::Totals t = total(name);
    return t.count == 0 ? 0.0 : t.total_ms * 1e3 / static_cast<double>(t.count);
  };
  std::vector<double> sput = trace::durations_us("service.put");
  std::vector<double> sget = trace::durations_us("service.get");
  r.add("service.put_p50_us", percentile(sput, 0.50), "us");
  r.add("service.put_p99_us", percentile(sput, 0.99), "us");
  r.add("service.get_p50_us", percentile(sget, 0.50), "us");
  r.add("service.get_p99_us", percentile(sget, 0.99), "us");
  for (const char* op : {"upsert", "find", "query_latest"}) {
    const std::string name = std::string("directory.") + op;
    r.add(name + "_us", mean_us(name), "us");
    r.add(name + "_calls", static_cast<double>(total(name).count), "count");
  }
  r.add("core.protect_us", mean_us("core.protect"), "us");
  r.add("core.end_of_step_ms", mean_us("core.end_of_step") / 1e3, "ms");
  r.add("core.recovery_ms",
        total("core.on_server_failed").total_ms +
            total("core.on_server_replaced").total_ms +
            total("core.on_access").total_ms,
        "ms");
  const auto& st = exact.stats;
  const double writes =
      static_cast<double>(st.writes_replicated + st.writes_encoded);
  r.add("core.fast_path_ratio",
        writes == 0 ? 0.0 : static_cast<double>(st.writes_replicated) / writes,
        "ratio");
  r.add("core.demotions", static_cast<double>(st.demotions), "count");
  r.add("core.promotions", static_cast<double>(st.promotions), "count");
  r.add("core.repair_backlog_end", static_cast<double>(exact.repair_backlog),
        "count");
  r.add("buffer.bytes_copied_per_user_byte",
        static_cast<double>(traced.bytes_copied) / traced.bytes_written,
        "ratio");
  r.add("buffer.cow_detaches", static_cast<double>(traced.cow_detaches),
        "count");
  r.add("checksum.crc_calls", static_cast<double>(traced.crc_calls), "count");
  kernel_rates(c, args.smoke, r);
  // Every object that entered a stripe was encoded once: fresh writes
  // that took the encode path plus replica->stripe demotions.
  const double bytes_encoded =
      static_cast<double>(st.writes_encoded + st.demotions) *
      static_cast<double>(c.object_bytes);
  r.add("erasure.bytes_encoded", bytes_encoded, "B");
  double enc_rate = 0.0;
  for (const Metric& m : r.metrics) {
    if (m.name == "gf.encode_mib_s") enc_rate = m.value;
  }
  r.add("erasure.encode_ms",
        enc_rate == 0.0 ? 0.0 : bytes_encoded / (1 << 20) / enc_rate * 1e3,
        "ms");
  add_exact(exact, r);
  double service_self = 0.0, core_self = 0.0, dir_self = 0.0;
  for (const auto& [name, t] : totals) {
    if (name.rfind("service.", 0) == 0) service_self += t.self_ms;
    if (name.rfind("core.", 0) == 0) core_self += t.self_ms;
    if (name.rfind("directory.", 0) == 0) dir_self += t.self_ms;
  }
  r.add("self.service_ms", service_self, "ms");
  r.add("self.core_ms", core_self, "ms");
  r.add("self.directory_ms", dir_self, "ms");
  r.add("trace.overhead_ratio", traced.timed_s / plain.timed_s, "ratio");
  r.note("traced_put_samples", static_cast<double>(sput.size()), "count");
  r.note("traced_get_samples", static_cast<double>(sget.size()), "count");
  r.note("peak_rss_mib", peak, "MiB");

  const std::string path = args.out_dir + "/spans-corec_s3d.csv";
  if (!trace::write_csv(path)) r.fail("cannot write " + path);
  return r;
}

}  // namespace perfbench
