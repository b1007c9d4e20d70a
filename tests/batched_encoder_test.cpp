// Batched pipelined replica→EC encoder: equivalence with the per-object
// transition path, token amortization, and queue/floor accounting.
#include "core/batched_encoder.hpp"

#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "core/corec_scheme.hpp"
#include "staging/service.hpp"

namespace corec::core {
namespace {

using staging::ObjectDescriptor;
using staging::ObjectLocation;
using staging::Protection;
using staging::ServiceOptions;
using staging::StagingService;

ServiceOptions options_8() {
  ServiceOptions opts;
  opts.topology = net::Topology(4, 2, 1);
  opts.domain = geom::BoundingBox::cube(0, 0, 0, 31, 31, 31);
  opts.fit.element_size = 1;
  opts.fit.target_bytes = 64u << 10;
  return opts;
}

CorecOptions corec_opts(bool batched) {
  CorecOptions o;
  o.k = 3;
  o.m = 1;
  o.n_level = 1;
  o.efficiency_floor = 0.67;
  o.transitions = batched ? core::TransitionStrategy::kBatched
                          : core::TransitionStrategy::kTokenSerial;
  o.batch.encode_threads = 1;  // deterministic inline stripe prep
  return o;
}

struct Fixture {
  explicit Fixture(CorecOptions o)
      : scheme_ptr(new CorecScheme(o)),
        service(options_8(), &sim,
                std::unique_ptr<staging::ResilienceScheme>(scheme_ptr)) {}
  sim::Simulation sim;
  CorecScheme* scheme_ptr;  // owned by service
  StagingService service;
};

Bytes block_payload(const geom::BoundingBox& box, std::uint8_t seed) {
  Bytes b(static_cast<std::size_t>(box.volume()));
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = static_cast<std::uint8_t>(seed * 31 + i);
  }
  return b;
}

/// Runs a two-step real-payload workload (step 0 writes, step 1
/// rewrites so step-0 objects go cold and transition) and returns the
/// count of directory records at each protection level.
std::map<Protection, std::size_t> run_workload(Fixture& f) {
  auto blocks = geom::regular_decomposition(f.service.options().domain,
                                            {4, 4, 4});
  for (Version step = 0; step < 2; ++step) {
    std::uint8_t seed = 1;
    for (const auto& b : blocks) {
      auto payload = block_payload(b, seed++);
      EXPECT_TRUE(f.service.put(1, step, b, payload).status.ok());
    }
    f.service.end_time_step(step);
  }
  std::map<Protection, std::size_t> state;
  f.service.directory().for_each(
      [&](const ObjectDescriptor&, const ObjectLocation& loc) {
        ++state[loc.protection];
      });
  return state;
}

TEST(BatchedEncoder, DrainMatchesPerObjectTransitions) {
  Fixture per_object(corec_opts(false));
  Fixture batched(corec_opts(true));
  auto baseline = run_workload(per_object);
  auto got = run_workload(batched);

  // Same directory outcome: every record present, same number at each
  // protection level, same floor compliance. (Which of two *equally*
  // cold entities transitions may differ — the sweep breaks exact
  // prediction/frequency ties by directory order — so per-descriptor
  // identity is deliberately not asserted.)
  EXPECT_EQ(baseline, got);
  EXPECT_EQ(per_object.service.stored_bytes(), batched.service.stored_bytes());
  EXPECT_NEAR(per_object.service.storage_efficiency(),
              batched.service.storage_efficiency(), 1e-9);

  // The batched run actually used the batch path and amortized tokens.
  const BatchedEncoder* enc = batched.scheme_ptr->batch_encoder();
  ASSERT_NE(enc, nullptr);
  EXPECT_TRUE(enc->empty()) << "queue must be drained by end_of_step";
  EXPECT_EQ(enc->pending_encoded_bytes(), 0u);
  const BatchStats& stats = enc->stats();
  EXPECT_GT(stats.objects, 0u);
  EXPECT_EQ(stats.batches, stats.token_acquires);
  EXPECT_LT(stats.token_acquires, stats.objects)
      << "batching should acquire tokens far less than once per object";
  EXPECT_GT(stats.payload_bytes, 0u);
  EXPECT_EQ(stats.verify_skipped_corrupt, 0u);

  EXPECT_EQ(per_object.scheme_ptr->batch_encoder(), nullptr);
}

TEST(BatchedEncoder, ReadsAfterBatchedTransitionReturnOriginalBytes) {
  Fixture f(corec_opts(true));
  auto blocks = geom::regular_decomposition(f.service.options().domain,
                                            {4, 4, 4});
  // var 1 written once at step 0; var 2 keeps writing afterwards so
  // var 1 goes cold and its objects transition through the batch queue.
  std::uint8_t seed = 1;
  std::vector<Bytes> payloads;
  for (const auto& b : blocks) {
    payloads.push_back(block_payload(b, seed++));
    ASSERT_TRUE(f.service.put(1, 0, b, payloads.back()).status.ok());
  }
  f.service.end_time_step(0);
  for (Version step = 1; step < 3; ++step) {
    for (const auto& b : blocks) {
      ASSERT_TRUE(f.service.put(2, step, b, block_payload(b, 201)).status.ok());
    }
    f.service.end_time_step(step);
  }

  // var 1 was (at least partly) batch-encoded by now.
  std::size_t encoded = 0;
  f.service.directory().for_each(
      [&](const ObjectDescriptor& d, const ObjectLocation& loc) {
        if (d.var == 1 && loc.protection == Protection::kEncoded) ++encoded;
      });
  EXPECT_GT(encoded, 0u);

  // Every var-1 block reads back byte-identical, whether it stayed
  // replicated or was batch-encoded.
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    Bytes out;
    auto r = f.service.get(1, 5, blocks[i], &out);
    ASSERT_TRUE(r.status.ok()) << "block " << i;
    EXPECT_EQ(out, payloads[i]) << "block " << i;
  }
}

TEST(BatchedEncoder, PooledStripePrepMatchesInlinePrep) {
  // Stripe prep fanned over worker threads on a fresh service: the
  // first drain is also the first codec lookup, which must not race
  // between workers. Same directory outcome as inline prep, and every
  // block reads back intact.
  CorecOptions pooled = corec_opts(true);
  pooled.batch.encode_threads = 4;
  Fixture inline_prep(corec_opts(true));
  Fixture threaded(pooled);
  EXPECT_EQ(run_workload(inline_prep), run_workload(threaded));
  EXPECT_EQ(inline_prep.service.stored_bytes(),
            threaded.service.stored_bytes());
  EXPECT_GT(threaded.scheme_ptr->batch_encoder()->stats().objects, 0u);
  auto blocks = geom::regular_decomposition(
      threaded.service.options().domain, {4, 4, 4});
  std::uint8_t seed = 1;
  for (const auto& b : blocks) {
    Bytes out;
    ASSERT_TRUE(threaded.service.get(1, 1, b, &out).status.ok());
    EXPECT_EQ(out, block_payload(b, seed++));
  }
}

TEST(BatchedEncoder, SmallBatchLimitCutsMoreBatches) {
  CorecOptions tiny = corec_opts(true);
  tiny.batch.max_batch_objects = 2;
  Fixture small(tiny);
  Fixture large(corec_opts(true));
  run_workload(small);
  run_workload(large);
  const BatchStats& s = small.scheme_ptr->batch_encoder()->stats();
  const BatchStats& l = large.scheme_ptr->batch_encoder()->stats();
  ASSERT_GT(s.objects, 2u);
  EXPECT_EQ(s.objects, l.objects);
  EXPECT_GT(s.batches, l.batches);
  // max_batch_objects=2 bounds every cut.
  EXPECT_GE(s.batches * 2, s.objects);
}

TEST(BatchedEncoder, PipelineOverlapsVerifyBehindEncode) {
  CorecOptions piped = corec_opts(true);
  piped.batch.max_batch_objects = 4;  // several batches per group
  CorecOptions serial = piped;
  serial.batch.pipeline_verify = false;
  Fixture a(piped);
  Fixture b(serial);
  run_workload(a);
  run_workload(b);
  const BatchStats& pa = a.scheme_ptr->batch_encoder()->stats();
  const BatchStats& pb = b.scheme_ptr->batch_encoder()->stats();
  EXPECT_EQ(pa.objects, pb.objects);
  // With pipelining on, later batches' verify runs behind the previous
  // encode; without it, nothing can be hidden.
  EXPECT_GT(pa.verify_hidden, 0);
  EXPECT_EQ(pb.verify_hidden, 0);
}

}  // namespace
}  // namespace corec::core
