#include "core/batched_encoder.hpp"

#include <algorithm>
#include <map>
#include <thread>
#include <utility>

#include "resilience/primitives.hpp"

namespace corec::core {

using resilience::place_encoded;
using resilience::StripePayload;
using staging::Breakdown;
using staging::DataObject;

BatchedEncoder::BatchedEncoder(staging::StagingService* service,
                               EncodingWorkflow* workflow, std::size_t k,
                               std::size_t m, const BatchOptions& options)
    : service_(service),
      workflow_(workflow),
      k_(std::max<std::size_t>(k, 1)),
      m_(m),
      options_(options) {}

std::size_t BatchedEncoder::encoded_footprint(std::size_t logical) const {
  const std::size_t chunk = (logical + k_ - 1) / k_;
  return chunk * (k_ + m_);
}

ThreadPool* BatchedEncoder::pool() {
  if (pool_ == nullptr) {
    std::size_t threads = options_.encode_threads;
    if (threads == 0) {
      threads = std::max(1u, std::thread::hardware_concurrency());
    }
    pool_ = std::make_unique<ThreadPool>(threads);
  }
  return pool_.get();
}

void BatchedEncoder::enqueue(DataObject obj, ServerId primary,
                             std::vector<ServerId> holders) {
  pending_encoded_bytes_ += encoded_footprint(obj.logical_size);
  queue_.push_back(
      Pending{std::move(obj), primary, std::move(holders), kInvalidServer});
}

SimTime BatchedEncoder::drain(SimTime now, Breakdown* bd) {
  if (queue_.empty()) return now;
  std::vector<Pending> work;
  work.swap(queue_);
  pending_encoded_bytes_ = 0;

  // Bucket by encoding-token group of the encoder each transition will
  // use, so one acquire/release pair covers every stripe of a batch.
  // std::map keeps group order deterministic across runs.
  std::map<std::size_t, std::vector<std::size_t>> by_group;
  for (std::size_t i = 0; i < work.size(); ++i) {
    work[i].encoder = workflow_->pick_encoder(work[i].holders, now);
    by_group[workflow_->token_group(work[i].encoder)].push_back(i);
  }

  const auto& cost = service_->cost();
  SimTime last_durable = now;

  for (auto& [group, items] : by_group) {
    (void)group;
    // Cut the group's queue into batches. A batch closes when adding
    // the next object would exceed either limit (an oversized single
    // object still forms a batch of one).
    std::vector<std::pair<std::size_t, std::size_t>> batches;  // [lo, hi)
    std::size_t lo = 0;
    std::size_t bytes = 0;
    for (std::size_t j = 0; j < items.size(); ++j) {
      const std::size_t sz = work[items[j]].obj.logical_size;
      const bool over_bytes =
          j > lo && bytes + sz > options_.max_batch_bytes;
      const bool over_count = j - lo >= options_.max_batch_objects;
      if (over_bytes || over_count) {
        batches.emplace_back(lo, j);
        lo = j;
        bytes = 0;
      }
      bytes += sz;
    }
    batches.emplace_back(lo, items.size());

    // Per-group pipeline timeline: verify of batch i+1 may start when
    // the encode of batch i starts (they run on different members),
    // so the portion of verify that finishes before the previous
    // encode completes is hidden latency.
    SimTime prev_start = now;  // encode start of the previous batch
    SimTime prev_done = now;   // encode completion of the previous batch
    bool first_batch = true;

    // Looked up here, not in the workers: codec() fills a lazy cache,
    // and concurrent first lookups would race on its insert.
    const erasure::Codec& codec = service_->codec(
        static_cast<std::uint32_t>(k_), static_cast<std::uint32_t>(m_));
    for (auto [b_lo, b_hi] : batches) {
      const std::size_t count = b_hi - b_lo;

      // ---- verify + stripe prep (wall-clock: fanned over the pool) --
      std::vector<StripePayload> stripes(count);
      std::vector<char> ok(count, 1);
      SimTime verify_cost = 0;
      auto prep_one = [&](std::size_t r) {
        Pending& p = work[items[b_lo + r]];
        if (p.obj.phantom) return;
        if (p.obj.checksum != 0 &&
            p.obj.data.crc32c() != p.obj.checksum) {
          ok[r] = 0;  // corrupt source: never re-encode bad bytes
          return;
        }
        stripes[r] = resilience::make_stripe_payload(codec, p.obj, k_, m_);
      };
      if (options_.encode_threads == 1 || count == 1) {
        for (std::size_t r = 0; r < count; ++r) prep_one(r);
      } else {
        pool()->parallel_for(count, prep_one);
      }
      for (std::size_t r = 0; r < count; ++r) {
        const Pending& p = work[items[b_lo + r]];
        if (!p.obj.phantom) verify_cost += cost.copy_time(p.obj.logical_size);
      }

      // ---- virtual-time accounting of the verify stage ---------------
      const SimTime verify_start =
          (options_.pipeline_verify && !first_batch) ? prev_start
                                                     : prev_done;
      const SimTime verify_done = verify_start + verify_cost;
      bd->copy += verify_cost;
      if (!first_batch && verify_done > verify_start) {
        stats_.verify_hidden +=
            std::max<SimTime>(0, std::min(verify_done, prev_done) -
                                     verify_start);
      }

      // ---- one token hold for the whole batch ------------------------
      const Pending& head = work[items[b_lo]];
      const SimTime start =
          workflow_->acquire(head.encoder,
                             std::max(verify_done, prev_done));
      ++stats_.token_acquires;
      ++stats_.batches;

      SimTime t = start;
      SimTime batch_done = start;
      for (std::size_t r = 0; r < count; ++r) {
        Pending& p = work[items[b_lo + r]];
        if (!ok[r]) {
          ++stats_.verify_skipped_corrupt;
          continue;
        }
        SimTime encode_done = t;
        const StripePayload* pre = p.obj.phantom ? nullptr : &stripes[r];
        SimTime durable =
            place_encoded(*service_, p.obj, p.primary, k_, m_, p.encoder,
                          t, bd, &encode_done, pre);
        t = encode_done;
        batch_done = std::max(batch_done, durable);
        last_durable = std::max(last_durable, durable);
        ++stats_.objects;
        stats_.payload_bytes += p.obj.logical_size;
      }
      workflow_->release(head.encoder, t);

      prev_start = start;
      prev_done = std::max(t, batch_done);
      first_batch = false;
    }
  }
  return last_durable;
}

}  // namespace corec::core
