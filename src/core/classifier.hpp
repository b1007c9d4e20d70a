// Online hot/cold data-access classification (Section II-C). Tracks
// per-region-entity write history and predicts near-future writes from
// three signals:
//   * temporal locality  — written within the last `cold_after` steps;
//   * periodicity        — multi-time-step lookahead: a region written
//                          with a stable period is predicted hot just
//                          before its next expected write;
//   * spatial locality   — regions adjacent (Chebyshev gap <= radius)
//                          to freshly written regions are marked
//                          predicted-hot for a few steps.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "geom/bbox.hpp"
#include "staging/descriptor_table.hpp"
#include "staging/object.hpp"

namespace corec::core {

/// Classifier tuning knobs.
struct ClassifierOptions {
  /// A region is temporally hot for this many steps after a write.
  Version cold_after = 3;
  /// Chebyshev neighbourhood (grid points) for spatial prediction.
  geom::Coord spatial_radius = 1;
  /// How long a spatial/periodic prediction keeps a region hot.
  Version prediction_ttl = 2;
  /// Enable the periodicity (multi-time-step lookahead) signal.
  bool enable_periodic = true;
  /// Enable the spatial-neighbour signal.
  bool enable_spatial = true;
  /// Exponential decay factor applied to frequency counters per step.
  double frequency_decay = 0.5;
  /// Extension (off per the paper, which classifies on writes only):
  /// treat reads as accesses too, keeping read-hot data replicated so
  /// failures degrade fewer reads.
  bool count_reads = false;
};

/// Per-entity access record. The classifier never erases one, so a
/// record's address is stable for the classifier's lifetime.
struct AccessRecord {
  VarId var = 0;
  geom::BoundingBox box;
  Version last_write = 0;
  Version prev_write = 0;
  Version last_read = 0;
  bool ever_read = false;
  bool has_prev = false;
  std::uint32_t period = 0;          // 0 = no stable period detected
  double frequency = 0.0;            // decayed write-frequency counter
  Version predicted_hot_until = 0;   // spatial/periodic marking
  std::uint64_t writes = 0;          // lifetime write count
  /// Spatial-neighbour cache: what the grid query for `box` returned at
  /// grid generation `neighbours_gen` (0 = never queried).
  std::vector<AccessRecord*> neighbours;
  std::uint64_t neighbours_gen = 0;
};

/// The classifier. Entities are (var, box) regions — exactly the
/// update granularity of the staging service.
class AccessClassifier {
 public:
  explicit AccessClassifier(const ClassifierOptions& options);
  // The grid and the neighbour caches point into records_.
  AccessClassifier(const AccessClassifier&) = delete;
  AccessClassifier& operator=(const AccessClassifier&) = delete;

  /// Registers a write of entity (var, box) at time step `step` and
  /// propagates spatial predictions to neighbours. Returns the entity's
  /// record, which stays valid for the classifier's lifetime.
  const AccessRecord& record_write(VarId var, const geom::BoundingBox& box,
                                   Version step);

  /// Registers a read access (no-op unless `count_reads` is enabled).
  void record_read(VarId var, const geom::BoundingBox& box, Version step);

  /// Classification decision: is the entity hot at `step`?
  bool is_hot(VarId var, const geom::BoundingBox& box, Version step) const;

  /// The step at which this entity is next expected to be written
  /// (from temporal + periodic signals); kNeverVersion when unknown.
  /// Pool eviction prefers victims with the farthest predicted write.
  Version predicted_next_write(VarId var, const geom::BoundingBox& box,
                               Version step) const;
  /// predicted_next_write for a record already looked up with find().
  Version predicted_next(const AccessRecord& r, Version step) const;
  static constexpr Version kNeverVersion = 0xffffffffu;

  /// Per-step bookkeeping (frequency decay).
  void end_of_step(Version step);

  /// Entity record lookup (nullptr if never written).
  const AccessRecord* find(VarId var, const geom::BoundingBox& box) const;

  std::size_t num_entities() const { return records_.size(); }

  /// Total classification decisions taken so far (Fig. 9's "classify"
  /// accounting).
  std::uint64_t decisions() const { return decisions_; }

 private:
  using Key = staging::ObjectDescriptor;  // normalized: version=shard=0

  static Key key_of(VarId var, const geom::BoundingBox& box) {
    return Key{var, 0, box, staging::kWholeObject};
  }

  bool is_hot_record(const AccessRecord& r, Version step) const;

  // Coarse spatial hash for neighbour queries.
  struct CellKey {
    VarId var;
    std::int64_t cell[geom::kMaxDims];
    std::size_t dims;
    bool operator==(const CellKey& o) const;
  };
  struct CellKeyHash {
    std::size_t operator()(const CellKey& k) const;
  };
  CellKey cell_of(VarId var, const geom::Point& p) const;
  void index_insert(AccessRecord* r);
  /// The records within spatial_radius of `r` (excluding `r`), from its
  /// cache when no entity was indexed since the cache was filled.
  const std::vector<AccessRecord*>& neighbours(AccessRecord& r);

  ClassifierOptions options_;
  // Invariant: records are never erased, and DescriptorTable nodes do
  // not move on growth, so the AccessRecord* held by grid_ cells,
  // neighbour caches and callers of record_write() stay valid. Its only
  // iteration, end_of_step's per-record decay, is order-free.
  staging::DescriptorTable<AccessRecord> records_;
  std::unordered_map<CellKey, std::vector<AccessRecord*>, CellKeyHash> grid_;
  // Bumped by every index_insert: a neighbour cache filled at an older
  // generation may miss an entity indexed since.
  std::uint64_t grid_gen_ = 0;
  geom::Coord cell_size_ = 0;  // derived from the first entity's box
  mutable std::uint64_t decisions_ = 0;
};

}  // namespace corec::core
