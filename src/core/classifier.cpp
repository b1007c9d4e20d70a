#include "core/classifier.hpp"

#include <algorithm>

namespace corec::core {

AccessClassifier::AccessClassifier(const ClassifierOptions& options)
    : options_(options) {}

bool AccessClassifier::CellKey::operator==(const CellKey& o) const {
  return var == o.var && dims == o.dims &&
         std::equal(cell, cell + dims, o.cell);
}

std::size_t AccessClassifier::CellKeyHash::operator()(
    const CellKey& k) const {
  // FNV-style mixing, as DescriptorHash.
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  mix(k.var);
  for (std::size_t d = 0; d < k.dims; ++d) {
    mix(static_cast<std::uint64_t>(k.cell[d]));
  }
  return static_cast<std::size_t>(h);
}

AccessClassifier::CellKey AccessClassifier::cell_of(
    VarId var, const geom::Point& p) const {
  CellKey key{};
  key.var = var;
  key.dims = p.dims;
  for (std::size_t d = 0; d < p.dims; ++d) {
    // Floor division so negative coordinates bucket consistently.
    geom::Coord v = p[d];
    key.cell[d] = v >= 0 ? v / cell_size_
                         : (v - cell_size_ + 1) / cell_size_;
  }
  return key;
}

void AccessClassifier::index_insert(AccessRecord* r) {
  const geom::BoundingBox& box = r->box;
  if (cell_size_ == 0) {
    // Derive the cell size from the first entity: one cell ~ one block.
    cell_size_ = 1;
    for (std::size_t d = 0; d < box.dims(); ++d) {
      cell_size_ = std::max(cell_size_, box.extent(d));
    }
  }
  grid_[cell_of(r->var, box.lo())].push_back(r);
  ++grid_gen_;
}

const std::vector<AccessRecord*>& AccessClassifier::neighbours(
    AccessRecord& r) {
  // Boxes never change and records are never erased, so the query's
  // answer changes only when an entity is indexed.
  if (r.neighbours_gen == grid_gen_) return r.neighbours;
  r.neighbours.clear();
  r.neighbours_gen = grid_gen_;
  // Visit the cells covering box expanded by the spatial radius; an
  // entity's index cell is the cell of its lo() corner, so expand the
  // query by one extra cell to catch large neighbours.
  const geom::BoundingBox& box = r.box;
  geom::Point lo = box.lo(), hi = box.hi();
  std::size_t dims = box.dims();
  std::int64_t clo[geom::kMaxDims], chi[geom::kMaxDims];
  for (std::size_t d = 0; d < dims; ++d) {
    geom::Coord l = lo[d] - options_.spatial_radius - cell_size_;
    geom::Coord h = hi[d] + options_.spatial_radius;
    clo[d] = l >= 0 ? l / cell_size_ : (l - cell_size_ + 1) / cell_size_;
    chi[d] = h >= 0 ? h / cell_size_ : (h - cell_size_ + 1) / cell_size_;
  }
  // Odometer over the cell range.
  std::int64_t idx[geom::kMaxDims];
  for (std::size_t d = 0; d < dims; ++d) idx[d] = clo[d];
  for (;;) {
    CellKey key{};
    key.var = r.var;
    key.dims = dims;
    for (std::size_t d = 0; d < dims; ++d) key.cell[d] = idx[d];
    auto it = grid_.find(key);
    if (it != grid_.end()) {
      for (AccessRecord* n : it->second) {
        if (n != &r && n->box.chebyshev_gap(box) <= options_.spatial_radius) {
          r.neighbours.push_back(n);
        }
      }
    }
    std::size_t d = dims;
    bool done = true;
    while (d-- > 0) {
      if (++idx[d] <= chi[d]) {
        done = false;
        break;
      }
      idx[d] = clo[d];
    }
    if (done) break;
  }
  return r.neighbours;
}

const AccessRecord& AccessClassifier::record_write(
    VarId var, const geom::BoundingBox& box, Version step) {
  auto [rec, inserted] = records_.try_emplace(key_of(var, box));
  AccessRecord& r = *rec;
  ++decisions_;
  if (inserted) {
    r.var = var;
    r.box = box;
    r.last_write = step;
    r.frequency = 1.0;
    r.writes = 1;
    index_insert(&r);
  } else {
    if (r.last_write != step) {
      // Period detection: two consecutive equal gaps lock a period.
      std::uint32_t gap = step - r.last_write;
      if (r.has_prev) {
        std::uint32_t prev_gap = r.last_write - r.prev_write;
        r.period = (gap == prev_gap && gap > 0) ? gap : 0;
      }
      r.prev_write = r.last_write;
      r.has_prev = true;
      r.last_write = step;
    }
    r.frequency += 1.0;
    ++r.writes;
  }

  // Spatial locality: mark neighbours predicted-hot.
  if (options_.enable_spatial) {
    for (AccessRecord* n : neighbours(r)) {
      n->predicted_hot_until =
          std::max(n->predicted_hot_until, step + options_.prediction_ttl);
      ++decisions_;
    }
  }
  return r;
}

void AccessClassifier::record_read(VarId var, const geom::BoundingBox& box,
                                   Version step) {
  if (!options_.count_reads) return;
  AccessRecord* r = records_.find(key_of(var, box));
  if (r == nullptr) return;
  r->last_read = step;
  r->ever_read = true;
  r->frequency += 1.0;
  ++decisions_;
}

bool AccessClassifier::is_hot_record(const AccessRecord& r,
                                     Version step) const {
  ++decisions_;
  // Temporal: written recently.
  if (step >= r.last_write && step - r.last_write < options_.cold_after) {
    return true;
  }
  // Extension: read recently (only when read counting is enabled).
  if (options_.count_reads && r.ever_read && step >= r.last_read &&
      step - r.last_read < options_.cold_after) {
    return true;
  }
  // Spatial / explicit prediction marking.
  if (r.predicted_hot_until >= step) return true;
  // Periodic lookahead: next expected write within the ttl window.
  if (options_.enable_periodic && r.period != 0) {
    Version next = r.last_write + r.period;
    if (next >= step && next <= step + options_.prediction_ttl) {
      return true;
    }
  }
  return false;
}

bool AccessClassifier::is_hot(VarId var, const geom::BoundingBox& box,
                              Version step) const {
  const AccessRecord* r = records_.find(key_of(var, box));
  if (r == nullptr) return true;  // new data is hot by definition
  return is_hot_record(*r, step);
}

Version AccessClassifier::predicted_next(const AccessRecord& r,
                                         Version step) const {
  if (options_.enable_periodic && r.period != 0) {
    // Project the periodic pattern forward.
    Version next = r.last_write;
    while (next < step) next += r.period;
    return next;
  }
  if (step >= r.last_write && step - r.last_write < options_.cold_after) {
    // Recently written: expect another write shortly.
    return step;
  }
  if (options_.count_reads && r.ever_read && step >= r.last_read &&
      step - r.last_read < options_.cold_after) {
    return step;  // read-hot: keep in the pool (extension)
  }
  if (r.predicted_hot_until >= step) return step + 1;
  return kNeverVersion;
}

Version AccessClassifier::predicted_next_write(
    VarId var, const geom::BoundingBox& box, Version step) const {
  const AccessRecord* r = records_.find(key_of(var, box));
  return r == nullptr ? kNeverVersion : predicted_next(*r, step);
}

void AccessClassifier::end_of_step(Version step) {
  (void)step;
  records_.for_each([this](const Key&, AccessRecord& r) {
    r.frequency *= options_.frequency_decay;
  });
}

const AccessRecord* AccessClassifier::find(
    VarId var, const geom::BoundingBox& box) const {
  return records_.find(key_of(var, box));
}

}  // namespace corec::core
