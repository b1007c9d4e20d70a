// AccessClassifier: temporal heat, periodic lookahead, spatial
// neighbour prediction, frequency decay, decision accounting.
#include "core/classifier.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace corec::core {
namespace {

geom::BoundingBox block(geom::Coord i) {
  // Unit-spaced 8^3 blocks along x.
  return geom::BoundingBox::cube(i * 8, 0, 0, i * 8 + 7, 7, 7);
}

TEST(Classifier, NewDataIsHot) {
  AccessClassifier c(ClassifierOptions{});
  EXPECT_TRUE(c.is_hot(1, block(0), 5));  // never seen -> hot
}

TEST(Classifier, RecentWriteIsHotUntilColdAfter) {
  ClassifierOptions opts;
  opts.cold_after = 3;
  opts.enable_spatial = false;
  opts.enable_periodic = false;
  AccessClassifier c(opts);
  c.record_write(1, block(0), 10);
  EXPECT_TRUE(c.is_hot(1, block(0), 10));
  EXPECT_TRUE(c.is_hot(1, block(0), 12));
  EXPECT_FALSE(c.is_hot(1, block(0), 13));
  EXPECT_FALSE(c.is_hot(1, block(0), 20));
}

TEST(Classifier, PeriodicPatternPredictsNextWrite) {
  ClassifierOptions opts;
  opts.cold_after = 2;
  opts.prediction_ttl = 1;
  opts.enable_spatial = false;
  AccessClassifier c(opts);
  // Writes at steps 0, 4, 8 -> period 4 detected after the third write.
  c.record_write(1, block(0), 0);
  c.record_write(1, block(0), 4);
  c.record_write(1, block(0), 8);
  const AccessRecord* r = c.find(1, block(0));
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->period, 4u);
  // At step 11, the next write (12) is within the ttl window -> hot,
  // even though the temporal signal has expired.
  EXPECT_FALSE(c.is_hot(1, block(0), 10) &&
               !c.is_hot(1, block(0), 10));  // tautology guard
  EXPECT_TRUE(c.is_hot(1, block(0), 11));
  EXPECT_EQ(c.predicted_next_write(1, block(0), 11), 12u);
}

TEST(Classifier, UnstableGapsClearPeriod) {
  ClassifierOptions opts;
  opts.enable_spatial = false;
  AccessClassifier c(opts);
  c.record_write(1, block(0), 0);
  c.record_write(1, block(0), 4);
  c.record_write(1, block(0), 8);
  EXPECT_EQ(c.find(1, block(0))->period, 4u);
  c.record_write(1, block(0), 9);  // gap 1 != 4
  EXPECT_EQ(c.find(1, block(0))->period, 0u);
}

TEST(Classifier, SpatialNeighbourMarkedPredictedHot) {
  ClassifierOptions opts;
  opts.cold_after = 1;
  opts.spatial_radius = 1;
  opts.prediction_ttl = 2;
  AccessClassifier c(opts);
  // Register both blocks at step 0, then let them cool down.
  c.record_write(1, block(0), 0);
  c.record_write(1, block(1), 0);
  EXPECT_FALSE(c.is_hot(1, block(1), 5));
  // A write to block 0 at step 6 marks adjacent block 1 predicted-hot.
  c.record_write(1, block(0), 6);
  EXPECT_TRUE(c.is_hot(1, block(1), 6));
  EXPECT_TRUE(c.is_hot(1, block(1), 8));   // ttl = 2
  EXPECT_FALSE(c.is_hot(1, block(1), 9));  // expired
}

TEST(Classifier, DistantBlocksNotMarked) {
  ClassifierOptions opts;
  opts.cold_after = 1;
  opts.spatial_radius = 1;
  AccessClassifier c(opts);
  c.record_write(1, block(0), 0);
  c.record_write(1, block(4), 0);  // gap 24 >> radius
  c.record_write(1, block(0), 6);
  EXPECT_FALSE(c.is_hot(1, block(4), 8));
}

TEST(Classifier, SpatialMarkingRespectsVariable) {
  ClassifierOptions opts;
  opts.cold_after = 1;
  AccessClassifier c(opts);
  c.record_write(1, block(0), 0);
  c.record_write(2, block(1), 0);  // other variable, adjacent box
  c.record_write(1, block(0), 6);
  EXPECT_FALSE(c.is_hot(2, block(1), 8));
}

TEST(Classifier, FrequencyAccumulatesAndDecays) {
  ClassifierOptions opts;
  opts.frequency_decay = 0.5;
  opts.enable_spatial = false;
  AccessClassifier c(opts);
  c.record_write(1, block(0), 0);
  c.record_write(1, block(0), 0);
  c.record_write(1, block(0), 0);
  EXPECT_DOUBLE_EQ(c.find(1, block(0))->frequency, 3.0);
  c.end_of_step(0);
  EXPECT_DOUBLE_EQ(c.find(1, block(0))->frequency, 1.5);
  c.end_of_step(1);
  EXPECT_DOUBLE_EQ(c.find(1, block(0))->frequency, 0.75);
}

TEST(Classifier, PredictedNextWriteOrdering) {
  ClassifierOptions opts;
  opts.cold_after = 2;
  opts.enable_spatial = false;
  AccessClassifier c(opts);
  // Block 0: periodic (period locks after two equal gaps), next write
  // at 12. Block 1: stale.
  c.record_write(1, block(0), 0);
  c.record_write(1, block(0), 4);
  c.record_write(1, block(0), 8);
  c.record_write(1, block(1), 0);
  Version n0 = c.predicted_next_write(1, block(0), 11);
  Version n1 = c.predicted_next_write(1, block(1), 11);
  EXPECT_EQ(n0, 12u);
  EXPECT_EQ(n1, AccessClassifier::kNeverVersion);
  EXPECT_LT(n0, n1);
}

TEST(Classifier, RecentWritePredictsImmediateNext) {
  ClassifierOptions opts;
  opts.cold_after = 3;
  opts.enable_spatial = false;
  opts.enable_periodic = false;
  AccessClassifier c(opts);
  c.record_write(1, block(0), 10);
  EXPECT_EQ(c.predicted_next_write(1, block(0), 11), 11u);
}

TEST(Classifier, DecisionCounterAdvances) {
  AccessClassifier c(ClassifierOptions{});
  auto before = c.decisions();
  c.record_write(1, block(0), 0);
  c.is_hot(1, block(0), 1);
  EXPECT_GT(c.decisions(), before);
}

TEST(Classifier, ManyEntitiesSpatialIndexScales) {
  ClassifierOptions opts;
  opts.spatial_radius = 1;
  AccessClassifier c(opts);
  // 16x16 grid of blocks; write all once, then one in the middle.
  for (geom::Coord x = 0; x < 16; ++x) {
    for (geom::Coord y = 0; y < 16; ++y) {
      c.record_write(1,
                     geom::BoundingBox::cube(x * 8, y * 8, 0, x * 8 + 7,
                                             y * 8 + 7, 7),
                     0);
    }
  }
  EXPECT_EQ(c.num_entities(), 256u);
  auto mid = geom::BoundingBox::cube(64, 64, 0, 71, 71, 7);
  c.record_write(1, mid, 10);
  // Its 8 planar neighbours become predicted-hot; a corner-far block
  // does not.
  auto adjacent = geom::BoundingBox::cube(72, 64, 0, 79, 71, 7);
  auto far = geom::BoundingBox::cube(0, 0, 0, 7, 7, 7);
  EXPECT_TRUE(c.is_hot(1, adjacent, 10));
  EXPECT_FALSE(c.is_hot(1, far, 10));
}

// The spatial grid buckets entities by the floor-divided cell of their
// lo() corner. Blocks on both sides of zero, and two variables whose
// boxes fall in identical cells, must mark exactly the brute-force
// neighbour set: same variable, other box, Chebyshev gap <= radius.
TEST(Classifier, SpatialGridAcrossZeroAndVariables) {
  ClassifierOptions opts;
  opts.cold_after = 1;
  opts.spatial_radius = 1;
  opts.prediction_ttl = 2;
  AccessClassifier c(opts);
  std::vector<geom::BoundingBox> boxes;
  for (geom::Coord x = -4; x < 4; ++x) {
    for (geom::Coord y = -4; y < 4; ++y) {
      boxes.push_back(geom::BoundingBox::cube(x * 8, y * 8, -4, x * 8 + 7,
                                              y * 8 + 7, 3));
    }
  }
  for (const auto& b : boxes) {
    c.record_write(1, b, 0);
    c.record_write(2, b, 0);
  }
  Version step = 10;
  for (geom::Coord written : {0, 27, 28, 35, 36, 63}) {
    const geom::BoundingBox& w = boxes[static_cast<std::size_t>(written)];
    c.record_write(1, w, step);
    for (const auto& b : boxes) {
      const bool expect =
          !(b == w) && b.chebyshev_gap(w) <= opts.spatial_radius;
      EXPECT_EQ(c.find(1, b)->predicted_hot_until == step + 2, expect)
          << "written " << w.to_string() << " box " << b.to_string();
      EXPECT_LT(c.find(2, b)->predicted_hot_until, step)
          << "var 2 box " << b.to_string();
    }
    step += 10;
  }

  // An entity indexed after a writer's neighbour cache was filled is
  // marked on that writer's next write: a stale cache would miss it.
  const std::pair<geom::Coord, geom::BoundingBox> added_next_to[] = {
      {27, geom::BoundingBox::cube(-8, -8, 4, -1, -1, 11)},   // above z
      {60, geom::BoundingBox::cube(24, 0, -12, 31, 7, -5)}};  // below z
  for (const auto& [written, added] : added_next_to) {
    const geom::BoundingBox& w = boxes[static_cast<std::size_t>(written)];
    ASSERT_LE(added.chebyshev_gap(w), opts.spatial_radius);
    c.record_write(1, w, step);  // fills w's cache without `added`
    c.record_write(1, added, step + 1);
    c.record_write(2, added, step + 1);
    c.record_write(1, w, step + 2);
    EXPECT_EQ(c.find(1, added)->predicted_hot_until, step + 4)
        << "entity added next to " << w.to_string();
    EXPECT_LT(c.find(2, added)->predicted_hot_until, step + 2);
    step += 10;
  }
}

TEST(Classifier, ReadsIgnoredByDefault) {
  ClassifierOptions opts;
  opts.cold_after = 2;
  opts.enable_spatial = false;
  opts.enable_periodic = false;
  AccessClassifier c(opts);
  c.record_write(1, block(0), 0);
  c.record_read(1, block(0), 10);  // default: no-op
  EXPECT_FALSE(c.is_hot(1, block(0), 10));
}

TEST(Classifier, ReadAwareExtensionKeepsReadHotData) {
  ClassifierOptions opts;
  opts.cold_after = 2;
  opts.enable_spatial = false;
  opts.enable_periodic = false;
  opts.count_reads = true;
  AccessClassifier c(opts);
  c.record_write(1, block(0), 0);
  EXPECT_FALSE(c.is_hot(1, block(0), 10));
  c.record_read(1, block(0), 10);
  EXPECT_TRUE(c.is_hot(1, block(0), 11));
  EXPECT_EQ(c.predicted_next_write(1, block(0), 11), 11u);
  EXPECT_FALSE(c.is_hot(1, block(0), 14));  // read heat expires too
}

TEST(Classifier, ReadOfUnknownEntityIsNoop) {
  ClassifierOptions opts;
  opts.count_reads = true;
  AccessClassifier c(opts);
  c.record_read(1, block(3), 5);  // never written: nothing to track
  EXPECT_EQ(c.find(1, block(3)), nullptr);
}

}  // namespace
}  // namespace corec::core
