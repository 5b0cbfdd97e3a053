// Property sweeps over partitions: random operation sequences preserve
// partition validity, and the neighboring-solution count matches the
// closed form of Definition 3.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "partition/augmentation.h"
#include "planner/planner.h"

namespace remo {
namespace {

const CostModel kCost{10.0, 1.0};

/// Every neighbor of `p` as the planner's ranking enumerates them: over a
/// topology deployed for `p` (on-demand allocation keeps the trees in
/// partition order, so set indices match `p`'s), with the plain
/// (starvation-free) estimates.
std::vector<Augmentation> neighbors(const PairSet& pairs, const Partition& p) {
  const SystemModel system(pairs.num_vertices() - 1, 1e6, kCost);
  const Topology topo =
      build_topology(system, pairs, p, AttrSpecTable{},
                     AllocationScheme::kOnDemand, TreeBuildOptions{});
  return rank_topology_augmentations(topo, pairs, kCost, ConflictConstraints{},
                                     0, nullptr, /*starvation_bonus=*/false);
}

class PartitionFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PartitionFuzz, RandomMergeSplitSequencesStayValid) {
  Rng rng{GetParam()};
  std::vector<AttrId> universe;
  for (AttrId a = 0; a < 20; ++a) universe.push_back(a);
  Partition p = Partition::singleton(universe);

  for (int step = 0; step < 200; ++step) {
    const bool can_merge = p.num_sets() >= 2;
    bool can_split = false;
    for (std::size_t i = 0; i < p.num_sets(); ++i)
      if (p.set(i).size() >= 2) can_split = true;

    if ((rng.bernoulli(0.5) && can_merge) || !can_split) {
      if (!can_merge) continue;
      auto i = rng.below(p.num_sets());
      auto j = rng.below(p.num_sets());
      if (i == j) continue;
      p.merge(i, j);
    } else {
      // Pick a splittable set.
      std::size_t i = rng.below(p.num_sets());
      while (p.set(i).size() < 2) i = rng.below(p.num_sets());
      const auto& set = p.set(i);
      p.split(i, set[rng.below(set.size())]);
    }
    ASSERT_TRUE(p.valid_over(universe)) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionFuzz,
                         ::testing::Values(11, 22, 33, 44, 55));

TEST(PartitionProperty, NeighborCountMatchesClosedForm) {
  // |neighbors(P)| = C(k,2) merges + Σ_{|A_i| >= 2} |A_i| splits.
  Rng rng{77};
  PairSet pairs(30);
  for (NodeId n = 1; n < 30; ++n)
    for (AttrId a = 0; a < 12; ++a)
      if (rng.bernoulli(0.4)) pairs.add(n, a);
  std::vector<AttrId> universe;
  for (AttrId a = 0; a < 12; ++a) universe.push_back(a);

  for (int trial = 0; trial < 20; ++trial) {
    // Random partition: assign each attr to one of g groups.
    const std::size_t g = 1 + rng.below(5);
    std::vector<std::vector<AttrId>> groups(g);
    for (AttrId a : universe) groups[rng.below(g)].push_back(a);
    Partition p(groups);

    const std::size_t k = p.num_sets();
    std::size_t expected = k * (k - 1) / 2;
    for (std::size_t i = 0; i < k; ++i)
      if (p.set(i).size() >= 2) expected += p.set(i).size();

    EXPECT_EQ(neighbors(pairs, p).size(), expected) << p.to_string();
  }
}

TEST(PartitionProperty, ApplyingAnyNeighborPreservesUniverse) {
  Rng rng{99};
  PairSet pairs(10);
  for (NodeId n = 1; n < 10; ++n)
    for (AttrId a = 0; a < 8; ++a) pairs.add(n, a);
  std::vector<AttrId> universe;
  for (AttrId a = 0; a < 8; ++a) universe.push_back(a);
  const Partition p({{0, 1, 2}, {3}, {4, 5, 6, 7}});

  for (const auto& aug : neighbors(pairs, p)) {
    const Partition q = apply(p, aug);
    EXPECT_TRUE(q.valid_over(universe));
    // A merge shrinks the set count by one; a split grows it by one.
    if (aug.kind == AugmentKind::kMerge)
      EXPECT_EQ(q.num_sets(), p.num_sets() - 1);
    else
      EXPECT_EQ(q.num_sets(), p.num_sets() + 1);
  }
}

}  // namespace
}  // namespace remo
