#include "partition/augmentation.h"

#include <gtest/gtest.h>

#include "planner/planner.h"

namespace remo {
namespace {

const CostModel kCost{10.0, 1.0};

PairSet overlap_pairs() {
  // Nodes 1-4 monitor attr 0; nodes 3-6 monitor attr 1; node 7 monitors 2.
  PairSet p(8);
  for (NodeId n = 1; n <= 4; ++n) p.add(n, 0);
  for (NodeId n = 3; n <= 6; ++n) p.add(n, 1);
  p.add(7, 2);
  return p;
}

TEST(Augmentation, MergeGainScalesWithSharedNodes) {
  const auto pairs = overlap_pairs();
  Partition p({{0}, {1}, {2}});
  // attrs 0 and 1 share nodes {3,4}: gain 2*C*2 = 40.
  EXPECT_DOUBLE_EQ(estimate_merge_gain(p, 0, 1, pairs, kCost), 40.0);
  // attrs 0 and 2 share nothing.
  EXPECT_DOUBLE_EQ(estimate_merge_gain(p, 0, 2, pairs, kCost), 0.0);
}

TEST(Augmentation, SplitGainBalancesReliefAndOverhead) {
  const auto pairs = overlap_pairs();
  Partition p({{0, 1}, {2}});
  // Splitting attr 1 out of {0,1}: relieved a*|N_1| = 4; shared nodes with
  // the rest ({3,4}) pay 2*C each = 40 overhead. Net -36.
  EXPECT_DOUBLE_EQ(estimate_split_gain(p, 0, 1, pairs, kCost), 4.0 - 40.0);
}

TEST(Augmentation, ApplyMergeAndSplit) {
  Partition p({{0}, {1}, {2}});
  Augmentation m{AugmentKind::kMerge, 0, 1, 0, 0.0};
  const auto merged = apply(p, m);
  EXPECT_EQ(merged, Partition({{0, 1}, {2}}));
  Augmentation s{AugmentKind::kSplit, 0, 0, 1, 0.0};
  EXPECT_EQ(apply(merged, s), Partition({{0}, {1}, {2}}));
}

// The planner's ranking (rank_topology_augmentations) enumerates the
// neighbors of a deployed topology's partition. On-demand allocation lays
// the trees out in partition order, so set indices match `p`'s, and with
// the starvation bonus off every gain is the plain estimate above.
std::vector<Augmentation> rank(const PairSet& pairs, const Partition& p) {
  const SystemModel system(pairs.num_vertices() - 1, 1e6, kCost);
  const Topology topo =
      build_topology(system, pairs, p, AttrSpecTable{},
                     AllocationScheme::kOnDemand, TreeBuildOptions{});
  return rank_topology_augmentations(topo, pairs, kCost, ConflictConstraints{},
                                     0, nullptr, /*starvation_bonus=*/false);
}

TEST(Augmentation, RankedListSortedByGain) {
  const auto pairs = overlap_pairs();
  const auto ranked = rank(pairs, Partition({{0}, {1}, {2}}));
  // 3 merges possible, no splits (all singleton sets).
  ASSERT_EQ(ranked.size(), 3u);
  for (std::size_t i = 1; i < ranked.size(); ++i)
    EXPECT_GE(ranked[i - 1].estimated_gain, ranked[i].estimated_gain);
  EXPECT_EQ(ranked[0].kind, AugmentKind::kMerge);
  // The top candidate must be the 0-1 merge (the only one with overlap).
  EXPECT_EQ(ranked[0].set_a, 0u);
  EXPECT_EQ(ranked[0].set_b, 1u);
}

TEST(Augmentation, IncludesSplitsForMultiAttrSets) {
  const auto pairs = overlap_pairs();
  const auto ranked = rank(pairs, Partition({{0, 1}, {2}}));
  // 1 merge + 2 splits.
  ASSERT_EQ(ranked.size(), 3u);
  std::size_t splits = 0;
  for (const auto& a : ranked) splits += a.kind == AugmentKind::kSplit;
  EXPECT_EQ(splits, 2u);
}

TEST(Augmentation, NeighborCountMatchesDefinition3) {
  // For k sets with sizes s_i, neighbors = C(k,2) merges + Σ_{s_i>=2} s_i
  // splits.
  const auto pairs = overlap_pairs();
  const auto ranked = rank(pairs, Partition({{0, 1}, {2}}));
  EXPECT_EQ(ranked.size(), 1u /*merge*/ + 2u /*splits of {0,1}*/);
}

TEST(Augmentation, EmptyPartitionYieldsNothing) {
  EXPECT_TRUE(rank_topology_augmentations(Topology{}, PairSet(3), kCost,
                                          ConflictConstraints{}, 0, nullptr,
                                          /*starvation_bonus=*/false)
                  .empty());
}

}  // namespace
}  // namespace remo
