// Golden build digests: twenty seeded, capacity-starved build_tree calls
// whose outcome (parent edges in member order, rejected ids, adjust
// invocations and reattach tests) is hashed and compared with digests
// captured from the straightforward builder — one that re-probes every
// pending item on every pass, sort-uniques a blocker per failed probe, and
// unlinks and relinks a branch once per failed reattach target. The
// builder's shortcuts (deduplicated blockers, skipped repeat failures,
// precomputed reattach keys, one unlink per adjusted branch) must reproduce
// those outcomes bit for bit.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "tree/builder.h"

namespace remo {
namespace {

struct GoldenCase {
  std::uint64_t seed;
  std::size_t nodes;
  bool weighted;  // non-identity funnels / frequency weights
  CostModel cost;
  bool branch_reattach;
  bool subtree_only;
  std::uint64_t digest;
};

std::vector<TreeAttrSpec> specs(bool weighted) {
  if (!weighted) {
    return {TreeAttrSpec{0, FunnelSpec{AggType::kHolistic}, 1.0},
            TreeAttrSpec{1, FunnelSpec{AggType::kDistinct}, 1.0},
            TreeAttrSpec{2, FunnelSpec{AggType::kHolistic}, 1.0}};
  }
  return {TreeAttrSpec{0, FunnelSpec{AggType::kHolistic}, 1.0},
          TreeAttrSpec{1, FunnelSpec{AggType::kTopK, 4}, 1.0},
          TreeAttrSpec{2, FunnelSpec{AggType::kSum}, 1.0},
          TreeAttrSpec{3, FunnelSpec{AggType::kHolistic}, 0.5}};
}

/// Capacity-starved items: most nodes can relay only a few messages, and a
/// few zero-value nodes exercise the outright-reject path. Items are
/// emitted in shuffled id order so the builder's own sort matters.
std::vector<BuildItem> items(const GoldenCase& c, std::size_t num_attrs) {
  Rng rng(c.seed);
  std::vector<BuildItem> out;
  for (std::size_t i = 0; i < c.nodes; ++i) {
    BuildItem it;
    it.id = static_cast<NodeId>(i + 1);
    it.local.resize(num_attrs);
    for (auto& v : it.local) v = static_cast<std::uint32_t>(rng.below(4));
    const double u = c.cost.per_message + c.cost.per_value * 6.0;
    it.avail = u * rng.uniform(0.9, 8.0);
    out.push_back(std::move(it));
  }
  for (std::size_t i = out.size(); i > 1; --i)
    std::swap(out[i - 1], out[rng.below(i)]);
  return out;
}

/// FNV-1a over the build's structural outcome.
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  }
};

std::uint64_t digest(const TreeBuildResult& r) {
  Fnv f;
  f.add(r.tree.size());
  for (NodeId n : r.tree.members()) {
    f.add(n);
    f.add(r.tree.parent(n));
  }
  f.add(r.rejected.size());
  for (const auto& it : r.rejected) f.add(it.id);
  f.add(r.adjust_invocations);
  f.add(r.reattach_tests);
  return f.h;
}

constexpr CostModel kInt{10.0, 1.0};
constexpr CostModel kFrac{7.0, 0.3};

// {seed, nodes, weighted, cost, branch_reattach, subtree_only, digest}
const GoldenCase kCases[] = {
    {1, 120, false, kInt, true, true, 0x9950f8fc90230781ULL},
    {2, 160, false, kInt, true, true, 0x885b75c5576f8009ULL},
    {3, 200, false, kInt, true, false, 0x59292dd2e0f26705ULL},
    {4, 140, false, kInt, true, false, 0x6d9e684fe3987550ULL},
    {5, 90, false, kInt, false, true, 0x67721be6aeef0635ULL},
    {6, 110, false, kInt, false, false, 0x62cd559a935a9c62ULL},
    {7, 150, false, kFrac, true, true, 0x1bfe1ed409ddea73ULL},
    {8, 180, false, kFrac, true, false, 0x1c2e7c3aded6902ULL},
    {9, 100, false, kFrac, false, true, 0xca2d6188d3b6a11cULL},
    {10, 80, false, kFrac, false, false, 0xf14fec890b8a7f68ULL},
    {11, 130, true, kInt, true, true, 0x4337b0638b67677ULL},
    {12, 170, true, kInt, true, false, 0x8809adc75850adceULL},
    {13, 90, true, kInt, false, true, 0x92d8e9fd8f375867ULL},
    {14, 100, true, kInt, false, false, 0x87d837e0d409ed2bULL},
    {15, 150, true, kFrac, true, true, 0x68b27271632ad525ULL},
    {16, 120, true, kFrac, true, false, 0x7061b8972680e33dULL},
    {17, 130, true, kFrac, false, true, 0xc509bfa41c15547aULL},
    {18, 120, true, kFrac, false, false, 0x99d4a28289dce638ULL},
    {19, 240, false, kInt, true, true, 0x1ba50c4d2b681614ULL},
    {20, 220, true, kFrac, true, true, 0x406306626f96bc31ULL},
};

TEST(BuildGolden, AdaptiveBuildsMatchCapturedDigests) {
  std::size_t adjusted = 0, starved = 0;
  for (const auto& c : kCases) {
    const auto attrs = specs(c.weighted);
    TreeBuildOptions o;
    o.scheme = TreeScheme::kAdaptive;
    o.branch_reattach = c.branch_reattach;
    o.subtree_only = c.subtree_only;
    const Capacity collector =
        10.0 * (c.cost.per_message + c.cost.per_value * 6.0);
    const auto r = build_tree(attrs, items(c, attrs.size()), collector, c.cost, o);
    ASSERT_TRUE(r.tree.validate()) << "seed " << c.seed;
    EXPECT_EQ(digest(r), c.digest)
        << "seed " << c.seed << " actual 0x" << std::hex << digest(r);
    if (r.reattach_tests > 0) ++adjusted;
    if (!r.rejected.empty()) ++starved;
  }
  // The digests only pin the shortcuts if the builds actually reach them.
  EXPECT_EQ(adjusted, std::size(kCases));
  EXPECT_EQ(starved, std::size(kCases));
}

}  // namespace
}  // namespace remo
