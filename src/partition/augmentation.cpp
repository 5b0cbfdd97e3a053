#include "partition/augmentation.h"

#include "common/sorted_vector.h"

namespace remo {

Partition apply(const Partition& p, const Augmentation& aug) {
  Partition out = p;
  if (aug.kind == AugmentKind::kMerge)
    out.merge(aug.set_a, aug.set_b);
  else
    out.split(aug.set_a, aug.attr);
  return out;
}

AugmentationFootprint footprint(const Partition& p, const Augmentation& aug) {
  AugmentationFootprint fp;
  if (aug.kind == AugmentKind::kMerge) {
    fp.victims = {aug.set_a, aug.set_b};
    fp.new_sets = {set_union(p.set(aug.set_a), p.set(aug.set_b))};
  } else {
    fp.victims = {aug.set_a};
    auto rest = set_difference(p.set(aug.set_a), std::vector<AttrId>{aug.attr});
    fp.new_sets = {std::move(rest), {aug.attr}};
  }
  return fp;
}

double estimate_merge_gain(const Partition& p, std::size_t i, std::size_t j,
                           const PairSet& pairs, const CostModel& cost) {
  const auto ni = pairs.nodes_with_any(p.set(i));
  const auto nj = pairs.nodes_with_any(p.set(j));
  const auto shared = intersection_size(ni, nj);
  return 2.0 * cost.per_message * static_cast<double>(shared);
}

double estimate_split_gain(const Partition& p, std::size_t i, AttrId attr,
                           const PairSet& pairs, const CostModel& cost) {
  const auto& set = p.set(i);
  const auto rest = set_difference(set, std::vector<AttrId>{attr});
  const auto n_attr = pairs.nodes_with(attr);
  const auto n_rest = pairs.nodes_with_any(rest);
  const auto both = intersection_size(n_attr, n_rest);
  // Payload relieved from tree i: one value of `attr` per monitoring node,
  // no longer mixed into the (potentially overloaded) shared tree.
  const double relieved = cost.per_value * static_cast<double>(n_attr.size());
  const double overhead = 2.0 * cost.per_message * static_cast<double>(both);
  return relieved - overhead;
}

}  // namespace remo
