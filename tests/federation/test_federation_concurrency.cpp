// Concurrent shard planning (DESIGN.md §12): the facade plans every shard
// with pending work as one parallel_for on its single pool, and each
// shard's evaluator dispatches candidate blocks into that same pool. None
// of this may show in the output: for any seed, shard count and thread
// count, a churn run through the delta path plus the recovery loop must
// reproduce the num_threads = 1 run exactly — the same forest on every
// shard, the same status() and collected_pairs() streams, and the same
// on_detect events in the same order.
#include <gtest/gtest.h>

#include <algorithm>
#include <ios>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/sorted_vector.h"
#include "federation/federated_system.h"
#include "task/workload.h"

namespace remo::federation {
namespace {

const CostModel kCost{10.0, 1.0};
constexpr std::size_t kNodes = 48;
constexpr std::size_t kAttrs = 12;
constexpr std::uint64_t kEpochs = 12;
/// Epochs in which the silent nodes deliver nothing: long enough to be
/// suspected, short enough to recover before the run ends.
constexpr std::uint64_t kSilentFrom = 2;
constexpr std::uint64_t kSilentTo = 8;

/// Everything a run shows its caller, rendered exactly (doubles in
/// hexfloat) so two runs compare as plain strings.
struct Trace {
  std::vector<std::string> statuses;
  std::vector<std::vector<NodeAttrPair>> pairs;
  std::vector<std::string> detects;
  std::vector<Topology> forests;  ///< per shard, after the last epoch
  std::size_t delta_applies = 0;
};

std::string render(const FederatedMonitoringSystem::Status& s) {
  std::ostringstream os;
  os << std::hexfloat << s.tasks << ' ' << s.pairs << ' ' << s.collected << ' '
     << s.coverage << ' ' << s.trees << ' ' << s.message_volume << ' '
     << s.adaptations << ' ' << s.adaptation_messages << ' ' << s.delta_applies
     << ' ' << s.repair.outages_detected << ' ' << s.repair.recoveries_detected
     << ' ' << s.repair.repair_passes << ' ' << s.repair.repair_messages << ' '
     << s.repair.orphans_reattached << ' ' << s.repair.suspects_parked << ' '
     << s.repair.members_dropped << ' ' << s.repair.pairs_dropped << ' '
     << s.repair.replans_after_outage;
  return os.str();
}

std::string render(const LivenessEvent& ev) {
  return std::to_string(ev.node) + (ev.down ? " down @" : " up @") +
         std::to_string(ev.epoch) + " lag " + std::to_string(ev.lag);
}

MonitoringTask redraw(MonitoringTask t, Rng& rng) {
  t.attrs = {static_cast<AttrId>(rng.below(kAttrs)),
             static_cast<AttrId>(rng.below(kAttrs))};
  sort_unique(t.attrs);
  return t;
}

Trace run(std::uint64_t seed, std::size_t shards, std::size_t threads) {
  SystemModel system(kNodes, 120.0, kCost);
  system.set_collector_capacity(14.0 * static_cast<double>(kNodes));
  Rng attr_rng{seed};
  system.assign_random_attributes(kAttrs, 4, attr_rng);

  Trace trace;
  FederationOptions options;
  options.num_shards = shards;
  PlannerOptions& p = options.shard.planner;
  p.max_candidates = 8;
  p.max_iterations = 8;
  p.num_threads = threads;
  // Extension-oblivious, so every kNone mutation rides the delta path.
  options.shard.aggregation_aware = false;
  options.shard.frequency_aware = false;
  options.shard.recovery.enabled = true;
  options.shard.recovery.on_detect = [&trace](const LivenessEvent& ev) {
    trace.detects.push_back(render(ev));
  };
  FederatedMonitoringSystem fed(system, std::move(options));

  WorkloadGenerator gen(system,
                        WorkloadConfig{.attr_universe = kAttrs,
                                       .small_nodes_min = 3,
                                       .small_nodes_max = 10},
                        seed + 100);
  std::vector<MonitoringTask> tasks = gen.small_tasks(12);
  for (auto& t : tasks) t.id = fed.add_task(t);
  // Two members of the first task go silent for a while.
  const std::vector<NodeId> silent(tasks[0].nodes.begin(),
                                   tasks[0].nodes.begin() + 2);

  Rng churn{seed * 7919 + shards};
  for (std::uint64_t epoch = 1; epoch <= kEpochs; ++epoch) {
    const double now = static_cast<double>(epoch);
    // Burst before the reads: modifies plus a remove/re-add.
    for (int m = 0; m < 3; ++m) {
      const std::size_t i = churn.below(tasks.size());
      tasks[i] = redraw(tasks[i], churn);
      EXPECT_TRUE(fed.modify_task(tasks[i]));
    }
    if (epoch % 3 == 0) {
      const std::size_t i = 1 + churn.below(tasks.size() - 1);
      EXPECT_TRUE(fed.remove_task(tasks[i].id));
      MonitoringTask again = redraw(tasks[i], churn);
      again.id = fed.add_task(again);
      tasks[i] = again;
    }
    trace.statuses.push_back(render(fed.status(now)));
    trace.pairs.push_back(fed.collected_pairs(now));

    for (const NodeAttrPair& pair : trace.pairs.back()) {
      const bool quiet =
          epoch >= kSilentFrom && epoch <= kSilentTo &&
          std::find(silent.begin(), silent.end(), pair.node) != silent.end();
      if (!quiet) fed.on_delivery(pair, epoch);
    }
    // A second burst after the reads, so end_epoch's own plan_shards has
    // dirty shards to plan before the detect/repair steps.
    const std::size_t i = churn.below(tasks.size());
    tasks[i] = redraw(tasks[i], churn);
    EXPECT_TRUE(fed.modify_task(tasks[i]));
    fed.end_epoch(epoch);
  }
  const double end = static_cast<double>(kEpochs + 1);
  trace.statuses.push_back(render(fed.status(end)));
  trace.delta_applies = fed.status(end).delta_applies;
  for (std::size_t s = 0; s < fed.num_shards(); ++s)
    trace.forests.push_back(fed.shard(s).topology(end));
  return trace;
}

TEST(FederationConcurrency, ShardPlansIdenticalAcrossThreadCounts) {
  std::size_t detects = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    for (std::size_t shards : {2u, 4u, 8u}) {
      const Trace serial = run(seed, shards, 1);
      ASSERT_GT(serial.delta_applies, 0u)
          << "seed " << seed << " K=" << shards << ": churn never took the delta path";
      detects += serial.detects.size();
      for (std::size_t threads : {2u, 4u}) {
        const Trace par = run(seed, shards, threads);
        const std::string where = "seed " + std::to_string(seed) +
                                  " K=" + std::to_string(shards) +
                                  " threads=" + std::to_string(threads);
        ASSERT_EQ(par.forests.size(), serial.forests.size()) << where;
        for (std::size_t s = 0; s < serial.forests.size(); ++s)
          EXPECT_EQ(edge_diff(serial.forests[s], par.forests[s]), 0u)
              << where << " shard " << s;
        EXPECT_EQ(par.statuses, serial.statuses) << where;
        EXPECT_EQ(par.pairs, serial.pairs) << where;
        EXPECT_EQ(par.detects, serial.detects) << where;
      }
    }
  }
  // The recovery loop must actually have fired for the order check to mean
  // anything.
  EXPECT_GT(detects, 0u);
}

}  // namespace
}  // namespace remo::federation
