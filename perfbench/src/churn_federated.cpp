// churn-federated: a K = 4 FederatedMonitoringSystem in the capacity-rich
// bench_service model (node cap 360, collector 16·n, 640 nodes). Each
// epoch applies a fixed burst of task mutations (modifies, plus removes
// and re-adds of same-shaped tasks, so the workload's size stays steady), then one
// status(now) call replans the dirty shards. Closed loop: the next burst
// waits for the replan. This is the write-heavy use of the planner: the
// delta/adapt path, TreeBuildCache scoped invalidation and the restricted
// search, with several dirty shards planned one after another.
//
// The deployment is fixed and the seed drives the mutations: replan cost
// varies ±10% between task sets, more than a useful bound allows.
//
// Checks every epoch: status().pairs equals the dedup count of an
// independent global TaskManager fed the same tasks, and every shard
// topology validates.
//
// Traced run: every other epoch is decomposed into timed public calls —
// each mutation, shard(k).topology(now) per shard, then status(now), which
// only merges — with tracing on; the other epochs run untraced, as in the
// end-to-end run, and give the tracing overhead.
#include <algorithm>
#include <memory>

#include "common/rng.h"
#include "cost/system_model.h"
#include "federation/federated_system.h"
#include "harness.h"
#include "obs/metrics.h"
#include "streamapp/stream_app.h"
#include "task/task_manager.h"
#include "task/workload.h"

namespace perfbench {
namespace {

using namespace remo;
using federation::FederatedMonitoringSystem;

constexpr std::size_t kNodes = 640;
constexpr std::size_t kShards = 4;
constexpr std::size_t kModifies = 8;   ///< per epoch
constexpr std::size_t kAddRemove = 2;  ///< adds and removes per epoch, each
constexpr std::size_t kSetups = 9;
constexpr std::uint64_t kDeploymentSeed = 0xc4a2;
/// Every run completes at least this many epochs; the exact metrics are
/// summed over exactly these, and p90 has >= 10 samples beyond it.
constexpr std::size_t kExactEpochs = 100;

federation::FederationOptions fed_options(obs::Registry* registry) {
  federation::FederationOptions o;
  o.num_shards = kShards;
  PlannerOptions& p = o.shard.planner;
  p.partition_scheme = PartitionScheme::kRemo;
  p.tree.scheme = TreeScheme::kAdaptive;
  p.allocation = AllocationScheme::kOrdered;
  p.max_candidates = 8;
  p.max_iterations = 32;
  // Shards plan one after another, so one pool is busy at a time. Two
  // threads, not all: a fully busy machine turns every stall of a
  // co-tenant into replan latency.
  p.num_threads = std::min<std::size_t>(2, hardware_threads());
  o.metrics = registry;
  return o;
}

/// The federation under test plus an independent global TaskManager that
/// receives the same task mutations (the pair-count oracle).
struct System {
  obs::Registry registry;
  std::unique_ptr<FederatedMonitoringSystem> fed;
  TaskManager oracle;
  /// Live tasks: federation id -> oracle id, in insertion order.
  std::vector<std::pair<TaskId, TaskId>> live;
  std::vector<MonitoringTask> tasks;  ///< parallel to `live`

  System(const SystemModel& model, const std::vector<MonitoringTask>& initial)
      : oracle(&model) {
    fed = std::make_unique<FederatedMonitoringSystem>(model, fed_options(&registry));
    for (const auto& t : initial) add(t);
    (void)fed->status(0.0);
  }

  void add(MonitoringTask t) {
    t.id = 0;
    const TaskId fid = fed->add_task(t);
    const TaskId oid = oracle.add_task(t);
    live.emplace_back(fid, oid);
    tasks.push_back(std::move(t));
  }
};

}  // namespace

void run_churn_federated(const Args& args, Result& result) {
  result.info("planner_num_threads", static_cast<double>(fed_options(nullptr).shard.planner.num_threads));
  result.info("nodes", static_cast<double>(kNodes));
  result.info("shards", static_cast<double>(kShards));

  SystemModel model(kNodes, 360.0, CostModel{10.0, 1.0});
  model.set_collector_capacity(16.0 * static_cast<double>(kNodes));
  StreamAppConfig app_config;
  app_config.num_operators = kNodes;
  // The deployment (attribute placement, initial tasks) is fixed; the seed
  // drives the mutation stream.
  const StreamApplication app(model, app_config, mix_seed(kDeploymentSeed, 0));
  const std::vector<MonitoringTask> initial =
      WorkloadGenerator(model, WorkloadConfig{.attr_universe = app.attr_universe()},
                        mix_seed(kDeploymentSeed, 1))
          .small_tasks(kNodes / 4);

  std::unique_ptr<System> sys;
  for (std::size_t i = 0; i < kSetups; ++i) {
    sys.reset();
    const auto t0 = Clock::now();
    sys = std::make_unique<System>(model, initial);
    result.sample("setup_s", seconds_since(t0));
  }
  FederatedMonitoringSystem& fed = *sys->fed;
  {
    const auto t0 = Clock::now();
    result.value("task.pairs", static_cast<double>(sys->oracle.dedup(model.num_vertices()).total_pairs()));
    result.sample("task.dedup_s", seconds_since(t0));
  }

  std::unique_ptr<Ledger> ledger = args.trace ? std::make_unique<Ledger>(result) : nullptr;
  fed.publish_metrics();
  const obs::RegistrySnapshot before = sys->registry.snapshot();
  const std::size_t messages0 = fed.status(0.0).adaptation_messages;
  Rng churn{mix_seed(args.seed, 2)};
  double collected = 0.0;
  double volume = 0.0;
  double exact_messages = 0.0;
  // Throughput is measured per block of kBlock epochs; the run reports
  // every block, so a short stall of the machine moves one sample only.
  constexpr std::size_t kBlock = 10;
  double block_s = 0.0;
  std::size_t replans = 0;
  std::size_t last_messages = messages0;
  std::size_t checked_epochs = 0;
  std::size_t bad_epochs = 0;
  std::string first_failure;

  const auto run_start = Clock::now();
  for (std::size_t e = 1; e <= kExactEpochs || seconds_since(run_start) < args.seconds; ++e) {
    const double now = static_cast<double>(e);
    // The burst, drawn before the clock starts: removes, adds, modifies.
    std::vector<std::size_t> removed;
    for (std::size_t r = 0; r < kAddRemove; ++r) {
      std::size_t i = churn.below(sys->live.size());
      while (std::find(removed.begin(), removed.end(), i) != removed.end())
        i = churn.below(sys->live.size());
      removed.push_back(i);
    }
    // Removed tasks come back as new tasks of the same shape.
    std::vector<MonitoringTask> added;
    for (std::size_t i : removed) added.push_back(redraw_attrs(model, sys->tasks[i], churn));
    std::vector<TaskId> added_ids;
    std::vector<std::size_t> modified;
    std::vector<MonitoringTask> modifies;
    for (std::size_t m = 0; m < kModifies; ++m) {
      std::size_t i = churn.below(sys->live.size());
      while (std::find(removed.begin(), removed.end(), i) != removed.end())
        i = churn.below(sys->live.size());
      modified.push_back(i);
      modifies.push_back(redraw_attrs(model, sys->tasks[i], churn));
    }

    const bool traced = ledger != nullptr && e % 2 == 0;
    std::uint64_t mutation_failures = 0;
    std::size_t dirty = 0;
    FederatedMonitoringSystem::Status status;
    const auto t0 = Clock::now();
    {
      const TracedSegment segment(traced ? ledger.get() : nullptr);
      const obs::Span root("bench.epoch");
      auto mutate = [&](auto&& call) {
        if (!traced) return call();
        const obs::Span span("federation.mutate");
        const auto m0 = Clock::now();
        const bool ok = call();
        result.sample("federation.mutate_s", seconds_since(m0));
        return ok;
      };
      for (std::size_t i : removed) {
        const TaskId fid = sys->live[i].first;
        if (!mutate([&] { return fed.remove_task(fid); })) ++mutation_failures;
      }
      for (const auto& t : added) {
        const bool ok = mutate([&] {
          added_ids.push_back(fed.add_task(t));
          return added_ids.back() != 0;
        });
        if (!ok) ++mutation_failures;
      }
      for (std::size_t m = 0; m < kModifies; ++m) {
        MonitoringTask t = modifies[m];
        t.id = sys->live[modified[m]].first;
        if (!mutate([&] { return fed.modify_task(std::move(t)); })) ++mutation_failures;
      }
      if (traced) {
        double max_s = 0.0;
        double sum_s = 0.0;
        for (std::size_t k = 0; k < fed.num_shards(); ++k) {
          const std::size_t applies0 = fed.shard(k).adaptation_counters().delta_applies;
          const auto s0 = Clock::now();
          {
            const obs::Span span("core.shard_replan");
            (void)fed.shard(k).topology(now);
          }
          const double s = seconds_since(s0);
          max_s = std::max(max_s, s);
          sum_s += s;
          if (fed.shard(k).adaptation_counters().delta_applies != applies0) ++dirty;
        }
        result.sample("core.shard_replan_max_s", max_s);
        result.sample("core.shard_replan_sum_s", sum_s);
        result.sample("core.shards_dirty", static_cast<double>(dirty));
        const auto m0 = Clock::now();
        {
          const obs::Span span("federation.merge");
          status = fed.status(now);
        }
        result.sample("federation.merge_s", seconds_since(m0));
        ledger->drain();
      } else {
        status = fed.status(now);
      }
    }
    const double epoch_s = seconds_since(t0);
    block_s += epoch_s;
    if (e % kBlock == 0) {
      result.sample("throughput_per_s", static_cast<double>(kBlock * (kModifies + 2 * kAddRemove)) / block_s);
      block_s = 0.0;
    }
    ++replans;
    last_messages = status.adaptation_messages;
    result.attempted(kModifies + 2 * kAddRemove + 1);
    if (ledger == nullptr)
      result.sample("latency_ms", epoch_s * 1e3);
    else
      result.sample(traced ? "obs.traced_op_s" : "obs.plain_op_s", epoch_s);

    // Mirror the burst into the oracle and the live-task table (untimed).
    for (std::size_t m = 0; m < kModifies; ++m) {
      MonitoringTask t = modifies[m];
      t.id = sys->live[modified[m]].second;
      sys->oracle.modify_task(t);
      t.id = 0;
      sys->tasks[modified[m]] = std::move(t);
    }
    std::sort(removed.rbegin(), removed.rend());
    for (std::size_t i : removed) {
      sys->oracle.remove_task(sys->live[i].second);
      sys->live.erase(sys->live.begin() + static_cast<std::ptrdiff_t>(i));
      sys->tasks.erase(sys->tasks.begin() + static_cast<std::ptrdiff_t>(i));
    }
    for (std::size_t a = 0; a < added.size(); ++a) {
      sys->live.emplace_back(added_ids[a], sys->oracle.add_task(added[a]));
      added[a].id = 0;
      sys->tasks.push_back(std::move(added[a]));
    }

    // Output checks (untimed).
    const std::size_t expected = sys->oracle.dedup(model.num_vertices()).total_pairs();
    bool ok = status.pairs == expected && mutation_failures == 0 &&
              fed.num_tasks() == sys->live.size();
    for (std::size_t k = 0; k < fed.num_shards(); ++k)
      ok = ok && fed.shard(k).topology(now).validate(fed.shard(k).system());
    if (!ok) {
      result.failed(mutation_failures + 1);
      if (bad_epochs++ == 0)
        first_failure = "epoch " + std::to_string(e) + ": pairs " + std::to_string(status.pairs) +
                        " vs oracle " + std::to_string(expected) + ", " +
                        std::to_string(mutation_failures) + " failed mutations";
    }
    ++checked_epochs;
    if (e <= kExactEpochs) {
      collected += static_cast<double>(status.collected);
      volume += status.message_volume;
      if (e == kExactEpochs)
        exact_messages = static_cast<double>(status.adaptation_messages - messages0);
    }
  }
  // The timed phase ends here. The peak includes the oracle, an independent
  // TaskManager of the same 160 tasks: a few tens of KB next to the
  // federation, and the leanest way to check every epoch.
  result.value("peak_rss_mb", peak_rss_mb());
  if (ledger) ledger->finish();
  result.check("churn.pairs_match_oracle", bad_epochs == 0,
               bad_epochs == 0
                   ? std::to_string(checked_epochs) +
                         " epochs: pairs == oracle dedup, shard topologies valid, mutations ok"
                   : std::to_string(bad_epochs) + " bad epochs, first " + first_failure);

  result.value("collected_pairs", collected);
  result.value("message_volume", volume);
  result.value("adapt.adaptation_messages", exact_messages);

  fed.publish_metrics();
  const obs::RegistrySnapshot after = sys->registry.snapshot();
  auto diff = [&](const std::string& suffix) {
    return shard_counter_sum(after, suffix) - shard_counter_sum(before, suffix);
  };
  const double delta_replans = diff(".delta.replans");
  const double messages = static_cast<double>(last_messages - messages0);
  result.value("adapt.pairs_changed_per_replan", diff(".delta.pairs_changed") / std::max(delta_replans, 1.0));
  result.value("adapt.messages_per_replan", messages / std::max(delta_replans, 1.0));
  const double evaluations = diff(".candidates_evaluated");
  const double hits = diff(".cache_hits");
  const double misses = diff(".cache_misses");
  result.value("planner.evaluations", evaluations / static_cast<double>(replans));
  result.value("planner.cache_hit_ratio", hits / std::max(hits + misses, 1.0));
  result.value("planner.cache_invalidated", diff(".cache_invalidated") / static_cast<double>(replans));
}

}  // namespace perfbench
