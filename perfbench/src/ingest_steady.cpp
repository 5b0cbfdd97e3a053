// ingest-steady: a MonitoringDaemon (K = 4, 320 nodes, bench_service
// model) fed by StreamApplication values. This is the read-heavy use:
// bus admission, apply and emit set the median, and rare replans set the
// tail, because a stall builds a backlog.
//
// The run alternates two phases. A closed-loop burst pushes all batches and
// runs the epoch back to back, for a fixed number of epochs; it measures
// the capacity of the ingest path (the epochs without a replan). In an
// open-loop window, one producer thread pushes every node's value batch at
// each epoch's due time t0 + e·P, whatever the daemon does; the run loop
// ticks run_epoch at the same period, kPhase after the batches are due. A
// batch's latency runs from its due time to the end of the run_epoch that
// applied it; a refused batch counts as a miss (+inf). In both phases the
// run loop submits one task modify itself every kChurnEvery epochs, so
// plans stay deterministic.
//
// The producer pushes through the daemon's bus() (its thread-safe edge)
// and stamps each command with the virtual time of the epoch it is due
// in, which is what submit_values would stamp on a caller in step with
// the run loop.
//
// Check: afterwards a batch-mode FederatedMonitoringSystem replays the same
// task commands at the same virtual times, and its collected pairs must
// equal the daemon's at every churn epoch and at the last epoch.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "common/rng.h"
#include "cost/system_model.h"
#include "federation/federated_system.h"
#include "harness.h"
#include "obs/metrics.h"
#include "service/daemon.h"
#include "streamapp/stream_app.h"
#include "task/task_manager.h"
#include "task/workload.h"

namespace perfbench {
namespace {

using namespace remo;
using service::Command;
using service::MonitoringDaemon;
using service::ValueUpdate;

constexpr std::size_t kNodes = 320;
constexpr std::size_t kShards = 4;
constexpr std::size_t kChurnEvery = 32;
constexpr std::size_t kSetups = 9;
constexpr std::uint64_t kDeploymentSeed = 0x1a9e;
constexpr std::size_t kCycle = 16;  ///< distinct epochs of precomputed values
constexpr double kPeriod = 0.003;   ///< seconds between epochs (open loop)
constexpr double kPhase = 0.0005;   ///< run-loop tick offset after the due time
/// A run is a sequence of rounds: a closed-loop burst of kBurstEpochs
/// epochs (about 0.07 s on 4 x86 cores), then an open-loop window of
/// kWindowEpochs epochs (0.58 s). Interleaving spreads both measurements
/// over the whole run, so a slow period of the host moves a few samples of
/// each, not a whole phase.
constexpr std::size_t kBurstEpochs = 128;
constexpr std::size_t kWindowEpochs = 192;
constexpr double kRoundsPerSecond = 1.5;

service::DaemonOptions daemon_options(obs::Registry* registry) {
  service::DaemonOptions o;
  o.federation.num_shards = kShards;
  PlannerOptions& p = o.federation.shard.planner;
  p.partition_scheme = PartitionScheme::kRemo;
  p.tree.scheme = TreeScheme::kAdaptive;
  p.allocation = AllocationScheme::kOrdered;
  p.max_candidates = 8;
  p.max_iterations = 32;
  // The producer and the run loop are the busy threads; replans run on the
  // run loop alone, which leaves headroom so a co-tenant's stall on the
  // machine does not turn into ingest latency.
  p.num_threads = 1;
  // Deep enough that a replan stall never sheds: refusals would be
  // failures, not the subject of this workload.
  o.bus.capacity = 1u << 16;
  o.bus.shed_watermark = 3u << 14;
  o.metrics = registry;
  return o;
}

/// Per-batch latency samples, merged into (value, count) runs.
class LatencyRuns {
 public:
  void add(double ms) {
    if (!runs_.empty() && runs_.back().first == ms) {
      runs_.back().second += 1.0;
    } else {
      runs_.push_back({ms, 1.0});
    }
  }
  void emit(Result& result, const std::string& name) const {
    for (const auto& [v, w] : runs_) result.weighted(name, v, w);
  }

 private:
  std::vector<std::pair<double, double>> runs_;
};

/// Size and an order-sensitive FNV-1a digest of a collected-pair list: the
/// check keeps this per compared epoch instead of the list, so the
/// benchmark's own memory stays out of the daemon's peak RSS.
using Digest = std::pair<std::size_t, std::uint64_t>;
Digest digest(const std::vector<NodeAttrPair>& pairs) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& p : pairs) {
    h = (h ^ static_cast<std::uint64_t>(p.node)) * 0x100000001b3ULL;
    h = (h ^ static_cast<std::uint64_t>(p.attr)) * 0x100000001b3ULL;
  }
  return {pairs.size(), h};
}

}  // namespace

void run_ingest_steady(const Args& args, Result& result) {
  obs::Registry registry;
  const service::DaemonOptions options = daemon_options(&registry);
  result.info("planner_num_threads", static_cast<double>(options.federation.shard.planner.num_threads));
  result.info("nodes", static_cast<double>(kNodes));
  result.info("shards", static_cast<double>(kShards));
  result.info("period_ms", kPeriod * 1e3);

  SystemModel model(kNodes, 360.0, CostModel{10.0, 1.0});
  model.set_collector_capacity(16.0 * static_cast<double>(kNodes));
  StreamAppConfig app_config;
  app_config.num_operators = kNodes;
  // The deployment (attribute placement, tasks, values) is fixed; the seed
  // drives the task churn.
  StreamApplication app(model, app_config, mix_seed(kDeploymentSeed, 0));
  const std::vector<MonitoringTask> initial =
      WorkloadGenerator(model, WorkloadConfig{.attr_universe = app.attr_universe()},
                        mix_seed(kDeploymentSeed, 1))
          .small_tasks(kNodes / 4);

  // Value batches of kCycle consecutive application epochs, one per node.
  std::vector<std::vector<std::vector<ValueUpdate>>> batches(kCycle);
  std::vector<std::size_t> epoch_values(kCycle, 0);
  for (std::size_t c = 0; c < kCycle; ++c) {
    app.advance(c + 1);
    for (const auto& [pair, v] : app.current_values()) {
      if (batches[c].empty() || batches[c].back().front().node != pair.node)
        batches[c].emplace_back();
      batches[c].back().push_back(ValueUpdate{pair.node, pair.attr, v});
      ++epoch_values[c];
    }
  }

  std::unique_ptr<MonitoringDaemon> daemon;
  for (std::size_t i = 0; i < kSetups; ++i) {
    daemon.reset();
    registry.reset();
    const auto t0 = Clock::now();
    daemon = std::make_unique<MonitoringDaemon>(model, options);
    for (const auto& t : initial) daemon->submit_add_task(t);
    daemon->run_epoch();
    result.sample("setup_s", seconds_since(t0));
  }
  {
    TaskManager manager(&model);
    for (const auto& t : initial) manager.add_task(t);
    const auto t0 = Clock::now();
    result.value("task.pairs", static_cast<double>(manager.dedup(model.num_vertices()).total_pairs()));
    result.sample("task.dedup_s", seconds_since(t0));
  }
  daemon->system().publish_metrics();  // shard counters -> global registry
  const obs::RegistrySnapshot counters0 = obs::Registry::global().snapshot();
  const std::size_t messages0 = daemon->last_status().adaptation_messages;
  std::uint64_t task_commands = initial.size();
  const std::uint64_t pairs_emitted0 = daemon->stats().pairs_emitted;

  std::unique_ptr<Ledger> ledger = args.trace ? std::make_unique<Ledger>(result) : nullptr;
  Rng churn{mix_seed(args.seed, 2)};
  std::map<std::uint64_t, MonitoringTask> modifies;                // epoch -> command
  std::map<std::uint64_t, Digest> observed;                        // epoch -> pairs
  double volume = 0.0;

  // Submits this epoch's task modify, if it is a churn epoch. Every other
  // modify restores the task the one before it changed, so the task set
  // stays one task away from the deployment: replan cost does not drift
  // with the seed over a run, and the seed only picks the changes.
  std::optional<std::size_t> changed;
  auto maybe_churn = [&]() {
    const std::uint64_t epoch = daemon->epoch() + 1;
    if (epoch % kChurnEvery != 0) return false;
    const std::size_t i = changed ? *changed : churn.below(initial.size());
    MonitoringTask next = changed ? initial[i] : redraw_attrs(model, initial[i], churn);
    changed = changed ? std::nullopt : std::optional<std::size_t>(i);
    next.id = static_cast<TaskId>(i + 1);  // daemon ids follow submission order
    modifies[epoch] = next;
    if (daemon->submit_modify_task(std::move(next)) != service::Admission::kAccepted)
      result.failed();
    ++task_commands;
    result.attempted();
    return true;
  };
  auto after_epoch = [&](bool churned) {
    volume += daemon->last_status().message_volume;
    if (churned) observed[daemon->epoch()] = digest(daemon->last_collected());
  };

  std::vector<double> submit_s;
  std::uint64_t refused = 0;
  std::size_t value_epoch = 0;  // index into the precomputed batches

  // ---- closed-loop burst ------------------------------------------------
  // Capacity of the ingest path: values per second of each epoch without a
  // replan (replans show in the open loop's tail). Epochs are short, so a
  // stall of the host spoils few samples, and the median skips them.
  std::size_t round = 0;
  auto closed_burst = [&] {
    // Traced runs alternate bursts with tracing on and off; the off bursts
    // are the baseline of the tracing overhead.
    const bool traced = ledger != nullptr && round % 2 == 0;
    for (std::size_t c = 0; c < kBurstEpochs; ++c) {
      const TracedSegment segment(traced ? ledger.get() : nullptr);
      const bool churned = maybe_churn();
      const std::size_t cycle = value_epoch++ % kCycle;
      const auto s0 = Clock::now();
      {
        const obs::Span span("service.submit");
        for (const auto& batch : batches[cycle]) {
          const auto p0 = traced ? Clock::now() : Clock::time_point{};
          const auto admission = daemon->submit_values(batch.front().node, batch);
          if (traced) submit_s.push_back(seconds_since(p0));
          if (admission != service::Admission::kAccepted) ++refused;
        }
      }
      {
        const obs::Span span("service.run_epoch");
        daemon->run_epoch();
      }
      const double epoch_s = seconds_since(s0);
      if (!churned) {
        result.sample("throughput_per_s", static_cast<double>(epoch_values[cycle]) / epoch_s);
        if (ledger) result.sample(traced ? "obs.traced_op_s" : "obs.plain_op_s", epoch_s);
      }
      after_epoch(churned);
      if (traced) ledger->drain();
    }
    result.attempted(kBurstEpochs * kNodes);
  };

  // ---- open-loop window -------------------------------------------------
  std::vector<double> due_at(kWindowEpochs * kNodes, 0.0);  // by acceptance order
  std::vector<double> lag_s;
  LatencyRuns latency;
  double busy_s = 0.0;
  double backlog_max = 0.0;
  std::uint64_t missed = 0;  // open-loop batches refused, so never applied
  auto open_window = [&] {
    // Value commands applied before the window starts.
    const std::uint64_t applied0 = daemon->stats().commands_applied - task_commands;
    const std::size_t first_value_epoch = value_epoch;
    value_epoch += kWindowEpochs;
    std::uint64_t accepted = 0;
    const double base_virtual = daemon->now();
    const auto t0 = Clock::now() + std::chrono::milliseconds(20);
    auto at = [&](double s) {
      return t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
    };

    // Declared after everything it uses, so it is joined before they go.
    std::jthread producer([&] {
      for (std::size_t e = 0; e < kWindowEpochs; ++e) {
        const double due = static_cast<double>(e) * kPeriod;
        std::this_thread::sleep_until(at(due));
        lag_s.push_back(seconds_between(at(due), Clock::now()));
        for (const auto& batch : batches[(first_value_epoch + e) % kCycle]) {
          Command cmd;
          cmd.kind = service::CommandKind::kValues;
          cmd.producer = batch.front().node;
          cmd.values = batch;
          cmd.enqueued_at = base_virtual + static_cast<double>(e);
          due_at[accepted] = due;  // published to the run loop by the bus lock
          if (daemon->bus().push(std::move(cmd), base_virtual + static_cast<double>(e)) ==
              service::Admission::kAccepted)
            ++accepted;
        }
      }
    });

    std::uint64_t attributed = 0;  // batches whose latency is known
    {
      const TracedSegment segment(ledger.get());
      for (std::size_t i = 0; i < kWindowEpochs; ++i) {
        // The last tick waits for the producer, so every batch is applied
        // within the window's fixed number of epochs.
        if (i + 1 == kWindowEpochs) producer.join();
        const auto tick = at(static_cast<double>(i) * kPeriod + kPhase);
        {
          const obs::Span idle("wait.schedule");
          std::this_thread::sleep_until(tick);
        }
        backlog_max = std::max(backlog_max, seconds_since(tick) / kPeriod);
        const bool churned = maybe_churn();
        const auto s0 = Clock::now();
        {
          const obs::Span span("service.run_epoch");
          daemon->run_epoch();
        }
        const auto end = Clock::now();
        const double epoch_s = seconds_between(s0, end);
        busy_s += epoch_s;
        if (ledger) result.sample(churned ? "service.replan_epoch_s" : "service.epoch_s", epoch_s);
        // Every batch this epoch applied: FIFO, so the next ones in order.
        const std::uint64_t applied = daemon->stats().commands_applied - task_commands - applied0;
        for (; attributed < applied; ++attributed)
          latency.add(seconds_between(at(due_at[attributed]), end) * 1e3);
        after_epoch(churned);
        if (ledger) ledger->drain();
      }
    }
    // Refused batches miss every latency limit.
    const std::uint64_t batches_due = kWindowEpochs * kNodes;
    missed += batches_due - attributed;
    result.attempted(batches_due);
    refused += batches_due - accepted;
  };

  const auto rounds = static_cast<std::size_t>(std::max(2.0, std::round(args.seconds * kRoundsPerSecond)));
  for (; round < rounds; ++round) {
    closed_burst();
    open_window();
  }
  latency.emit(result, "latency_ms");
  if (missed > 0) result.weighted("latency_ms", INFINITY, static_cast<double>(missed));
  // The timed phase ends here: the peak is the daemon's and the inputs',
  // before the batch-mode mirror below exists.
  result.value("peak_rss_mb", peak_rss_mb());
  result.value("service.utilisation", busy_s / (static_cast<double>(rounds * kWindowEpochs) * kPeriod));
  result.value("service.backlog_epochs_max", backlog_max);
  for (double v : lag_s) result.sample("service.generator_lag_s", v);
  result.failed(refused);
  if (ledger) ledger->finish();
  for (double v : submit_s) result.sample("service.submit_s", v);
  observed[daemon->epoch()] = digest(daemon->last_collected());

  const service::BusStats bus = daemon->bus().stats();
  result.value("service.bus_depth_peak", static_cast<double>(bus.depth_peak));
  result.value("service.values_shed", static_cast<double>(bus.values_shed));
  result.value("collected_pairs", static_cast<double>(daemon->stats().pairs_emitted - pairs_emitted0));
  result.value("message_volume", volume);
  daemon->system().publish_metrics();
  const obs::RegistrySnapshot counters1 = obs::Registry::global().snapshot();
  auto diff = [&](const std::string& suffix) {
    return shard_counter_sum(counters1, suffix) - shard_counter_sum(counters0, suffix);
  };
  const double messages = static_cast<double>(daemon->last_status().adaptation_messages - messages0);
  const double delta_replans = std::max(diff(".delta.replans"), 1.0);
  const double hits = diff(".cache_hits");
  result.value("adapt.adaptation_messages", messages);
  result.value("adapt.pairs_changed_per_replan", diff(".delta.pairs_changed") / delta_replans);
  result.value("adapt.messages_per_replan", messages / delta_replans);
  result.value("planner.evaluations", diff(".candidates_evaluated") / static_cast<double>(modifies.size()));
  result.value("planner.cache_hit_ratio", hits / std::max(hits + diff(".cache_misses"), 1.0));
  result.value("planner.cache_invalidated", diff(".cache_invalidated") / static_cast<double>(modifies.size()));
  // Every generated value addresses a real (node, attr) pair.
  if (daemon->stats().values_invalid != 0)
    result.check("ingest.values_valid", false,
                 std::to_string(daemon->stats().values_invalid) + " valid values rejected");

  // ---- batch-mode mirror ------------------------------------------------
  obs::Registry mirror_registry;
  federation::FederationOptions mirror_options = options.federation;
  mirror_options.metrics = &mirror_registry;
  federation::FederatedMonitoringSystem mirror(model, mirror_options);
  for (const auto& t : initial) mirror.add_task(t);
  std::size_t mismatches = 0;
  for (std::uint64_t e = 1; e <= daemon->epoch(); ++e) {
    if (auto it = modifies.find(e); it != modifies.end()) mirror.modify_task(it->second);
    mirror.end_epoch(e);
    (void)mirror.status(static_cast<double>(e));
    if (auto it = observed.find(e); it != observed.end() &&
                                    it->second != digest(mirror.collected_pairs(static_cast<double>(e))))
      ++mismatches;
  }
  result.failed(mismatches);
  result.check("ingest.daemon_equals_batch", mismatches == 0,
               std::to_string(mismatches) + " of " + std::to_string(observed.size()) +
                   " compared epochs differ from the batch-mode mirror");
}

}  // namespace perfbench
