// Planning-time scalability (not a paper figure, but the property the
// guided search exists to protect — Sec. 3: "this guiding feature is
// essential for the scalability of large-scale application state
// monitoring systems"). Reports wall time and candidate evaluations of a
// full REMO plan as nodes and the attribute universe grow, next to the
// two baselines (which build once, no search) — and, since the federation
// tier (DESIGN.md §12), per-shard and whole-forest planning time as the
// same workload is split across K shard-local cores.
//
// `--full` additionally runs the 100k-node federated section (~3-4 min on
// one core); the default run keeps CI-sized sections only.
#include <chrono>
#include <cstring>

#include "bench/bench_support.h"
#include "federation/federated_system.h"

namespace remo::bench {
namespace {

constexpr CostModel kCost{10.0, 1.0};

struct Timing {
  double seconds = 0.0;
  std::size_t evaluations = 0;
  double coverage = 0.0;
};

Timing run(std::size_t nodes, std::size_t universe, PartitionScheme scheme) {
  Scenario s(nodes, universe, universe * 2 / 3, 60.0,
             15.0 * static_cast<double>(nodes), kCost, 7);
  WorkloadGenerator gen(s.system, WorkloadConfig{.attr_universe = universe}, 9);
  s.add_tasks(gen.small_tasks(nodes));
  Planner planner(s.system, planner_options(scheme));
  const auto start = std::chrono::steady_clock::now();
  const Topology topo = planner.plan(s.pairs);
  Timing t;
  t.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  t.evaluations = planner.last_evaluations();
  t.coverage = topo.coverage() * 100.0;
  return t;
}

void sweep_nodes() {
  subbanner("planning time vs nodes (universe 36)");
  Table t({"nodes", "REMO (s)", "evaluations", "REMO %", "SINGLETON (s)",
           "ONE-SET (s)"});
  for (std::size_t n : {50u, 100u, 200u, 400u}) {
    const auto remo = run(n, 36, PartitionScheme::kRemo);
    const auto single = run(n, 36, PartitionScheme::kSingletonSet);
    const auto one = run(n, 36, PartitionScheme::kOneSet);
    t.row()
        .add(static_cast<long long>(n))
        .add(remo.seconds, 2)
        .add(static_cast<long long>(remo.evaluations))
        .add(remo.coverage, 1)
        .add(single.seconds, 2)
        .add(one.seconds, 2);
  }
  emit(t);
}

void sweep_universe() {
  subbanner("planning time vs attribute universe (100 nodes)");
  Table t({"attrs", "REMO (s)", "evaluations", "REMO %"});
  for (std::size_t a : {12u, 24u, 48u, 96u}) {
    const auto remo = run(100, a, PartitionScheme::kRemo);
    t.row()
        .add(static_cast<long long>(a))
        .add(remo.seconds, 2)
        .add(static_cast<long long>(remo.evaluations))
        .add(remo.coverage, 1);
  }
  emit(t);
}

// ---- federation tier: planning time vs shard count ----------------------

struct FederatedRun {
  double plan_total = 0.0;  ///< summed per-shard plan seconds (1-core cost)
  double plan_max = 0.0;    ///< slowest shard, planned alone
  double forest_wall = 0.0;  ///< one status() on a fresh federation
  std::size_t pairs = 0;
  std::size_t collected = 0;
  std::size_t cross_tasks = 0;
  std::size_t subtasks = 0;
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// Plans one synthetic workload through a K-shard federation, twice. On a
/// fresh federation, one timed status() plans the whole forest the way a
/// caller does: dirty shards concurrently on the federation's pool (forest
/// wall). On a second fresh federation the shard cores are planned one by
/// one and timed individually (plan sum, max shard).
FederatedRun run_federated(std::size_t nodes, std::size_t num_shards,
                           std::size_t num_tasks, PlannerOptions planner) {
  SystemModel system(nodes, 200.0, kCost);
  system.set_collector_capacity(50.0 * static_cast<double>(nodes));
  Rng rng{7};
  system.assign_random_attributes(48, 8, rng);
  WorkloadGenerator gen(system, WorkloadConfig{.attr_universe = 48}, 9);
  const auto tasks = gen.small_tasks(num_tasks);

  federation::FederationOptions opts;
  opts.num_shards = num_shards;
  opts.shard.planner = planner;
  FederatedRun r;
  {
    federation::FederatedMonitoringSystem forest(system, opts);
    for (const auto& t : tasks) forest.add_task(t);
    const auto start = std::chrono::steady_clock::now();
    (void)forest.status(0.0);
    r.forest_wall = seconds_since(start);
  }
  federation::FederatedMonitoringSystem fed(std::move(system), std::move(opts));
  for (const auto& t : tasks) fed.add_task(t);

  for (std::size_t s = 0; s < fed.num_shards(); ++s) {
    const auto start = std::chrono::steady_clock::now();
    (void)fed.shard(s).topology(0.0);  // plan this shard, nothing else
    const double sec = seconds_since(start);
    r.plan_total += sec;
    r.plan_max = std::max(r.plan_max, sec);
  }
  const auto status = fed.status(0.0);
  r.pairs = status.pairs;
  r.collected = status.collected;
  r.cross_tasks = fed.routing().cross_shard_tasks;
  r.subtasks = fed.routing().subtasks_routed;
  // Cross-shard traffic counters land in the --json metrics snapshot
  // (federation.* series in the global registry).
  fed.publish_metrics();
  return r;
}

void emit_federated_rows(Table& t, std::size_t nodes, std::size_t num_tasks,
                         const std::vector<std::size_t>& shard_counts,
                         const PlannerOptions& planner) {
  for (std::size_t k : shard_counts) {
    const auto r = run_federated(nodes, k, num_tasks, planner);
    t.row()
        .add(static_cast<long long>(k))
        .add(r.plan_total, 2)
        .add(r.plan_max, 2)
        .add(r.forest_wall, 2)
        .add(static_cast<long long>(r.collected))
        .add(static_cast<long long>(r.pairs))
        .add(static_cast<long long>(r.cross_tasks))
        .add(static_cast<long long>(r.subtasks));
  }
  emit(t);
}

void sweep_shards() {
  subbanner("federated planning vs shard count (2000 nodes)");
  // Budget-capped guided search: full REMO planning per shard core, with a
  // search budget that keeps the K=1 column CI-sized. Collected pairs must
  // not depend on K (the federation conservation property); the win is the
  // forest wall column — the measured federated planning latency —
  // shrinking as the node space is split. Max shard (gated in CI) is its
  // floor: one shard planned alone with the whole pool.
  PlannerOptions o = planner_options(PartitionScheme::kRemo);
  o.max_candidates = 2;
  o.max_iterations = 8;
  Table t({"K", "plan sum (s)", "max shard (s)", "forest wall (s)", "collected",
           "pairs", "cross tasks", "subtasks"});
  emit_federated_rows(t, 2000, 2000, {1, 2, 4, 8}, o);
}

void federated_100k() {
  subbanner("federated planning at 100k nodes");
  // Web-scale row (the ISSUE 6 acceptance bar): 100k nodes split across
  // K >= 8 shard cores. Guided search is infeasible at this scale on one
  // core — which is the point of the federation — so each shard plans
  // with the no-search one-set scheme; forest wall is what a deployment
  // would actually wait on.
  PlannerOptions o = planner_options(PartitionScheme::kOneSet);
  Table t({"K", "plan sum (s)", "max shard (s)", "forest wall (s)", "collected",
           "pairs", "cross tasks", "subtasks"});
  emit_federated_rows(t, 100000, 20000, {8, 16}, o);
}

}  // namespace
}  // namespace remo::bench

int main(int argc, char** argv) {
  remo::bench::init("scalability", argc, argv);
  bool full = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--full") == 0) full = true;
  remo::bench::banner("Scalability", "planner cost vs problem size");
  remo::bench::sweep_nodes();
  remo::bench::sweep_universe();
  remo::bench::sweep_shards();
  if (full) remo::bench::federated_100k();
  return 0;
}
