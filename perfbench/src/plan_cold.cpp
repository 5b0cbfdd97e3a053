// plan-cold: bare cold Planner::plan (K = 1, REMO scheme) on a panel of
// copies of the bench_scalability node-sweep scenario, which is
// capacity-starved (node cap 60, collector 15·n, universe 36, one small
// task per node). Guided-search ranking (partition) and tree construction
// (tree) dominate; service, adapt and federation code never runs.
//
// End-to-end run: each copy is set up (system + tasks + dedup) and planned
// once with a fresh Planner. After the timed phase, each plan is checked:
// the topology validates, and REMO collects at least as many pairs as
// SINGLETON-SET and ONE-SET on the same copy.
//
// Traced run: the untraced plan() of each copy is the reference; then the
// same search is driven step by step through public calls in plan()'s exact
// sequence (build_for_partition, improve_once, endpoint guard), with a pure
// rank_topology_augmentations probe on each iteration's input, and must
// yield the same topology.
#include <algorithm>
#include <memory>

#include "common/rng.h"
#include "cost/system_model.h"
#include "harness.h"
#include "obs/metrics.h"
#include "planner/evaluator.h"
#include "planner/planner.h"
#include "task/task_manager.h"
#include "task/workload.h"

namespace perfbench {
namespace {

using namespace remo;

constexpr std::size_t kNodes = 250;
constexpr std::size_t kUniverse = 36;
constexpr std::size_t kAttrsPerNode = kUniverse * 2 / 3;
constexpr Capacity kNodeCap = 60.0;
constexpr CostModel kCost{10.0, 1.0};
/// The scenario copies form a fixed panel: copy-to-copy plan time varies
/// about 2x (2.2-5.2 s at 300 nodes), so a median over a few seed-derived
/// copies would move more between seeds than any useful bound. The run
/// seed rotates the order in which the panel is planned. An end-to-end run
/// plans whole passes over the panel (at least one); the exact metrics
/// (collected pairs, message volume) are summed over the first pass.
constexpr std::size_t kPanel = 10;
constexpr std::uint64_t kPanelSeed = 0x5eed;
/// A traced run plans at least this many copies.
constexpr std::size_t kMinTracedCopies = 2;

struct Copy {
  SystemModel system;
  TaskManager manager;
  PairSet pairs;
  double dedup_s = 0.0;

  explicit Copy(std::size_t index, std::uint64_t seed = kPanelSeed)
      : system(kNodes, kNodeCap, kCost), manager(&system), pairs(kNodes + 1) {
    system.set_collector_capacity(15.0 * static_cast<double>(kNodes));
    Rng rng{mix_seed(seed, 2 * index)};
    system.assign_random_attributes(kUniverse, kAttrsPerNode, rng);
    WorkloadGenerator gen(system, WorkloadConfig{.attr_universe = kUniverse},
                          mix_seed(seed, 2 * index + 1));
    for (auto& t : gen.small_tasks(kNodes)) manager.add_task(std::move(t));
    const auto t0 = Clock::now();
    pairs = manager.dedup(system.num_vertices());
    dedup_s = seconds_since(t0);
  }
};

PlannerOptions options(PartitionScheme scheme) {
  PlannerOptions o;
  o.partition_scheme = scheme;
  o.tree.scheme = TreeScheme::kAdaptive;
  o.allocation = AllocationScheme::kOrdered;
  o.max_candidates = 16;
  o.max_iterations = 256;
  o.num_threads = hardware_threads();
  return o;
}

bool same_topology(const Topology& a, const Topology& b) {
  return edge_diff(a, b) == 0 && a.partition().to_string() == b.partition().to_string() &&
         a.collected_pairs() == b.collected_pairs() && a.total_cost() == b.total_cost();
}

/// Output checks shared by both modes; appends a description of each
/// failure to `problems` and returns false on any.
bool check_copy(std::vector<std::string>& problems, const Copy& c, const Topology& remo_topo,
                const Topology& one_set, std::size_t index) {
  const Topology singleton =
      Planner(c.system, options(PartitionScheme::kSingletonSet)).plan(c.pairs);
  const std::string tag = "copy " + std::to_string(index) + ": ";
  const std::size_t before = problems.size();
  if (!remo_topo.validate(c.system)) problems.push_back(tag + "invalid topology");
  if (remo_topo.collected_pairs() < singleton.collected_pairs())
    problems.push_back(tag + "REMO " + std::to_string(remo_topo.collected_pairs()) +
                       " < SINGLETON-SET " + std::to_string(singleton.collected_pairs()));
  if (remo_topo.collected_pairs() < one_set.collected_pairs())
    problems.push_back(tag + "REMO " + std::to_string(remo_topo.collected_pairs()) +
                       " < ONE-SET " + std::to_string(one_set.collected_pairs()));
  return problems.size() == before;
}

/// plan()'s sequence through public calls, one span per call, with the
/// ranking probe. Returns the topology and fills per-iteration samples.
Topology decomposed_plan(const Planner& planner, const PairSet& pairs, Result& result,
                         Ledger& ledger, double& probe_s, std::size_t& commits) {
  const PlannerOptions& o = planner.options();
  planner.evaluator().reset_stats();
  const auto universe = pairs.attribute_universe();
  auto build = [&](const Partition& p) {
    const obs::Span span("planner.build_for_partition");
    const auto t0 = Clock::now();
    Topology t = planner.build_for_partition(pairs, p);
    result.sample("planner.build_full_s", seconds_since(t0));
    return t;
  };
  auto climb = [&](Topology& topo) {
    for (std::size_t iter = 0; iter < o.max_iterations; ++iter) {
      auto t0 = Clock::now();
      {
        const obs::Span span("partition.rank");
        const auto ranked = rank_topology_augmentations(
            topo, pairs, planner.system().cost(), o.conflicts, o.max_candidates,
            nullptr, o.starvation_ranking);
        (void)ranked;
      }
      const double rank_s = seconds_since(t0);
      probe_s += rank_s;
      t0 = Clock::now();
      bool improved = false;
      {
        const obs::Span span("planner.improve_once");
        improved = planner.improve_once(topo, pairs);
      }
      const double improve_s = seconds_since(t0);
      result.sample("partition.rank_s", rank_s);
      result.sample("planner.improve_s", improve_s);
      result.sample("planner.evaluate_s", std::max(0.0, improve_s - rank_s));
      ledger.drain();
      if (!improved) break;
      ++commits;
    }
  };
  Topology topo = build(Partition::singleton(universe));
  climb(topo);
  if (o.endpoint_guard && !universe.empty()) {
    Topology coarse = build(Partition::one_set(universe));
    if (improves(score_of(coarse), score_of(topo))) {
      topo = std::move(coarse);
      climb(topo);
    }
  }
  return topo;
}

}  // namespace

void run_plan_cold(const Args& args, Result& result) {
  result.info("planner_num_threads", static_cast<double>(options(PartitionScheme::kRemo).num_threads));
  result.info("nodes", static_cast<double>(kNodes));
  result.info("panel_copies", static_cast<double>(kPanel));
  const auto run_start = Clock::now();
  std::unique_ptr<Ledger> ledger = args.trace ? std::make_unique<Ledger>(result) : nullptr;
  double collected = 0.0;
  double volume = 0.0;
  auto& registry = obs::Registry::global();
  std::vector<std::string> problems;
  /// Each plan's copy index and outputs; checked after the timed phase.
  struct Planned {
    std::size_t index = 0;
    Topology topo;
    Topology one_set;  ///< filled by traced runs only
    bool ok = true;    ///< traced: the stepwise search matched plan()
  };
  std::vector<Planned> planned;

  auto more = [&](std::size_t i) {
    const double elapsed = seconds_since(run_start);
    if (ledger) return i < kMinTracedCopies || elapsed < args.seconds;
    if (i % kPanel != 0 || i == 0) return true;  // finish the pass
    const double pass_s = elapsed / static_cast<double>(i / kPanel);
    return elapsed + pass_s <= args.seconds;
  };
  for (std::size_t i = 0; more(i); ++i) {
    const std::size_t index = (args.seed + i) % kPanel;
    auto t0 = Clock::now();
    const auto copy = std::make_unique<Copy>(index);
    const Planner planner(copy->system, options(PartitionScheme::kRemo));
    result.sample("setup_s", seconds_since(t0));
    result.sample("task.dedup_s", copy->dedup_s);
    result.value("task.pairs", static_cast<double>(copy->pairs.total_pairs()));

    result.attempted();
    const double cpu0 = process_cpu_seconds();
    t0 = Clock::now();
    const Topology topo = planner.plan(copy->pairs);
    const double plan_s = seconds_since(t0);
    result.sample("latency_ms", plan_s * 1e3);
    result.sample("planner.cpu_per_wall", (process_cpu_seconds() - cpu0) / plan_s);
    if (i < kPanel) {
      collected += static_cast<double>(topo.collected_pairs());
      volume += topo.total_cost();
    }

    Planned out{index, topo, Topology{}, true};
    if (ledger) {
      const EvalStats plan_stats = planner.last_stats();
      const std::uint64_t invalidated0 = registry.counter("planner.cache_invalidated").value();
      const Planner stepwise(copy->system, options(PartitionScheme::kRemo));
      double probe_s = 0.0;
      std::size_t commits = 0;
      Topology steps;
      EvalStats s;
      double invalidated = 0.0;
      {
        const TracedSegment segment(ledger.get());
        const auto d0 = Clock::now();
        {
          const obs::Span root("bench.plan_copy");
          steps = decomposed_plan(stepwise, copy->pairs, result, *ledger, probe_s, commits);
        }
        // The engine's windowed counters live in the global registry, so
        // read them before another planner runs.
        s = stepwise.last_stats();
        invalidated = static_cast<double>(registry.counter("planner.cache_invalidated").value() -
                                          invalidated0);
        // Same work as the untraced plan() above, minus the ranking probe.
        result.sample("obs.traced_op_s", seconds_since(d0) - probe_s);
        result.sample("obs.plain_op_s", plan_s);
        // ONE-SET on a cold planner: one tree holding every member, the
        // O(m²) construct case.
        const Planner cold(copy->system, options(PartitionScheme::kOneSet));
        const auto o0 = Clock::now();
        {
          const obs::Span span("tree.oneset_build");
          out.one_set = cold.build_for_partition(
              copy->pairs, Partition::one_set(copy->pairs.attribute_universe()));
        }
        const double oneset_s = seconds_since(o0);
        result.sample("tree.oneset_build_s", oneset_s);
        std::size_t members = 0;
        for (const auto& e : out.one_set.entries()) members += e.tree.members().size();
        result.sample("tree.build_us_per_member",
                      oneset_s * 1e6 / static_cast<double>(std::max<std::size_t>(members, 1)));
        ledger->drain();
      }
      result.sample("planner.iterations", static_cast<double>(commits));
      result.sample("planner.evaluations", static_cast<double>(s.evaluations));
      result.sample("planner.commit_ratio",
                    static_cast<double>(commits) / static_cast<double>(std::max<std::size_t>(s.evaluations, 1)));
      result.sample("planner.cache_hit_ratio",
                    static_cast<double>(s.cache_hits) /
                        static_cast<double>(std::max<std::size_t>(s.cache_hits + s.cache_misses, 1)));
      result.sample("planner.cache_invalidated", invalidated);
      if (!same_topology(steps, topo) || s.evaluations != plan_stats.evaluations) {
        problems.push_back("copy " + std::to_string(index) + ": stepwise search diverged from plan()");
        out.ok = false;
      }
    }
    planned.push_back(std::move(out));
  }
  if (ledger) ledger->finish();
  // The timed phase ends here, before the check plans below run.
  result.value("peak_rss_mb", peak_rss_mb());
  for (Planned& p : planned) {
    const Copy copy(p.index);  // deterministic: the planned copy again
    if (!ledger)
      p.one_set = Planner(copy.system, options(PartitionScheme::kOneSet)).plan(copy.pairs);
    if (!check_copy(problems, copy, p.topo, p.one_set, p.index) || !p.ok) result.failed();
  }
  std::string detail = std::to_string(planned.size()) + " plans: valid, REMO >= SINGLETON-SET and ONE-SET";
  if (ledger) detail += ", stepwise search == plan()";
  for (const auto& p : problems) detail += "; " + p;
  result.check("plan.outputs", problems.empty(), detail);

  result.value("collected_pairs", collected);
  result.value("message_volume", volume);
}

}  // namespace perfbench
