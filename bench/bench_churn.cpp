// Churn bench (DESIGN.md §13): sustained task-update throughput through
// the delta replanning path — TaskManager mutations stream in as exact
// TaskDeltas, the DeltaTracker coalesces them, and AdaptivePlanner::flush
// replans over the burst. A non-incremental ADAPTIVE reference applies
// the full deduplicated pair set at the very same flush epochs, proving
// the delta path bit-identical (same collected pairs) while skipping the
// full-set diff per replan.
//
// Determinism contract (the perf_smoke gate matches `collected` exactly):
// the tracker runs with the amortized cost estimate disabled
// (staleness_cost_per_pair_second = 0) so the flush cadence depends only
// on the synthetic epoch clock — wall time is measured but never feeds a
// decision. Timing columns are machine-dependent and gated with slack;
// everything else is bit-reproducible.
#include "bench/bench_support.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "adapt/adaptive_planner.h"
#include "common/stats.h"
#include "planner/topology.h"

namespace remo::bench {
namespace {

constexpr CostModel kCost{10.0, 1.0};
constexpr std::size_t kUniverse = 24;
constexpr std::size_t kBatches = 96;
// Hard age bound in synthetic epochs (one epoch per batch): every flush
// coalesces this many churn batches. Sustained throughput is the whole
// point here, so bursts are large and the local search runs on the quick
// budget below — quality is pinned by the collected column and the
// bit-identity check, not by search depth.
constexpr double kFlushEveryEpochs = 32.0;
constexpr std::size_t kMaxCandidates = 8;
constexpr std::size_t kMaxIterations = 32;

struct ChurnResult {
  std::size_t updates = 0;        // task modifications processed
  std::size_t replans = 0;        // tracker flushes (incl. final drain)
  std::size_t pairs_changed = 0;  // Σ |coalesced delta| over replans
  double churn_seconds = 0.0;     // manager mutation (shared by both paths)
  double incr_seconds = 0.0;      // enqueue + flush decisions + delta replans
  double ref_seconds = 0.0;       // dedup + full-diff apply_update replans
  double naive_seconds = 0.0;     // per-batch full-diff replans (no coalescing)
  std::size_t naive_replans = 0;  // one per batch, by construction
  std::size_t collected = 0;      // collected pairs at end (delta path)
  bool identical = true;          // delta vs reference, at every flush
  std::vector<double> replan_ms;  // planning wall time of each delta replan
};

double since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Rank (1-based) of the nearest-rank q-quantile of n sorted samples.
std::size_t nearest_rank(std::size_t n, double q) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(q * static_cast<double>(n))));
}

/// The highest of a few tail quantiles with at least 10 samples beyond its
/// nearest rank, or 0 when even p90 has fewer — a tail named from fewer
/// samples would just be the maximum under another name.
double supported_tail(std::size_t n) {
  for (double q : {0.999, 0.99, 0.95, 0.90})
    if (n >= nearest_rank(n, q) + 10) return q;
  return 0.0;
}

ChurnResult run_churn(std::size_t nodes) {
  // Provisioned for sustained churn: enough per-node and collector slack
  // that replans stay in the cheap greedy-construction regime (the
  // saturation-driven adjusting procedure is Fig. 10's subject, not this
  // bench's — under starvation a single replan costs seconds and no
  // coalescing policy can reach the throughput floor).
  SystemModel system(nodes, 360.0, kCost);
  system.set_collector_capacity(16.0 * static_cast<double>(nodes));
  Rng attr_rng{3};
  system.assign_random_attributes(kUniverse, 8, attr_rng);

  TaskManager manager(&system);
  WorkloadGenerator gen(system, WorkloadConfig{.attr_universe = kUniverse}, 23);
  for (auto& t : gen.small_tasks(nodes)) manager.add_task(std::move(t));

  // Private registries: the latency histogram then holds exactly this
  // run's delta replans, and the reference planner's series stay apart.
  obs::Registry incr_registry;
  PlannerOptions incr_options = planner_options(PartitionScheme::kRemo);
  incr_options.max_candidates = kMaxCandidates;
  incr_options.max_iterations = kMaxIterations;
  incr_options.metrics = &incr_registry;
  DeltaTrackerOptions tracker;
  tracker.max_defer_seconds = kFlushEveryEpochs;
  tracker.max_pending_pairs = std::numeric_limits<std::size_t>::max();
  tracker.staleness_cost_per_pair_second = 0.0;  // deterministic cadence
  AdaptivePlanner incr(system, incr_options, AdaptScheme::kAdaptive, tracker);

  obs::Registry ref_registry;
  PlannerOptions ref_options = incr_options;
  ref_options.metrics = &ref_registry;
  AdaptivePlanner ref(system, ref_options, AdaptScheme::kAdaptive);

  // The no-coalescing strawman: a full dedup + diff + replan after every
  // batch, the cadence the core used before the delta path existed. Only
  // its cost is recorded — correctness is pinned by `ref` above, which
  // replans at the delta path's exact epochs so topologies are comparable.
  obs::Registry naive_registry;
  PlannerOptions naive_options = incr_options;
  naive_options.metrics = &naive_registry;
  AdaptivePlanner naive(system, naive_options, AdaptScheme::kAdaptive);

  const PairSet initial = manager.dedup(system.num_vertices());
  incr.initialize(initial, 0.0);
  ref.initialize(initial, 0.0);
  naive.initialize(initial, 0.0);

  ChurnResult out;
  Rng churn{17};
  const auto replan_both = [&](double now) {
    auto t0 = std::chrono::steady_clock::now();
    const AdaptReport report = incr.flush(now);
    out.incr_seconds += since(t0);
    out.replan_ms.push_back(report.planning_wall_seconds * 1e3);
    ++out.replans;
    out.pairs_changed += report.pairs_changed;

    t0 = std::chrono::steady_clock::now();
    ref.apply_update(manager.dedup(system.num_vertices()), now);
    out.ref_seconds += since(t0);
    if (collected_pairs_of(incr.topology()) !=
        collected_pairs_of(ref.topology()))
      out.identical = false;
  };

  for (std::size_t b = 1; b <= kBatches; ++b) {
    const double now = static_cast<double>(b);
    auto t0 = std::chrono::steady_clock::now();
    const UpdateBatchStats stats =
        apply_update_batch(manager, system, kUniverse, churn);
    out.churn_seconds += since(t0);
    out.updates += stats.tasks_modified;

    t0 = std::chrono::steady_clock::now();
    incr.enqueue_delta(stats.delta, now);
    const bool flush = incr.should_flush(now);
    out.incr_seconds += since(t0);
    if (flush) replan_both(now);

    t0 = std::chrono::steady_clock::now();
    naive.apply_update(manager.dedup(system.num_vertices()), now);
    out.naive_seconds += since(t0);
    ++out.naive_replans;
  }
  // Drain the tail so both planners end on the full churn stream.
  if (incr.has_pending()) replan_both(static_cast<double>(kBatches + 1));

  out.collected = incr.topology().collected_pairs();
  std::sort(out.replan_ms.begin(), out.replan_ms.end());
  // Ride the per-size counters into the bench JSON telemetry.
  obs::publish_labeled(incr_registry.snapshot(), "n" + std::to_string(nodes),
                       obs::Registry::global());
  return out;
}

}  // namespace
}  // namespace remo::bench

int main(int argc, char** argv) {
  remo::bench::init("churn", argc, argv);
  using namespace remo::bench;
  banner("Churn", "delta replanning under continuous task churn");

  const std::vector<std::size_t> sizes{80, 160, 320};
  std::vector<ChurnResult> results;
  results.reserve(sizes.size());
  for (std::size_t n : sizes) results.push_back(run_churn(n));

  subbanner("incremental churn replanning (delta enqueue/flush path)");
  {
    remo::Table t({"nodes", "batches", "updates", "replans", "us/update",
                   "updates/sec", "collected", "identical"});
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      const auto& r = results[i];
      const double seconds = r.churn_seconds + r.incr_seconds;
      t.row()
          .add(static_cast<long long>(sizes[i]))
          .add(static_cast<long long>(kBatches))
          .add(static_cast<long long>(r.updates))
          .add(static_cast<long long>(r.replans))
          .add(seconds / static_cast<double>(r.updates) * 1e6, 2)
          .add(static_cast<double>(r.updates) / seconds, 0)
          .add(static_cast<long long>(r.collected))
          .add(r.identical ? "yes" : "NO");
    }
    emit(t);
  }

  subbanner("replan latency (nearest-rank percentiles over raw samples)");
  {
    remo::Table t({"nodes", "replans", "pairs changed", "samples", "mean (ms)",
                   "p50 (ms)", "tail", "tail (ms)"});
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      const auto& r = results[i];
      const std::size_t n = r.replan_ms.size();
      const double q = supported_tail(n);
      t.row()
          .add(static_cast<long long>(sizes[i]))
          .add(static_cast<long long>(r.replans))
          .add(static_cast<long long>(r.pairs_changed))
          .add(static_cast<long long>(n))
          .add(remo::mean_of(r.replan_ms), 2)
          .add(n > 0 ? r.replan_ms[nearest_rank(n, 0.5) - 1] : 0.0, 2);
      if (q > 0.0) {
        char name[16];
        std::snprintf(name, sizeof name, "p%g", q * 100.0);
        t.add(std::string(name)).add(r.replan_ms[nearest_rank(n, q) - 1], 2);
      } else {
        t.add("-").add("-");
      }
    }
    emit(t);
    std::printf(
        "(a tail percentile is named only with at least 10 samples beyond\n"
        "it; with fewer, p50 and the sample count are all the data supports)\n");
  }

  subbanner("coalescing amortization (vs per-batch full-diff replanning)");
  {
    remo::Table t({"nodes", "replans", "naive replans", "incr us/update",
                   "naive us/update", "speedup"});
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      const auto& r = results[i];
      const double incr = r.churn_seconds + r.incr_seconds;
      const double naive = r.churn_seconds + r.naive_seconds;
      t.row()
          .add(static_cast<long long>(sizes[i]))
          .add(static_cast<long long>(r.replans))
          .add(static_cast<long long>(r.naive_replans))
          .add(incr / static_cast<double>(r.updates) * 1e6, 2)
          .add(naive / static_cast<double>(r.updates) * 1e6, 2)
          .add(naive / incr, 2);
    }
    emit(t);
    std::printf(
        "(naive = dedup + full-set diff + replan after every batch, the\n"
        "pre-delta cadence; the delta path coalesces bursts per the Sec. 4.2\n"
        "bound and replans per burst. Bit-identity is checked against a\n"
        "same-epoch reference, so the speedup buys zero planning drift)\n");
  }
  return 0;
}
