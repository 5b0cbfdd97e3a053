#include "planner/evaluator.h"

#include <algorithm>
#include <chrono>

#include "common/check.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace remo {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

/// Engine metrics live in an obs::Registry (options.metrics, defaulting to
/// the global one) under the `planner.*` names, so a registry snapshot —
/// e.g. the one every bench writes into BENCH_*.json — carries the engine
/// counters with no extra plumbing. Registry counters are cumulative and
/// may be shared by several evaluators (a registry per process, or one per
/// federation shard), so EvalStats windows never read them: each evaluator
/// counts its own work in `total` and mirrors every addend into the
/// registry. reset_stats() captures `total` as the baseline and stats()
/// subtracts it, which keeps per-plan() windows exact even while another
/// evaluator publishes into the same registry.
struct PlanEvaluator::Counters {
  obs::Counter* evaluations = nullptr;
  obs::Counter* cache_hits = nullptr;    ///< registry mirror of cache_.hits()
  obs::Counter* cache_misses = nullptr;  ///< registry mirror of cache_.misses()
  obs::Counter* cache_invalidated = nullptr;  ///< memo entries evicted by churn
  obs::Gauge* evaluate_seconds = nullptr;
  obs::Gauge* build_seconds = nullptr;

  /// This evaluator's lifetime totals and the window baseline captured by
  /// reset_stats(). The cache fields come from TreeBuildCache's own
  /// lifetime counts, which are per evaluator already.
  EvalStats total;
  EvalStats base;

  void evaluated(std::size_t n) {
    total.evaluations += n;
    evaluations->add(n);
  }
  void evaluate_time(double seconds) {
    total.evaluate_seconds += seconds;
    evaluate_seconds->add(seconds);
  }
  void build_time(double seconds) {
    total.build_seconds += seconds;
    build_seconds->add(seconds);
  }

  /// Scope guard mirroring the cache counter deltas of one engine call
  /// into the registry (the cache increments from pool threads; the delta
  /// is taken on the calling thread around the whole parallel section).
  struct CacheWindow {
    Counters& c;
    const TreeBuildCache& cache;
    std::size_t h0, m0;
    CacheWindow(Counters& counters, const TreeBuildCache& build_cache)
        : c(counters), cache(build_cache), h0(cache.hits()), m0(cache.misses()) {}
    ~CacheWindow() {
      c.cache_hits->add(cache.hits() - h0);
      c.cache_misses->add(cache.misses() - m0);
    }
  };
};

PlanEvaluator::PlanEvaluator(const SystemModel& system, PlannerOptions options)
    : system_(&system),
      options_(std::move(options)),
      counters_(std::make_unique<Counters>()) {
  obs::Registry& reg = obs::registry_or_global(options_.metrics);
  counters_->evaluations = &reg.counter("planner.candidates_evaluated");
  counters_->cache_hits = &reg.counter("planner.cache_hits");
  counters_->cache_misses = &reg.counter("planner.cache_misses");
  counters_->cache_invalidated = &reg.counter("planner.cache_invalidated");
  counters_->evaluate_seconds = &reg.gauge("planner.evaluate_seconds");
  counters_->build_seconds = &reg.gauge("planner.build_seconds");
}

PlanEvaluator::~PlanEvaluator() = default;

std::size_t PlanEvaluator::num_threads() const {
  return options_.num_threads == 0 ? ThreadPool::default_concurrency()
                                   : options_.num_threads;
}

ThreadPool& PlanEvaluator::pool() {
  if (options_.executor != nullptr) return *options_.executor;
  if (!pool_) pool_ = std::make_unique<ThreadPool>(num_threads() - 1);
  return *pool_;
}

void PlanEvaluator::sync_pairs(const PairSet& pairs) {
  if (last_pairs_.has_value() && *last_pairs_ == pairs) return;
  if (last_pairs_.has_value() && last_pairs_->num_vertices() == pairs.num_vertices()) {
    // Scoped invalidation: evict only entries whose attribute sets the
    // change intersects; everything else is still bit-exact (PR 1 cleared
    // the whole cache here, discarding builds the change never touched).
    const PairSetDelta delta = diff(*last_pairs_, pairs);
    counters_->cache_invalidated->add(cache_.invalidate_attrs(delta.affected_attrs()));
  } else {
    cache_.clear();
  }
  last_pairs_ = pairs;
  cache_.set_reference_pairs(&*last_pairs_);
}

void PlanEvaluator::apply_pairs_delta(const PairSetDelta& delta) {
  if (delta.empty()) return;
  REMO_ASSERT(last_pairs_.has_value(),
              "apply_pairs_delta before the first sync_pairs — the engine has "
              "no pair set to advance");
  apply_delta(*last_pairs_, delta);
  counters_->cache_invalidated->add(cache_.invalidate_attrs(delta.affected_attrs()));
  cache_.set_reference_pairs(&*last_pairs_);
}

Topology PlanEvaluator::build_full(const PairSet& pairs, const Partition& partition) {
  const obs::Span span("planner.build_full");
  const Counters::CacheWindow cache_window(*counters_, cache_);
  const auto start = std::chrono::steady_clock::now();
  Topology topo = build_topology(*system_, pairs, partition, options_.attr_specs,
                                 options_.allocation, options_.tree, memo_cache());
  counters_->evaluated(1);
  counters_->build_time(seconds_since(start));
  return topo;
}

Topology PlanEvaluator::rebuild_candidate(const Topology& base, const Partition& p,
                                          const PairSet& pairs,
                                          const Augmentation& aug) {
  const AugmentationFootprint fp = footprint(p, aug);
  return rebuild_trees(base, *system_, pairs, fp.victims, fp.new_sets,
                       options_.attr_specs, options_.allocation, options_.tree,
                       memo_cache());
}

PlanScore PlanEvaluator::score_candidate(const Topology& base, const Partition& p,
                                         const PairSet& pairs,
                                         const Augmentation& aug,
                                         RebuildScratch* scratch) {
  const AugmentationFootprint fp = footprint(p, aug);
  const RebuildScore s = rebuild_score(base, *system_, pairs, fp.victims,
                                       fp.new_sets, options_.attr_specs,
                                       options_.allocation, options_.tree,
                                       memo_cache(), scratch);
  return PlanScore{s.collected, s.cost};
}

void PlanEvaluator::for_each_blocked(
    std::size_t n, const std::function<void(std::size_t, RebuildScratch&)>& fn) {
  const std::size_t num_blocks = (n + kCandidateBlockSize - 1) / kCandidateBlockSize;
  if (num_threads() <= 1 || num_blocks <= 1) {
    RebuildScratch scratch;
    for (std::size_t i = 0; i < n; ++i) fn(i, scratch);
    return;
  }
  pool().parallel_for(num_blocks, [&](std::size_t b) {
    RebuildScratch scratch;
    const std::size_t begin = b * kCandidateBlockSize;
    const std::size_t end = std::min(begin + kCandidateBlockSize, n);
    for (std::size_t i = begin; i < end; ++i) fn(i, scratch);
  });
}

PlanEvaluator::Result PlanEvaluator::materialize(
    const Topology& base, const Partition& p, const PairSet& pairs,
    const std::vector<Augmentation>& candidates, std::size_t index,
    const PlanScore& score) {
  // With the cache on this re-serves the builds the scoring pass just did;
  // with it off, one extra build per committed operation.
  return Result{rebuild_candidate(base, p, pairs, candidates[index]), score, index};
}

std::optional<PlanEvaluator::Result> PlanEvaluator::best_improving(
    const Topology& base, const PairSet& pairs,
    const std::vector<Augmentation>& candidates, const PlanScore& current) {
  const obs::Span span("planner.evaluate");
  const Counters::CacheWindow cache_window(*counters_, cache_);
  const auto start = std::chrono::steady_clock::now();
  const Partition p = base.partition();
  std::vector<PlanScore> scores(candidates.size());
  for_each_blocked(candidates.size(), [&](std::size_t i, RebuildScratch& scratch) {
    scores[i] = score_candidate(base, p, pairs, candidates[i], &scratch);
  });
  counters_->evaluated(candidates.size());

  // Serial rank-order scan: strict improvement over the running best, so
  // ties go to the lowest-ranked candidate — identical to serial search.
  std::optional<std::size_t> best;
  PlanScore best_score = current;
  for (std::size_t i = 0; i < scores.size(); ++i) {
    if (improves(scores[i], best_score)) {
      best_score = scores[i];
      best = i;
    }
  }
  std::optional<Result> out;
  if (best) out = materialize(base, p, pairs, candidates, *best, best_score);
  counters_->evaluate_time(seconds_since(start));
  return out;
}

std::optional<PlanEvaluator::Result> PlanEvaluator::first_improving(
    const Topology& base, const PairSet& pairs,
    const std::vector<Augmentation>& candidates, const PlanScore& current,
    std::size_t max_evaluations) {
  const obs::Span span("planner.evaluate");
  const Counters::CacheWindow cache_window(*counters_, cache_);
  const auto start = std::chrono::steady_clock::now();
  const Partition p = base.partition();
  const std::size_t budget = std::min(candidates.size(), max_evaluations);
  // One rank-block per thread and per chunk. The winner is invariant to
  // the chunk size: chunks are scanned in rank order and the scan stops at
  // the first improvement, so the committed candidate is the lowest-ranked
  // improving one no matter how the chunks were cut.
  const std::size_t chunk =
      kCandidateBlockSize * std::max<std::size_t>(num_threads(), 1);
  std::optional<Result> found;
  std::size_t evaluated = 0;
  for (std::size_t begin = 0; begin < budget && !found; begin += chunk) {
    const std::size_t end = std::min(begin + chunk, budget);
    std::vector<PlanScore> scores(end - begin);
    for_each_blocked(scores.size(), [&](std::size_t i, RebuildScratch& scratch) {
      scores[i] = score_candidate(base, p, pairs, candidates[begin + i], &scratch);
    });
    evaluated += scores.size();
    for (std::size_t i = 0; i < scores.size(); ++i) {
      if (improves(scores[i], current)) {
        found = materialize(base, p, pairs, candidates, begin + i, scores[i]);
        break;
      }
    }
  }
  counters_->evaluated(evaluated);
  counters_->evaluate_time(seconds_since(start));
  return found;
}

EvalStats PlanEvaluator::stats() const {
  const EvalStats& t = counters_->total;
  const EvalStats& b = counters_->base;
  EvalStats s;
  s.evaluations = t.evaluations - b.evaluations;
  s.cache_hits = cache_.hits() - b.cache_hits;
  s.cache_misses = cache_.misses() - b.cache_misses;
  s.evaluate_seconds = t.evaluate_seconds - b.evaluate_seconds;
  s.build_seconds = t.build_seconds - b.build_seconds;
  return s;
}

void PlanEvaluator::reset_stats() {
  counters_->base = counters_->total;
  counters_->base.cache_hits = cache_.hits();
  counters_->base.cache_misses = cache_.misses();
}

}  // namespace remo
