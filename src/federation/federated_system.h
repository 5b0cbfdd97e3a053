// The federation facade (DESIGN.md §12): K shard-local monitoring cores
// behind the MonitoringSystem one-stop API. Callers keep speaking global
// node ids and user-level task ids; the facade
//   - routes every task submission through the ShardRouter, splitting
//     cross-shard tasks into per-shard subtasks (shard-scoped task ids,
//     recorded in routing metadata so removals/modifies follow),
//   - runs one full MonitoringSystem per shard (planner + task manager +
//     detect→repair→replan loop, all scoped to that shard's node subset),
//   - merges per-shard Status / RepairReport / collected-pair streams at
//     the root-of-roots tier (aggregator.h), with pair-count accounting
//     proving routing loses nothing (check_invariants, REMO_VALIDATE),
//   - republishes per-shard metrics under `planner.shard<k>.*`-style
//     labels next to `federation.*` cross-shard traffic counters.
//
// Task churn stays shard-local: a mutation dirties only the shards its
// node set routes to, and those shards ride the core's delta fast path
// (DESIGN.md §13) — untouched shards never replan, observable as flat
// `planner.shard<k>.delta.replans` counters after publish_metrics().
//
// K = 1 is the compatibility configuration: a single shard with identity
// id maps, bit-identical collected pairs to the unsharded
// MonitoringSystem (property-tested). This is what lets the singleton be
// "one shard among K" without breaking any existing caller.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/monitoring_system.h"
#include "federation/shard_router.h"
#include "obs/metrics.h"

namespace remo::federation {

struct FederationOptions {
  /// Number of shard-local cores; clamped to at least 1.
  std::size_t num_shards = 1;
  /// Template options applied to every shard core. The facade overrides
  /// the metric registries (each shard publishes into a private registry
  /// so per-shard series stay separable), the shard identity and the
  /// planner executor (every shard plans on the facade's one pool, sized
  /// by `shard.planner.num_threads` for the whole federation); the
  /// recovery callbacks are wrapped to report global node ids.
  MonitoringSystemOptions shard;
  /// Capacity of each shard's own collector. 0 (default) inherits the
  /// global collector's capacity — every shard root is provisioned like
  /// the old singleton root, which is the federation's scaling lever.
  Capacity shard_collector_capacity = 0.0;
  /// Registry the facade publishes `federation.*` counters and the
  /// labeled per-shard series into (publish_metrics()). Null = the
  /// process-global registry.
  obs::Registry* metrics = nullptr;
};

// Thread model (DESIGN.md §12, §16): one caller at a time, internally
// concurrent. Callers serialize task/epoch calls exactly as they would
// against one core. Inside a call, the facade plans the shards with
// pending work concurrently on its one ThreadPool (`pool_`, see
// plan_shards): shards share nothing, so each pool task touches only its
// own shard core, whose evaluator dispatches candidate blocks back into
// the same pool. Everything else — routing, merging, the recovery
// detect/repair steps and the user's on_detect callbacks — runs on the
// caller, in shard order. The other state shared with other threads is
// the per-shard metric registries (`registries_`): shard cores publish
// into them while an exporter thread may read, and that traffic is safe
// because obs::Registry's map is guarded by an annotated remo::Mutex and
// the returned metric handles are lock-free atomics. No mutex lives at
// this layer, so there is nothing here for the thread-safety analysis to
// check — by construction, not by waiver.
class FederatedMonitoringSystem {
 public:
  explicit FederatedMonitoringSystem(SystemModel global,
                                     FederationOptions options = {});

  // Shard cores hold planner references into their owned SystemModels and
  // the facade's recovery wrappers capture `this`.
  FederatedMonitoringSystem(const FederatedMonitoringSystem&) = delete;
  FederatedMonitoringSystem& operator=(const FederatedMonitoringSystem&) = delete;

  // ---- task management (global node ids, user-level task ids) ----------
  TaskId add_task(MonitoringTask task);
  bool remove_task(TaskId id);
  bool modify_task(MonitoringTask task);
  std::size_t num_tasks() const noexcept { return routes_.size(); }

  // ---- root-of-roots aggregation ----------------------------------------
  using Status = MonitoringSystem::Status;
  /// Merged per-shard status; `tasks` counts user-facing tasks (a
  /// cross-shard task is one task, not one per shard it spans).
  Status status(double now = 0.0);
  /// Per-shard statuses, by shard index (each triggers that shard's lazy
  /// replan).
  std::vector<Status> shard_statuses(double now = 0.0);
  /// Merged collected-pair stream in global ids, sorted by (node, attr).
  std::vector<NodeAttrPair> collected_pairs(double now = 0.0);
  /// Merged lifetime repair counters across shards.
  RepairReport repair_report() const;

  /// Force a full from-scratch replan on every shard (concurrently, like
  /// plan_shards).
  void replan(double now = 0.0);

  /// K=1 compatibility accessor for callers that embed the facade where a
  /// MonitoringSystem used to sit; aborts when the federation has more
  /// than one shard (a federation has no single forest — use
  /// shard(k).topology()).
  const Topology& topology(double now = 0.0);

  // ---- failure recovery (global node ids) -------------------------------
  /// Routes one collector arrival to the owning shard's liveness tracker.
  void on_delivery(NodeAttrPair pair, std::uint64_t epoch);
  /// Runs every shard's detect → repair → replan step; true when any
  /// shard's topology changed. Replans stay shard-local: an outage in one
  /// shard never triggers planning work in another. With recovery on, the
  /// shards' pending plans are settled concurrently first; the detect and
  /// repair steps (and on_detect callbacks) then run in shard order.
  bool end_epoch(std::uint64_t epoch);

  // ---- shard access ------------------------------------------------------
  std::size_t num_shards() const noexcept { return shards_.size(); }
  MonitoringSystem& shard(std::size_t k) { return *shards_.at(k); }
  const MonitoringSystem& shard(std::size_t k) const { return *shards_.at(k); }
  const ShardRouter& router() const noexcept { return router_; }
  const SystemModel& system() const noexcept { return system_; }

  // ---- cross-shard traffic accounting ------------------------------------
  struct RoutingStats {
    std::size_t tasks_submitted = 0;     ///< add_task calls
    std::size_t single_shard_tasks = 0;  ///< node set confined to one shard
    std::size_t cross_shard_tasks = 0;   ///< node set spans >1 shard
    std::size_t subtasks_routed = 0;     ///< per-shard subtasks ever created
    std::size_t subtasks_active = 0;     ///< currently deployed subtasks
    std::size_t routed_node_refs = 0;    ///< task-node memberships routed
  };
  const RoutingStats& routing() const noexcept { return routing_; }

  /// Publishes the federation counters plus every shard's private
  /// registry (labeled `<component>.shard<k>.*`) into `options.metrics`
  /// (or the global registry). Call before snapshotting for telemetry.
  void publish_metrics();

  // ---- introspection -----------------------------------------------------
  /// JSON envelope: {"federation": {...routing...}, "shards": [<shard
  /// export_json>, ...]}.
  std::string export_json(double now = 0.0);
  /// K=1: the shard's digraph verbatim; K>1: the shard digraphs
  /// concatenated with `// shard k` separators (Graphviz reads multiple
  /// graphs per file).
  std::string export_dot(double now = 0.0);

  /// Deep invariant hook (REMO_VALIDATE): for every routed task, the
  /// per-shard subtasks partition the task's in-range nodes — summed
  /// per-shard pair counts equal the task's global pair count, proving
  /// the split loses and duplicates nothing. Runs after every mutating
  /// call when validation is enabled; no-op otherwise.
  void check_invariants() const;

  // ---- snapshot/restore + memoization (service/snapshot.h, DESIGN.md §14)
  struct Sub {
    std::uint32_t shard = 0;
    TaskId local_id = 0;          ///< shard-local task id
    std::size_t node_count = 0;   ///< unique in-range nodes routed there
  };
  struct Route {
    MonitoringTask user;  ///< as submitted (global ids), id = global id
    std::vector<Sub> subtasks;  ///< live subtasks, ascending by shard
  };
  /// The routing table a snapshot serializes: every live task (global
  /// ids) with its per-shard subtask placement.
  const std::map<TaskId, Route>& routes() const noexcept { return routes_; }
  TaskId next_task_id() const noexcept { return next_id_; }
  /// Monotone state-change counter spanning the routing table and every
  /// shard core — readers (status() here, the service daemon's
  /// collected-pairs cache) memoize merged views on it.
  std::uint64_t generation() const noexcept;
  /// Replaces the routing metadata from a snapshot. The shard cores are
  /// restored separately (shard(k).restore_*) — this call only rebinds the
  /// facade's global→shard bookkeeping to them, then re-checks the pair
  /// conservation invariant under REMO_VALIDATE.
  void restore_routes(std::map<TaskId, Route> routes, TaskId next_id,
                      RoutingStats routing);

 private:
  /// Pairs task `t` requests against the global universe (unique in-range
  /// nodes × unique attributes) — the accounting unit for routing
  /// conservation.
  std::size_t global_pair_count(const MonitoringTask& t) const;
  /// Settles the shards on `pool_` in one parallel_for: every shard with a
  /// pending plan, or every shard when `force` (a from-scratch replan).
  /// ThreadPool::parallel_for runs inline on the caller, in shard order,
  /// when at most one shard needs work or the pool has no workers — so a
  /// lone dirty shard keeps the whole pool for its candidate blocks.
  void plan_shards(double now, bool force = false);

  SystemModel system_;
  FederationOptions options_;
  ShardRouter router_;
  /// The federation's one planning pool (num_threads − 1 workers), shared
  /// by every shard's evaluator through PlannerOptions::executor. Declared
  /// before `shards_` so it outlives them.
  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::unique_ptr<obs::Registry>> registries_;
  std::vector<std::unique_ptr<MonitoringSystem>> shards_;
  std::map<TaskId, Route> routes_;
  TaskId next_id_ = 1;
  RoutingStats routing_;
  /// Routing-table half of generation() (shard cores carry their own).
  std::uint64_t routes_generation_ = 0;
  /// status() memo: the Aggregator merge is recomputed only when
  /// generation() moved.
  std::optional<Status> status_cache_;
  std::uint64_t status_generation_ = 0;
};

}  // namespace remo::federation
