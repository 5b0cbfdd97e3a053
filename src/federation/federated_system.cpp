#include "federation/federated_system.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "common/sorted_vector.h"
#include "federation/aggregator.h"
#include "obs/metrics.h"

namespace remo::federation {

namespace {

/// Unique node ids within [1, universe] — the normalization the routing
/// conservation accounting is stated over (the task manager applies the
/// same one at dedup time, so this is also "nodes that can yield pairs").
std::size_t normalized_node_count(const std::vector<NodeId>& nodes,
                                  std::size_t universe) {
  std::vector<NodeId> in_range;
  in_range.reserve(nodes.size());
  for (NodeId n : nodes)
    if (n != kCollectorId && n <= universe) in_range.push_back(n);
  sort_unique(in_range);
  return in_range.size();
}

std::size_t unique_attr_count(const std::vector<AttrId>& attrs) {
  std::vector<AttrId> a = attrs;
  sort_unique(a);
  return a.size();
}

}  // namespace

FederatedMonitoringSystem::FederatedMonitoringSystem(SystemModel global,
                                                     FederationOptions options)
    : system_(std::move(global)),
      options_(std::move(options)),
      router_(system_.num_nodes(),
              std::max<std::size_t>(1, options_.num_shards)) {
  const std::size_t threads = options_.shard.planner.num_threads == 0
                                  ? ThreadPool::default_concurrency()
                                  : options_.shard.planner.num_threads;
  pool_ = std::make_unique<ThreadPool>(threads - 1);
  const std::size_t k = router_.num_shards();
  registries_.reserve(k);
  shards_.reserve(k);
  for (std::size_t s = 0; s < k; ++s) {
    registries_.push_back(std::make_unique<obs::Registry>());

    MonitoringSystemOptions opts = options_.shard;
    opts.shard = ShardIdentity{static_cast<std::uint32_t>(s),
                               static_cast<std::uint32_t>(k)};
    // Each core publishes into its own registry; publish_metrics()
    // republishes them labeled so the series stay separable per shard.
    opts.metrics = registries_.back().get();
    opts.planner.metrics = registries_.back().get();
    opts.planner.executor = pool_.get();
    // Recovery callbacks cross the facade boundary: the caller speaks
    // global ids, the shard core speaks local ones.
    if (opts.recovery.on_detect) {
      auto user_cb = opts.recovery.on_detect;
      const auto shard_idx = static_cast<std::uint32_t>(s);
      opts.recovery.on_detect = [this, user_cb,
                                 shard_idx](const LivenessEvent& ev) {
        LivenessEvent global_ev = ev;
        global_ev.node = router_.to_global(shard_idx, ev.node);
        user_cb(global_ev);
      };
    }

    shards_.push_back(std::make_unique<MonitoringSystem>(
        router_.shard_system(system_, static_cast<std::uint32_t>(s),
                             options_.shard_collector_capacity),
        std::move(opts)));
  }
}

TaskId FederatedMonitoringSystem::add_task(MonitoringTask task) {
  const TaskId id = next_id_++;
  task.id = id;

  Route route;
  route.user = task;
  const auto subs = router_.route(task);
  for (const auto& sub : subs) {
    MonitoringTask local = sub.task;
    const std::size_t node_count =
        normalized_node_count(local.nodes, router_.shard_size(sub.shard));
    const TaskId local_id = shards_[sub.shard]->add_task(std::move(local));
    route.subtasks.push_back(Sub{sub.shard, local_id, node_count});
    ++routing_.subtasks_routed;
    ++routing_.subtasks_active;
    routing_.routed_node_refs += node_count;
  }
  ++routing_.tasks_submitted;
  if (route.subtasks.size() > 1)
    ++routing_.cross_shard_tasks;
  else
    ++routing_.single_shard_tasks;

  routes_.emplace(id, std::move(route));
  ++routes_generation_;
  if (validation_enabled()) check_invariants();
  return id;
}

bool FederatedMonitoringSystem::remove_task(TaskId id) {
  auto it = routes_.find(id);
  if (it == routes_.end()) return false;
  for (const Sub& sub : it->second.subtasks) {
    const bool removed = shards_[sub.shard]->remove_task(sub.local_id);
    REMO_ASSERT(removed, "shard ", sub.shard, " lost subtask ", sub.local_id,
                " of federated task ", id);
    --routing_.subtasks_active;
  }
  routes_.erase(it);
  ++routes_generation_;
  if (validation_enabled()) check_invariants();
  return true;
}

bool FederatedMonitoringSystem::modify_task(MonitoringTask task) {
  auto it = routes_.find(task.id);
  if (it == routes_.end()) return false;
  Route& route = it->second;

  // Re-route the new definition and reconcile per shard: shards present in
  // both get a modify (reusing the shard-local task id), shards only in
  // the old routing get a remove, shards only in the new one get an add.
  const auto subs = router_.route(task);
  std::vector<Sub> next;
  next.reserve(subs.size());
  auto old_it = route.subtasks.begin();  // ascending by shard, like `subs`
  for (const auto& sub : subs) {
    while (old_it != route.subtasks.end() && old_it->shard < sub.shard) {
      const bool removed = shards_[old_it->shard]->remove_task(old_it->local_id);
      REMO_ASSERT(removed, "shard ", old_it->shard, " lost subtask ",
                  old_it->local_id, " of federated task ", task.id);
      --routing_.subtasks_active;
      ++old_it;
    }
    MonitoringTask local = sub.task;
    const std::size_t node_count =
        normalized_node_count(local.nodes, router_.shard_size(sub.shard));
    TaskId local_id;
    if (old_it != route.subtasks.end() && old_it->shard == sub.shard) {
      local_id = old_it->local_id;
      local.id = local_id;
      const bool modified = shards_[sub.shard]->modify_task(std::move(local));
      REMO_ASSERT(modified, "shard ", sub.shard, " lost subtask ", local_id,
                  " of federated task ", task.id);
      ++old_it;
    } else {
      local_id = shards_[sub.shard]->add_task(std::move(local));
      ++routing_.subtasks_routed;
      ++routing_.subtasks_active;
    }
    routing_.routed_node_refs += node_count;
    next.push_back(Sub{sub.shard, local_id, node_count});
  }
  for (; old_it != route.subtasks.end(); ++old_it) {
    const bool removed = shards_[old_it->shard]->remove_task(old_it->local_id);
    REMO_ASSERT(removed, "shard ", old_it->shard, " lost subtask ",
                old_it->local_id, " of federated task ", task.id);
    --routing_.subtasks_active;
  }

  route.user = task;
  route.subtasks = std::move(next);
  ++routes_generation_;
  if (validation_enabled()) check_invariants();
  return true;
}

FederatedMonitoringSystem::Status FederatedMonitoringSystem::status(double now) {
  // Poll the shards first: their lazy replans settle their generations, so
  // the counter read below is stable for the cache check.
  const std::vector<Status> per_shard = shard_statuses(now);
  const std::uint64_t gen = generation();
  if (status_cache_.has_value() && status_generation_ == gen)
    return *status_cache_;
  Status merged = merge_status(per_shard);
  // A cross-shard task contributed one subtask per spanned shard; the
  // user-facing count is the number of routed tasks.
  merged.tasks = routes_.size();
  status_cache_ = merged;
  status_generation_ = gen;
  return merged;
}

std::vector<FederatedMonitoringSystem::Status>
FederatedMonitoringSystem::shard_statuses(double now) {
  plan_shards(now);
  std::vector<Status> out;
  out.reserve(shards_.size());
  for (auto& shard : shards_) out.push_back(shard->status(now));
  return out;
}

std::vector<NodeAttrPair> FederatedMonitoringSystem::collected_pairs(double now) {
  plan_shards(now);
  std::vector<std::vector<NodeAttrPair>> per_shard;
  per_shard.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s)
    per_shard.push_back(pairs_to_global(shards_[s]->collected_pairs(now),
                                        router_,
                                        static_cast<std::uint32_t>(s)));
  return merge_pair_streams(std::move(per_shard));
}

RepairReport FederatedMonitoringSystem::repair_report() const {
  std::vector<RepairReport> reports;
  reports.reserve(shards_.size());
  for (const auto& shard : shards_) reports.push_back(shard->repair_report());
  return merge_repair_reports(reports);
}

void FederatedMonitoringSystem::replan(double now) { plan_shards(now, true); }

void FederatedMonitoringSystem::plan_shards(double now, bool force) {
  std::vector<MonitoringSystem*> work;
  for (auto& shard : shards_)
    if (force || shard->plan_pending()) work.push_back(shard.get());
  if (work.empty()) return;
  pool_->parallel_for(work.size(), [&](std::size_t i) {
    if (force)
      work[i]->replan(now);
    else
      (void)work[i]->topology(now);
  });
}

const Topology& FederatedMonitoringSystem::topology(double now) {
  REMO_ASSERT(shards_.size() == 1,
              "topology() is the K=1 compatibility accessor; a ",
              shards_.size(), "-shard federation has one forest per shard — "
              "use shard(k).topology()");
  return shards_.front()->topology(now);
}

void FederatedMonitoringSystem::on_delivery(NodeAttrPair pair,
                                            std::uint64_t epoch) {
  const std::uint32_t s = router_.shard_of(pair.node);
  pair.node = router_.to_local(pair.node);
  shards_[s]->on_delivery(pair, epoch);
}

bool FederatedMonitoringSystem::end_epoch(std::uint64_t epoch) {
  // A shard core plans in end_epoch only with recovery on; without it the
  // plan stays pending for the next read, at that read's clock.
  if (options_.shard.recovery.enabled) plan_shards(static_cast<double>(epoch));
  bool changed = false;
  for (auto& shard : shards_)
    if (shard->end_epoch(epoch)) changed = true;
  return changed;
}

void FederatedMonitoringSystem::publish_metrics() {
  obs::Registry& out = obs::registry_or_global(options_.metrics);
  for (std::size_t s = 0; s < shards_.size(); ++s)
    obs::publish_labeled(registries_[s]->snapshot(),
                         "shard" + std::to_string(s), out);

  // Set semantics (reset + add) so repeated publishes stay idempotent.
  const auto set_counter = [&out](const char* name, std::size_t v) {
    obs::Counter& c = out.counter(name);
    c.reset();
    c.add(v);
  };
  out.gauge("federation.shards").set(static_cast<double>(shards_.size()));
  set_counter("federation.tasks", routes_.size());
  set_counter("federation.tasks_submitted", routing_.tasks_submitted);
  set_counter("federation.tasks_single_shard", routing_.single_shard_tasks);
  set_counter("federation.tasks_cross_shard", routing_.cross_shard_tasks);
  set_counter("federation.subtasks_routed", routing_.subtasks_routed);
  set_counter("federation.subtasks_active", routing_.subtasks_active);
  set_counter("federation.routed_node_refs", routing_.routed_node_refs);
}

std::string FederatedMonitoringSystem::export_json(double now) {
  plan_shards(now);
  std::ostringstream os;
  os << "{\"federation\":{"
     << "\"shards\":" << shards_.size()
     << ",\"tasks\":" << routes_.size()
     << ",\"tasks_submitted\":" << routing_.tasks_submitted
     << ",\"single_shard_tasks\":" << routing_.single_shard_tasks
     << ",\"cross_shard_tasks\":" << routing_.cross_shard_tasks
     << ",\"subtasks_routed\":" << routing_.subtasks_routed
     << ",\"subtasks_active\":" << routing_.subtasks_active
     << ",\"routed_node_refs\":" << routing_.routed_node_refs
     << "},\"shards\":[";
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (s > 0) os << ",";
    os << shards_[s]->export_json(now);
  }
  os << "]}";
  return os.str();
}

std::string FederatedMonitoringSystem::export_dot(double now) {
  plan_shards(now);
  if (shards_.size() == 1) return shards_.front()->export_dot(now);
  std::ostringstream os;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    os << "// shard " << s << "\n" << shards_[s]->export_dot(now);
  }
  return os.str();
}

std::uint64_t FederatedMonitoringSystem::generation() const noexcept {
  std::uint64_t g = routes_generation_;
  for (const auto& shard : shards_) g += shard->generation();
  return g;
}

void FederatedMonitoringSystem::restore_routes(std::map<TaskId, Route> routes,
                                               TaskId next_id,
                                               RoutingStats routing) {
  routes_ = std::move(routes);
  if (!routes_.empty()) {
    REMO_ASSERT(next_id > routes_.rbegin()->first, "restored next task id ",
                next_id, " collides with live federated task ",
                routes_.rbegin()->first);
  }
  next_id_ = next_id;
  routing_ = routing;
  ++routes_generation_;
  if (validation_enabled()) check_invariants();
}

std::size_t FederatedMonitoringSystem::global_pair_count(
    const MonitoringTask& t) const {
  return normalized_node_count(t.nodes, system_.num_nodes()) *
         unique_attr_count(t.attrs);
}

void FederatedMonitoringSystem::check_invariants() const {
  std::size_t active = 0;
  for (const auto& [id, route] : routes_) {
    REMO_VALIDATE(route.user.id == id, "route ", id, " stores task id ",
                  route.user.id);
    const std::size_t attrs = unique_attr_count(route.user.attrs);
    std::size_t routed_pairs = 0;
    std::uint32_t prev_shard = 0;
    bool first = true;
    for (const Sub& sub : route.subtasks) {
      REMO_VALIDATE(sub.shard < shards_.size(), "task ", id,
                    " routed to nonexistent shard ", sub.shard);
      REMO_VALIDATE(first || sub.shard > prev_shard, "task ", id,
                    " subtasks out of shard order or duplicated on shard ",
                    sub.shard);
      first = false;
      prev_shard = sub.shard;
      routed_pairs += sub.node_count * attrs;
    }
    active += route.subtasks.size();
    // The conservation argument: shards partition [1, n], so the
    // per-shard node sets partition the task's normalized node set —
    // nothing lost, nothing duplicated by routing.
    REMO_VALIDATE(routed_pairs == global_pair_count(route.user), "task ", id,
                  " requests ", global_pair_count(route.user),
                  " pairs globally but its subtasks carry ", routed_pairs);
  }
  REMO_VALIDATE(active == routing_.subtasks_active, "route table holds ",
                active, " subtasks but the counter says ",
                routing_.subtasks_active);
}

}  // namespace remo::federation
