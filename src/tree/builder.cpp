#include "tree/builder.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>

#include "common/sorted_vector.h"

namespace remo {

namespace {

/// The distinct blocking vertices ("congested nodes", Definition 4) met by
/// one construction pass. Each is recorded once, at its first failed
/// probe, instead of once per probe and deduplicated afterwards: `seen` is
/// indexed by NodeId, sized by build_tree to cover every vertex, and reset
/// only at the entries take() returns, so a pass costs O(blockers).
struct BlockerSet {
  std::vector<std::uint8_t> seen;
  std::vector<NodeId> ids;

  void record(NodeId b) {
    if (seen[b] != 0) return;
    seen[b] = 1;
    ids.push_back(b);
  }
  /// The pass's blockers, in discovery order; leaves the set empty.
  std::vector<NodeId> take() {
    for (NodeId b : ids) seen[b] = 0;
    return std::exchange(ids, {});
  }
};

/// Parent-selection criterion per scheme, answered through `scan` (the
/// item's batched feasibility masks). Returns kNoNode if no vertex can
/// feasibly accept the item; otherwise the chosen parent. Blocking vertices
/// encountered during the scan are recorded in `blockers`.
// REMO_HOT: called once per pending item per construction pass.
NodeId select_parent(const MonitoringTree& tree,
                     const MonitoringTree::AttachScan& scan, NodeId item_id,
                     TreeScheme scheme, BlockerSet& blockers) {
  NodeId best = kNoNode;
  // (primary, secondary) score; lower is better.
  double best_primary = std::numeric_limits<double>::infinity();
  double best_secondary = std::numeric_limits<double>::infinity();

  auto consider = [&](NodeId v) {
    NodeId blocker = kNoNode;
    if (!scan.can_attach(v, &blocker)) {
      if (blocker != kNoNode && blocker != item_id) blockers.record(blocker);
      return;
    }
    double primary = 0.0;
    switch (scheme) {
      case TreeScheme::kStar:
      case TreeScheme::kAdaptive:
        primary = static_cast<double>(tree.depth(v));  // shallowest
        break;
      case TreeScheme::kChain:
        primary = -static_cast<double>(tree.depth(v));  // deepest
        break;
      case TreeScheme::kMaxAvb:
        primary = -tree.slack(v);  // most available capacity
        break;
    }
    const double secondary = -tree.slack(v);
    if (primary < best_primary ||
        (primary == best_primary && secondary < best_secondary)) {
      best = v;
      best_primary = primary;
      best_secondary = secondary;
    }
  };

  consider(kCollectorId);
  for (NodeId v : tree.members()) consider(v);
  return best;
}

/// A pending node plus its send-cost demand u = C + a·y and its local
/// total. Both depend only on the item's local counts and the tree's
/// attribute specs — fixed for the whole build — so they are computed once
/// per item instead of once per pass or adjust round.
struct PendingItem {
  BuildItem item;
  Capacity demand = 0;
  std::uint64_t total = 0;
};

Capacity item_demand(const MonitoringTree& tree, const BuildItem& item) {
  double y = 0.0;
  const auto& specs = tree.attr_specs();
  for (std::size_t m = 0; m < specs.size(); ++m)
    y += specs[m].weight * static_cast<double>(specs[m].funnel(item.local[m]));
  return tree.cost().per_message + tree.cost().per_value * y;
}

/// One construction pass (the STAR-like construction procedure): tries to
/// attach every pending item, removing the ones that succeed. Returns the
/// number of attachments made.
///
/// Repeat failures are skipped on uniform-identity trees: there the attach
/// masks depend on an item only through its local total d (child message
/// C + a·d, ancestor payload delta a·d), so every probe answer and every
/// blocker is a function of d. Once an item that can afford its own
/// message fails with total d, every later item with total d fails too —
/// with blockers already recorded, or none if it cannot afford its own
/// message — until the next attach changes the tree.
std::size_t construction_pass(MonitoringTree& tree,
                              std::vector<PendingItem>& pending,
                              TreeScheme scheme, BlockerSet& blockers) {
  const bool skip_repeats = tree.uniform_identity();
  std::vector<std::uint64_t> failed_totals;  // sorted; cleared on attach
  std::size_t attached = 0;
  std::vector<PendingItem> still_pending;
  still_pending.reserve(pending.size());
  for (auto& p : pending) {
    if (skip_repeats && set_contains(failed_totals, p.total)) {
      still_pending.push_back(std::move(p));
      continue;
    }
    const auto scan = tree.attach_scan(p.item);
    const NodeId parent = select_parent(tree, scan, p.item.id, scheme, blockers);
    if (parent != kNoNode) {
      tree.attach(p.item, parent);
      ++attached;
      failed_totals.clear();
    } else {
      if (skip_repeats && scan.item_fits()) set_insert(failed_totals, p.total);
      still_pending.push_back(std::move(p));
    }
  }
  pending = std::move(still_pending);
  return attached;
}

/// Minimum send-cost demand over pending items (the u of the cheapest node
/// that failed to attach) — the d_f demand used by the Theorem 1 gate.
Capacity min_pending_demand(const std::vector<PendingItem>& pending) {
  Capacity best = std::numeric_limits<Capacity>::infinity();
  for (const auto& p : pending) best = std::min(best, p.demand);
  return best;
}

/// Reattachment candidates for branch `b` (a child of congested node `dc`)
/// pruned from dc, most slack first, ties by id. `subtree_scope`: restrict
/// to dc's subtree minus dc and the branch; otherwise every vertex except
/// dc and the branch.
std::vector<NodeId> reattach_candidates(const MonitoringTree& tree, NodeId dc,
                                        NodeId b, bool subtree_scope) {
  // Prefer targets with the most slack: they are the likeliest to absorb
  // the branch, keeping the scan short. Each key (-slack, id) is computed
  // once, not once per comparison.
  std::vector<std::pair<double, NodeId>> keyed;
  auto add = [&](NodeId n) { keyed.emplace_back(-tree.slack(n), n); };
  if (subtree_scope) {
    // Breadth-first below dc, never entering b's branch.
    std::vector<NodeId> frontier;
    for (NodeId c : tree.children(dc))
      if (c != b) frontier.push_back(c);
    for (std::size_t i = 0; i < frontier.size(); ++i) {
      add(frontier[i]);
      for (NodeId c : tree.children(frontier[i])) frontier.push_back(c);
    }
  } else {
    auto branch = tree.branch_nodes(b);
    std::sort(branch.begin(), branch.end());
    auto excluded = [&](NodeId n) { return n == dc || set_contains(branch, n); };
    if (!excluded(kCollectorId)) add(kCollectorId);
    for (NodeId n : tree.members())
      if (!excluded(n)) add(n);
  }
  std::sort(keyed.begin(), keyed.end());
  std::vector<NodeId> out;
  out.reserve(keyed.size());
  for (const auto& k : keyed) out.push_back(k.second);
  return out;
}

/// The adjusting procedure: pick a congested node (shallowest first — "low
/// level" nodes are the bottleneck under STAR construction), prune its
/// cheapest branch, and reattach it deeper to convert per-message overhead
/// into relay cost. Returns true if the tree changed.
bool adjust(MonitoringTree& tree, std::vector<NodeId> congested,
            Capacity min_demand, const TreeBuildOptions& opts,
            TreeBuildResult& stats) {
  ++stats.adjust_invocations;
  std::sort(congested.begin(), congested.end(), [&](NodeId a, NodeId b) {
    const auto da = tree.depth(a), db = tree.depth(b);
    if (da != db) return da < db;
    return a < b;
  });

  for (NodeId dc : congested) {
    if (!tree.contains(dc)) continue;
    const auto& kids = tree.children(dc);
    if (kids.size() < 2) continue;  // degree cannot usefully shrink
    // Branches of dc in ascending message cost: the cheapest branch is the
    // most movable, but when it cannot be rehomed the next ones are tried
    // (any relocated branch frees C at dc).
    std::vector<NodeId> branches(kids.begin(), kids.end());
    std::sort(branches.begin(), branches.end(), [&](NodeId x, NodeId y) {
      const Capacity ux = tree.send_cost(x), uy = tree.send_cost(y);
      if (ux != uy) return ux < uy;
      return x < y;
    });

    for (NodeId b : branches) {
      const Capacity b_cost = tree.send_cost(b);
      // Theorem 1: if u_df <= u_b the subtree of dc is a complete search
      // scope; otherwise fall back to the full tree.
      const bool scope_subtree = opts.subtree_only && min_demand <= b_cost + 1e-9;

      if (opts.branch_reattach) {
        const auto targets = reattach_candidates(tree, dc, b, scope_subtree);
        const std::size_t hit = tree.move_branch_first_fit(b, targets);
        // Every target up to and including the one that took the branch
        // was tested.
        stats.reattach_tests += std::min(hit + 1, targets.size());
        if (hit < targets.size()) return true;
      } else {
        // Node-by-node reattach (the basic scheme): detach the branch, then
        // greedily re-insert each node anywhere except dc. All-or-nothing:
        // journal the mutations and roll back if any node fails.
        tree.begin_journal();
        auto items = tree.detach_branch(b);
        bool ok = true;
        for (const auto& item : items) {
          NodeId best = kNoNode;
          double best_slack = -std::numeric_limits<double>::infinity();
          const auto scan = tree.attach_scan(item);
          auto try_target = [&](NodeId v) {
            if (v == dc || v == item.id) return;
            if (scope_subtree && !tree.in_subtree(v, dc)) return;
            ++stats.reattach_tests;
            if (!scan.can_attach(v)) return;
            const double s = tree.slack(v);
            if (s > best_slack) {
              best_slack = s;
              best = v;
            }
          };
          try_target(kCollectorId);
          for (NodeId v : tree.members()) try_target(v);
          if (best == kNoNode) {
            ok = false;
            break;
          }
          tree.attach(item, best);
        }
        if (ok) {
          tree.commit_journal();
          return true;
        }
        tree.rollback_journal();
      }
    }
  }
  return false;
}

}  // namespace

bool adjust_tree_once(MonitoringTree& tree, std::vector<NodeId> congested,
                      Capacity min_demand, const TreeBuildOptions& options,
                      TreeBuildResult* stats) {
  TreeBuildResult scratch{MonitoringTree({}, 0, tree.cost()), {}, 0, 0, 0.0};
  TreeBuildResult& sink = stats != nullptr ? *stats : scratch;
  return adjust(tree, std::move(congested), min_demand, options, sink);
}

const char* to_string(TreeScheme s) noexcept {
  switch (s) {
    case TreeScheme::kStar:
      return "STAR";
    case TreeScheme::kChain:
      return "CHAIN";
    case TreeScheme::kMaxAvb:
      return "MAX_AVB";
    case TreeScheme::kAdaptive:
      return "ADAPTIVE";
  }
  return "?";
}

TreeBuildResult build_tree(std::vector<TreeAttrSpec> attrs,
                           std::vector<BuildItem> items, Capacity collector_avail,
                           CostModel cost, const TreeBuildOptions& options) {
  TreeBuildResult result{MonitoringTree(std::move(attrs), collector_avail, cost),
                         {},
                         0,
                         0,
                         0.0};
  result.tree.reserve(items.size());

  // Nodes with nothing to report never join; surface them as rejected so
  // accounting stays exact.
  std::vector<PendingItem> pending;
  pending.reserve(items.size());
  NodeId max_id = kCollectorId;
  for (auto& item : items) {
    if (item.local_total() == 0) {
      result.rejected.push_back(std::move(item));
    } else {
      PendingItem p{std::move(item), 0, 0};
      p.demand = item_demand(result.tree, p.item);
      for (std::uint32_t v : p.item.local) p.total += v;
      max_id = std::max(max_id, p.item.id);
      pending.push_back(std::move(p));
    }
  }

  // "adds nodes into the constructed tree in the order of decreased
  // available capacity" (Sec. 3.2.1).
  std::sort(pending.begin(), pending.end(),
            [](const PendingItem& a, const PendingItem& b) {
              if (a.item.avail != b.item.avail) return a.item.avail > b.item.avail;
              return a.item.id < b.item.id;
            });

  // Blockers are the collector or members, i.e. ids of pending items.
  BlockerSet blockers;
  blockers.seen.assign(static_cast<std::size_t>(max_id) + 1, 0);
  std::size_t fruitless = 0;
  while (!pending.empty()) {
    const std::size_t attached =
        construction_pass(result.tree, pending, options.scheme, blockers);
    std::vector<NodeId> congested = blockers.take();
    if (pending.empty()) break;
    if (attached > 0)
      fruitless = 0;
    else if (result.adjust_invocations > 0 &&
             ++fruitless > kMaxFruitlessAdjusts)
      break;
    if (options.scheme != TreeScheme::kAdaptive) {
      if (attached == 0) break;
      continue;
    }
    const Capacity min_demand = min_pending_demand(pending);
    const auto adjust_start = std::chrono::steady_clock::now();
    const bool adjusted =
        adjust(result.tree, std::move(congested), min_demand, options, result);
    result.adjust_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      adjust_start)
            .count();
    if (!adjusted) break;
  }

  for (auto& p : pending) result.rejected.push_back(std::move(p.item));
  // Renumber arena slots into DFS preorder so ancestor walks against the
  // finished tree touch monotonically nearby rows. Pure relayout: node
  // ids, edges and costs are unchanged.
  result.tree.renumber_dfs();
  return result;
}

}  // namespace remo
