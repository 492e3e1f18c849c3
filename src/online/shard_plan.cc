#include "online/shard_plan.h"

#include <algorithm>

#include "common/contracts.h"

namespace dcn {

ShardPlan ShardPlan::by_source_group(const Topology& topo,
                                     std::int32_t num_shards) {
  const Graph& g = topo.graph();
  ShardPlan plan;
  plan.host_group_.assign(static_cast<std::size_t>(g.num_nodes()), -1);

  // A host's attachment switch is the destination of its first (and in
  // every supported fabric, only) uplink. A host with no uplink at all
  // can never source a routable flow; it gets a synthetic key disjoint
  // from the switch ids so its flows still land in a well-defined group
  // (where the reachability screen rejects them).
  std::vector<std::pair<NodeId, NodeId>> keyed;  // (attachment key, host)
  keyed.reserve(topo.hosts().size());
  for (const NodeId h : topo.hosts()) {
    const auto& up = g.out_edges(h);
    const NodeId key = up.empty() ? g.num_nodes() + h : g.edge(up.front()).dst;
    keyed.emplace_back(key, h);
  }
  // Distinct attachment keys in ascending order define the group ids —
  // a pure function of the topology, independent of shard/worker count.
  std::vector<NodeId> keys;
  keys.reserve(keyed.size());
  for (const auto& [key, h] : keyed) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  for (const auto& [key, h] : keyed) {
    const auto it = std::lower_bound(keys.begin(), keys.end(), key);
    plan.host_group_[static_cast<std::size_t>(h)] =
        static_cast<std::int32_t>(it - keys.begin());
  }
  plan.num_groups_ = static_cast<std::int32_t>(keys.size());

  // Edge ownership: a host's out-edges (uplinks) are private to its
  // group — hosts are leaves, so no path transits a host and only flows
  // sourced there ever load those edges. Everything else (aggregation,
  // core, and every downlink, which inbound traffic from any group can
  // load) is coordinator-owned.
  plan.edge_owner_.assign(static_cast<std::size_t>(g.num_edges()), -1);
  const auto edges = g.edges();
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const NodeId src = edges[static_cast<std::size_t>(e)].src;
    plan.edge_owner_[static_cast<std::size_t>(e)] =
        plan.host_group_[static_cast<std::size_t>(src)];
  }

  plan.num_lanes_ = num_shards <= 0
                        ? std::max(plan.num_groups_, 1)
                        : std::min(num_shards, std::max(plan.num_groups_, 1));
  return plan;
}

ShardPlan ShardPlan::single_group(std::int32_t num_nodes,
                                  std::int32_t num_edges) {
  ShardPlan plan;
  plan.host_group_.assign(static_cast<std::size_t>(num_nodes), 0);
  plan.edge_owner_.assign(static_cast<std::size_t>(num_edges), -1);
  plan.num_groups_ = 1;
  plan.num_lanes_ = 1;
  return plan;
}

ShardedLoadIndex::ShardedLoadIndex(const ShardPlan& plan,
                                   std::int32_t num_edges, bool audit)
    : owner_(&plan.edge_owner()),
      coordinator_(static_cast<std::int32_t>(std::count(
                       owner_->begin(), owner_->end(), std::int32_t{-1})),
                   audit) {
  DCN_EXPECTS(static_cast<std::int32_t>(owner_->size()) == num_edges);
  // Local ids: an edge's position among its owner's edges (slot 0 of
  // `owned` counts the coordinator's, slot g + 1 group g's).
  std::vector<EdgeId> owned(static_cast<std::size_t>(plan.num_groups()) + 1, 0);
  local_.reserve(owner_->size());
  for (const std::int32_t owner : *owner_) {
    local_.push_back(owned[static_cast<std::size_t>(owner + 1)]++);
  }
  privates_own_edges_ = owned[0] < num_edges;
  if (!privates_own_edges_) return;  // the coordinator owns every edge
  privates_.reserve(static_cast<std::size_t>(plan.num_groups()));
  for (std::int32_t gid = 0; gid < plan.num_groups(); ++gid) {
    privates_.emplace_back(owned[static_cast<std::size_t>(gid) + 1], audit);
  }
}

void ShardedLoadIndex::advance_low_water(double t) {
  for (EdgeLoadIndex& idx : privates_) idx.advance_low_water(t);
  coordinator_.advance_low_water(t);
}

std::int32_t ShardedLoadIndex::peak_live_segments() const {
  std::int32_t peak = coordinator_.peak_live_segments();
  for (const EdgeLoadIndex& idx : privates_) {
    peak = std::max(peak, idx.peak_live_segments());
  }
  return peak;
}

std::int64_t ShardedLoadIndex::segments_pruned() const {
  std::int64_t total = coordinator_.segments_pruned();
  for (const EdgeLoadIndex& idx : privates_) total += idx.segments_pruned();
  return total;
}

}  // namespace dcn
