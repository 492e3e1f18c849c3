// The shard layer of the online scheduling service: a topology-fixed
// partition of flows by source edge-group, and the load-index storage
// split it induces.
//
// ShardPlan groups hosts by their attachment (edge) switch — the
// pod-local unit RCD's near-deadline locality argument justifies — and
// caps how many groups run at once (the lane count).
// Crucially the *decomposition* is a function of the topology alone:
// shard and worker counts only choose how many groups run concurrently,
// never which flows share a relaxation, so the sharded scheduler's
// output is byte-identical for any shard count >= 2 and any worker
// count (the BatchRunner house rule).
//
// ShardedLoadIndex partitions committed-load storage by edge ownership:
// a host's uplink (host -> edge switch) is traversed only by flows
// sourced at that host (hosts are leaves — leaf-free transit means no
// path crosses a host), so those edges are private to the source's
// group and live in the group's own EdgeLoadIndex; every other edge —
// aggregation, core, and the downlinks that inbound traffic from any
// group can load — belongs to the core-link coordinator's index. Every
// edge lives in exactly one sub-index, so each edge's LoadProfile sees
// the identical add/retract/prune sequence a single EdgeLoadIndex
// would: probes are bitwise-equal to the unsharded index by
// construction, and capacity soundness never depends on the ownership
// split (the router sends every probe to the owning sub-index). Each
// sub-index is sized by ownership — it holds only its own edges, under
// compact local ids — so per-event pruning touches every edge once.
#pragma once

#include <cstdint>
#include <vector>

#include "flow/flow.h"
#include "online/load_index.h"
#include "topology/topology.h"

namespace dcn {

class ShardPlan {
 public:
  /// Partition by source edge-group (attachment switch). `num_shards`
  /// is the requested lane count: 0 means one lane per group, values
  /// above the group count are clamped, and 1 yields a single-lane plan
  /// (the sharded scheduler runs that case on single_group, so "1
  /// shard" matches online_dcfsr_flat byte for byte).
  [[nodiscard]] static ShardPlan by_source_group(const Topology& topo,
                                                 std::int32_t num_shards);

  /// The flat scheduler's plan: every node in group 0, one lane, every
  /// edge coordinator-owned — one relaxation over all flows in flight
  /// and one load index, which is what online_dcfsr runs on.
  [[nodiscard]] static ShardPlan single_group(std::int32_t num_nodes,
                                              std::int32_t num_edges);

  /// Distinct source groups (edge switches with attached hosts).
  [[nodiscard]] std::int32_t num_groups() const { return num_groups_; }
  /// Execution lanes — the effective shard count (concurrency cap).
  [[nodiscard]] std::int32_t num_lanes() const { return num_lanes_; }

  /// Group of a host node; -1 for non-hosts.
  [[nodiscard]] std::int32_t group_of_host(NodeId host) const {
    return host_group_[static_cast<std::size_t>(host)];
  }
  [[nodiscard]] std::int32_t group_of(const Flow& fl) const {
    return group_of_host(fl.src);
  }

  /// Owning group of each edge: g for group g's private host uplinks,
  /// -1 for coordinator-owned (shared) edges.
  [[nodiscard]] const std::vector<std::int32_t>& edge_owner() const {
    return edge_owner_;
  }

 private:
  std::vector<std::int32_t> host_group_;  // by NodeId; -1 for non-hosts
  std::vector<std::int32_t> edge_owner_;  // by EdgeId; -1 = coordinator
  std::int32_t num_groups_ = 0;
  std::int32_t num_lanes_ = 0;
};

/// The storage-sharded committed-load index: one private EdgeLoadIndex
/// per group (its hosts' uplinks), one for the coordinator (everything
/// shared), each holding exactly the edges it owns under compact local
/// ids (position among the owner's edges, in edge-id order). Same probe
/// API as EdgeLoadIndex — every call routes to the owning sub-index
/// and translates the edge id — so the admission templates in
/// admission_core.h / rerate.h instantiate over either. In audit mode
/// each sub-index checks its own probes bitwise; shadow() exposes the
/// coordinator's naive replay when the coordinator owns every edge (a
/// single_group plan), and is nullptr otherwise — there is no combined
/// replay to diff a cross-shard fill against.
class ShardedLoadIndex {
 public:
  ShardedLoadIndex(const ShardPlan& plan, std::int32_t num_edges, bool audit);

  void add(EdgeId e, const Interval& iv, double rate) {
    sub(e).add(local(e), iv, rate);
  }
  void retract(EdgeId e, const Interval& iv, double rate) {
    sub(e).retract(local(e), iv, rate);
  }
  [[nodiscard]] double value_at(EdgeId e, double t) const {
    return sub(e).value_at(local(e), t);
  }
  [[nodiscard]] double max_within(EdgeId e, const Interval& window) const {
    return sub(e).max_within(local(e), window);
  }
  [[nodiscard]] double marginal_energy(EdgeId e, const Interval& span, double d,
                                       const PowerModel& model) const {
    return sub(e).marginal_energy(local(e), span, d, model);
  }
  template <typename Fn>
  void for_each_segment_from(EdgeId e, double from, Fn&& fn) const {
    sub(e).for_each_segment_from(local(e), from, static_cast<Fn&&>(fn));
  }

  /// Advances every sub-index's low-water mark (the mark is global:
  /// min over all groups' earliest live release and the event time).
  void advance_low_water(double t);

  [[nodiscard]] std::int32_t peak_live_segments() const;
  [[nodiscard]] std::int64_t segments_pruned() const;
  [[nodiscard]] const std::vector<StepFunction>* shadow() const {
    return privates_own_edges_ ? nullptr : coordinator_.shadow();
  }

  /// Group `gid`'s private sub-index (introspection; the plan must give
  /// some group private edges).
  [[nodiscard]] const EdgeLoadIndex& private_index(std::int32_t gid) const {
    return privates_[static_cast<std::size_t>(gid)];
  }

 private:
  [[nodiscard]] EdgeLoadIndex& sub(EdgeId e) {
    const std::int32_t owner = (*owner_)[static_cast<std::size_t>(e)];
    return owner >= 0 ? privates_[static_cast<std::size_t>(owner)]
                      : coordinator_;
  }
  [[nodiscard]] const EdgeLoadIndex& sub(EdgeId e) const {
    const std::int32_t owner = (*owner_)[static_cast<std::size_t>(e)];
    return owner >= 0 ? privates_[static_cast<std::size_t>(owner)]
                      : coordinator_;
  }

  [[nodiscard]] EdgeId local(EdgeId e) const {
    return local_[static_cast<std::size_t>(e)];
  }

  const std::vector<std::int32_t>* owner_;  // plan's edge_owner
  std::vector<EdgeId> local_;               // by EdgeId: id in its sub-index
  std::vector<EdgeLoadIndex> privates_;     // one per group
  EdgeLoadIndex coordinator_;
  bool privates_own_edges_ = false;  // some edge is group-private
};

}  // namespace dcn
