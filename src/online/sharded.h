// The sharded always-on scheduling service: stream -> shard ->
// coordinator.
//
// ShardedScheduler is the long-lived core. It absorbs epoch batches of
// arrivals (from a trace or an EventStream pulled on demand) and runs
// each global event in two phases:
//
//   Phase A (parallel over affected source groups): each group — a
//   long-lived shard worker owning its in-flight flows' carried rows,
//   active set, rng stream, and reachability cache — pops its
//   completions, builds its residual problem, re-solves the relaxation
//   for its arrivals (the in-flight rows enter as fixed background
//   load) in its private workspace, and draws candidate paths by
//   randomized rounding from its own rng stream. A group with
//   completions but no arrivals solves nothing.
//   Nothing global is written: proposals go to per-group slots, so any
//   worker count produces identical state (the BatchRunner house rule).
//
//   Phase B (the core-link coordinator, serial): proposals are folded
//   in ascending group id — i.e. reservations are arbitrated in
//   deterministic (event-time, shard-id, flow-id) order — and every
//   drawn path is verified against the *global* sharded load index
//   before committing (a group's own draw checked capacity only
//   against its own residual timeline; shared aggregation/core edges
//   carry other groups' load). Arrivals whose drawn path no longer
//   fits go through the per-flow fallback (fresh draws from the
//   group's stream, then — with allow_rerate — the deadline-safe
//   re-rate transaction over the group's own in-flight flows).
//
// The decomposition (which flows solve together) is fixed by the
// topology via ShardPlan, so results are byte-identical for any shard
// count >= 2 and any worker count. This is also the flat scheduler:
// online_dcfsr is this engine over ShardPlan::single_group on the
// caller's rng, and a 1-shard plan runs the same, so "1 shard" is
// online_dcfsr_flat byte for byte under that solver's options.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "common/parallel.h"
#include "common/random.h"
#include "mcf/relaxation.h"
#include "online/admission_core.h"
#include "online/event_stream.h"
#include "online/online_scheduler.h"
#include "online/shard_plan.h"

namespace dcn {

/// The long-lived sharded admission engine. Feed arrivals in event
/// order via process_batch (each batch = one global event: the epoch
/// window starting at the batch's first release); read the aggregate
/// OnlineResult with take_result() when the stream ends. Result rows
/// are indexed by feed order (slot k = k-th arrival fed), not by the
/// caller's original flow indices — online_dcfsr_sharded() remaps.
class ShardedScheduler {
 public:
  /// `stream_seed` seeds the per-shard rng streams (one mix per group).
  /// `workers` caps phase-A concurrency: 0 = min(hardware, lanes).
  /// `discard_completed` drops completed flows' committed segments and
  /// paths (service mode: keeps resident state proportional to flows
  /// in flight; the aggregate counters stay exact, the returned
  /// schedule keeps only in-flight rows).
  ShardedScheduler(const Graph& g, const PowerModel& model,
                   const OnlineOptions& options, const ShardPlan& plan,
                   std::uint64_t stream_seed, std::int32_t workers,
                   bool discard_completed);
  ~ShardedScheduler();  // out of line: GroupState is private to the TU

  /// One global event: `batch` holds the arrivals with release in
  /// [now, now + epoch], in (release, id) order; `now` is the first
  /// release. Calls must present non-decreasing `now`.
  void process_batch(double now, const std::vector<Flow>& batch);

  /// Finalizes index-health counters and moves the result out.
  [[nodiscard]] OnlineResult take_result();

  /// Live introspection for the stream service's periodic flushes.
  [[nodiscard]] const OnlineResult& result() const { return out_; }
  [[nodiscard]] std::int64_t arrivals() const {
    return static_cast<std::int64_t>(flows_.size());
  }
  [[nodiscard]] std::int64_t completed() const { return completed_; }
  [[nodiscard]] std::int32_t in_flight() const;
  [[nodiscard]] std::int32_t peak_live_segments() const;
  [[nodiscard]] std::int64_t load_segments_pruned() const;

  /// Group `gid`'s rng stream. The single-group runs swap the caller's
  /// rng in before the first batch and copy it back after the last, so
  /// the caller's stream advances exactly as the event body draws.
  [[nodiscard]] Rng& group_rng(std::int32_t gid);

 private:
  struct GroupState;
  struct Proposal;

  [[nodiscard]] double residual_volume(std::size_t slot, double t) const;
  void phase_a(GroupState& gs, const std::vector<std::size_t>& batch_slots,
               double now, Proposal& p);
  void phase_b(GroupState& gs, double now, Proposal& p);
  void release_warm(std::size_t slot);
  void audit_warm_state() const;

  const Graph& g_;
  const PowerModel& model_;
  const OnlineOptions options_;
  const ShardPlan& plan_;
  const double capacity_;
  const bool discard_completed_;

  std::vector<std::unique_ptr<GroupState>> groups_;
  std::unique_ptr<WorkerPool> pool_;  // phase A lanes; null = serial

  // Slot-indexed per-flow state (slot = feed order). warm_ holds each
  // in-flight flow's fractional row from its admission event's re-solve
  // — its background load in every later one. Rows are released the
  // moment a flow departs or is rejected, so the carried state stays
  // proportional to the flows in flight. Phase A touches only its own
  // group's slots, so parallel groups never alias.
  std::vector<Flow> flows_;
  std::vector<SparseEdgeFlow> warm_;
  std::vector<char> rerated_;
  std::vector<std::int32_t> group_of_slot_;

  ShardedLoadIndex load_;
  OnlineResult out_;
  std::int64_t completed_ = 0;

  // Per-batch scratch, reused across events.
  std::vector<std::vector<std::size_t>> batch_slots_;
  std::vector<std::int32_t> affected_;
};

/// Batch-API entry point, registered as `online_dcfsr_sharded`: runs
/// the sharded service over a materialized trace and returns a result
/// indexed like the input (drop-in comparable with online_dcfsr).
/// Plans with a single lane or a single source group run on
/// ShardPlan::single_group with the caller's rng as the group's stream
/// — exactly online_dcfsr under the same options. With >= 2 lanes one
/// draw from `rng` seeds the per-group streams and the output is a pure
/// function of (inputs, plan groups): byte-identical for any shard
/// count >= 2 and any `workers` (0 = min(hardware, lanes)).
[[nodiscard]] OnlineResult online_dcfsr_sharded(
    const Graph& g, const std::vector<Flow>& flows, const PowerModel& model,
    Rng& rng, const OnlineOptions& options, const ShardPlan& plan,
    std::int32_t workers = 0);

/// Periodic service snapshot handed to the stream runner's flush
/// callback (stats are cumulative since the stream started).
struct StreamFlushStats {
  double now = 0.0;           // current event time (trace time)
  std::int64_t arrivals = 0;  // pulled from the stream so far
  std::int32_t admitted = 0;
  std::int32_t rejected = 0;
  std::int64_t completed = 0;      // admitted flows past their deadline
  std::int32_t in_flight = 0;      // admitted, still active
  std::int32_t resolves = 0;       // relaxation re-solves so far
  double p50_ms = 0.0;             // decision latency so far (wall clock)
  double p99_ms = 0.0;
  std::int32_t peak_live_segments = 0;
  std::int64_t segments_pruned = 0;
  std::int64_t peak_rss_kb = 0;  // process high-water (getrusage)
};

/// Sustained-stream mode: pulls arrivals from `stream` (never
/// materializing the trace), feeds them to a ShardedScheduler in epoch
/// batches, and invokes `on_flush` every `flush_every` arrivals (and
/// once at the end; pass 0 to disable periodic flushes). With
/// `discard_completed` (service default) completed flows' committed
/// segments are dropped as they finish, so resident state tracks the
/// in-flight working set instead of the stream length — the returned
/// schedule then keeps only still-in-flight rows, while admission
/// counters and decision latencies stay exact.
[[nodiscard]] OnlineResult run_online_stream(
    const Graph& g, EventStream& stream, const PowerModel& model, Rng& rng,
    const OnlineOptions& options, const ShardPlan& plan, std::int32_t workers,
    std::int64_t flush_every,
    const std::function<void(const StreamFlushStats&)>& on_flush,
    bool discard_completed = true);

/// Process-wide peak resident set size in KB (getrusage high-water;
/// monotonic over the process lifetime — callers comparing runs should
/// measure in separate processes). 0 where unsupported.
[[nodiscard]] std::int64_t peak_rss_kb();

}  // namespace dcn
