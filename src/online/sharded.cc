// The online scheduling engine (see sharded.h for the service shape
// and sharded_service.cc for the batch/stream entry points, the flat
// online_dcfsr among them). Phase A is the per-event body — completions,
// residual build, the arrivals' re-solve against the in-flight flows'
// background load, joint rounding draw — run per source group over the
// group's own state; Phase B is the core-link coordinator: serial,
// ascending group id, every drawn path verified against the global load
// index before it commits.
#include "online/sharded.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <utility>

#include "common/contracts.h"
#include "dcfsr/random_schedule.h"
#include "online/rerate.h"

namespace dcn {

using online_impl::commit;
using online_impl::rate_fits;
using online_impl::rcd_before;
using online_impl::remaining_volume;
using online_impl::ReachabilityCache;
using online_impl::try_rerate;

/// A shard worker's long-lived state: its admitted in-flight flows
/// keyed by (deadline, slot) — completions pop off the front, the
/// residual problem reads the set in deadline order — and their
/// releases (a multiset, so the low-water mark updates in O(log n)),
/// the relaxation workspace reused across its re-solves, its private
/// rng stream (one deterministic mix per group, independent of
/// lane/worker placement), and its reachability cache (sound per
/// group: flows are partitioned by source).
struct ShardedScheduler::GroupState {
  GroupState(const Graph& g, Rng group_rng)
      : rng(group_rng), reach(g) {}

  std::set<std::pair<double, std::size_t>> active;  // (deadline, slot)
  std::multiset<double> live_releases;
  RelaxationWorkspace workspace;
  Rng rng;
  ReachabilityCache reach;
  std::vector<double> weights;  // draw_path scratch
};

/// What phase A hands the coordinator: the group's residual problem,
/// its solved relaxation (candidates feed the per-flow fallback), the
/// joint rounding draw, and the counters to fold — everything written
/// to per-group slots so concurrent groups never alias.
struct ShardedScheduler::Proposal {
  std::vector<Flow> residual;
  std::vector<std::size_t> orig;  // residual row -> slot
  std::size_t first_new = 0;
  FractionalRelaxation relax;
  RandomScheduleResult draw;
  bool solved = false;  // false: residual was empty, nothing to fold in B

  std::int64_t completions = 0;
  std::int32_t rejected_unroutable = 0;
  std::int64_t fw_iterations = 0;
  FrankWolfeStats fw_stats;
  double lower_bound = 0.0;
};

ShardedScheduler::ShardedScheduler(const Graph& g, const PowerModel& model,
                                   const OnlineOptions& options,
                                   const ShardPlan& plan,
                                   std::uint64_t stream_seed,
                                   std::int32_t workers,
                                   bool discard_completed)
    : g_(g),
      model_(model),
      options_(options),
      plan_(plan),
      capacity_(model.capacity()),
      discard_completed_(discard_completed),
      load_(plan, g.num_edges(), options.audit_load_index) {
  const std::int32_t n = plan_.num_groups();
  DCN_EXPECTS(n > 0);
  groups_.reserve(static_cast<std::size_t>(n));
  for (std::int32_t gid = 0; gid < n; ++gid) {
    groups_.push_back(std::make_unique<GroupState>(
        g, Rng(mix_seed(stream_seed, "shard-" + std::to_string(gid)))));
  }
  batch_slots_.resize(static_cast<std::size_t>(n));
  // Lanes cap concurrency, never semantics: phase A writes only
  // per-group slots, so any pool size (or none) is byte-identical.
  std::int32_t effective =
      workers <= 0 ? static_cast<std::int32_t>(std::max<unsigned>(
                         1, std::thread::hardware_concurrency()))
                   : workers;
  effective = std::min(effective, plan_.num_lanes());
  if (plan_.num_lanes() > 1 && effective > 1) {
    pool_ = std::make_unique<WorkerPool>(static_cast<std::size_t>(effective));
  }
}

ShardedScheduler::~ShardedScheduler() = default;

Rng& ShardedScheduler::group_rng(std::int32_t gid) {
  return groups_[static_cast<std::size_t>(gid)]->rng;
}

std::int32_t ShardedScheduler::in_flight() const {
  std::size_t total = 0;
  for (const auto& gp : groups_) total += gp->active.size();
  return static_cast<std::int32_t>(total);
}

void ShardedScheduler::release_warm(std::size_t slot) {
  // `vector = {}` is assign(empty) and keeps the old capacity; warm
  // rows are sparse edge-flow vectors that can run to hundreds of
  // entries, and a completed or rejected slot is never written again.
  // Move-assigning a fresh vector actually releases the heap, which is
  // what keeps a long-running service's RSS proportional to the
  // in-flight working set instead of the stream length.
  warm_[slot] = SparseEdgeFlow();
}

double ShardedScheduler::residual_volume(std::size_t slot, double t) const {
  // The density invariant for untouched flows (the density schedule
  // leaves the residual density unchanged), the committed profile's
  // actual remainder once re-rated.
  return rerated_[slot]
             ? remaining_volume(flows_[slot], out_.schedule.flows[slot], t)
             : flows_[slot].density() * (flows_[slot].deadline - t);
}

void ShardedScheduler::phase_a(GroupState& gs,
                               const std::vector<std::size_t>& batch_slots,
                               double now, Proposal& p) {
  // Completions since the group's previous activation: pop the prefix
  // with deadline <= now and release the departed flows' rows. A
  // departure only removes background load, so it needs no solve.
  while (!gs.active.empty() && gs.active.begin()->first <= now) {
    const std::size_t done = gs.active.begin()->second;
    gs.active.erase(gs.active.begin());
    gs.live_releases.erase(gs.live_releases.find(flows_[done].release));
    release_warm(done);
    ++p.completions;
    if (discard_completed_) {
      // Service mode: the completed flow's committed row is history —
      // drop its path and segments so resident state tracks the
      // in-flight working set, not the stream length. The admission
      // flag and aggregate counters keep the outcome.
      out_.schedule.flows[done] = FlowSchedule{};
    }
  }

  // Residual problem: the group's in-flight flows pinned to their
  // circuits, then its share of the arriving batch.
  std::vector<const Path*> forced;
  p.residual.reserve(gs.active.size() + batch_slots.size());
  for (const auto& [deadline, i] : gs.active) {
    (void)deadline;
    Flow res = flows_[i];
    res.volume = residual_volume(i, now);
    if (rerated_[i] && res.volume <= 1e-12 * std::max(1.0, flows_[i].volume)) {
      continue;
    }
    res.id = static_cast<FlowId>(p.residual.size());
    res.release = now;
    p.residual.push_back(res);
    p.orig.push_back(i);
    forced.push_back(&out_.schedule.flows[i].path);
  }
  p.first_new = p.residual.size();
  for (const std::size_t slot : batch_slots) {
    Flow res = flows_[slot];
    if (!gs.reach.routable(res.src, res.dst)) {
      ++p.rejected_unroutable;
      continue;
    }
    res.id = static_cast<FlowId>(p.residual.size());
    p.residual.push_back(res);
    p.orig.push_back(slot);
    forced.push_back(nullptr);
  }
  // No arrival to route: nothing to solve, and p.solved stays false.
  if (p.residual.size() == p.first_new) return;

  // The arrivals' re-solve. Each in-flight flow enters as a fixed
  // background load: the fractional row it carried out of its admission
  // event's re-solve, at its unchanged density (its circuit cannot
  // move, so re-routing it fractionally would only spend sweeps).
  // Re-rated flows carry no row — a reshaped profile no longer has the
  // density a row routes — so they re-enter as free, cold-started
  // commodities. Flows whose deadlines lie past now + W enter the
  // *relaxation* clipped to the window at their original densities;
  // admission below still checks the true spans, so the window never
  // affects soundness. With no flow reaching past the horizon the
  // relaxation sees the residual vector itself.
  std::vector<SparseEdgeFlow> background(p.residual.size());
  for (std::size_t r = 0; r < p.first_new; ++r) {
    background[r] = std::move(warm_[p.orig[r]]);
  }
  const std::vector<Flow>* relax_flows = &p.residual;
  std::vector<Flow> clipped;
  if (options_.lookahead_window > 0.0) {
    const double horizon = now + options_.lookahead_window;
    bool any_clipped = false;
    for (const Flow& fl : p.residual) {
      if (fl.deadline > horizon && fl.release < horizon) {
        any_clipped = true;
        break;
      }
    }
    if (any_clipped) {
      clipped = p.residual;
      for (Flow& fl : clipped) {
        if (fl.deadline > horizon && fl.release < horizon) {
          fl.volume = fl.density() * (horizon - fl.release);
          fl.deadline = horizon;
        }
      }
      relax_flows = &clipped;
    }
  }
  p.relax = solve_relaxation(g_, *relax_flows, model_,
                             options_.rounding.relaxation, &gs.workspace,
                             nullptr, &background);
  p.solved = true;
  p.fw_iterations += p.relax.total_fw_iterations;
  p.fw_stats += p.relax.fw_stats;
  p.lower_bound = p.relax.lower_bound_energy;
  // Background rows come back verbatim; arrivals keep the row they were
  // routed with, which becomes their background once admitted.
  for (std::size_t r = 0; r < p.residual.size(); ++r) {
    if (rerated_[p.orig[r]]) continue;  // stays cold
    warm_[p.orig[r]] = std::move(p.relax.final_flow[r]);
  }

  // Joint rounding draw from the group's own stream; commits happen in
  // phase B against the global index.
  p.draw = round_relaxation(g_, p.residual, model_, p.relax, gs.rng,
                            options_.rounding, &forced);
}

void ShardedScheduler::phase_b(GroupState& gs, double now, Proposal& p) {
  completed_ += p.completions;
  out_.num_rejected += p.rejected_unroutable;
  out_.fw_stats += p.fw_stats;
  if (!p.solved) return;
  ++out_.resolves;
  out_.fw_iterations += p.fw_iterations;
  if (out_.resolves == 1) out_.first_lower_bound = p.lower_bound;

  auto admit_into_index = [&](std::size_t i) {
    gs.active.emplace(flows_[i].deadline, i);
    gs.live_releases.insert(flows_[i].release);
  };

  // Per-flow fallback against the global committed load: fresh draws
  // from the group's stream, then — with allow_rerate — deterministic
  // re-rate attempts over the group's own in-flight flows (the only
  // ones a source-partitioned pass may reshape).
  auto place_arrival = [&](std::size_t r) -> bool {
    const std::size_t i = p.orig[r];
    const Flow& fl = flows_[i];
    for (std::int32_t attempt = 0;
         attempt < options_.rounding.max_rounding_attempts; ++attempt) {
      ++out_.rounding_attempts;
      const Path& path = draw_path(p.relax.candidates[r], gs.rng, gs.weights);
      if (rate_fits(load_, path, fl.span(), fl.density(), capacity_)) {
        commit(out_, load_, i, path, {{fl.span(), fl.density()}});
        admit_into_index(i);
        return true;
      }
    }
    if (!options_.allow_rerate) return false;
    std::vector<const WeightedPath*> ranked;
    for (const WeightedPath& wp : p.relax.candidates[r].paths) {
      ranked.push_back(&wp);
    }
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const WeightedPath* a, const WeightedPath* b) {
                       return a->weight > b->weight;
                     });
    std::size_t tried = 0;
    for (std::size_t k = 0; k < ranked.size() && tried < 3; ++k) {
      bool duplicate = false;
      for (std::size_t j = 0; j < k && !duplicate; ++j) {
        duplicate = ranked[j]->path.edges == ranked[k]->path.edges;
      }
      if (duplicate) continue;
      ++tried;
      if (try_rerate(out_, load_, flows_, gs.active, now, capacity_, i,
                     ranked[k]->path, rerated_, warm_)) {
        admit_into_index(i);
        return true;
      }
    }
    return false;
  };

  out_.rounding_attempts += p.draw.rounding_attempts;
  if (p.draw.capacity_feasible) {
    // Coordinator arbitration: the group's joint capacity check covered
    // only its own residual timeline — shared aggregation/core edges
    // carry other groups' committed load it never saw, and a re-rated
    // profile's committed acceleration is understated by the flat
    // residual density the timeline assumes. Every drawn path is
    // therefore verified against the global index, in residual
    // (event-time, shard-id, flow-id) order, before it commits; flows
    // the arbitration displaces go through the per-flow fallback. With
    // a single group and nothing re-rated the check never fails (the
    // sequential probes see a subset of the joint timeline under the
    // same slack), so the flat scheduler admits exactly what the joint
    // rounding drew.
    std::vector<std::size_t> leftover;
    for (std::size_t r = p.first_new; r < p.residual.size(); ++r) {
      const Flow& fl = flows_[p.orig[r]];
      const Path& path = p.draw.schedule.flows[r].path;
      if (rate_fits(load_, path, fl.span(), fl.density(), capacity_)) {
        commit(out_, load_, p.orig[r], std::move(p.draw.schedule.flows[r].path),
               {{fl.span(), fl.density()}});
        admit_into_index(p.orig[r]);
      } else {
        leftover.push_back(r);
      }
    }
    for (const std::size_t r : leftover) {
      if (!place_arrival(r)) {
        ++out_.num_rejected;
        release_warm(p.orig[r]);
      }
    }
    return;
  }

  // The group's joint admission failed within its attempt budget: admit
  // its batch share one flow at a time, each against the committed load
  // only — so one unroutable elephant cannot veto a batch of mice — in
  // RCD urgency order (closest deadline first, then denser, then id):
  // urgent, hard-to-place flows draw while the committed load is
  // lightest.
  ++out_.batch_fallbacks;
  std::vector<std::size_t> fallback_order;
  for (std::size_t r = p.first_new; r < p.residual.size(); ++r) {
    fallback_order.push_back(r);
  }
  std::sort(fallback_order.begin(), fallback_order.end(),
            [&](std::size_t a, std::size_t b) {
              return rcd_before(flows_[p.orig[a]], flows_[p.orig[b]]);
            });
  for (const std::size_t r : fallback_order) {
    if (!place_arrival(r)) {
      ++out_.num_rejected;
      release_warm(p.orig[r]);
    }
  }
}

void ShardedScheduler::audit_warm_state() const {
  if (!options_.audit_load_index) return;
  std::vector<char> in_flight(flows_.size(), 0);
  for (const auto& gp : groups_) {
    for (const auto& [deadline, i] : gp->active) {
      (void)deadline;
      in_flight[i] = 1;
    }
  }
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    if (in_flight[i]) continue;
    DCN_ENSURES(warm_[i].empty());
  }
}

void ShardedScheduler::process_batch(double now,
                                     const std::vector<Flow>& batch) {
  ++out_.num_events;
  // dcn-lint: allow(wall-clock) timing capture: decision latency, reaches SolverOutcome::timings only (never canonical)
  const auto event_start = std::chrono::steady_clock::now();

  const std::size_t base = flows_.size();
  flows_.insert(flows_.end(), batch.begin(), batch.end());
  warm_.resize(flows_.size());
  rerated_.resize(flows_.size(), 0);
  group_of_slot_.resize(flows_.size());
  out_.schedule.flows.resize(flows_.size());
  out_.admitted.resize(flows_.size(), false);

  // Bucket the batch per group (batch order is (release, id), which
  // the buckets preserve), then find the affected groups: those with
  // arrivals or completions due. Untouched groups carry their state
  // forward for free — no per-event work proportional to group count
  // beyond this scan.
  for (auto& bucket : batch_slots_) bucket.clear();
  affected_.clear();
  for (std::size_t k = 0; k < batch.size(); ++k) {
    const std::size_t slot = base + k;
    const std::int32_t gid = plan_.group_of(flows_[slot]);
    DCN_EXPECTS(gid >= 0);
    group_of_slot_[slot] = gid;
    batch_slots_[static_cast<std::size_t>(gid)].push_back(slot);
  }
  for (std::int32_t gid = 0; gid < plan_.num_groups(); ++gid) {
    GroupState& gs = *groups_[static_cast<std::size_t>(gid)];
    const bool arrivals = !batch_slots_[static_cast<std::size_t>(gid)].empty();
    const bool completions =
        !gs.active.empty() && gs.active.begin()->first <= now;
    if (arrivals || completions) affected_.push_back(gid);
  }

  // Phase A: independent per-group work, parallel across lanes. Every
  // write lands in the group's own slots or its proposal, so the task
  // schedule (and whether a pool exists at all) cannot affect results.
  std::vector<Proposal> proposals(affected_.size());
  auto run_group = [&](std::size_t task, std::size_t worker) {
    (void)worker;
    const auto gid = static_cast<std::size_t>(affected_[task]);
    phase_a(*groups_[gid], batch_slots_[gid], now, proposals[task]);
  };
  if (pool_ && affected_.size() > 1) {
    pool_->run(affected_.size(), run_group);
  } else {
    for (std::size_t t = 0; t < affected_.size(); ++t) run_group(t, 0);
  }

  // Prune between phases — completions popped, commits not yet placed.
  // Departed history is dead weight for every later probe, and folding
  // it away keeps probe cost flat as the stream grows. The mark is
  // global: min(now, earliest live release across every group).
  double earliest = now;
  for (const auto& gp : groups_) {
    if (!gp->live_releases.empty()) {
      earliest = std::min(earliest, *gp->live_releases.begin());
    }
  }
  load_.advance_low_water(earliest);

  // Phase B: the coordinator folds proposals in ascending group id —
  // deterministic (event-time, shard-id, flow-id) arbitration order.
  for (std::size_t t = 0; t < affected_.size(); ++t) {
    phase_b(*groups_[static_cast<std::size_t>(affected_[t])], now,
            proposals[t]);
  }

  out_.peak_in_flight = std::max(out_.peak_in_flight, in_flight());
  audit_warm_state();
  // dcn-lint: allow(wall-clock) timing capture: closes the decision-latency window opened at event_start
  const double ms = std::chrono::duration<double, std::milli>(
                        // dcn-lint: allow(wall-clock) timing capture: same latency read (continuation)
                        std::chrono::steady_clock::now() - event_start)
                        .count();
  for (std::size_t k = 0; k < batch.size(); ++k) {
    out_.decision_latency_ms.push_back(ms);
  }
}

OnlineResult ShardedScheduler::take_result() {
  out_.peak_live_segments = load_.peak_live_segments();
  out_.load_segments_pruned = load_.segments_pruned();
  return std::move(out_);
}

}  // namespace dcn
