// The sharded always-on service's determinism contract, pinned.
//
// The shard decomposition is a function of the topology alone; shard
// and worker counts only pick how many source groups run phase A
// concurrently, and the coordinator commits in (event-time, group-id,
// flow-id) order — so the full OnlineResult (admitted set, schedule,
// every deterministic counter) must be byte-identical for any shard
// count >= 2 and any worker count. online_dcfsr is the same engine over
// ShardPlan::single_group on the caller's rng, and single-lane plans
// run that plan too, so "1 shard" is online_dcfsr byte for byte. On
// pod-local traffic (flows that never leave their source group, one
// group active at a time) the per-group re-solves see exactly the
// residual the flat loop's global re-solve sees, so the *schedule*
// matches the unsharded one too — the cross-implementation anchor that
// sharding redistributes work without changing decisions.
//
// Also here: the zero-/single-arrival edge cases across every online
// policy entry point (the degenerate traces a long-lived service must
// shrug off), re-rating under the sharded coordinator, and the
// stream-vs-trace equivalence of the service entry point.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "engine/instance.h"
#include "engine/scenario.h"
#include "engine/solver.h"
#include "online/event_stream.h"
#include "online/online_scheduler.h"
#include "online/shard_plan.h"
#include "online/sharded.h"
#include "sim/replay.h"
#include "topology/builders.h"

namespace dcn::engine {
namespace {

/// The flat-latency configuration every sharded registry entry runs
/// (calibrated Frank-Wolfe budget, 2.0 window, 0.5 epoch).
OnlineOptions FlatOptions() {
  OnlineOptions options;
  options.rounding.relaxation.frank_wolfe.max_iterations = 12;
  options.rounding.relaxation.frank_wolfe.gap_tolerance = 1e-3;
  options.lookahead_window = 2.0;
  options.epoch = 0.5;
  return options;
}

/// Full-result equality: every deterministic field of OnlineResult
/// (decision latencies are wall clock and excluded by design).
void ExpectSameResult(const OnlineResult& a, const OnlineResult& b,
                      const std::string& tag) {
  EXPECT_EQ(a.admitted, b.admitted) << tag;
  EXPECT_EQ(a.num_admitted, b.num_admitted) << tag;
  EXPECT_EQ(a.num_rejected, b.num_rejected) << tag;
  EXPECT_EQ(a.num_events, b.num_events) << tag;
  EXPECT_EQ(a.resolves, b.resolves) << tag;
  EXPECT_EQ(a.fw_iterations, b.fw_iterations) << tag;
  EXPECT_EQ(a.rounding_attempts, b.rounding_attempts) << tag;
  EXPECT_EQ(a.batch_fallbacks, b.batch_fallbacks) << tag;
  EXPECT_EQ(a.first_lower_bound, b.first_lower_bound) << tag;
  EXPECT_EQ(a.peak_in_flight, b.peak_in_flight) << tag;
  EXPECT_EQ(a.peak_live_segments, b.peak_live_segments) << tag;
  EXPECT_EQ(a.load_segments_pruned, b.load_segments_pruned) << tag;
  EXPECT_EQ(a.rerate_attempts, b.rerate_attempts) << tag;
  EXPECT_EQ(a.rerate_commits, b.rerate_commits) << tag;
  EXPECT_EQ(a.rerated_flows, b.rerated_flows) << tag;
  ASSERT_EQ(a.schedule.flows.size(), b.schedule.flows.size()) << tag;
  for (std::size_t i = 0; i < a.schedule.flows.size(); ++i) {
    EXPECT_EQ(a.schedule.flows[i].path, b.schedule.flows[i].path)
        << tag << " flow " << i;
    EXPECT_EQ(a.schedule.flows[i].segments, b.schedule.flows[i].segments)
        << tag << " flow " << i;
  }
}

class OnlineShardedTest : public ::testing::Test {
 protected:
  const ScenarioSuite& suite_ = ScenarioSuite::default_suite();
};

TEST_F(OnlineShardedTest, ByteIdenticalForAnyShardAndWorkerCount) {
  // The house rule, over a genuinely contended multi-event trace: the
  // (shards, workers) grid collapses onto one result. shards = 0 is
  // one lane per group; workers vary from serial to oversubscribed.
  for (const std::uint64_t seed : {1, 2}) {
    ScenarioOptions scen;
    scen.num_flows = 20;
    scen.capacity = 3.0;
    scen.arrival_rate = 4.0;
    const Instance instance = suite_.build("fat_tree/poisson", seed, scen);
    const OnlineOptions options = FlatOptions();

    Rng rng0 = solver_rng(instance, "dcfsr");
    const ShardPlan base_plan =
        ShardPlan::by_source_group(instance.topology(), 0);
    ASSERT_GE(base_plan.num_groups(), 2);
    const OnlineResult base =
        online_dcfsr_sharded(instance.graph(), instance.flows(),
                             instance.model(), rng0, options, base_plan,
                             /*workers=*/1);
    EXPECT_GT(base.num_events, 1);

    const struct {
      std::int32_t shards, workers;
    } grid[] = {{2, 1}, {2, 4}, {4, 2}, {8, 4}, {0, 3}};
    for (const auto& [shards, workers] : grid) {
      Rng rng = solver_rng(instance, "dcfsr");
      const ShardPlan plan =
          ShardPlan::by_source_group(instance.topology(), shards);
      const OnlineResult r =
          online_dcfsr_sharded(instance.graph(), instance.flows(),
                               instance.model(), rng, options, plan, workers);
      ExpectSameResult(base, r,
                       "seed " + std::to_string(seed) + " shards " +
                           std::to_string(shards) + " workers " +
                           std::to_string(workers));
    }
  }
}

TEST_F(OnlineShardedTest, SingleLanePlanIsFlatSchedulerByteForByte) {
  // num_shards = 1 runs the single-group plan on the caller's own rng,
  // as online_dcfsr does: literal equality on every property-sweep
  // scenario family, and both leave the caller's stream in one state.
  for (const char* spec : {"fat_tree/poisson", "leaf_spine/hadoop"}) {
    for (const std::uint64_t seed : {1, 2, 3}) {
      ScenarioOptions scen;
      scen.capacity = 3.0;
      const Instance instance = suite_.build(spec, seed, scen);
      const OnlineOptions options = FlatOptions();

      Rng rng_flat = solver_rng(instance, "dcfsr");
      const OnlineResult flat =
          online_dcfsr(instance.graph(), instance.flows(), instance.model(),
                       rng_flat, options);
      Rng rng_sharded = solver_rng(instance, "dcfsr");
      const OnlineResult sharded = online_dcfsr_sharded(
          instance.graph(), instance.flows(), instance.model(), rng_sharded,
          options, ShardPlan::by_source_group(instance.topology(), 1),
          /*workers=*/4);
      ExpectSameResult(flat, sharded,
                       std::string(spec) + " seed " + std::to_string(seed));
      EXPECT_EQ(rng_flat(), rng_sharded()) << spec << " seed " << seed;
    }
  }
}

TEST_F(OnlineShardedTest, FlatSchedulerDrawsFromTheCallersRng) {
  // The single-group run swaps the caller's rng in as the group stream
  // and hands it back: on an all-at-t=0 trace with ample capacity the
  // one event is offline Random-Schedule, so the caller's stream must
  // end exactly where offline dcfsr leaves the same stream.
  const Instance instance = suite_.build("fat_tree/incast", 11);
  OnlineOptions options;
  options.rounding.relaxation.frank_wolfe.max_iterations = 12;
  options.rounding.relaxation.frank_wolfe.gap_tolerance = 1e-3;

  Rng rng_offline = solver_rng(instance, "dcfsr");
  const RandomScheduleResult offline =
      random_schedule(instance.graph(), instance.flows(), instance.model(),
                      rng_offline, options.rounding);
  ASSERT_TRUE(offline.capacity_feasible);
  Rng rng_online = solver_rng(instance, "dcfsr");
  const OnlineResult online =
      online_dcfsr(instance.graph(), instance.flows(), instance.model(),
                   rng_online, options);
  EXPECT_EQ(online.num_events, 1);
  EXPECT_EQ(online.num_rejected, 0);
  EXPECT_EQ(rng_online(), rng_offline());
}

TEST_F(OnlineShardedTest, SingleGroupIndexExposesTheAuditShadow) {
  // edf_fill's audit cross-check reads the index's shadow(): the
  // single-group plan's coordinator owns every edge, so its shadow is
  // the whole naive replay and must track a plain EdgeLoadIndex fed the
  // same adds and retracts. A source-group plan splits edges across
  // sub-indexes and exposes none.
  const Topology topo = fat_tree(4);
  const Graph& g = topo.graph();
  const ShardPlan groups = ShardPlan::by_source_group(topo, 0);
  EXPECT_EQ(ShardedLoadIndex(groups, g.num_edges(), true).shadow(), nullptr);

  const ShardPlan single =
      ShardPlan::single_group(g.num_nodes(), g.num_edges());
  EXPECT_EQ(single.num_groups(), 1);
  EXPECT_EQ(single.num_lanes(), 1);
  EXPECT_EQ(ShardedLoadIndex(single, g.num_edges(), false).shadow(), nullptr);
  ShardedLoadIndex sharded(single, g.num_edges(), /*audit=*/true);
  EdgeLoadIndex reference(g.num_edges(), /*audit=*/true);
  ASSERT_NE(sharded.shadow(), nullptr);

  Rng rng(5);
  struct Op {
    EdgeId e;
    Interval iv;
    double rate;
  };
  std::vector<Op> added;
  for (int k = 0; k < 200; ++k) {
    if (!added.empty() && k % 3 == 2) {
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(added.size()) - 1));
      const Op op = added[pick];
      sharded.retract(op.e, op.iv, op.rate);
      reference.retract(op.e, op.iv, op.rate);
      added.erase(added.begin() + static_cast<std::ptrdiff_t>(pick));
      continue;
    }
    const auto e =
        static_cast<EdgeId>(rng.uniform_int(0, g.num_edges() - 1));
    const double lo = rng.uniform(0.0, 10.0);
    const Op op{e, {lo, lo + rng.uniform(0.1, 3.0)}, rng.uniform(0.1, 2.0)};
    sharded.add(op.e, op.iv, op.rate);
    reference.add(op.e, op.iv, op.rate);
    added.push_back(op);
  }
  const std::vector<StepFunction>& got = *sharded.shadow();
  const std::vector<StepFunction>& want = *reference.shadow();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t e = 0; e < got.size(); ++e) {
    EXPECT_EQ(got[e].segments(), want[e].segments()) << "edge " << e;
  }
}

TEST_F(OnlineShardedTest, PrivateSubIndexHoldsExactlyItsGroupsEdges) {
  // Sub-indexes are sized by ownership: a group's private index holds
  // its hosts' uplinks and nothing else (on fat_tree8, 4 edges per
  // group instead of all 768), so per-event pruning walks each edge
  // once. A distinct rate written on every edge through the router
  // must read back unaliased from whichever sub-index owns it.
  const Topology topo = fat_tree(8);
  const Graph& g = topo.graph();
  const ShardPlan plan = ShardPlan::by_source_group(topo, 0);
  ShardedLoadIndex index(plan, g.num_edges(), /*audit=*/true);

  std::vector<std::int32_t> owned(static_cast<std::size_t>(plan.num_groups()), 0);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const std::int32_t owner = plan.edge_owner()[static_cast<std::size_t>(e)];
    if (owner < 0) continue;
    EXPECT_EQ(plan.group_of_host(g.edge(e).src), owner) << "edge " << e;
    ++owned[static_cast<std::size_t>(owner)];
  }
  std::int32_t total = 0;
  for (std::int32_t gid = 0; gid < plan.num_groups(); ++gid) {
    EXPECT_GT(owned[static_cast<std::size_t>(gid)], 0) << "group " << gid;
    EXPECT_EQ(index.private_index(gid).num_edges(),
              owned[static_cast<std::size_t>(gid)])
        << "group " << gid;
    total += owned[static_cast<std::size_t>(gid)];
  }
  EXPECT_EQ(total, topo.num_hosts());  // one uplink per host

  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    index.add(e, {0.0, 1.0}, 1.0 + e);
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(index.value_at(e, 0.5), 1.0 + e) << "edge " << e;
  }
}

TEST_F(OnlineShardedTest, CompactSubIndexesProbeLikeOneIndex) {
  // The ownership-sized sub-indexes change storage, not answers: fed
  // the same adds, retracts and low-water advances as one plain
  // EdgeLoadIndex, every probe and both health counters agree bitwise.
  const Topology topo = fat_tree(4);
  const Graph& g = topo.graph();
  const ShardPlan plan = ShardPlan::by_source_group(topo, 0);
  ShardedLoadIndex sharded(plan, g.num_edges(), /*audit=*/true);
  EdgeLoadIndex reference(g.num_edges(), /*audit=*/true);
  const PowerModel model(1.0, 1.0, 2.0, 8.0);

  Rng rng(11);
  struct Op {
    EdgeId e;
    Interval iv;
    double rate;
  };
  std::vector<Op> added;
  double low_water = 0.0;
  for (int k = 0; k < 600; ++k) {
    if (k % 50 == 49) {
      low_water += 1.0;
      sharded.advance_low_water(low_water);
      reference.advance_low_water(low_water);
      std::erase_if(added, [&](const Op& op) { return op.iv.lo < low_water; });
      continue;
    }
    if (!added.empty() && k % 3 == 2) {
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(added.size()) - 1));
      const Op op = added[pick];
      sharded.retract(op.e, op.iv, op.rate);
      reference.retract(op.e, op.iv, op.rate);
      added.erase(added.begin() + static_cast<std::ptrdiff_t>(pick));
      continue;
    }
    const auto e = static_cast<EdgeId>(rng.uniform_int(0, g.num_edges() - 1));
    const double lo = low_water + rng.uniform(0.0, 6.0);
    const Op op{e, {lo, lo + rng.uniform(0.1, 3.0)}, rng.uniform(0.1, 2.0)};
    sharded.add(op.e, op.iv, op.rate);
    reference.add(op.e, op.iv, op.rate);
    added.push_back(op);
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    for (const double t : {low_water, low_water + 0.7, low_water + 2.3}) {
      EXPECT_EQ(sharded.value_at(e, t), reference.value_at(e, t)) << e;
      const Interval window{t, t + 1.5};
      EXPECT_EQ(sharded.max_within(e, window), reference.max_within(e, window))
          << e;
      EXPECT_EQ(sharded.marginal_energy(e, window, 0.8, model),
                reference.marginal_energy(e, window, 0.8, model))
          << e;
    }
  }
  EXPECT_EQ(sharded.peak_live_segments(), reference.peak_live_segments());
  EXPECT_EQ(sharded.segments_pruned(), reference.segments_pruned());
  EXPECT_GT(sharded.segments_pruned(), 0);
}

TEST_F(OnlineShardedTest, PodLocalTrafficMatchesUnshardedAcrossShardGrid) {
  // The satellite grid: traffic that never leaves its source group,
  // groups active in disjoint time windows, one arrival per event, a
  // unique candidate path (same-attachment pairs), ample capacity. Each
  // per-group re-solve then sees exactly the residual problem the flat
  // loop's global re-solve sees, so the *decisions* — admitted set,
  // paths, rate segments — must match the unsharded run for 1, 2, and
  // 4 shards alike (solver-work counters differ by construction: the
  // sharded engine counts per-group solves).
  auto [topo, unused_rng] = suite_.build_topology("fat_tree/poisson", 1);
  const ShardPlan groups = ShardPlan::by_source_group(topo, 0);
  ASSERT_GE(groups.num_groups(), 2);

  // Two hosts per group (fat_tree k=4 attaches 2 hosts per edge
  // switch); groups take turns in disjoint windows, with distinct
  // deadlines throughout (the engine's active-set keying breaks exact
  // deadline ties differently from the flat loop's).
  std::vector<std::vector<NodeId>> hosts_of_group(
      static_cast<std::size_t>(groups.num_groups()));
  for (const NodeId h : topo.hosts()) {
    hosts_of_group[static_cast<std::size_t>(groups.group_of_host(h))]
        .push_back(h);
  }
  std::vector<Flow> flows;
  double t = 0.0;
  for (std::size_t g = 0; g < hosts_of_group.size(); ++g) {
    ASSERT_GE(hosts_of_group[g].size(), 2u) << "group " << g;
    const NodeId a = hosts_of_group[g][0];
    const NodeId b = hosts_of_group[g][1];
    for (int k = 0; k < 3; ++k) {
      Flow fl;
      fl.id = static_cast<FlowId>(flows.size());
      fl.src = k % 2 == 0 ? a : b;
      fl.dst = k % 2 == 0 ? b : a;
      fl.volume = 1.0;
      fl.release = t;
      fl.deadline = t + 1.5 + 0.01 * static_cast<double>(flows.size());
      flows.push_back(fl);
      t += 0.8;  // > epoch: one arrival per event
    }
    t += 4.0;  // drain the group before the next one starts
  }
  const PowerModel model(0.0, 1.0, 2.0, /*capacity=*/4.0);
  const OnlineOptions options = FlatOptions();

  Rng rng_flat(mix_seed(17, "pod-local"));
  const OnlineResult flat =
      online_dcfsr(topo.graph(), flows, model, rng_flat, options);
  EXPECT_EQ(flat.num_admitted, static_cast<std::int32_t>(flows.size()));

  for (const std::int32_t shards : {1, 2, 4}) {
    Rng rng(mix_seed(17, "pod-local"));
    const OnlineResult r = online_dcfsr_sharded(
        topo.graph(), flows, model, rng, options,
        ShardPlan::by_source_group(topo, shards), /*workers=*/2);
    const std::string tag = "shards " + std::to_string(shards);
    EXPECT_EQ(flat.admitted, r.admitted) << tag;
    EXPECT_EQ(flat.num_admitted, r.num_admitted) << tag;
    EXPECT_EQ(flat.num_rejected, r.num_rejected) << tag;
    ASSERT_EQ(flat.schedule.flows.size(), r.schedule.flows.size()) << tag;
    for (std::size_t i = 0; i < flat.schedule.flows.size(); ++i) {
      EXPECT_EQ(flat.schedule.flows[i].path, r.schedule.flows[i].path)
          << tag << " flow " << i;
      EXPECT_EQ(flat.schedule.flows[i].segments, r.schedule.flows[i].segments)
          << tag << " flow " << i;
    }
  }
}

TEST_F(OnlineShardedTest, ZeroAndSingleArrivalAcrossAllPolicies) {
  // The degenerate traces of a long-lived service. Zero arrivals: every
  // policy returns the empty result without touching its rng-dependent
  // paths. One arrival with ample capacity: every policy admits it onto
  // a non-empty path with serving segments.
  auto [topo, unused_rng] = suite_.build_topology("fat_tree/poisson", 1);
  const PowerModel model(0.0, 1.0, 2.0, /*capacity=*/8.0);
  const ShardPlan plan = ShardPlan::by_source_group(topo, 0);
  const std::vector<Flow> empty;
  Flow fl;
  fl.id = 0;
  fl.src = topo.hosts().front();
  fl.dst = topo.hosts().back();
  fl.volume = 1.0;
  fl.release = 0.5;
  fl.deadline = 2.5;
  const std::vector<Flow> single{fl};

  const auto run = [&](const char* policy,
                       const std::vector<Flow>& flows) -> OnlineResult {
    Rng rng(mix_seed(3, "edge-cases"));
    const std::string name(policy);
    if (name == "online_greedy") {
      return online_greedy(topo.graph(), flows, model);
    }
    if (name == "oracle_dcfsr") {
      return oracle_dcfsr(topo.graph(), flows, model, rng);
    }
    if (name == "online_dcfsr_sharded") {
      return online_dcfsr_sharded(topo.graph(), flows, model, rng,
                                  FlatOptions(), plan, /*workers=*/2);
    }
    OnlineOptions options = FlatOptions();
    if (name == "online_dcfsr") options = OnlineOptions{};
    if (name == "online_dcfsr_preempt") options.allow_rerate = true;
    return online_dcfsr(topo.graph(), flows, model, rng, options);
  };

  for (const char* policy :
       {"online_dcfsr", "online_dcfsr_flat", "online_dcfsr_preempt",
        "online_dcfsr_sharded", "online_greedy", "oracle_dcfsr"}) {
    const OnlineResult zero = run(policy, empty);
    EXPECT_EQ(zero.num_admitted, 0) << policy;
    EXPECT_EQ(zero.num_rejected, 0) << policy;
    EXPECT_EQ(zero.num_events, 0) << policy;
    EXPECT_TRUE(zero.schedule.flows.empty()) << policy;
    EXPECT_TRUE(zero.admitted.empty()) << policy;

    const OnlineResult one = run(policy, single);
    ASSERT_EQ(one.schedule.flows.size(), 1u) << policy;
    ASSERT_EQ(one.admitted.size(), 1u) << policy;
    EXPECT_TRUE(one.admitted[0]) << policy;
    EXPECT_EQ(one.num_admitted, 1) << policy;
    EXPECT_EQ(one.num_rejected, 0) << policy;
    EXPECT_FALSE(one.schedule.flows[0].path.empty()) << policy;
    EXPECT_FALSE(one.schedule.flows[0].segments.empty()) << policy;
  }
}

TEST_F(OnlineShardedTest, StreamedServiceMatchesBatchSolver) {
  // run_online_stream pulling from a PoissonEventStream must reproduce
  // the batch solver on the materialized instance: build_topology hands
  // back the scenario rng mid-stream, online_workload_params rebuilds
  // the generator knobs, and the service draws from the same
  // "<spec>#<seed>|dcfsr" stream the engine would — so the trace, the
  // decisions, and every deterministic counter coincide.
  const std::string spec = "fat_tree/poisson";
  const std::uint64_t seed = 5;
  ScenarioOptions scen;
  scen.num_flows = 30;
  scen.capacity = 3.0;
  scen.arrival_rate = 4.0;
  const OnlineOptions options = FlatOptions();

  const Instance instance = suite_.build(spec, seed, scen);
  Rng rng_batch = solver_rng(instance, "dcfsr");
  const OnlineResult batch = online_dcfsr_sharded(
      instance.graph(), instance.flows(), instance.model(), rng_batch,
      options, ShardPlan::by_source_group(instance.topology(), 0),
      /*workers=*/2);

  auto [topo, scenario_rng] = suite_.build_topology(spec, seed);
  PoissonEventStream stream(topo,
                            online_workload_params(scen, SizeModel::kFixed),
                            scenario_rng, scen.num_flows);
  Rng rng_stream(mix_seed(seed, spec + "#" + std::to_string(seed) + "|dcfsr"));
  const OnlineResult streamed = run_online_stream(
      topo.graph(), stream, instance.model(), rng_stream, options,
      ShardPlan::by_source_group(topo, 0), /*workers=*/2, /*flush_every=*/0,
      nullptr, /*discard_completed=*/false);

  // Poisson releases are non-decreasing by construction, so the batch
  // API's caller-order rows coincide with the stream's feed order.
  ExpectSameResult(batch, streamed, "stream vs batch");
}

TEST_F(OnlineShardedTest, RerateUnderShardingStaysReplayFeasible) {
  // allow_rerate under the sharded coordinator, on the capacity-cliff
  // regime: whatever the re-rate pass reshapes, the admitted subset
  // must replay cleanly — the commit barrier's deadline guarantee does
  // not depend on the storage split.
  std::int64_t total_attempts = 0;
  for (const std::uint64_t seed : {1, 2, 3, 4}) {
    ScenarioOptions scen;
    scen.num_flows = 24;
    scen.capacity = 2.5;
    scen.arrival_rate = 6.0;
    const Instance instance = suite_.build("fat_tree/poisson", seed, scen);
    OnlineOptions options = FlatOptions();
    options.allow_rerate = true;

    Rng rng = solver_rng(instance, "dcfsr");
    const OnlineResult r = online_dcfsr_sharded(
        instance.graph(), instance.flows(), instance.model(), rng, options,
        ShardPlan::by_source_group(instance.topology(), 0), /*workers=*/2);
    total_attempts += r.rerate_attempts;
    ASSERT_GE(r.num_admitted, 1) << "seed " << seed;
    const auto [sub_flows, sub_schedule] =
        admitted_subset(instance.flows(), r.schedule, r.admitted);
    const ReplayReport replay = replay_schedule(instance.graph(), sub_flows,
                                                sub_schedule, instance.model());
    EXPECT_TRUE(replay.ok)
        << "seed " << seed << ": "
        << (replay.issues.empty() ? "" : replay.issues[0]);
  }
  EXPECT_GE(total_attempts, 1)
      << "sweep never attempted a re-rate; tighten the scenario";
}

}  // namespace
}  // namespace dcn::engine
