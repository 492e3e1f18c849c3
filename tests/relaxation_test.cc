// Tests for the multi-interval fractional relaxation (LB + candidates).
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/baselines.h"
#include "common/random.h"
#include "flow/workload.h"
#include "graph/k_shortest.h"
#include "mcf/relaxation.h"
#include "schedule/schedule.h"
#include "topology/builders.h"

namespace dcn {
namespace {

TEST(Relaxation, SingleFlowLowerBoundIsExact) {
  // One flow alone: LB = |span| * env(density) * hops. With sigma = 0
  // the relaxation routes on a shortest path at the density rate.
  const Topology topo = line_network(3);
  const std::vector<Flow> flows{{0, 0, 2, 6.0, 1.0, 4.0}};  // density 2
  const PowerModel model = PowerModel::pure_speed_scaling(2.0);
  const auto relax = solve_relaxation(topo.graph(), flows, model);
  EXPECT_NEAR(relax.lower_bound_energy, 3.0 * 4.0 * 2.0, 1e-3);
  ASSERT_EQ(relax.candidates.size(), 1u);
  ASSERT_EQ(relax.candidates[0].paths.size(), 1u);
  EXPECT_NEAR(relax.candidates[0].paths[0].weight, 1.0, 1e-12);
  EXPECT_EQ(relax.candidates[0].paths[0].path.length(), 2u);
}

TEST(Relaxation, CandidateWeightsFormDistributions) {
  const Topology topo = fat_tree(4);
  Rng rng(5);
  PaperWorkloadParams params;
  params.num_flows = 20;
  params.horizon_hi = 30.0;
  const auto flows = paper_workload(topo, params, rng);
  const PowerModel model = PowerModel::pure_speed_scaling(2.0);
  const auto relax = solve_relaxation(topo.graph(), flows, model);
  ASSERT_EQ(relax.candidates.size(), flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    double total = 0.0;
    for (const WeightedPath& wp : relax.candidates[i].paths) {
      EXPECT_GT(wp.weight, 0.0);
      EXPECT_TRUE(is_valid_path(topo.graph(), wp.path));
      EXPECT_EQ(wp.path.src, flows[i].src);
      EXPECT_EQ(wp.path.dst, flows[i].dst);
      total += wp.weight;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(Relaxation, LowerBoundsAnyFeasibleScheduleWeCanConstruct) {
  // LB <= Phi_f(SP+MCF) on random instances (the defining property of
  // the Fig. 2 normalizer).
  const Topology topo = fat_tree(4);
  const PowerModel model = PowerModel::pure_speed_scaling(2.0);
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    PaperWorkloadParams params;
    params.num_flows = 15;
    params.horizon_hi = 30.0;
    const auto flows = paper_workload(topo, params, rng);
    const auto relax = solve_relaxation(topo.graph(), flows, model);
    const auto sp = sp_mcf(topo.graph(), flows, model);
    const double sp_energy =
        energy_phi_f(topo.graph(), sp.schedule, model, flow_horizon(flows));
    EXPECT_LE(relax.lower_bound_energy, sp_energy * (1.0 + 1e-6))
        << "seed " << seed;
  }
}

TEST(Relaxation, LowerBoundScalesWithMu) {
  const Topology topo = line_network(3);
  const std::vector<Flow> flows{{0, 0, 2, 6.0, 1.0, 4.0}};
  const auto lb1 =
      solve_relaxation(topo.graph(), flows, PowerModel(0.0, 1.0, 2.0)).lower_bound_energy;
  const auto lb3 =
      solve_relaxation(topo.graph(), flows, PowerModel(0.0, 3.0, 2.0)).lower_bound_energy;
  EXPECT_NEAR(lb3, 3.0 * lb1, 1e-6);
}

TEST(Relaxation, SigmaRaisesTheLowerBound) {
  const Topology topo = line_network(3);
  const std::vector<Flow> flows{{0, 0, 2, 6.0, 1.0, 4.0}};
  const double lb_no_idle =
      solve_relaxation(topo.graph(), flows, PowerModel(0.0, 1.0, 2.0)).lower_bound_energy;
  const double lb_idle =
      solve_relaxation(topo.graph(), flows, PowerModel(2.0, 1.0, 2.0)).lower_bound_energy;
  EXPECT_GT(lb_idle, lb_no_idle);
}

TEST(Relaxation, MeanGapIsSmall) {
  const Topology topo = fat_tree(4);
  Rng rng(7);
  PaperWorkloadParams params;
  params.num_flows = 10;
  params.horizon_hi = 20.0;
  const auto flows = paper_workload(topo, params, rng);
  const PowerModel model = PowerModel::pure_speed_scaling(2.0);
  RelaxationOptions options;
  options.frank_wolfe.gap_tolerance = 1e-4;
  options.frank_wolfe.max_iterations = 300;
  const auto relax = solve_relaxation(topo.graph(), flows, model, options);
  // Frank-Wolfe converges at O(1/k); a 300-iteration budget lands the
  // mean gap within a small multiple of the 1e-4 target.
  EXPECT_LE(relax.mean_relative_gap, 5e-3);
}

// ---------------------------------------------------------------------------
// Background load: fixed flows' rows priced but never moved.

/// Bitwise equality of two relaxations' outputs and work counters.
void ExpectSameRelaxation(const FractionalRelaxation& a,
                          const FractionalRelaxation& b) {
  EXPECT_EQ(a.lower_bound_energy, b.lower_bound_energy);
  EXPECT_EQ(a.mean_relative_gap, b.mean_relative_gap);
  EXPECT_EQ(a.total_fw_iterations, b.total_fw_iterations);
  EXPECT_EQ(a.fw_stats.oracle_sweeps, b.fw_stats.oracle_sweeps);
  EXPECT_EQ(a.fw_stats.edges_repriced, b.fw_stats.edges_repriced);
  EXPECT_EQ(a.fw_stats.line_search_evals, b.fw_stats.line_search_evals);
  EXPECT_EQ(a.final_flow, b.final_flow);
  ASSERT_EQ(a.candidates.size(), b.candidates.size());
  for (std::size_t i = 0; i < a.candidates.size(); ++i) {
    ASSERT_EQ(a.candidates[i].paths.size(), b.candidates[i].paths.size()) << i;
    for (std::size_t k = 0; k < a.candidates[i].paths.size(); ++k) {
      EXPECT_EQ(a.candidates[i].paths[k].path, b.candidates[i].paths[k].path);
      EXPECT_EQ(a.candidates[i].paths[k].weight, b.candidates[i].paths[k].weight);
    }
  }
}

/// One row carrying `rate` on every edge of `path`, sorted by edge id.
SparseEdgeFlow RowOf(const Path& path, double rate) {
  SparseEdgeFlow row;
  for (const EdgeId e : path.edges) row.emplace_back(e, rate);
  std::sort(row.begin(), row.end());
  return row;
}

TEST(RelaxationBackground, EmptyBackgroundIsTodaysSolve) {
  // All-empty background rows leave every flow free: the solve is the
  // one the online scheduler ran before backgrounds existed (all-empty
  // warm rows), bit for bit — and with a single release time, where no
  // flow starts after the first interval, the plain offline solve too.
  const Topology topo = fat_tree(4);
  const PowerModel model = PowerModel::pure_speed_scaling(2.0);
  Rng rng(3);
  PaperWorkloadParams params;
  params.num_flows = 16;
  params.horizon_hi = 20.0;
  const std::vector<Flow> flows = paper_workload(topo, params, rng);
  const std::vector<SparseEdgeFlow> empty(flows.size());
  RelaxationOptions options;
  options.frank_wolfe.max_iterations = 12;
  options.frank_wolfe.gap_tolerance = 1e-3;
  ExpectSameRelaxation(
      solve_relaxation(topo.graph(), flows, model, options, nullptr, &empty),
      solve_relaxation(topo.graph(), flows, model, options, nullptr, nullptr,
                       &empty));

  std::vector<Flow> together = flows;
  for (Flow& fl : together) fl.release = 0.0;
  ExpectSameRelaxation(
      solve_relaxation(topo.graph(), together, model, options),
      solve_relaxation(topo.graph(), together, model, options, nullptr,
                       nullptr, &empty));
}

TEST(RelaxationBackground, LoadOnACorePathSteersTheArrivalOffIt) {
  // An arrival between two pods spreads over the equal-cost core paths.
  // Fixed load with the same endpoints on its heaviest path makes that
  // path's marginal cost higher, so the arrival puts less weight there.
  const Topology topo = fat_tree(4);
  const Graph& g = topo.graph();
  const PowerModel model = PowerModel::pure_speed_scaling(2.0);
  const NodeId src = topo.hosts().front();
  const NodeId dst = topo.hosts().back();
  const Flow arrival{0, src, dst, 4.0, 0.0, 4.0};  // density 1
  const FractionalRelaxation alone = solve_relaxation(g, {arrival}, model);
  ASSERT_GT(alone.candidates[0].paths.size(), 1u);
  const WeightedPath* heaviest = &alone.candidates[0].paths.front();
  for (const WeightedPath& wp : alone.candidates[0].paths) {
    if (wp.weight > heaviest->weight) heaviest = &wp;
  }

  const std::vector<Flow> flows{{0, src, dst, 4.0, 0.0, 4.0},
                                {1, src, dst, 4.0, 0.0, 4.0}};
  const std::vector<SparseEdgeFlow> background{RowOf(heaviest->path, 1.0), {}};
  const FractionalRelaxation loaded = solve_relaxation(
      g, flows, model, {}, nullptr, nullptr, &background);
  double weight_there = 0.0;
  for (const WeightedPath& wp : loaded.candidates[1].paths) {
    if (wp.path == heaviest->path) weight_there = wp.weight;
  }
  EXPECT_LT(weight_there, heaviest->weight);
  EXPECT_LT(weight_there, 0.5 * heaviest->weight);
}

TEST(RelaxationBackground, FixedRowsComeBackUnchangedAndCostNoSweeps) {
  // Fixed flows are background only: their rows come back verbatim
  // with no candidates, and the oracle routes only the free flow — one
  // cold-routing sweep, then one sweep per Frank-Wolfe iteration.
  const Topology topo = fat_tree(4);
  const Graph& g = topo.graph();
  const PowerModel model = PowerModel::pure_speed_scaling(2.0);
  const std::vector<NodeId>& hosts = topo.hosts();
  std::vector<Flow> flows;
  std::vector<SparseEdgeFlow> background;
  for (std::size_t k = 0; k < 4; ++k) {
    const Flow fl{static_cast<FlowId>(k), hosts[k], hosts[15 - k], 6.0, 0.0, 3.0};
    const std::vector<Path> paths = equal_cost_paths(g, fl.src, fl.dst, 4);
    ASSERT_FALSE(paths.empty());
    flows.push_back(fl);
    background.push_back(RowOf(paths[k % paths.size()], fl.density()));
  }

  // Every flow fixed: nothing to route.
  const FractionalRelaxation fixed_only = solve_relaxation(
      g, flows, model, {}, nullptr, nullptr, &background);
  EXPECT_EQ(fixed_only.fw_stats.oracle_sweeps, 0);
  EXPECT_EQ(fixed_only.total_fw_iterations, 0);
  EXPECT_EQ(fixed_only.final_flow, background);
  std::vector<double> load(static_cast<std::size_t>(g.num_edges()), 0.0);
  for (const SparseEdgeFlow& row : background) sparse_flow_accumulate(row, load);
  double energy = 0.0;
  for (const double x : load) energy += model.envelope(x);
  EXPECT_NEAR(fixed_only.lower_bound_energy, 3.0 * energy, 1e-9 * energy);

  // One free arrival over the same span joins them.
  flows.push_back({4, hosts[4], hosts[11], 6.0, 0.0, 3.0});
  background.emplace_back();
  const FractionalRelaxation relax = solve_relaxation(
      g, flows, model, {}, nullptr, nullptr, &background);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(relax.final_flow[i], background[i]) << i;
    EXPECT_TRUE(relax.candidates[i].paths.empty()) << i;
  }
  EXPECT_FALSE(relax.candidates[4].paths.empty());
  EXPECT_GT(relax.total_fw_iterations, 0);
  EXPECT_EQ(relax.fw_stats.oracle_sweeps, 1 + relax.total_fw_iterations);
}

}  // namespace
}  // namespace dcn
