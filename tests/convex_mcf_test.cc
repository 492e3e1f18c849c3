// Tests for the Frank-Wolfe convex multi-commodity flow solver.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>

#include "opt/convex_mcf.h"
#include "power/power_model.h"
#include "topology/builders.h"

namespace dcn {
namespace {

ConvexMcfProblem quadratic_problem(const Graph& g) {
  ConvexMcfProblem p;
  p.graph = &g;
  p.cost = [](double x) { return x * x; };
  p.cost_derivative = [](double x) { return 2.0 * x; };
  return p;
}

TEST(ConvexMcf, EmptyProblemIsTrivial) {
  const Topology topo = line_network(3);
  ConvexMcfProblem p = quadratic_problem(topo.graph());
  const auto sol = solve_convex_mcf(p);
  EXPECT_DOUBLE_EQ(sol.cost, 0.0);
  for (double x : sol.total_flow) EXPECT_DOUBLE_EQ(x, 0.0);
}

TEST(ConvexMcf, SingleCommodityOnLineUsesTheOnlyRoute) {
  const Topology topo = line_network(3);
  ConvexMcfProblem p = quadratic_problem(topo.graph());
  p.commodities = {{0, 2, 4.0}};
  const auto sol = solve_convex_mcf(p);
  // Both rightward edges carry the full demand: cost = 2 * 16.
  EXPECT_NEAR(sol.cost, 32.0, 1e-6);
}

TEST(ConvexMcf, QuadraticSplitsEvenlyAcrossParallelLinks) {
  // With cost x^2 and k parallel links, the optimum splits demand
  // equally: cost = k * (d/k)^2 = d^2 / k.
  for (int k : {2, 3, 4}) {
    const Topology topo = parallel_links(k);
    ConvexMcfProblem p = quadratic_problem(topo.graph());
    const double demand = 6.0;
    p.commodities = {{0, 1, demand}};
    FrankWolfeOptions opts;
    opts.max_iterations = 400;
    opts.gap_tolerance = 1e-7;
    const auto sol = solve_convex_mcf(p, opts);
    EXPECT_NEAR(sol.cost, demand * demand / k, 1e-2) << "k=" << k;
    // Per-edge flows near demand/k on forward edges.
    for (EdgeId e = 0; e < topo.graph().num_edges(); ++e) {
      const double x = sol.total_flow[static_cast<std::size_t>(e)];
      if (x > 1e-6) {
        EXPECT_NEAR(x, demand / k, 0.15);
      }
    }
  }
}

TEST(ConvexMcf, TwoCommoditiesShareTheLoad) {
  // Two commodities src->dst on 2 parallel links, demands 2 and 4:
  // optimal total per link = 3 each, cost = 18.
  const Topology topo = parallel_links(2);
  ConvexMcfProblem p = quadratic_problem(topo.graph());
  p.commodities = {{0, 1, 2.0}, {0, 1, 4.0}};
  FrankWolfeOptions opts;
  opts.max_iterations = 400;
  opts.gap_tolerance = 1e-7;
  const auto sol = solve_convex_mcf(p, opts);
  EXPECT_NEAR(sol.cost, 18.0, 1e-2);
}

TEST(ConvexMcf, CommodityFlowsSumToTotal) {
  const Topology topo = fat_tree(4);
  ConvexMcfProblem p = quadratic_problem(topo.graph());
  p.commodities = {{topo.hosts()[0], topo.hosts()[9], 3.0},
                   {topo.hosts()[2], topo.hosts()[12], 1.5}};
  const auto sol = solve_convex_mcf(p);
  std::vector<double> sum(sol.total_flow.size(), 0.0);
  for (const auto& yc : sol.commodity_flow) sparse_flow_accumulate(yc, sum);
  for (std::size_t e = 0; e < sol.total_flow.size(); ++e) {
    EXPECT_NEAR(sum[e], sol.total_flow[e], 1e-9);
  }
}

TEST(ConvexMcf, FlowConservationHoldsPerCommodity) {
  const Topology topo = fat_tree(4);
  const Graph& g = topo.graph();
  ConvexMcfProblem p = quadratic_problem(g);
  const NodeId src = topo.hosts()[0], dst = topo.hosts()[15];
  p.commodities = {{src, dst, 2.0}};
  const auto sol = solve_convex_mcf(p);
  std::vector<double> y0(static_cast<std::size_t>(g.num_edges()), 0.0);
  sparse_flow_accumulate(sol.commodity_flow[0], y0);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    double net = 0.0;
    for (EdgeId e : g.out_edges(u)) net += y0[static_cast<std::size_t>(e)];
    for (EdgeId e : g.in_edges(u)) net -= y0[static_cast<std::size_t>(e)];
    if (u == src) {
      EXPECT_NEAR(net, 2.0, 1e-6);
    } else if (u == dst) {
      EXPECT_NEAR(net, -2.0, 1e-6);
    } else {
      EXPECT_NEAR(net, 0.0, 1e-6);
    }
  }
}

TEST(ConvexMcf, EnvelopeCostConsolidatesWhenIdlePowerDominates) {
  // With a large sigma, the envelope's linear part dominates and the
  // optimum concentrates both commodities on one link instead of
  // splitting (opposite of the pure-quadratic case).
  const Topology topo = parallel_links(2);
  const PowerModel model(/*sigma=*/100.0, /*mu=*/1.0, /*alpha=*/2.0);
  ConvexMcfProblem p;
  p.graph = &topo.graph();
  p.cost = [&model](double x) { return model.envelope(x); };
  p.cost_derivative = [&model](double x) { return model.envelope_derivative(x); };
  p.commodities = {{0, 1, 0.5}, {0, 1, 0.5}};
  FrankWolfeOptions opts;
  opts.max_iterations = 300;
  opts.gap_tolerance = 1e-7;
  const auto sol = solve_convex_mcf(p, opts);
  // Total demand 1.0 is far below R_opt = 10: cost = envelope(1) on one
  // link (the linear envelope makes any split equally cheap at best, so
  // just check the optimal value).
  EXPECT_NEAR(sol.cost, model.envelope(1.0), 1e-4 * model.envelope(1.0));
}

TEST(ConvexMcf, GapDecreasesAndIsReported) {
  const Topology topo = fat_tree(4);
  ConvexMcfProblem p = quadratic_problem(topo.graph());
  for (int i = 0; i < 6; ++i) {
    p.commodities.push_back(
        {topo.hosts()[static_cast<std::size_t>(i)],
         topo.hosts()[static_cast<std::size_t>(15 - i)], 1.0 + i});
  }
  FrankWolfeOptions loose;
  loose.max_iterations = 3;
  FrankWolfeOptions tight;
  tight.max_iterations = 200;
  tight.gap_tolerance = 1e-6;
  const auto rough = solve_convex_mcf(p, loose);
  const auto fine = solve_convex_mcf(p, tight);
  EXPECT_LE(fine.cost, rough.cost + 1e-9);
  EXPECT_LE(fine.relative_gap, 1e-6 + 1e-12);
}

TEST(ConvexMcf, WarmStartConvergesFasterOrEqual) {
  const Topology topo = fat_tree(4);
  ConvexMcfProblem p = quadratic_problem(topo.graph());
  for (int i = 0; i < 5; ++i) {
    p.commodities.push_back(
        {topo.hosts()[static_cast<std::size_t>(i)],
         topo.hosts()[static_cast<std::size_t>(10 + i)], 2.0});
  }
  FrankWolfeOptions opts;
  opts.max_iterations = 300;
  opts.gap_tolerance = 1e-6;
  const auto cold = solve_convex_mcf(p, opts);
  const auto warm = solve_convex_mcf(p, opts, &cold.commodity_flow);
  EXPECT_LE(warm.iterations, cold.iterations);
  EXPECT_NEAR(warm.cost, cold.cost, 1e-3 * cold.cost);
}

TEST(ConvexMcf, ContractsOnBadProblem) {
  const Topology topo = line_network(2);
  ConvexMcfProblem p = quadratic_problem(topo.graph());
  p.commodities = {{0, 0, 1.0}};  // src == dst
  EXPECT_THROW((void)solve_convex_mcf(p), ContractViolation);
  p.commodities = {{0, 1, -1.0}};  // negative demand
  EXPECT_THROW((void)solve_convex_mcf(p), ContractViolation);
  p.commodities = {{0, 1, 1.0}};
  p.cost = nullptr;
  EXPECT_THROW((void)solve_convex_mcf(p), ContractViolation);
}

TEST(ConvexMcf, BackgroundContractsHoldWithoutCommodities) {
  // The background is validated even when there is nothing to route.
  const Topology topo = line_network(3);
  ConvexMcfProblem p = quadratic_problem(topo.graph());
  p.background = {{9999, 1.0}, {0, -2.0}};
  EXPECT_THROW((void)solve_convex_mcf(p), ContractViolation);
  p.background = {{9999, 1.0}};  // no such edge
  EXPECT_THROW((void)solve_convex_mcf(p), ContractViolation);
  p.background = {{0, -2.0}};  // non-positive load
  EXPECT_THROW((void)solve_convex_mcf(p), ContractViolation);
  p.background = {{0, 1.0}, {0, 1.0}};  // an edge listed twice
  EXPECT_THROW((void)solve_convex_mcf(p), ContractViolation);
  p.background = {{0, 1.0}, {1, 2.0}};
  EXPECT_DOUBLE_EQ(solve_convex_mcf(p).cost, 5.0);
}

TEST(ConvexMcf, CarriedAtomsResolveFromOwnSolutionInOneIteration) {
  // A pairwise solve hands out its active sets alongside its rows;
  // re-solving from both must stop at the first gap check with the
  // atoms intact — no Raghavan-Tompson pass, no drift.
  const Topology topo = fat_tree(4);
  ConvexMcfProblem p = quadratic_problem(topo.graph());
  for (int i = 0; i < 6; ++i) {
    p.commodities.push_back(
        {topo.hosts()[static_cast<std::size_t>(i)],
         topo.hosts()[static_cast<std::size_t>(15 - i)], 1.0 + i});
  }
  FrankWolfeOptions opts;
  opts.step_rule = FrankWolfeStepRule::kPairwise;
  opts.max_iterations = 400;
  opts.gap_tolerance = 1e-6;
  const auto first = solve_convex_mcf(p, opts);
  ASSERT_GT(first.iterations, 1);  // the first solve did real work
  ASSERT_LE(first.relative_gap, opts.gap_tolerance);
  ASSERT_EQ(first.commodity_atoms.size(), p.commodities.size());
  std::size_t most_atoms = 0;
  for (const AtomSet& atoms : first.commodity_atoms) {
    most_atoms = std::max(most_atoms, atoms.size());
  }
  ASSERT_GT(most_atoms, 1u);  // some commodity splits over several paths

  // The atoms are a consistent decomposition: weights sum to the
  // demand and the edge-sums reproduce the rows.
  for (std::size_t c = 0; c < p.commodities.size(); ++c) {
    ASSERT_FALSE(first.commodity_atoms[c].empty()) << c;
    double total = 0.0;
    std::map<EdgeId, double> by_edge;
    for (const PathAtom& atom : first.commodity_atoms[c]) {
      total += atom.weight;
      for (const EdgeId e : atom.edges) by_edge[e] += atom.weight;
    }
    EXPECT_NEAR(total, p.commodities[c].demand, 1e-9) << c;
    for (const auto& [e, v] : first.commodity_flow[c]) {
      EXPECT_NEAR(by_edge[e], v, 1e-9) << "commodity " << c << " edge " << e;
    }
  }

  const auto warm = solve_convex_mcf(p, opts, &first.commodity_flow, nullptr,
                                     &first.commodity_atoms);
  EXPECT_EQ(warm.iterations, 1);
  EXPECT_NEAR(warm.cost, first.cost, 1e-9 * first.cost);
  ASSERT_EQ(warm.commodity_atoms.size(), first.commodity_atoms.size());
  for (std::size_t c = 0; c < warm.commodity_atoms.size(); ++c) {
    ASSERT_EQ(warm.commodity_atoms[c].size(), first.commodity_atoms[c].size())
        << c;
    for (std::size_t a = 0; a < warm.commodity_atoms[c].size(); ++a) {
      EXPECT_EQ(warm.commodity_atoms[c][a].edges,
                first.commodity_atoms[c][a].edges);
      EXPECT_NEAR(warm.commodity_atoms[c][a].weight,
                  first.commodity_atoms[c][a].weight, 1e-12);
    }
  }
}

}  // namespace
}  // namespace dcn
