// Drift guards for the benchmark harness, one ctest each:
//
//   benchmark_selftest verifier    the outside-in verifier's energy equals
//                                  replay_schedule, and it rejects
//                                  corrupted rows
//   benchmark_selftest serve_loop  the harness's pull-with-holdback loop
//                                  matches run_online_stream's counters
//                                  and the registry's online_dcfsr_sharded
//                                  admitted set
//   benchmark_selftest stages      the direct stage calls match the
//                                  registry's dcfsr, mcf_paper and
//                                  online_dcfsr_flat energies
//
// If the registry's calibrated options or the service loop change, the
// harness would silently measure something else; these fail instead.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "engine/registry.h"
#include "harness.h"
#include "online/admission_core.h"
#include "online/event_stream.h"
#include "online/sharded.h"
#include "sim/replay.h"

namespace {

using dcn::perf::Rep;
using dcn::perf::RepOptions;
using dcn::perf::Workload;

constexpr std::uint64_t kSeed = 101;
int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

bool close_rel(double a, double b, double rel) {
  return std::fabs(a - b) <= rel * std::max(1.0, std::fabs(b));
}

Workload sized(const char* name, std::int64_t size) {
  Workload w = *dcn::perf::find_workload(name);
  w.size = size;
  w.paced_per_s = 0.0;
  return w;
}

dcn::engine::Instance instance_of(const Workload& w) {
  return dcn::engine::ScenarioSuite::default_suite().build(
      w.spec, kSeed, dcn::perf::scenario_options(w));
}

dcn::engine::SolverOutcome registry_solve(const std::string& solver,
                                          const dcn::engine::Instance& inst) {
  return dcn::engine::default_registry().create(solver)->solve(inst);
}

void test_verifier() {
  using namespace dcn;
  const Workload w = sized("serve_contended", 3000);
  OnlineResult full;
  RepOptions o{kSeed, 2};
  o.discard_completed = false;
  o.final_result = &full;
  const Rep rep = perf::run_rep(w, o);
  expect(rep.problem.empty() && rep.invalid == 0,
         "verifier flags a valid serve run: " + rep.problem);

  // The materialized trace is the stream, flow for flow, in feed order.
  const engine::Instance inst = instance_of(w);
  std::vector<Flow> fed;
  for (const std::size_t i : online_impl::arrival_order(inst.flows())) {
    fed.push_back(inst.flows()[i]);
  }
  auto [sub_flows, sub_schedule] =
      admitted_subset(fed, full.schedule, full.admitted);
  const ReplayReport replay =
      replay_schedule(inst.graph(), sub_flows, sub_schedule, inst.model());
  expect(replay.ok, "replay rejects the serve schedule");
  expect(close_rel(rep.energy, replay.energy, 1e-9),
         "verifier energy " + std::to_string(rep.energy) + " != replay " +
             std::to_string(replay.energy));
  std::printf("verifier: %lld admitted, energy %.6f (replay %.6f)\n",
              static_cast<long long>(rep.admitted), rep.energy, replay.energy);

  // Corrupted rows must be rejected.
  std::size_t k = 0;
  while (!full.admitted[k]) ++k;
  const Flow& flow = fed[k];
  const FlowSchedule& row = full.schedule.flows[k];
  {
    perf::Verifier v(inst.graph(), inst.model());
    FlowSchedule short_row = row;
    for (RateSegment& seg : short_row.segments) seg.rate *= 0.5;
    expect(!v.add(flow, short_row), "verifier accepts a short delivery");
  }
  {
    perf::Verifier v(inst.graph(), inst.model());
    FlowSchedule late_row = row;
    late_row.segments.back().interval.hi += 1.0;
    expect(!v.add(flow, late_row), "verifier accepts a late transmission");
  }
  {
    perf::Verifier v(inst.graph(), inst.model());
    Flow other = flow;
    other.dst = flow.src;
    other.src = flow.dst;
    expect(!v.add(other, row), "verifier accepts a path to the wrong host");
  }
  {
    perf::Verifier v(inst.graph(), inst.model());
    bool rejected = false;
    const auto copies = static_cast<int>(
        std::ceil(inst.model().capacity() / flow.density())) + 1;
    for (int i = 0; i < copies && !rejected; ++i) rejected = !v.add(flow, row);
    expect(rejected, "verifier accepts load over link capacity");
  }
}

void test_serve_loop() {
  using namespace dcn;
  for (const char* name : {"serve_contended", "serve_heavytail"}) {
    const Workload w = sized(name, 2000);
    OnlineResult mine;
    RepOptions o{kSeed, 2};
    o.final_result = &mine;
    const Rep rep = perf::run_rep(w, o);
    expect(rep.problem.empty(), std::string(name) + ": " + rep.problem);

    // The service's own stream runner on the identical stream and rng.
    auto [topology, stream_rng] =
        engine::ScenarioSuite::default_suite().build_topology(w.spec, kSeed);
    const engine::Instance inst = instance_of(w);
    PoissonEventStream stream(
        topology,
        engine::online_workload_params(perf::scenario_options(w),
                                       perf::size_model_of(w.spec)),
        stream_rng, w.size);
    Rng rng(mix_seed(kSeed, std::string(w.spec) + "#" + std::to_string(kSeed) +
                                "|dcfsr"));
    const OnlineResult ref = run_online_stream(
        topology.graph(), stream, inst.model(), rng, perf::online_options(),
        ShardPlan::by_source_group(topology, 0), 2, 0, nullptr, true);
    const std::string tag = std::string(name) + " serve done: ";
    expect(mine.num_events == ref.num_events, tag + "events");
    expect(mine.num_admitted == ref.num_admitted, tag + "admitted");
    expect(mine.num_rejected == ref.num_rejected, tag + "rejected");
    expect(mine.peak_in_flight == ref.peak_in_flight, tag + "peak_in_flight");
    expect(mine.resolves == ref.resolves, tag + "resolves");
    expect(mine.batch_fallbacks == ref.batch_fallbacks, tag + "batch_fallbacks");
    expect(mine.rounding_attempts == ref.rounding_attempts,
           tag + "rounding_attempts");
    expect(mine.rerate_commits == ref.rerate_commits, tag + "rerate_commits");
    expect(mine.peak_live_segments == ref.peak_live_segments,
           tag + "peak_live_segments");
    expect(mine.load_segments_pruned == ref.load_segments_pruned,
           tag + "segments_pruned");

    // The registry's batch solver on the materialized trace.
    OnlineResult kept;
    o.discard_completed = false;
    o.final_result = &kept;
    const Rep kept_rep = perf::run_rep(w, o);
    expect(kept_rep.problem.empty(),
           std::string(name) + ": " + kept_rep.problem);
    const engine::SolverOutcome outcome =
        registry_solve("online_dcfsr_sharded", inst);
    const std::vector<std::size_t> order =
        online_impl::arrival_order(inst.flows());
    std::int64_t mismatched = 0;
    for (std::size_t k = 0; k < order.size(); ++k) {
      const bool theirs = !outcome.schedule.flows[order[k]].path.empty();
      if (theirs != static_cast<bool>(kept.admitted[k])) ++mismatched;
    }
    expect(mismatched == 0, std::string(name) + ": " +
                                std::to_string(mismatched) +
                                " admission decisions differ from the registry");
    std::printf("serve_loop %s: %d admitted of %lld, %d events\n", name,
                mine.num_admitted, static_cast<long long>(rep.ops),
                mine.num_events);
  }
}

void test_stages() {
  using namespace dcn;
  struct Case {
    const char* workload;
    std::int64_t size;
    const char* solver;
  };
  for (const Case c : {Case{"offline_dcfsr", 80, "dcfsr"},
                       Case{"offline_mcf", 200, "mcf_paper"},
                       Case{"batch_flat", 300, "online_dcfsr_flat"}}) {
    const Workload w = sized(c.workload, c.size);
    const Rep rep = perf::run_rep(w, {kSeed, 2});
    expect(rep.problem.empty() && rep.invalid == 0,
           std::string(c.workload) + ": " + rep.problem);
    const engine::SolverOutcome outcome = registry_solve(c.solver, instance_of(w));
    expect(outcome.feasible, std::string(c.solver) + " infeasible");
    expect(close_rel(rep.energy, outcome.energy, 1e-9),
           std::string(c.workload) + " energy " + std::to_string(rep.energy) +
               " != registry " + c.solver + " " + std::to_string(outcome.energy));
    std::printf("stages %s: energy %.6f, registry %s %.6f\n", c.workload,
                rep.energy, c.solver, outcome.energy);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string which = argc > 1 ? argv[1] : "";
  if (which == "verifier") {
    test_verifier();
  } else if (which == "serve_loop") {
    test_serve_loop();
  } else if (which == "stages") {
    test_stages();
  } else {
    std::fprintf(stderr, "usage: benchmark_selftest verifier|serve_loop|stages\n");
    return 2;
  }
  return g_failures == 0 ? 0 : 1;
}
