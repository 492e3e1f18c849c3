#include "harness.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <ctime>
#include <fstream>
#include <limits>
#include <optional>
#include <stdexcept>
#include <thread>

#include "baselines/baselines.h"
#include "dcfs/most_critical_first.h"
#include "engine/solver.h"
#include "graph/path.h"
#include "online/event_stream.h"
#include "online/sharded.h"
#include "sim/replay.h"

namespace dcn::perf {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Relative tolerance of every verifier check (replay_schedule's default).
constexpr double kTol = 1e-6;

double seconds_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) * 1e-9;
}

double ms_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) * 1e-6;
}

/// The scheduler's stream seed exactly as `dcn_run --serve` and the
/// registry's online_dcfsr_sharded derive it from the instance seed.
std::uint64_t stream_seed(const Workload& w, std::uint64_t seed) {
  Rng rng(mix_seed(seed, std::string(w.spec) + "#" + std::to_string(seed) +
                             "|dcfsr"));
  return rng();
}

/// The service's program objects, in dependency order: the stream holds
/// the topology, the scheduler holds the graph, model and plan.
struct ServeSession {
  ServeSession(const Workload& w, std::uint64_t seed, std::int32_t workers,
               bool discard_completed, bool time_probes)
      : built(engine::ScenarioSuite::default_suite().build_topology(w.spec,
                                                                    seed)),
        model(scenario_options(w).power_model()),
        plan(ShardPlan::by_source_group(built.first, 0)),
        stream(built.first,
               engine::online_workload_params(scenario_options(w),
                                              size_model_of(w.spec)),
               built.second, w.size),
        sched(built.first.graph(), model, online_options(), plan,
              stream_seed(w, seed), workers, discard_completed),
        verifier(built.first.graph(), model, time_probes) {}

  std::pair<Topology, Rng> built;
  PowerModel model;
  ShardPlan plan;
  PoissonEventStream stream;
  ShardedScheduler sched;
  Verifier verifier;
};

engine::Instance build_instance(const Workload& w, std::uint64_t seed) {
  return engine::ScenarioSuite::default_suite().build(w.spec, seed,
                                                      scenario_options(w));
}

/// Counter names shared by every span that carries program counters;
/// the trace reader sums them by name.
Tracer::Counters fw_counters(const FrankWolfeStats& s, std::int64_t iters) {
  return {{"fw_iters", static_cast<double>(iters)},
          {"fw_sweeps", static_cast<double>(s.oracle_sweeps)},
          {"fw_repriced", static_cast<double>(s.edges_repriced)},
          {"fw_ls_evals", static_cast<double>(s.line_search_evals)},
          {"fw_oracle_s", s.oracle_seconds},
          {"fw_reprice_s", s.reprice_seconds},
          {"fw_ls_s", s.line_search_seconds}};
}

Tracer::Counters result_counters(const OnlineResult& r) {
  Tracer::Counters out = {{"admitted", r.num_admitted},
                          {"rejected", r.num_rejected},
                          {"draws", r.rounding_attempts},
                          {"resolves", r.resolves},
                          {"batch_fallbacks", r.batch_fallbacks},
                          {"gap_checks", r.departure_gap_checks}};
  for (auto& c : fw_counters(r.fw_stats, r.fw_iterations)) out.push_back(c);
  return out;
}

/// Event-span counters: deltas of the cumulative result counters across
/// one process_batch, plus the batch size and the in-flight level after.
/// (The pruned-segment total walks every sub-index's edges, so it is
/// read once, at take_result, not per event.)
Tracer::Counters event_counters(const Tracer::Counters& before,
                                const ShardedScheduler& sched,
                                std::int64_t completed_before,
                                std::size_t arrivals) {
  Tracer::Counters out = result_counters(sched.result());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i].second -= before[i].second;
  }
  out.emplace_back("events", 1.0);
  out.emplace_back("arrivals", static_cast<double>(arrivals));
  out.emplace_back("completed",
                   static_cast<double>(sched.completed() - completed_before));
  out.emplace_back("in_flight", sched.in_flight());
  return out;
}

void finish_checks(Rep& rep, const Verifier& v) {
  rep.energy = v.energy();
  rep.isolated = v.isolated_energy();
  rep.volume = v.volume();
  rep.invalid += v.violations();
  if (rep.problem.empty() && !v.first_problem().empty()) rep.problem = v.first_problem();
  rep.probe_add = v.add_time();
  rep.probe_max_within = v.max_within_time();
  rep.probe_marginal = v.marginal_time();
}

/// A replay rejection invalidates the whole call's output; a clean
/// replay must also agree with the verifier's energy.
void check_replay(Rep& rep, const ReplayReport& replay) {
  if (!replay.ok) {
    rep.invalid = rep.ops;
    if (rep.problem.empty()) rep.problem = "replay: " + replay.issues.front();
  }
  if (std::fabs(rep.energy - replay.energy) > 1e-9 * std::max(1.0, replay.energy) &&
      rep.problem.empty()) {
    rep.problem = "verifier energy differs from replay_schedule";
  }
}

Rep run_serve(const Workload& w, const RepOptions& o) {
  Rep rep;
  Tracer* const tr = o.tracer;
  const std::int64_t s0 = now_ns();
  ServeSession s(w, o.seed, o.workers, o.discard_completed, tr != nullptr);
  rep.setup_s = seconds_between(s0, now_ns());

  const double epoch = online_options().epoch;
  const bool paced = w.paced_per_s > 0.0;
  // Open loop: trace time maps to wall time at paced_per_s arrivals/s.
  const double ns_per_unit = paced ? 1e9 * w.rate / w.paced_per_s : 0.0;
  std::vector<std::int64_t> due;          // per arrival (open loop)
  std::vector<std::int64_t> batch_start;  // per batch (open loop)
  std::vector<std::int64_t> batch_first;  // arrivals decided before it
  rep.latency_ms.reserve(static_cast<std::size_t>(w.size));

  const double cpu0 = process_cpu_s();
  const std::int64_t t0 = now_ns();
  const std::int32_t root = tr != nullptr ? tr->open("rep", -1, t0) : -1;
  auto due_ns = [&](double t) {
    return t0 + static_cast<std::int64_t>(t * ns_per_unit);
  };
  auto pull = [&]() -> std::optional<Flow> {
    if (tr == nullptr) return s.stream.next();
    const std::int64_t a = now_ns();
    std::optional<Flow> f = s.stream.next();
    tr->add("stream.next", root, a, now_ns());
    return f;
  };

  // The service's pull-with-holdback epoch batching (run_online_stream's
  // loop): the first arrival past the window closes the batch and opens
  // the next one.
  std::optional<Flow> pending = pull();
  std::vector<Flow> batch;
  std::int64_t verify_ns = 0;
  std::int64_t event_ns = 0;
  const std::int64_t third = w.size / 3;
  while (pending.has_value()) {
    const double now = pending->release;
    batch.clear();
    batch.push_back(*pending);
    pending.reset();
    while (std::optional<Flow> next = pull()) {
      if (next->release <= now + epoch) {
        batch.push_back(*next);
      } else {
        pending = std::move(next);
        break;
      }
    }

    std::int64_t window_close = 0;
    if (paced) {
      // The batch for [now, now + epoch] is complete only once the
      // window's end is due.
      window_close = due_ns(now + epoch);
      const std::int64_t a = now_ns();
      if (a < window_close) {
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(window_close)));
        if (tr != nullptr) tr->add("wait", root, a, now_ns());
      }
      batch_first.push_back(static_cast<std::int64_t>(due.size()));
      for (const Flow& f : batch) due.push_back(due_ns(f.release));
    }

    Tracer::Counters before;
    std::int64_t completed_before = 0;
    if (tr != nullptr) {
      before = result_counters(s.sched.result());
      completed_before = s.sched.completed();
    }
    const std::int64_t e0 = now_ns();
    s.sched.process_batch(now, batch);
    const std::int64_t e1 = now_ns();
    event_ns += e1 - e0;
    if (tr != nullptr) {
      tr->add("event", root, e0, e1,
              event_counters(before, s.sched, completed_before, batch.size()));
    }
    if (paced) {
      batch_start.push_back(e0);
      for (const Flow& f : batch) {
        const std::int64_t d = due_ns(f.release);
        rep.latency_ms.push_back(ms_between(d, e1));
        rep.window_wait_ms.push_back(ms_between(d, std::max(d, window_close)));
        rep.queue_wait_ms.push_back(
            ms_between(window_close, std::max(window_close, e0)));
      }
    } else {
      rep.latency_ms.insert(rep.latency_ms.end(), batch.size(),
                            ms_between(e0, e1));
    }

    // Outside-in check of this event's admissions.
    const std::int64_t v0 = now_ns();
    s.verifier.advance(now);
    const OnlineResult& r = s.sched.result();
    const auto base = static_cast<std::size_t>(s.sched.arrivals()) - batch.size();
    for (std::size_t k = 0; k < batch.size(); ++k) {
      if (r.admitted[base + k]) {
        s.verifier.add(batch[k], r.schedule.flows[base + k]);
      }
    }
    const std::int64_t v1 = now_ns();
    verify_ns += v1 - v0;
    if (tr != nullptr) tr->add("verify", root, v0, v1);
    if (rep.rss_third_b == 0 && s.sched.arrivals() >= third) {
      rep.rss_third_b = current_rss_bytes();
    }
  }

  const std::int64_t r0 = now_ns();
  OnlineResult result = s.sched.take_result();
  const std::int64_t t1 = now_ns();
  if (tr != nullptr) {
    tr->add("take_result", root, r0, t1,
            {{"pruned", static_cast<double>(result.load_segments_pruned)}});
    tr->close(root, t1);
  }
  rep.cpu_s = process_cpu_s() - cpu0;
  rep.rss_end_b = current_rss_bytes();
  rep.loop_s = seconds_between(t0, t1);
  rep.verify_s = static_cast<double>(verify_ns) * 1e-9;
  rep.event_s = static_cast<double>(event_ns) * 1e-9;
  rep.ops = result.num_admitted + result.num_rejected;
  rep.admitted = result.num_admitted;

  for (std::size_t b = 0; b < batch_start.size(); ++b) {
    const auto due_by_start = static_cast<std::int64_t>(
        std::upper_bound(due.begin(), due.end(), batch_start[b]) - due.begin());
    rep.backlog_max = std::max(rep.backlog_max, due_by_start - batch_first[b]);
  }

  finish_checks(rep, s.verifier);
  if (rep.ops != w.size && rep.problem.empty()) {
    rep.problem = "admitted + rejected != arrivals offered";
  }
  if (result.rerate_commits != 0 && rep.problem.empty()) {
    rep.problem = "re-rating committed; the verifier assumes final rows";
  }
  if (s.verifier.rows() != rep.admitted && rep.problem.empty()) {
    rep.problem = "verifier saw a different admitted count";
  }
  rep.peak_live_segments = result.peak_live_segments;
  if (o.final_result != nullptr) *o.final_result = std::move(result);
  return rep;
}

Rep run_flat(const Workload& w, const RepOptions& o) {
  Rep rep;
  Tracer* const tr = o.tracer;
  const std::int64_t s0 = now_ns();
  const engine::Instance inst = build_instance(w, o.seed);
  Rng rng = engine::solver_rng(inst, "dcfsr");
  const Graph& g = inst.graph();
  const std::vector<Flow>& flows = inst.flows();
  Verifier verifier(g, inst.model(), tr != nullptr);
  rep.setup_s = seconds_between(s0, now_ns());

  const double cpu0 = process_cpu_s();
  const std::int64_t t0 = now_ns();
  const std::int32_t root = tr != nullptr ? tr->open("rep", -1, t0) : -1;
  OnlineResult r = online_dcfsr(g, flows, inst.model(), rng, online_options());
  const std::int64_t t_solved = now_ns();
  if (tr != nullptr) {
    Tracer::Counters c = result_counters(r);
    c.emplace_back("events", r.num_events);
    c.emplace_back("arrivals", static_cast<double>(flows.size()));
    c.emplace_back("pruned", static_cast<double>(r.load_segments_pruned));
    tr->add("flat.online_dcfsr", root, t0, t_solved, std::move(c));
  }
  auto [sub_flows, sub_schedule] = admitted_subset(flows, r.schedule, r.admitted);
  const ReplayReport replay =
      replay_schedule(g, sub_flows, sub_schedule, inst.model());
  const std::int64_t t_replayed = now_ns();
  if (tr != nullptr) tr->add("replay", root, t_solved, t_replayed);

  for (std::size_t i = 0; i < flows.size(); ++i) {
    if (r.admitted[i]) verifier.add(flows[i], r.schedule.flows[i]);
  }
  const std::int64_t t1 = now_ns();
  if (tr != nullptr) {
    tr->add("verify", root, t_replayed, t1);
    tr->close(root, t1);
  }
  rep.cpu_s = process_cpu_s() - cpu0;
  rep.loop_s = seconds_between(t0, t1);
  rep.verify_s = seconds_between(t_replayed, t1);
  rep.ops = static_cast<std::int64_t>(flows.size());
  rep.admitted = r.num_admitted;
  rep.latency_ms.assign(flows.size(), ms_between(t0, t_replayed));

  rep.peak_live_segments = r.peak_live_segments;

  finish_checks(rep, verifier);
  check_replay(rep, replay);
  if (r.rerate_commits != 0 && rep.problem.empty()) {
    rep.problem = "re-rating committed; the verifier assumes final rows";
  }
  return rep;
}

Rep run_offline(const Workload& w, const RepOptions& o) {
  Rep rep;
  Tracer* const tr = o.tracer;
  const std::int64_t s0 = now_ns();
  const engine::Instance inst = build_instance(w, o.seed);
  Rng rng = engine::solver_rng(inst, "dcfsr");
  const Graph& g = inst.graph();
  const std::vector<Flow>& flows = inst.flows();
  const PowerModel& model = inst.model();
  Verifier verifier(g, model, tr != nullptr);
  rep.setup_s = seconds_between(s0, now_ns());

  const double cpu0 = process_cpu_s();
  const std::int64_t t0 = now_ns();
  const std::int32_t root = tr != nullptr ? tr->open("rep", -1, t0) : -1;
  Schedule schedule;
  bool solver_ok = true;
  std::int64_t t_solved = 0;
  if (w.kind == Kind::kOfflineDcfsr) {
    // random_schedule's exact body, one span per stage.
    const RandomScheduleOptions options = dcfsr_options();
    const FractionalRelaxation relax =
        solve_relaxation(g, flows, model, options.relaxation);
    const std::int64_t t_relaxed = now_ns();
    RandomScheduleResult r =
        round_relaxation(g, flows, model, relax, rng, options);
    t_solved = now_ns();
    if (tr != nullptr) {
      Tracer::Counters c = fw_counters(relax.fw_stats, relax.total_fw_iterations);
      c.emplace_back("resolves", 1.0);
      c.emplace_back("events", 1.0);
      c.emplace_back("arrivals", static_cast<double>(flows.size()));
      tr->add("offline.relax", root, t0, t_relaxed, std::move(c));
      tr->add("offline.round", root, t_relaxed, t_solved,
              {{"draws", r.rounding_attempts},
               {"admitted", r.capacity_feasible
                                ? static_cast<double>(flows.size())
                                : 0.0}});
    }
    solver_ok = r.capacity_feasible;
    rep.lower_bound = relax.lower_bound_energy;
    schedule = std::move(r.schedule);
  } else {
    // Paper-literal availability (the registry's mcf_paper): the default
    // circuit-exact mode leaves a flow without segments on about 0.16% of
    // fat_tree8/paper instances, and a benchmark input must not fail.
    DcfsOptions options;
    options.circuit_exact = false;
    const std::vector<Path> paths = shortest_path_routing(g, flows);
    const std::int64_t t_routed = now_ns();
    DcfsResult r = most_critical_first(g, flows, paths, model, options);
    t_solved = now_ns();
    if (tr != nullptr) {
      tr->add("offline.route", root, t0, t_routed,
              {{"events", 1.0}, {"arrivals", static_cast<double>(flows.size())}});
      tr->add("offline.mcf", root, t_routed, t_solved,
              {{"mcf_iterations", r.iterations},
               {"admitted", static_cast<double>(flows.size())}});
    }
    schedule = std::move(r.schedule);
  }
  const ReplayReport replay = replay_schedule(g, flows, schedule, model);
  const std::int64_t t_replayed = now_ns();
  if (tr != nullptr) tr->add("replay", root, t_solved, t_replayed);

  for (std::size_t i = 0; i < flows.size(); ++i) {
    verifier.add(flows[i], schedule.flows[i]);
  }
  const std::int64_t t1 = now_ns();
  if (tr != nullptr) {
    tr->add("verify", root, t_replayed, t1);
    tr->close(root, t1);
  }
  rep.cpu_s = process_cpu_s() - cpu0;
  rep.loop_s = seconds_between(t0, t1);
  rep.verify_s = seconds_between(t_replayed, t1);
  rep.ops = static_cast<std::int64_t>(flows.size());
  rep.admitted = solver_ok && replay.ok ? rep.ops : 0;
  rep.latency_ms.assign(flows.size(), ms_between(t0, t_replayed));

  finish_checks(rep, verifier);
  if (!solver_ok && rep.problem.empty()) {
    rep.problem = "no capacity-feasible rounding within the attempt budget";
  }
  check_replay(rep, replay);
  return rep;
}

}  // namespace

const std::vector<Workload>& workloads() {
  // A run cycles through `inputs` seeded inputs, whole cycles only, so
  // every run weighs each input equally and the quality metrics are a
  // fixed function of the seed. One closed-loop input takes 0.04-0.6 s on
  // a 4-core host; serve_paced's size is set from --seconds by the runner.
  static const std::vector<Workload> table = {
      {"serve_light", Kind::kServe, "fat_tree8/poisson", 2.0, kInf, 4, 2000, 0.0},
      {"serve_contended", Kind::kServe, "fat_tree8/poisson", 8.0, 3.0, 4, 1500, 0.0},
      {"serve_heavytail", Kind::kServe, "fat_tree8/hadoop", 8.0, 3.0, 4, 1500, 0.0},
      {"serve_paced", Kind::kServe, "fat_tree8/poisson", 8.0, 3.0, 4, 2000, 1000.0},
      {"batch_flat", Kind::kFlat, "fat_tree8/poisson", 8.0, 3.0, 6, 120, 0.0},
      {"offline_dcfsr", Kind::kOfflineDcfsr, "fat_tree8/paper", 0.0, kInf, 16, 40, 0.0},
      {"offline_mcf", Kind::kOfflineMcf, "fat_tree8/paper", 0.0, kInf, 32, 150, 0.0},
  };
  return table;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::uint64_t input_seed(std::uint64_t run_seed, std::int32_t i) {
  return mix_seed(run_seed, "benchmark-input-" + std::to_string(i));
}

SizeModel size_model_of(std::string_view spec) {
  if (spec.ends_with("/hadoop")) return SizeModel::kHadoop;
  if (spec.ends_with("/websearch")) return SizeModel::kWebSearch;
  return SizeModel::kFixed;
}

engine::ScenarioOptions scenario_options(const Workload& w) {
  engine::ScenarioOptions o;
  o.num_flows = static_cast<std::int32_t>(w.size);
  if (w.rate > 0.0) o.arrival_rate = w.rate;
  o.capacity = w.capacity;
  return o;
}

OnlineOptions online_options() {
  OnlineOptions options;
  options.rounding = dcfsr_options();
  options.lookahead_window = 2.0;
  options.epoch = 0.5;
  return options;
}

RandomScheduleOptions dcfsr_options() {
  RandomScheduleOptions options;
  options.relaxation.frank_wolfe.max_iterations = 12;
  options.relaxation.frank_wolfe.gap_tolerance = 1e-3;
  return options;
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::int64_t current_rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::int64_t size = 0;
  std::int64_t resident = 0;
  if (!(statm >> size >> resident)) return 0;
  return resident * static_cast<std::int64_t>(sysconf(_SC_PAGESIZE));
}

double peak_rss_mb() {
  // VmHWM, not getrusage: ru_maxrss survives exec, so it would report
  // the forking parent's footprint when that is larger.
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      status >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(
      p * static_cast<double>(xs.size() - 1) + 0.5);
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(k),
                   xs.end());
  return xs[k];
}

double median(std::vector<double> xs) { return percentile(std::move(xs), 0.5); }

std::int32_t Tracer::open(const char* name, std::int32_t parent,
                          std::int64_t start) {
  spans_.push_back({name, parent, start, start, {}});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void Tracer::close(std::int32_t id, std::int64_t end, Counters counters) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end = end;
  s.counters = std::move(counters);
}

std::int32_t Tracer::add(const char* name, std::int32_t parent,
                         std::int64_t start, std::int64_t end,
                         Counters counters) {
  spans_.push_back({name, parent, start, end, std::move(counters)});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void Tracer::write(std::FILE* out) const {
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"id\":%zu,\"parent\":%d,\"name\":\"%s\",\"start\":%lld,"
                 "\"end\":%lld,\"c\":{",
                 i, s.parent, s.name, static_cast<long long>(s.start),
                 static_cast<long long>(s.end));
    for (std::size_t k = 0; k < s.counters.size(); ++k) {
      std::fprintf(out, "%s\"%s\":%.17g", k == 0 ? "" : ",",
                   s.counters[k].first, s.counters[k].second);
    }
    std::fputs("}}\n", out);
  }
}

Verifier::Verifier(const Graph& g, const PowerModel& model, bool time_probes)
    : g_(g), model_(model), index_(g.num_edges()), time_probes_(time_probes) {}

void Verifier::fail(const Flow& flow, const char* what) {
  ++violations_;
  if (first_problem_.empty()) {
    first_problem_ = "flow " + std::to_string(flow.id) + ": " + what;
  }
}

bool Verifier::add(const Flow& flow, const FlowSchedule& row) {
  ++rows_;
  volume_ += flow.volume;
  isolated_ += flow.span().measure() * model_.f(flow.density());
  const std::int64_t before = violations_;
  if (row.path.empty() || !is_valid_path(g_, row.path) ||
      row.path.src != flow.src || row.path.dst != flow.dst) {
    fail(flow, "invalid path");
    return false;
  }
  auto timed = [this](ProbeTime& t, auto&& probe) {
    if (!time_probes_) return probe();
    const std::int64_t a = now_ns();
    auto result = probe();
    t.ns += now_ns() - a;
    ++t.calls;
    return result;
  };

  const double time_tol = kTol * std::max(1.0, flow.deadline - flow.release);
  double delivered = 0.0;
  std::vector<const RateSegment*> added;
  for (const RateSegment& seg : row.segments) {
    if (seg.interval.empty() || !(seg.rate > 0.0)) {
      fail(flow, "degenerate segment");
      continue;
    }
    if (seg.interval.lo < flow.release - time_tol ||
        seg.interval.hi > flow.deadline + time_tol) {
      fail(flow, "transmission outside the span");
      continue;
    }
    delivered += seg.rate * seg.interval.measure();
    for (const EdgeId e : row.path.edges) {
      energy_ += timed(marginal_, [&] {
        return index_.marginal_energy(e, seg.interval, seg.rate, model_);
      });
      timed(add_, [&] {
        index_.add(e, seg.interval, seg.rate);
        return 0;
      });
    }
    added.push_back(&seg);
  }
  if (std::fabs(delivered - flow.volume) > kTol * std::max(1.0, flow.volume)) {
    fail(flow, "delivered volume differs from the flow's");
  }
  // Probed at infinite capacity too, so every workload times the probe.
  const double limit = model_.capacity() * (1.0 + kTol);
  for (const RateSegment* seg : added) {
    for (const EdgeId e : row.path.edges) {
      const double peak = timed(max_within_, [&] {
        return index_.max_within(e, seg->interval);
      });
      if (peak > limit) {
        fail(flow, "link over capacity");
        return false;
      }
    }
  }
  return violations_ == before;
}

Rep run_rep(const Workload& w, const RepOptions& options) {
  switch (w.kind) {
    case Kind::kServe:
      return run_serve(w, options);
    case Kind::kFlat:
      return run_flat(w, options);
    case Kind::kOfflineDcfsr:
    case Kind::kOfflineMcf:
      return run_offline(w, options);
  }
  throw std::logic_error("unknown workload kind");
}

}  // namespace dcn::perf
