// benchmark_runner — runs one benchmark workload for a wall-time budget
// and prints one JSON object on stdout. run.py builds and calls it; see
// README.md.
//
//   benchmark_runner --workload serve_contended --seed 101 --seconds 10
//                    [--trace-out FILE]
//
// The serve workloads run min(4, usable CPUs) workers; the JSON reports
// the count.
//
// A run cycles through the workload's seeded inputs, whole cycles only,
// until the budget is spent (at least one cycle). Untraced (no
// --trace-out): reports the end-to-end metrics, speed and p50 as medians
// over repetitions, p99 as a median over cycles, quality over the first
// cycle, set-up time as a median over repetitions. Traced: each untraced
// cycle is followed by a traced one (their wall-time ratio is the
// tracing overhead); the first traced cycle's spans go to FILE after one
// meta line, and run.py derives the per-layer metrics from that file.
// A traced serve run also runs one long input first (RSS growth) and
// input 0 at 1 worker last (pool speed-up).
//
// Exit status: 0 when every check passed, 1 when a check failed, 2 on
// bad arguments.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"

namespace {

using dcn::perf::Kind;
using dcn::perf::Rep;
using dcn::perf::RepOptions;
using dcn::perf::Workload;

/// The long input of a traced serve run is this many times the
/// workload's size, so that RSS growth is read past start-up.
constexpr std::int64_t kMemoryFactor = 8;

struct Args {
  std::string workload;
  std::uint64_t seed = 101;
  double seconds = 10.0;
  std::string trace_out;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace-out") {
      a.trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0.0;
}

/// Serve workers: min(4, the CPUs this process may run on).
std::int32_t workers() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int usable =
      sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 1;
  return std::clamp(usable, 1, 4);
}

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kServe:
      return "serve";
    case Kind::kFlat:
      return "flat";
    case Kind::kOfflineDcfsr:
      return "offline_dcfsr";
    case Kind::kOfflineMcf:
      return "offline_mcf";
  }
  return "?";
}

/// A run of consecutive repetitions, usually one cycle (every input once).
using Reps = std::span<const Rep>;

template <typename Fn>
double sum_of(Reps reps, Fn&& fn) {
  double s = 0.0;
  for (const Rep& r : reps) s += fn(r);
  return s;
}

double per(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

std::vector<double> pooled(Reps reps, std::vector<double> Rep::*field) {
  std::vector<double> out;
  for (const Rep& r : reps) {
    out.insert(out.end(), (r.*field).begin(), (r.*field).end());
  }
  return out;
}

/// Median over whole cycles of a per-cycle value: robust to a slow
/// stretch of the host inside one run.
template <typename Fn>
double median_over_cycles(const std::vector<Rep>& reps, std::size_t inputs,
                          Fn&& per_cycle) {
  std::vector<double> xs;
  for (std::size_t c = 0; c + inputs <= reps.size(); c += inputs) {
    xs.push_back(per_cycle(Reps(reps).subspan(c, inputs)));
  }
  return dcn::perf::median(std::move(xs));
}

double ops(const Rep& r) { return static_cast<double>(r.ops); }
double timed_s(const Rep& r) { return r.loop_s - r.verify_s; }

double mean(const std::vector<double>& xs) {
  double s = 0.0;
  for (const double x : xs) s += x;
  return per(s, static_cast<double>(xs.size()));
}

/// The first failed check: any repetition's own checks, or a repetition
/// that decided differently from the first run of the same input.
std::string first_problem(const std::vector<Rep>& reps, std::size_t inputs) {
  for (std::size_t j = 0; j < reps.size(); ++j) {
    const Rep& r = reps[j];
    const Rep& ref = reps[j % inputs];
    if (!r.problem.empty()) return r.problem;
    if (r.invalid != 0) return "invalid rows";
    if (r.admitted != ref.admitted || r.energy != ref.energy ||
        r.volume != ref.volume) {
      return "repetitions of the same input decided differently";
    }
  }
  return "";
}

void print_json_string(const std::string& s) {
  std::putchar('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    if (static_cast<unsigned char>(c) >= 0x20) std::putchar(c);
  }
  std::putchar('"');
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: benchmark_runner --workload NAME --seed N --seconds S "
                 "[--trace-out FILE]\n");
    return 2;
  }
  const Workload* found = dcn::perf::find_workload(args.workload);
  if (found == nullptr) {
    std::fprintf(stderr, "benchmark_runner: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  Workload w = *found;
  const auto inputs = static_cast<std::size_t>(w.inputs);
  if (w.paced_per_s > 0.0) {
    // One open-loop cycle fills most of the budget.
    w.size = std::max<std::int64_t>(
        3000 / w.inputs,
        std::llround(0.8 * args.seconds * w.paced_per_s / w.inputs));
  }
  std::vector<std::uint64_t> seeds;
  for (std::int32_t i = 0; i < w.inputs; ++i) {
    seeds.push_back(dcn::perf::input_seed(args.seed, i));
  }
  const bool traced = !args.trace_out.empty();
  const std::int32_t serve_workers = workers();

  std::vector<Rep> reps;         // untraced, cycle after cycle
  std::vector<Rep> traced_reps;  // traced, same order
  dcn::perf::Tracer tracer;      // the first traced cycle's spans
  std::vector<Rep> one_worker;   // input 0 at 1 worker (traced serve runs)
  std::vector<Rep> memory;       // one long input (traced serve runs)
  std::string problem;
  std::int64_t failed = 0;
  try {
    const std::int64_t start = dcn::perf::now_ns();
    if (traced && w.kind == Kind::kServe) {
      // Per-arrival RSS growth, on a closed-loop input kMemoryFactor times
      // the workload's size, first in the process like a fresh service.
      Workload long_input = w;
      long_input.size *= kMemoryFactor;
      long_input.paced_per_s = 0.0;
      memory.push_back(dcn::perf::run_rep(long_input, {seeds[0], serve_workers}));
    }
    for (bool first = true;; first = false) {
      const std::int64_t a = dcn::perf::now_ns();
      for (const std::uint64_t seed : seeds) {
        reps.push_back(dcn::perf::run_rep(w, {seed, serve_workers}));
      }
      if (traced) {
        for (const std::uint64_t seed : seeds) {
          dcn::perf::Tracer dropped;
          RepOptions o{seed, serve_workers};
          o.tracer = first ? &tracer : &dropped;
          traced_reps.push_back(dcn::perf::run_rep(w, o));
        }
      }
      const std::int64_t b = dcn::perf::now_ns();
      if (static_cast<double>(2 * b - start - a) * 1e-9 > args.seconds) break;
    }
    if (traced && w.kind == Kind::kServe) {
      one_worker.push_back(dcn::perf::run_rep(w, {seeds[0], 1}));
    }
  } catch (const std::exception& e) {
    problem = std::string("exception: ") + e.what();
    failed += w.size;
  }

  std::vector<Rep> all = reps;
  all.insert(all.end(), traced_reps.begin(), traced_reps.end());
  std::int64_t attempted = 0;
  for (const std::vector<Rep>* group : {&all, &one_worker, &memory}) {
    for (const Rep& r : *group) {
      attempted += r.ops;
      failed += r.invalid;
    }
  }
  if (problem.empty() && reps.size() < inputs) problem = "no full cycle ran";
  if (problem.empty()) problem = first_problem(all, inputs);
  if (problem.empty() && !one_worker.empty() &&
      (one_worker[0].admitted != reps[0].admitted ||
       one_worker[0].energy != reps[0].energy)) {
    problem = "1 worker decided differently from " +
              std::to_string(serve_workers);
  }
  if (problem.empty() && !memory.empty()) {
    problem = first_problem(memory, 1);
  }
  const bool correct = problem.empty();

  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"workers\":%d,\"nproc\":%u,"
              "\"cycles\":%zu,\"correct\":%s,\"problem\":",
              w.name, static_cast<unsigned long long>(args.seed), serve_workers,
              std::thread::hardware_concurrency(), reps.size() / inputs,
              correct ? "true" : "false");
  print_json_string(problem);
  std::printf(",\"attempted\":%lld,\"failed\":%lld,\"metrics\":{",
              static_cast<long long>(std::max<std::int64_t>(attempted, 1)),
              static_cast<long long>(failed));
  const Reps first_cycle = Reps(reps).first(std::min(inputs, reps.size()));
  if (correct && !traced) {
    // Speed and set-up as medians over repetitions (every input equally
    // often, sampled throughout the run), the tail as a median over
    // cycles, quality over the first cycle.
    std::vector<double> setups;
    std::vector<double> rates;
    std::vector<double> p50s;
    for (const Rep& r : reps) {
      setups.push_back(r.setup_s);
      rates.push_back(ops(r) / timed_s(r));
      p50s.push_back(dcn::perf::percentile(r.latency_ms, 0.50));
    }
    const double p99 = median_over_cycles(reps, inputs, [](Reps c) {
      return dcn::perf::percentile(pooled(c, &Rep::latency_ms), 0.99);
    });
    const double admitted = sum_of(first_cycle, [](const Rep& r) {
      return static_cast<double>(r.admitted);
    });
    const double energy =
        sum_of(first_cycle, [](const Rep& r) { return r.energy; });
    const double isolated =
        sum_of(first_cycle, [](const Rep& r) { return r.isolated; });
    std::printf(
        "\"setup_s\":%.17g,\"ops_per_s\":%.17g,\"latency_p50_ms\":%.17g,"
        "\"latency_p99_ms\":%.17g,\"admit_frac\":%.17g,"
        "\"energy_over_isolated\":%.17g,\"peak_rss_mb\":%.17g",
        dcn::perf::median(setups), dcn::perf::median(rates),
        dcn::perf::median(p50s), p99, admitted / sum_of(first_cycle, ops),
        energy / isolated, dcn::perf::peak_rss_mb());
  }
  std::printf("}}\n");
  std::fflush(stdout);

  if (correct && traced) {
    std::FILE* out = std::fopen(args.trace_out.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "benchmark_runner: cannot write %s\n",
                   args.trace_out.c_str());
      return 1;
    }
    const Reps traced_cycle = Reps(traced_reps).first(inputs);
    auto probe = [&](dcn::perf::ProbeTime Rep::*field) {
      double ns = 0.0;
      double calls = 0.0;
      for (const Rep& r : traced_cycle) {
        ns += static_cast<double>((r.*field).ns);
        calls += static_cast<double>((r.*field).calls);
      }
      return per(ns, calls);
    };
    std::vector<double> input0_event_s;
    for (std::size_t j = 0; j < reps.size(); j += inputs) {
      input0_event_s.push_back(reps[j].event_s);
    }
    std::int32_t peak_live = 0;
    std::int64_t backlog_max = 0;
    for (const Rep& r : first_cycle) {
      peak_live = std::max(peak_live, r.peak_live_segments);
      backlog_max = std::max(backlog_max, r.backlog_max);
    }
    auto rss_growth = [](const Rep& r) {
      const auto third = static_cast<double>(r.ops / 3);
      return static_cast<double>(r.rss_end_b - r.rss_third_b) /
             (static_cast<double>(r.ops) - third);
    };
    const std::vector<double> latency = pooled(reps, &Rep::latency_ms);
    auto loop_s = [](const Rep& r) { return r.loop_s; };
    std::fprintf(
        out,
        "{\"meta\":true,\"workload\":\"%s\",\"kind\":\"%s\",\"workers\":%d,"
        "\"untraced_loop_s\":%.17g,\"traced_loop_s\":%.17g,"
        "\"traced_cpu_s\":%.17g,\"cpu_util\":%.17g,\"event_s\":%.17g,"
        "\"event_s_1w\":%.17g,\"decision_p999_ms\":%.17g,"
        "\"add_ns\":%.17g,\"max_within_ns\":%.17g,\"marginal_ns\":%.17g,"
        "\"rss_growth_b_per_arrival\":%.17g,\"window_wait_mean_ms\":%.17g,"
        "\"queue_wait_mean_ms\":%.17g,\"sojourn_mean_ms\":%.17g,"
        "\"backlog_max\":%lld,\"peak_live_segments\":%d,"
        "\"energy_over_lb\":%.17g}\n",
        w.name, kind_name(w.kind), serve_workers, sum_of(reps, loop_s),
        sum_of(traced_reps, loop_s),
        sum_of(traced_cycle, [](const Rep& r) { return r.cpu_s; }),
        sum_of(reps, [](const Rep& r) { return r.cpu_s; }) / sum_of(reps, loop_s),
        dcn::perf::median(input0_event_s),
        one_worker.empty() ? 0.0 : one_worker[0].event_s,
        dcn::perf::percentile(latency, 0.999), probe(&Rep::probe_add),
        probe(&Rep::probe_max_within), probe(&Rep::probe_marginal),
        memory.empty() ? 0.0 : rss_growth(memory[0]),
        mean(pooled(first_cycle, &Rep::window_wait_ms)),
        mean(pooled(first_cycle, &Rep::queue_wait_ms)),
        w.paced_per_s > 0.0 ? mean(pooled(first_cycle, &Rep::latency_ms)) : 0.0,
        static_cast<long long>(backlog_max), peak_live,
        per(sum_of(first_cycle, [](const Rep& r) { return r.energy; }),
            sum_of(first_cycle, [](const Rep& r) { return r.lower_bound; })));
    tracer.write(out);
    std::fclose(out);
  }
  return correct ? 0 : 1;
}
