// The benchmark harness: workload table, set-up, the timed loops that
// call into the scheduler's public API, the outside-in verifier, and the
// span recorder. Shared by the runner (runner.cc) and the drift-guard
// self-tests (selftest.cc), so the self-tests check the exact loop the
// runner times.
//
// Everything here sits outside src/: the harness times the calls it
// makes into each layer's public functions and never reads the
// program's own latency vector.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "dcfsr/random_schedule.h"
#include "engine/scenario.h"
#include "graph/graph.h"
#include "online/load_index.h"
#include "online/online_scheduler.h"
#include "power/power_model.h"
#include "schedule/schedule.h"

namespace dcn::perf {

enum class Kind {
  kServe,         // sharded service fed from an EventStream
  kFlat,          // online_dcfsr over a materialized trace
  kOfflineDcfsr,  // Algorithm 2: solve_relaxation + round_relaxation
  kOfflineMcf,    // Algorithm 1 as printed: shortest_path_routing +
                  // most_critical_first with paper-literal availability
};

struct Workload {
  const char* name;
  Kind kind;
  const char* spec;       // "<topology>/<workload>" scenario
  double rate;            // Poisson arrivals per trace-time unit
  double capacity;        // link capacity
  std::int32_t inputs;    // distinct seeded inputs a run cycles through
  std::int64_t size;      // arrivals (serve, flat) or flows (offline) per input
  double paced_per_s;     // open-loop arrivals per wall second; 0 = closed loop
};

/// The benchmark's workload table (see README.md for why each exists).
[[nodiscard]] const std::vector<Workload>& workloads();
/// nullptr for unknown names.
[[nodiscard]] const Workload* find_workload(std::string_view name);
/// The scenario seed of a run's i-th input: independent streams per
/// (run seed, i), so runs with different seeds share no input.
[[nodiscard]] std::uint64_t input_seed(std::uint64_t run_seed, std::int32_t i);
/// The scenario knobs and arrival-size model of a workload's inputs.
[[nodiscard]] engine::ScenarioOptions scenario_options(const Workload& w);
[[nodiscard]] SizeModel size_model_of(std::string_view spec);

/// The registered online_dcfsr_flat / online_dcfsr_sharded options
/// (calibrated 12 / 1e-3 Frank-Wolfe budget, window 2, epoch 0.5). The
/// self-tests compare against the registry, so drift fails them.
[[nodiscard]] OnlineOptions online_options();
/// The registered dcfsr options.
[[nodiscard]] RandomScheduleOptions dcfsr_options();

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
[[nodiscard]] double process_cpu_s();
[[nodiscard]] std::int64_t current_rss_bytes();
[[nodiscard]] double peak_rss_mb();

/// Nearest-rank percentile (the repo's convention), p in [0, 1].
[[nodiscard]] double percentile(std::vector<double> xs, double p);
[[nodiscard]] double median(std::vector<double> xs);

/// In-memory span recorder. A span is a call the harness made into one
/// layer; counters are deltas read at the span's boundaries.
class Tracer {
 public:
  using Counters = std::vector<std::pair<const char*, double>>;

  /// Opens a span and returns its id.
  std::int32_t open(const char* name, std::int32_t parent, std::int64_t start);
  void close(std::int32_t id, std::int64_t end, Counters counters = {});
  /// Records a closed span in one call.
  std::int32_t add(const char* name, std::int32_t parent, std::int64_t start,
                   std::int64_t end, Counters counters = {});
  /// One JSON object per line: id, parent, name, start, end, counters.
  void write(std::FILE* out) const;

 private:
  struct Span {
    const char* name;
    std::int32_t parent;
    std::int64_t start;
    std::int64_t end;
    Counters counters;
  };
  std::vector<Span> spans_;
};

/// Summed wall time and call count of one verifier-index probe kind.
struct ProbeTime {
  std::int64_t ns = 0;
  std::int64_t calls = 0;
};

/// Outside-in verifier: replays each admitted row into a benchmark-owned
/// EdgeLoadIndex and checks path, span, delivered volume and link
/// capacity. Phi_f accumulates as the marginal energy of each segment
/// before it is added, which telescopes to the replayed dynamic energy
/// (sigma = 0 in every workload). Assumes committed rows are final, so
/// re-rating must be off.
///
/// It also sums each admitted flow's isolated energy |S_i| f(D_i): what
/// the flow would draw alone on one link at its density. Energy over
/// that sum cancels most of how much a seeded input's short-span,
/// high-density flows weigh, which dominates raw energy per volume.
class Verifier {
 public:
  Verifier(const Graph& g, const PowerModel& model, bool time_probes = false);

  /// Prunes the index before `now` (serve loops, at each event).
  void advance(double now) { index_.advance_low_water(now); }
  /// Checks and commits one admitted row. False on any violation.
  bool add(const Flow& flow, const FlowSchedule& row);

  [[nodiscard]] double energy() const { return energy_; }
  [[nodiscard]] double isolated_energy() const { return isolated_; }
  [[nodiscard]] double volume() const { return volume_; }
  [[nodiscard]] std::int64_t rows() const { return rows_; }
  [[nodiscard]] std::int64_t violations() const { return violations_; }
  [[nodiscard]] const std::string& first_problem() const { return first_problem_; }
  [[nodiscard]] const ProbeTime& add_time() const { return add_; }
  [[nodiscard]] const ProbeTime& max_within_time() const { return max_within_; }
  [[nodiscard]] const ProbeTime& marginal_time() const { return marginal_; }

 private:
  void fail(const Flow& flow, const char* what);

  const Graph& g_;
  const PowerModel& model_;
  EdgeLoadIndex index_;
  bool time_probes_;
  double energy_ = 0.0;
  double isolated_ = 0.0;
  double volume_ = 0.0;
  std::int64_t rows_ = 0;
  std::int64_t violations_ = 0;
  std::string first_problem_;
  ProbeTime add_;
  ProbeTime max_within_;
  ProbeTime marginal_;
};

/// What one repetition of a workload measured.
struct Rep {
  /// Wall time to build the inputs and program objects: the topology,
  /// shard plan, stream, scheduler with its lane pool and the verifier's
  /// index (serve), or the instance and the verifier (flat, offline).
  double setup_s = 0.0;
  double loop_s = 0.0;    // wall of the timed loop (serve) or the op plus checks
  double verify_s = 0.0;  // the verifier's share of loop_s
  double event_s = 0.0;   // summed process_batch wall (serve)
  double cpu_s = 0.0;     // process CPU over loop_s
  std::int64_t ops = 0;   // arrivals offered or flows scheduled
  std::int64_t admitted = 0;
  std::int64_t invalid = 0;  // rows the checks rejected
  double energy = 0.0;       // verifier Phi_f
  double isolated = 0.0;     // summed isolated energy of the admitted flows
  double volume = 0.0;       // admitted volume
  std::string problem;       // first check failure ("" when clean)
  /// Per-op latency, ms: decision latency (closed loop: the wall time of
  /// the call that decided the op), sojourn (open loop: from the op's due
  /// time to the end of that call).
  std::vector<double> latency_ms;
  std::int32_t peak_live_segments = 0;  // the program's load index (serve, flat)
  // Open loop only.
  std::vector<double> window_wait_ms;
  std::vector<double> queue_wait_ms;
  std::int64_t backlog_max = 0;
  // Serve only: current RSS a third of the way in and at the end.
  std::int64_t rss_third_b = 0;
  std::int64_t rss_end_b = 0;
  double lower_bound = 0.0;  // relaxation LB (offline_dcfsr)
  ProbeTime probe_add;
  ProbeTime probe_max_within;
  ProbeTime probe_marginal;
};

struct RepOptions {
  std::uint64_t seed = 101;
  std::int32_t workers = 1;
  /// Serve only: the service default drops completed rows; the
  /// self-tests turn it off to compare whole schedules.
  bool discard_completed = true;
  Tracer* tracer = nullptr;
  /// Serve only: when non-null, receives the take_result() schedule.
  OnlineResult* final_result = nullptr;
};

/// Runs one repetition: set-up, the timed op(s), the checks.
[[nodiscard]] Rep run_rep(const Workload& w, const RepOptions& options);

}  // namespace dcn::perf
