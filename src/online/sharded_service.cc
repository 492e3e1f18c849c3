// Entry points of the online scheduling engine: the flat scheduler
// (online_dcfsr — the engine over a single-group plan), the batch API
// (online_dcfsr_sharded — drop-in comparable with online_dcfsr) and the
// sustained-stream runner (run_online_stream — pulls from an
// EventStream, flushes periodic service stats, never materializes the
// trace). The engine itself lives in sharded.cc.
#include <optional>
#include <utility>

#include "common/contracts.h"
#include "common/stats.h"
#include "online/sharded.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace dcn {

std::int32_t ShardedScheduler::peak_live_segments() const {
  return load_.peak_live_segments();
}

std::int64_t ShardedScheduler::load_segments_pruned() const {
  return load_.segments_pruned();
}

std::int64_t peak_rss_kb() {
#if defined(__unix__) || defined(__APPLE__)
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return usage.ru_maxrss / 1024;  // reported in bytes on macOS
#else
  return usage.ru_maxrss;  // reported in KB on Linux
#endif
#else
  return 0;
#endif
}

namespace {

/// Pull-with-holdback epoch batching: a batch opens at its first arrival
/// (the event's decision point) and is closed by the first arrival past
/// `now + epoch`, held over as the next batch's opener — so a 100k-
/// arrival soak never materializes its trace. Calls `after_batch(now,
/// batch_size)` after each event; returns the last event time.
template <typename AfterBatch>
double feed_epochs(EventStream& stream, ShardedScheduler& sched, double epoch,
                   AfterBatch&& after_batch) {
  std::optional<Flow> pending = stream.next();
  std::vector<Flow> batch;
  double now = 0.0;
  while (pending.has_value()) {
    now = pending->release;
    batch.clear();
    batch.push_back(*pending);
    pending.reset();
    while (auto next = stream.next()) {
      DCN_EXPECTS(next->release >= now);
      if (next->release <= now + epoch) {
        batch.push_back(*next);
      } else {
        pending = std::move(next);
        break;
      }
    }
    sched.process_batch(now, batch);
    after_batch(now, batch.size());
  }
  return now;
}

}  // namespace

OnlineResult online_dcfsr(const Graph& g, const std::vector<Flow>& flows,
                          const PowerModel& model, Rng& rng,
                          const OnlineOptions& options) {
  return online_dcfsr_sharded(
      g, flows, model, rng, options,
      ShardPlan::single_group(g.num_nodes(), g.num_edges()), 1);
}

OnlineResult online_dcfsr_sharded(const Graph& g,
                                  const std::vector<Flow>& flows,
                                  const PowerModel& model, Rng& rng,
                                  const OnlineOptions& options,
                                  const ShardPlan& plan,
                                  std::int32_t workers) {
  validate_flows(g, flows);
  if (flows.empty()) return {};

  // A single lane (or a single source group, where sharding has nothing
  // to decompose) runs one group on the caller's own stream: "1 shard"
  // is the flat scheduler byte for byte. Otherwise one draw from the
  // caller's stream seeds every per-group stream (a deterministic mix
  // per group), whatever the shard, worker, or group count.
  std::optional<ShardPlan> single;
  if (plan.num_lanes() <= 1 || plan.num_groups() <= 1) {
    single = ShardPlan::single_group(g.num_nodes(), g.num_edges());
  }
  ShardedScheduler sched(g, model, options, single ? *single : plan,
                         single ? 0 : rng(), workers,
                         /*discard_completed=*/false);
  if (single) sched.group_rng(0) = rng;

  TraceEventStream stream(flows);
  feed_epochs(stream, sched, options.epoch, [](double, std::size_t) {});
  if (single) rng = sched.group_rng(0);

  // The engine's rows are in feed (release, id) order; put them back at
  // the caller's indices. Latencies stay in decision order.
  const std::vector<std::size_t> order = online_impl::arrival_order(flows);
  OnlineResult out = sched.take_result();
  std::vector<FlowSchedule> rows(flows.size());
  std::vector<bool> admitted(flows.size(), false);
  for (std::size_t k = 0; k < order.size(); ++k) {
    rows[order[k]] = std::move(out.schedule.flows[k]);
    admitted[order[k]] = out.admitted[k];
  }
  out.schedule.flows = std::move(rows);
  out.admitted = std::move(admitted);
  return out;
}

OnlineResult run_online_stream(
    const Graph& g, EventStream& stream, const PowerModel& model, Rng& rng,
    const OnlineOptions& options, const ShardPlan& plan, std::int32_t workers,
    std::int64_t flush_every,
    const std::function<void(const StreamFlushStats&)>& on_flush,
    bool discard_completed) {
  const std::uint64_t stream_seed = rng();
  ShardedScheduler sched(g, model, options, plan, stream_seed, workers,
                         discard_completed);

  auto flush = [&](double now) {
    if (!on_flush) return;
    const OnlineResult& r = sched.result();
    StreamFlushStats s;
    s.now = now;
    s.arrivals = sched.arrivals();
    s.admitted = r.num_admitted;
    s.rejected = r.num_rejected;
    s.completed = sched.completed();
    s.in_flight = sched.in_flight();
    s.resolves = r.resolves;
    if (!r.decision_latency_ms.empty()) {
      s.p50_ms = percentile(r.decision_latency_ms, 0.50);
      s.p99_ms = percentile(r.decision_latency_ms, 0.99);
    }
    s.peak_live_segments = sched.peak_live_segments();
    s.segments_pruned = sched.load_segments_pruned();
    s.peak_rss_kb = peak_rss_kb();
    on_flush(s);
  };

  std::int64_t since_flush = 0;
  const double now = feed_epochs(
      stream, sched, options.epoch, [&](double t, std::size_t batch_size) {
        since_flush += static_cast<std::int64_t>(batch_size);
        if (flush_every > 0 && since_flush >= flush_every) {
          flush(t);
          since_flush = 0;
        }
      });
  // Final flush, unless the periodic one just fired at this arrival.
  if (since_flush > 0 || sched.arrivals() == 0) flush(now);
  return sched.take_result();
}

}  // namespace dcn
