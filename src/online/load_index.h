// The incremental per-edge load index of the online schedulers.
//
// One LoadProfile per edge holds the committed density segments of
// every admitted flow. The schedulers advance a global low-water mark —
// the earliest release among flows still in flight (and the current
// event time) — and the index prunes each edge's profile to it, so
// admission probes (`rate_fits`' max_within, `edf_fill`'s piece
// values, online_greedy's marginal-energy weights) cost O(log live +
// segments in span) regardless of how many flows ever committed.
//
// Audit mode (OnlineOptions::audit_load_index, used by the test
// sweeps) keeps a shadow of plain StepFunctions alongside and
// cross-checks every probe bitwise against the naive replay — the
// differential harness of the bitwise contract documented on
// LoadProfile. The shadows fold their own history at the same low-water
// mark (StepFunction::drop_before — the naive fold of the same prefix),
// so audit-on soaks stay memory-bounded without weakening the check:
// every probe the contract covers is at or after the mark.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "common/contracts.h"
#include "common/piecewise.h"
#include "graph/graph.h"
#include "power/power_model.h"

namespace dcn {

class EdgeLoadIndex {
 public:
  explicit EdgeLoadIndex(std::int32_t num_edges, bool audit = false);

  /// Adds `rate` over `iv` on edge e (one committed schedule segment).
  void add(EdgeId e, const Interval& iv, double rate);

  /// Removes `rate` over `iv` on edge e — the exact inverse of an
  /// earlier add, used by the re-rate pass (OnlineOptions::allow_rerate)
  /// to take a committed profile's future out of the index before
  /// committing its replacement (or restoring the original, when the
  /// commit barrier rejects the re-rating). A retraction is an add of
  /// -rate, so the difference representation — and the bitwise
  /// audit-shadow equality — is preserved by construction; a retract
  /// followed by re-adding the identical segment cancels exactly (the
  /// deltas sum to 0.0 at each breakpoint) and leaves every probe value
  /// bitwise unchanged. `iv.lo` must be at or after the low-water mark,
  /// which holds for any retraction of a live flow's future: the mark
  /// never passes the current event time.
  void retract(EdgeId e, const Interval& iv, double rate);

  /// Committed load on edge e at time t.
  [[nodiscard]] double value_at(EdgeId e, double t) const;

  /// Peak committed load on edge e inside `window`.
  [[nodiscard]] double max_within(EdgeId e, const Interval& window) const;

  /// Marginal energy of adding density `d` on edge e over `span`:
  /// integral of f(x + d) - f(x), stretches with x = 0 contributing
  /// f(d) — the windowed form of baselines.h's marginal_energy, reading
  /// only the span's merged segments instead of the whole profile.
  [[nodiscard]] double marginal_energy(EdgeId e, const Interval& span, double d,
                                       const PowerModel& model) const;

  /// Advances the low-water mark and prunes every edge's history
  /// strictly before it. No-op unless `t` advances the mark. After this
  /// call, probes and adds before `t` are out of contract.
  void advance_low_water(double t);

  /// Merged committed segments of edge e from the nearest run boundary
  /// at or before `from` (see LoadProfile::for_each_segment_from).
  template <typename Fn>
  void for_each_segment_from(EdgeId e, double from, Fn&& fn) const {
    profiles_[static_cast<std::size_t>(e)].for_each_segment_from(
        from, static_cast<Fn&&>(fn));
  }

  [[nodiscard]] std::int32_t num_edges() const {
    return static_cast<std::int32_t>(profiles_.size());
  }
  [[nodiscard]] double low_water() const { return low_water_; }
  /// Largest live-breakpoint count any edge ever held — the probe-cost
  /// working set the pruning invariant bounds (a bench_online column).
  [[nodiscard]] std::int32_t peak_live_segments() const { return peak_live_; }
  /// Total breakpoints pruned across all edges.
  [[nodiscard]] std::int64_t segments_pruned() const;

  /// The naive shadow profiles (audit mode only, nullptr otherwise) —
  /// lets edf_fill cross-check its fill against the reference
  /// implementation.
  [[nodiscard]] const std::vector<StepFunction>* shadow() const {
    return audit_ ? &shadow_ : nullptr;
  }

 private:
  [[nodiscard]] const LoadProfile& at(EdgeId e) const {
    return profiles_[static_cast<std::size_t>(e)];
  }

  std::vector<LoadProfile> profiles_;
  bool audit_ = false;
  std::vector<StepFunction> shadow_;  // audit mode only
  double low_water_ = -std::numeric_limits<double>::infinity();
  std::int32_t peak_live_ = 0;
};

}  // namespace dcn
