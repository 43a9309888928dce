// Adaptive load shedding: closing the loop between measured throughput and
// the Bernoulli shed rate p.
//
// The paper's motivating scenario for sketching Bernoulli samples is load
// shedding (§VI-A): when the system cannot keep up, drop tuples at rate 1-p
// and answer with the provable error of Props 13/14 (Eqs 25/26). A fixed p
// assumes the operator knows the overload factor in advance; production
// systems do not (SALSA and friends adapt continuously). The ShedController
// closes the loop: the engine reports per-window (offered, kept) counts,
// the controller compares kept against the sink's capacity budget and
// retargets p — proportionally down under overload, additively up when
// headroom returns (AIMD-style, so rate recovery probes gently while
// overload reacts within one window).
//
// Honesty under adaptation: once p varies across windows, the nominal p is
// meaningless to the estimator. The controller records the realized counts;
// RealizedSelfJoinEstimate / RealizedJoinEstimate apply the Prop 13/14
// corrections at the realized rate p̂ = kept/offered, and
// RealizedSelfJoinInterval widens the confidence interval per Eq 26
// evaluated at p̂ — graceful degradation with honest error bars.
#ifndef SKETCHSAMPLE_STREAM_SHED_CONTROLLER_H_
#define SKETCHSAMPLE_STREAM_SHED_CONTROLLER_H_

#include <cstddef>
#include <cstdint>

#include "src/core/confidence.h"
#include "src/data/frequency_vector.h"

namespace sketchsample {

/// Tuning knobs for the adaptive controller.
struct ShedControllerOptions {
  /// Starting shed rate.
  double initial_p = 1.0;
  /// p is clamped to [min_p, max_p]. min_p > 0 keeps the estimator alive
  /// (p == 0 sheds everything and no correction can recover the answer).
  double min_p = 0.05;
  double max_p = 1.0;
  /// Kept-tuple budget per window the sink can absorb. Deterministic
  /// control signal — what the tests and checkpoint-exactness rely on.
  double capacity_per_window = 0.0;
  /// Wall-clock alternative: when capacity_per_window is 0 and this is set,
  /// the engine passes target_tps × measured-window-seconds as the
  /// capacity, discounted by the window's ring stalls
  /// (src/stream/shard_engine.h). Inherently nondeterministic; bit-exact
  /// resume is only guaranteed in the fixed-budget mode.
  double target_tps = 0.0;
  /// Probe p upward only when kept falls below headroom × capacity, so the
  /// controller does not oscillate around the budget.
  double headroom = 0.9;
  /// Additive step for upward probing.
  double increase_step = 0.05;
  /// Window length in tuples; the engine ticks OnWindow at multiples of
  /// this many offered tuples.
  uint64_t window_tuples = 8192;
};

/// Closed-loop controller over the shed rate. Deterministic: the next p is
/// a pure function of the observed counts, so replaying a stream replays
/// the exact p trajectory (which is what makes checkpoint resume bit-exact).
class ShedController {
 public:
  /// Serializable controller state for checkpoint/resume.
  struct State {
    double p = 1.0;
    double backlog = 0.0;
    uint64_t windows = 0;
    uint64_t offered = 0;
    uint64_t kept = 0;
  };

  explicit ShedController(const ShedControllerOptions& options);

  /// Reports one completed window using options.capacity_per_window as the
  /// sink budget. Returns the p to apply for the next window.
  double OnWindow(uint64_t offered, uint64_t kept);

  /// Reports one completed window against an explicit capacity (e.g.
  /// target_tps × measured window seconds for wall-clock control). A
  /// capacity <= 0 leaves p untouched (no signal, no reaction).
  double OnWindow(uint64_t offered, uint64_t kept, double capacity);

  double p() const { return state_.p; }
  uint64_t windows() const { return state_.windows; }
  uint64_t total_offered() const { return state_.offered; }
  uint64_t total_kept() const { return state_.kept; }
  /// Unserved kept-tuple backlog carried across windows (tuples the sink
  /// has admitted beyond its cumulative budget).
  double backlog() const { return state_.backlog; }
  /// Realized sampling rate over the whole run: kept/offered. Falls back to
  /// the current p before the first window closes.
  double RealizedRate() const;

  const ShedControllerOptions& options() const { return options_; }
  State SaveState() const { return state_; }
  void RestoreState(const State& state) { state_ = state; }

 private:
  ShedControllerOptions options_;
  State state_;
};

/// Prop 14 self-join correction applied at the realized rate:
///   X = raw/p̂² − (1−p̂)/p̂² · kept.
/// `raw` is the sketch's uncorrected self-join estimate of the kept stream.
double RealizedSelfJoinEstimate(double raw, double realized_p, uint64_t kept);

/// Prop 13 join correction at the realized rates: X = raw/(p̂·q̂).
double RealizedJoinEstimate(double raw, double realized_p,
                            double realized_q);

/// CLT confidence interval around an adaptive-run self-join estimate, with
/// the variance of Eq 26 (Prop 14) evaluated at the realized rate p̂ and n
/// averaged basic estimators (for F-AGMS, n = buckets). `stats` are the
/// moments of the original, pre-shedding frequency vector — known in
/// experiments, estimated in production.
ConfidenceInterval RealizedSelfJoinInterval(double estimate,
                                            const JoinStatistics& stats,
                                            double realized_p, size_t n,
                                            double level);

/// Same for the size-of-join estimate, with Eq 25 (Prop 13) variance.
ConfidenceInterval RealizedJoinInterval(double estimate,
                                        const JoinStatistics& stats,
                                        double realized_p, double realized_q,
                                        size_t n, double level);

}  // namespace sketchsample

#endif  // SKETCHSAMPLE_STREAM_SHED_CONTROLLER_H_
