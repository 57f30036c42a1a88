// Protocol Ratio Policies (paper §IV-C): decide the *target* TCP/UDT ratio
// a data flow should aim for, re-evaluated once per learning episode.
//
//  - StaticRatio: fixed target (TCP-only / UDT-only / any mix); the paper's
//    testing and reference policy.
//  - TDRatioLearner: the Sarsa(λ) learner over the κ-discretised ratio axis
//    with the three value-function variants of §IV-C3..C5 (full Q-matrix,
//    model-based V(s), and V(s) with quadratic approximation).
#pragma once

#include <functional>
#include <memory>

#include "adaptive/ratio.hpp"
#include "common/time.hpp"
#include "rl/sarsa.hpp"

namespace kmsg::adaptive {

/// Observations collected over one learning episode for one data flow.
struct EpisodeStats {
  Duration length = Duration::seconds(1.0);
  std::uint64_t bytes_acked = 0;     ///< end-to-end acknowledged payload bytes
  std::uint64_t messages_released = 0;
  double throughput_bps = 0.0;       ///< bytes_acked / length, bytes per second
  double avg_rtt_ms = 0.0;           ///< 0 when no latency probe ran
};

class ProtocolRatioPolicy {
 public:
  virtual ~ProtocolRatioPolicy() = default;
  /// Called once when the flow starts; returns the initial target
  /// probability of UDT.
  virtual double begin(double initial_prob_udt) = 0;
  /// Called at each episode end with that episode's stats; returns the
  /// target UDT probability for the next episode.
  virtual double update(const EpisodeStats& stats) = 0;
  /// Restricts the achievable UDT probability to [lo, hi] — the interceptor
  /// clamps the range while a transport is blacklisted so the learner's
  /// rewards are attributed to the mix actually on the wire, not to a ratio
  /// it could not execute. {0, 1} lifts the restriction. Default: ignored.
  virtual void set_bounds(double lo, double hi) {
    (void)lo;
    (void)hi;
  }
  virtual const char* name() const = 0;
};

class StaticRatio final : public ProtocolRatioPolicy {
 public:
  explicit StaticRatio(double prob_udt) : p_(prob_udt) {}
  double begin(double) override { return p_; }
  double update(const EpisodeStats&) override { return p_; }
  const char* name() const override { return "static"; }

 private:
  double p_;
};

enum class VfKind {
  kMatrix,      ///< full Q(s,a) matrix (paper Fig. 4)
  kModel,       ///< V(s) + additive model M(s,a) (paper Fig. 5)
  kQuadApprox,  ///< model + quadratic value approximation (paper Fig. 6)
};

struct TDRatioConfig {
  rl::SarsaConfig sarsa;
  VfKind vf = VfKind::kQuadApprox;
  /// Number of discrete ratio states (odd); 11 gives the paper's κ = 1/5.
  int n_states = 11;
  /// Action offsets in state steps; the paper allows up to two steps.
  std::vector<int> action_offsets = {-2, -1, 0, 1, 2};
  /// Optional latency penalty per ms of average probe RTT.
  double latency_penalty_per_ms = 0.0;

  // --- Non-stationarity handling (extension beyond the paper) ---
  // The paper's learner anneals ε once; after a late environment change
  // (e.g. an RTT jump) it would exploit stale values for a long time. When
  // the episode reward stays below `change_ratio` x the best reward seen
  // for `change_episodes` consecutive episodes, exploration is re-opened to
  // `change_eps` and the reward watermark is reset. Set change_episodes = 0
  // to disable (paper-exact behaviour).
  int change_episodes = 5;
  double change_ratio = 0.4;
  double change_eps = 0.6;
};

/// Paper defaults for the matrix learner run (Fig. 4):
/// α=.5, γ=.5, λ=.85, ε: .8 → .1, Δε=.01.
TDRatioConfig matrix_learner_defaults();
/// Fig. 5/6 runs lower εmax to 0.3 to avoid post-convergence exploration.
TDRatioConfig model_learner_defaults(VfKind vf = VfKind::kModel);

class TDRatioLearner final : public ProtocolRatioPolicy {
 public:
  TDRatioLearner(TDRatioConfig config, Rng rng);

  double begin(double initial_prob_udt) override;
  double update(const EpisodeStats& stats) override;
  void set_bounds(double lo, double hi) override;
  const char* name() const override { return "td"; }

  double epsilon() const { return sarsa_->epsilon(); }
  const rl::SarsaLambda& sarsa() const { return *sarsa_; }
  const RatioGrid& grid() const { return grid_; }
  /// The ratio state whose reward the next update() observes.
  int pending_state() const { return pending_state_; }

 private:
  double reward_of(const EpisodeStats& stats) const;
  /// Snaps pending_state_ into the bounded range and returns its probability.
  double clamp_pending();

  TDRatioConfig config_;
  RatioGrid grid_;
  rl::AdditiveModel model_;
  std::unique_ptr<rl::SarsaLambda> sarsa_;
  int pending_state_ = 0;  // state (ratio) being executed this episode
  double lo_bound_ = 0.0;  // blacklist clamp on the achievable UDT prob
  double hi_bound_ = 1.0;
  bool begun_ = false;
  double best_reward_ = 0.0;   // watermark for change detection
  int low_reward_streak_ = 0;
};

enum class PrpKind { kStatic, kTdMatrix, kTdModel, kTdQuadApprox };

std::unique_ptr<ProtocolRatioPolicy> make_prp(PrpKind kind, double static_prob,
                                              Rng rng);

}  // namespace kmsg::adaptive
