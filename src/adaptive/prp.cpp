#include "adaptive/prp.hpp"

#include <algorithm>

namespace kmsg::adaptive {

TDRatioConfig matrix_learner_defaults() {
  TDRatioConfig cfg;
  cfg.vf = VfKind::kMatrix;
  cfg.sarsa.alpha = 0.5;
  cfg.sarsa.gamma = 0.5;
  cfg.sarsa.lambda = 0.85;
  cfg.sarsa.eps_max = 0.8;
  cfg.sarsa.eps_min = 0.1;
  cfg.sarsa.eps_decay = 0.01;
  return cfg;
}

TDRatioConfig model_learner_defaults(VfKind vf) {
  TDRatioConfig cfg = matrix_learner_defaults();
  cfg.vf = vf;
  // Lower initial exploration: the model makes greedy decisions viable much
  // earlier, and εmax = 0.3 avoids post-convergence thrash (paper §IV-C4).
  cfg.sarsa.eps_max = 0.3;
  return cfg;
}

namespace {

std::unique_ptr<rl::ValueFunction> make_vf(const TDRatioConfig& cfg,
                                           const rl::AdditiveModel& model) {
  switch (cfg.vf) {
    case VfKind::kMatrix:
      return std::make_unique<rl::QMatrix>(cfg.n_states,
                                           static_cast<int>(cfg.action_offsets.size()));
    case VfKind::kModel:
      return std::make_unique<rl::ModelV>(model);
    case VfKind::kQuadApprox:
      return std::make_unique<rl::QuadApproxV>(model);
  }
  return nullptr;
}

}  // namespace

TDRatioLearner::TDRatioLearner(TDRatioConfig config, Rng rng)
    : config_(std::move(config)),
      grid_(config_.n_states),
      model_(config_.n_states, config_.action_offsets) {
  sarsa_ = std::make_unique<rl::SarsaLambda>(make_vf(config_, model_),
                                             config_.sarsa, rng);
}

double TDRatioLearner::reward_of(const EpisodeStats& stats) const {
  // Throughput that earns a reward of 1.0: 100 MB/s.
  constexpr double kRewardScaleBps = 100e6;
  double r = stats.throughput_bps / kRewardScaleBps;
  if (config_.latency_penalty_per_ms > 0.0 && stats.avg_rtt_ms > 0.0) {
    r -= config_.latency_penalty_per_ms * stats.avg_rtt_ms;
  }
  return r;
}

double TDRatioLearner::clamp_pending() {
  const double prob = grid_.state_to_prob(pending_state_);
  const double clamped = std::clamp(prob, lo_bound_, hi_bound_);
  if (clamped != prob) pending_state_ = grid_.prob_to_state(clamped);
  return grid_.state_to_prob(pending_state_);
}

void TDRatioLearner::set_bounds(double lo, double hi) {
  lo_bound_ = std::clamp(lo, 0.0, 1.0);
  hi_bound_ = std::clamp(hi, lo_bound_, 1.0);
  // The executing state must track the clamp immediately: the next update()
  // attributes its reward to pending_state_, which must be the ratio the
  // flow is actually running.
  if (begun_) clamp_pending();
}

double TDRatioLearner::begin(double initial_prob_udt) {
  const int s0 = grid_.prob_to_state(initial_prob_udt);
  const int a0 = sarsa_->begin(s0);
  pending_state_ = model_.next_state(s0, a0);
  begun_ = true;
  return clamp_pending();
}

double TDRatioLearner::update(const EpisodeStats& stats) {
  if (!begun_) return begin(0.5);
  const double reward = reward_of(stats);

  // Non-stationarity detection: a sustained reward collapse relative to the
  // best level this flow has achieved re-opens exploration so the learner
  // migrates instead of exploiting stale values (see TDRatioConfig).
  if (config_.change_episodes > 0) {
    if (reward > best_reward_) {
      best_reward_ = reward;
      low_reward_streak_ = 0;
    } else if (best_reward_ > 0.0 &&
               reward < config_.change_ratio * best_reward_) {
      if (++low_reward_streak_ >= config_.change_episodes) {
        sarsa_->boost_epsilon(config_.change_eps);
        best_reward_ = reward;  // reset the watermark to the new regime
        low_reward_streak_ = 0;
      }
    } else {
      low_reward_streak_ = 0;
    }
  }

  const int a = sarsa_->step(reward, pending_state_);
  pending_state_ = model_.next_state(pending_state_, a);
  return clamp_pending();
}

std::unique_ptr<ProtocolRatioPolicy> make_prp(PrpKind kind, double static_prob,
                                              Rng rng) {
  switch (kind) {
    case PrpKind::kStatic:
      return std::make_unique<StaticRatio>(static_prob);
    case PrpKind::kTdMatrix:
      return std::make_unique<TDRatioLearner>(matrix_learner_defaults(), rng);
    case PrpKind::kTdModel:
      return std::make_unique<TDRatioLearner>(
          model_learner_defaults(VfKind::kModel), rng);
    case PrpKind::kTdQuadApprox:
      return std::make_unique<TDRatioLearner>(
          model_learner_defaults(VfKind::kQuadApprox), rng);
  }
  return nullptr;
}

}  // namespace kmsg::adaptive
