#include "messaging/supervision.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace kmsg::messaging {

PhiAccrualDetector::PhiAccrualDetector(PhiConfig config)
    : config_(config), intervals_(static_cast<std::size_t>(config.window), 0.0) {}

void PhiAccrualDetector::reset(TimePoint now) {
  std::fill(intervals_.begin(), intervals_.end(), 0.0);
  next_ = 0;
  count_ = 0;
  sum_ = 0.0;
  sum_sq_ = 0.0;
  last_ = now;
  anchored_ = true;
  penalty_ = 0.0;
}

void PhiAccrualDetector::heartbeat(TimePoint now) {
  if (anchored_) {
    // Cap the sample so one long outage absorbed by recovery does not skew
    // the interval statistics for the rest of the run.
    const double sample = std::min((now - last_).as_seconds(),
                                   config_.acceptable_pause.as_seconds());
    const double evicted = intervals_[static_cast<std::size_t>(next_)];
    if (count_ == config_.window) {
      sum_ -= evicted;
      sum_sq_ -= evicted * evicted;
    } else {
      ++count_;
    }
    intervals_[static_cast<std::size_t>(next_)] = sample;
    sum_ += sample;
    sum_sq_ += sample * sample;
    next_ = (next_ + 1) % config_.window;
  } else {
    anchored_ = true;
  }
  last_ = now;
  penalty_ = 0.0;
}

double PhiAccrualDetector::mean_interval_seconds() const {
  // Assumed mean interval until enough samples arrive.
  constexpr Duration kBootstrapInterval = Duration::millis(200);
  if (count_ < 2) return kBootstrapInterval.as_seconds();
  return sum_ / count_;
}

double PhiAccrualDetector::phi(TimePoint now) const {
  if (!anchored_) return std::min(penalty_, kPhiCap);
  const double elapsed = (now - last_).as_seconds();
  const double mean =
      mean_interval_seconds() + config_.acceptable_pause.as_seconds();
  double variance = 0.0;
  if (count_ >= 2) {
    variance = std::max(0.0, sum_sq_ / count_ - (sum_ / count_) * (sum_ / count_));
  }
  // Floor on the interval standard deviation; keeps phi from exploding on a
  // metronomic heartbeat stream.
  constexpr Duration kMinStd = Duration::millis(100);
  const double std_floor = kMinStd.as_seconds();
  const double stddev = std::max(std::sqrt(variance), std_floor);
  const double z = (elapsed - mean) / stddev;
  // Tail probability under the normal model; erfc keeps precision deep into
  // the tail where 1 - cdf would cancel to zero.
  const double tail = 0.5 * std::erfc(z / std::numbers::sqrt2);
  double score = penalty_;
  if (tail <= 1e-32) {
    score += kPhiCap;
  } else {
    score += -std::log10(tail);
  }
  return std::clamp(score, 0.0, kPhiCap);
}

void register_supervision_serializers(SerializerRegistry& registry) {
  if (registry.knows(kHeartbeatTypeId)) return;
  registry.register_type(
      kHeartbeatTypeId,
      [](const Msg& m, wire::ByteBuf& buf) {
        const auto& hb = static_cast<const HeartbeatMsg&>(m);
        buf.write_u8(hb.request() ? 1 : 0);
        buf.write_varint(hb.seq());
      },
      [](const BasicHeader& h, wire::ByteBuf& buf) -> MsgPtr {
        const bool request = buf.read_u8() != 0;
        const auto seq = buf.read_varint();
        return kompics::make_event<HeartbeatMsg>(h, request, seq);
      });
  registry.register_type(
      kSessionHelloTypeId,
      [](const Msg& m, wire::ByteBuf& buf) {
        const auto& hello = static_cast<const SessionHelloMsg&>(m);
        buf.write_varint(hello.incarnation());
      },
      [](const BasicHeader& h, wire::ByteBuf& buf) -> MsgPtr {
        return kompics::make_event<SessionHelloMsg>(h, buf.read_varint());
      });
  registry.register_type(
      kDeltaResetTypeId,
      [](const Msg& m, wire::ByteBuf& buf) {
        const auto& reset = static_cast<const DeltaResetMsg&>(m);
        buf.write_varint(reset.reset_type_id());
      },
      [](const BasicHeader& h, wire::ByteBuf& buf) -> MsgPtr {
        return kompics::make_event<DeltaResetMsg>(
            h, static_cast<std::uint32_t>(buf.read_varint()));
      });
}

}  // namespace kmsg::messaging
