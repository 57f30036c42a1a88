// Port types: the "service specifications" of Kompics.
//
// A port type declares which event types may travel in each direction:
// *indications* flow from the providing component to requiring components,
// *requests* flow the other way. Subtypes of a declared event type are
// admitted too (checked via RTTI), mirroring Kompics' type-hierarchy
// semantics. Example:
//
//   struct Network : PortType {
//     Network() {
//       request<Msg>();
//       request<MessageNotifyReq>();
//       indication<Msg>();
//       indication<MessageNotifyResp>();
//     }
//   };
//
// The dynamic_cast matcher walk runs once per (port type, event type id):
// the verdict is memoized in a small atomic table keyed by the dense event
// type id stamped by make_event, so trigger-time validation on the hot path
// is one relaxed load. Events without a type id (not from make_event) and
// ids beyond the table fall back to the full walk.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <typeinfo>
#include <vector>

#include "kompics/event.hpp"

namespace kmsg::kompics {

class PortType {
 public:
  virtual ~PortType() = default;

  bool allows_indication(const KompicsEvent& ev) const {
    return allows(ev, indications_, ind_memo_);
  }
  bool allows_request(const KompicsEvent& ev) const {
    return allows(ev, requests_, req_memo_);
  }

  const std::string& name() const { return name_; }

 protected:
  PortType() = default;

  template <typename E>
  void indication() {
    indications_.push_back(
        [](const KompicsEvent& ev) { return dynamic_cast<const E*>(&ev) != nullptr; });
  }
  template <typename E>
  void request() {
    requests_.push_back(
        [](const KompicsEvent& ev) { return dynamic_cast<const E*>(&ev) != nullptr; });
  }
  void set_name(std::string n) { name_ = std::move(n); }

 private:
  using Matcher = std::function<bool(const KompicsEvent&)>;

  static constexpr std::size_t kMemoSlots = 256;
  // 0 = not yet checked, 1 = allowed, 2 = denied. Racing writers store the
  // same verdict (the matcher walk is deterministic per type id), so plain
  // relaxed atomics suffice.
  using Memo = std::atomic<std::uint8_t>[kMemoSlots];

  bool allows(const KompicsEvent& ev, const std::vector<Matcher>& matchers,
              Memo& memo) const {
    const std::uint16_t tid = ev.event_type();
    if (tid != kEventTypeUnknown && tid < kMemoSlots) {
      switch (memo[tid].load(std::memory_order_relaxed)) {
        case 1: return true;
        case 2: return false;
        default: break;
      }
      const bool ok = walk(ev, matchers);
      memo[tid].store(ok ? 1 : 2, std::memory_order_relaxed);
      return ok;
    }
    return walk(ev, matchers);
  }

  static bool walk(const KompicsEvent& ev, const std::vector<Matcher>& matchers) {
    for (const auto& m : matchers) {
      if (m(ev)) return true;
    }
    return false;
  }

  std::vector<Matcher> indications_;
  std::vector<Matcher> requests_;
  mutable Memo ind_memo_{};
  mutable Memo req_memo_{};
  std::string name_ = "port";
};

/// Canonical instance of a port type (port types are stateless descriptors).
template <typename P>
const P& port_type() {
  static const P instance{};
  return instance;
}

/// The implicit control port every component has: lifecycle requests flow to
/// the component, lifecycle notifications flow out of it.
struct ControlPort : PortType {
  ControlPort() {
    set_name("control");
    request<Start>();
    request<Stop>();
    request<Kill>();
    indication<Killed>();
  }
};

}  // namespace kmsg::kompics
