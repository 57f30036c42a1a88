// The chat message of the vnode-routing example (examples/vnode_routing.cpp):
// a text and an optional multi-hop route of relay vnodes. Its deserialiser
// reads a route of any length off the wire, so the decoder fuzz test
// (tests/decoder_fuzz_test.cpp) mutates chat messages too.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "messaging/msg.hpp"
#include "messaging/serialization.hpp"

namespace kmsg::apps {

inline constexpr std::uint32_t kChatTypeId = 0x40;

class ChatMsg final : public messaging::Msg {
 public:
  ChatMsg(messaging::BasicHeader h, std::string text,
          messaging::Route route = {})
      : header_(h), text_(std::move(text)), route_(std::move(route)) {}
  const messaging::Header& header() const override { return header_; }
  std::uint32_t type_id() const override { return kChatTypeId; }
  const std::string& text() const { return text_; }
  const messaging::Route& route() const { return route_; }
  const messaging::BasicHeader& basic_header() const { return header_; }

 private:
  messaging::BasicHeader header_;
  std::string text_;
  messaging::Route route_;  // remaining relay hops (vnode ids encoded as addresses)
};

inline void register_chat(messaging::SerializerRegistry& reg) {
  reg.register_type(
      kChatTypeId,
      [](const messaging::Msg& m, wire::ByteBuf& buf) {
        const auto& c = dynamic_cast<const ChatMsg&>(m);
        buf.write_string(c.text());
        buf.write_varint(c.route().hops().size());
        for (const auto& hop : c.route().hops()) hop.serialize(buf);
        buf.write_varint(c.route().next_index());
      },
      [](const messaging::BasicHeader& h,
         wire::ByteBuf& buf) -> messaging::MsgPtr {
        auto text = buf.read_string();
        const auto n = buf.read_varint();
        std::vector<messaging::Address> hops;
        for (std::uint64_t i = 0; i < n; ++i) {
          hops.push_back(messaging::Address::deserialize(buf));
        }
        const auto next = static_cast<std::size_t>(buf.read_varint());
        return kompics::make_event<ChatMsg>(
            h, std::move(text), messaging::Route{std::move(hops), next});
      });
}

}  // namespace kmsg::apps
