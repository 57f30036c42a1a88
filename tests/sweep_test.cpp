// Parameterised property sweeps across the public messaging API: payload
// sizes from empty to multi-MTU, crossed with every transport, must round
// trip unmodified; the serialisation envelope must be stable across sizes.
#include <gtest/gtest.h>

#include "apps/experiment.hpp"
#include "apps/messages.hpp"

namespace kmsg::messaging {
namespace {

using apps::DataChunkMsg;

struct SweepParam {
  std::size_t payload_bytes;
  Transport transport;
};

class PayloadSweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(PayloadSweepTest, RoundTripsUnmodified) {
  const auto [bytes, transport] = GetParam();

  apps::ExperimentConfig cfg;
  cfg.setup = netsim::Setup::kEuVpc;
  apps::TwoNodeExperiment exp(cfg);

  class Catcher final : public kompics::ComponentDefinition {
   public:
    void setup() override {
      net_ = &require<Network>();
      subscribe_ptr<Msg>(*net_, [this](MsgPtr m) { got.push_back(std::move(m)); });
    }
    kompics::PortInstance& network() { return *net_; }
    std::vector<MsgPtr> got;

   private:
    kompics::PortInstance* net_ = nullptr;
  };
  auto& sender = exp.system().create<Catcher>("sender");
  auto& receiver = exp.system().create<Catcher>("receiver");
  exp.connect_a(sender.network());
  exp.connect_b(receiver.network());
  exp.start();

  DataHeader h{exp.addr_a(), exp.addr_b(), transport};
  sender.network().publish(kompics::make_event<DataChunkMsg>(
      h, 1, 12345, apps::make_payload_slice(12345, bytes), true));
  exp.run_for(Duration::seconds(3.0));

  ASSERT_EQ(receiver.got.size(), 1u);
  const auto* chunk = dynamic_cast<const DataChunkMsg*>(receiver.got[0].get());
  ASSERT_NE(chunk, nullptr);
  EXPECT_EQ(chunk->bytes().size(), bytes);
  EXPECT_TRUE(apps::verify_payload(12345, chunk->bytes()));
  EXPECT_EQ(chunk->offset(), 12345u);
  EXPECT_EQ(chunk->header().protocol(), transport);
  EXPECT_TRUE(chunk->last());
}

std::string sweep_name(const ::testing::TestParamInfo<SweepParam>& info) {
  return std::string(to_string(info.param.transport)) + "_" +
         std::to_string(info.param.payload_bytes) + "b";
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndTransports, PayloadSweepTest,
    ::testing::Values(
        // Empty and tiny payloads.
        SweepParam{0, Transport::kTcp}, SweepParam{0, Transport::kUdt},
        SweepParam{0, Transport::kUdp}, SweepParam{1, Transport::kTcp},
        SweepParam{1, Transport::kUdp},
        // Exactly one MTU payload and just past it (fragmentation edges).
        SweepParam{8928, Transport::kTcp}, SweepParam{8928, Transport::kUdp},
        SweepParam{8929, Transport::kUdp}, SweepParam{8929, Transport::kUdt},
        // The paper's 65 kB message size, per transport.
        SweepParam{65000, Transport::kTcp}, SweepParam{65000, Transport::kUdt},
        SweepParam{65000, Transport::kUdp},
        // Larger-than-64k (multi-frame stream / multi-fragment datagram).
        SweepParam{200000, Transport::kTcp},
        SweepParam{200000, Transport::kUdt}),
    sweep_name);

class CompressionSweepTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CompressionSweepTest, PipelineRoundTripWithCompression) {
  const std::size_t bytes = GetParam();
  apps::ExperimentConfig cfg;
  cfg.setup = netsim::Setup::kEuVpc;
  cfg.net.enable_compression = true;  // the paper's default Snappy handler
  apps::TwoNodeExperiment exp(cfg);

  class Catcher final : public kompics::ComponentDefinition {
   public:
    void setup() override {
      net_ = &require<Network>();
      subscribe_ptr<Msg>(*net_, [this](MsgPtr m) { got.push_back(std::move(m)); });
    }
    kompics::PortInstance& network() { return *net_; }
    std::vector<MsgPtr> got;

   private:
    kompics::PortInstance* net_ = nullptr;
  };
  auto& sender = exp.system().create<Catcher>("sender");
  auto& receiver = exp.system().create<Catcher>("receiver");
  exp.connect_a(sender.network());
  exp.connect_b(receiver.network());
  exp.start();

  // Compressible payload: repeated phrase.
  std::vector<std::uint8_t> payload;
  while (payload.size() < bytes) {
    const char* phrase = "kompics messaging snappy pipeline ";
    for (const char* c = phrase; *c != '\0' && payload.size() < bytes; ++c) {
      payload.push_back(static_cast<std::uint8_t>(*c));
    }
  }
  DataHeader h{exp.addr_a(), exp.addr_b(), Transport::kTcp};
  sender.network().publish(kompics::make_event<DataChunkMsg>(
      h, 1, 0, wire::BufSlice::copy_of(payload), true));
  exp.run_for(Duration::seconds(2.0));

  ASSERT_EQ(receiver.got.size(), 1u);
  const auto* chunk = dynamic_cast<const DataChunkMsg*>(receiver.got[0].get());
  ASSERT_NE(chunk, nullptr);
  EXPECT_EQ(std::vector<std::uint8_t>(chunk->bytes().begin(),
                                      chunk->bytes().end()),
            payload);
  // Compressible traffic must actually shrink on the wire: total bytes the
  // forward link carried (handshake + frames + acks) stays far below the
  // uncompressed payload size.
  if (bytes >= 65000) {
    const auto* link = exp.network().link(exp.addr_a().host, exp.addr_b().host);
    ASSERT_NE(link, nullptr);
    EXPECT_LT(link->stats().bytes_delivered, bytes / 2);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CompressionSweepTest,
                         ::testing::Values(64, 1024, 65000, 200000),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           return std::to_string(info.param) + "b";
                         });

}  // namespace
}  // namespace kmsg::messaging
