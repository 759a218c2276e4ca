#include "core/overlay/receiver.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "channel/awgn.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/units.h"
#include "dsp/ops.h"

namespace ms {
namespace {

struct PacketFixture {
  Bits productive;
  Bits tag;
  Iq capture;           ///< noise + packet + noise
  std::size_t packet_at;
};

PacketFixture make_capture(const OverlayReceiver& rx_chain, std::size_t n_seq,
                           std::size_t lead, std::size_t tail, double snr_db,
                           Rng& rng) {
  PacketFixture f;
  const OverlayCodec& codec = rx_chain.codec();
  f.productive = rng.bits(n_seq * codec.productive_bits_per_sequence());
  f.tag = rng.bits(codec.tag_capacity(n_seq));
  const Iq payload =
      codec.tag_modulate(codec.make_carrier(f.productive), f.tag);
  const Iq packet = rx_chain.assemble_packet(payload);

  const double noise_power =
      mean_power(std::span<const Cf>(packet)) / db_to_linear(snr_db);
  f.capture = complex_noise(lead, noise_power, rng);
  f.packet_at = lead;
  f.capture.insert(f.capture.end(), packet.begin(), packet.end());
  const Iq tail_noise = complex_noise(tail, noise_power, rng);
  f.capture.insert(f.capture.end(), tail_noise.begin(), tail_noise.end());
  // Noise over the packet region too.
  Rng noise_rng(rng());
  for (std::size_t i = f.packet_at; i < f.packet_at + packet.size(); ++i)
    f.capture[i] += Cf(
        static_cast<float>(noise_rng.normal(0.0, std::sqrt(noise_power / 2))),
        static_cast<float>(noise_rng.normal(0.0, std::sqrt(noise_power / 2))));
  return f;
}

class ReceiverSync : public ::testing::TestWithParam<Protocol> {};

TEST_P(ReceiverSync, FindsPacketInNoise) {
  Rng rng(7 + protocol_index(GetParam()));
  const OverlayReceiver rx(GetParam(),
                           mode_params(GetParam(), OverlayMode::Mode1));
  const PacketFixture f = make_capture(rx, 8, 500, 300, 15.0, rng);
  const auto sync = rx.synchronize(f.capture);
  ASSERT_TRUE(sync.has_value()) << protocol_name(GetParam());
  EXPECT_NEAR(static_cast<double>(sync->preamble_start),
              static_cast<double>(f.packet_at), 2.0);
  EXPECT_GT(sync->metric, 0.7);
}

TEST_P(ReceiverSync, DecodesBothStreamsAfterSync) {
  Rng rng(17 + protocol_index(GetParam()));
  const OverlayReceiver rx(GetParam(),
                           mode_params(GetParam(), OverlayMode::Mode1));
  const PacketFixture f = make_capture(rx, 10, 700, 200, 18.0, rng);
  const auto decoded = rx.receive(f.capture, 10);
  ASSERT_TRUE(decoded.has_value()) << protocol_name(GetParam());
  EXPECT_LT(bit_error_rate(f.productive, decoded->productive), 0.02);
  EXPECT_LT(bit_error_rate(f.tag, decoded->tag), 0.02);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, ReceiverSync,
                         ::testing::Values(Protocol::WifiB, Protocol::WifiN,
                                           Protocol::Ble, Protocol::Zigbee));

TEST(Receiver, PureNoiseReturnsNothing) {
  Rng rng(30);
  const OverlayReceiver rx(Protocol::Ble,
                           mode_params(Protocol::Ble, OverlayMode::Mode1));
  const Iq noise = complex_noise(4000, 1.0, rng);
  EXPECT_FALSE(rx.synchronize(noise).has_value());
  EXPECT_FALSE(rx.receive(noise, 4).has_value());
}

TEST(Receiver, SilentCaptureAtZeroThresholdReturnsNothing) {
  // No window passes the energy floor, so no offset has a metric at all;
  // a threshold at or below zero must not turn that into a packet at 0.
  const OverlayReceiver rx(Protocol::Zigbee,
                           mode_params(Protocol::Zigbee, OverlayMode::Mode1));
  const Iq silence(4000, Cf(0.0f, 0.0f));
  for (double min_metric : {0.0, -1.0}) {
    EXPECT_FALSE(rx.synchronize(silence, min_metric).has_value()) << min_metric;
    EXPECT_FALSE(rx.receive(silence, 4, min_metric).has_value()) << min_metric;
  }
}

TEST(Receiver, NonFiniteSampleIsNamedNotSkipped) {
  // One NaN at sample 100, well before a 20 dB packet at 500, used to
  // poison the running window energy for the rest of the capture, so
  // sync silently found nothing.  It is an error naming the sample.
  for (Protocol p : kAllProtocols) {
    Rng rng(40 + protocol_index(p));
    const OverlayReceiver rx(p, mode_params(p, OverlayMode::Mode1));
    PacketFixture f = make_capture(rx, 8, 500, 300, 20.0, rng);
    const auto clean = rx.synchronize(f.capture);
    ASSERT_TRUE(clean.has_value()) << protocol_name(p);
    EXPECT_EQ(clean->preamble_start, 500u) << protocol_name(p);
    f.capture[100] = Cf(std::numeric_limits<float>::quiet_NaN(), 0.0f);
    try {
      rx.synchronize(f.capture);
      ADD_FAILURE() << protocol_name(p) << ": no error for a NaN sample";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("sample 100 of"),
                std::string::npos)
          << e.what();
    }
    EXPECT_THROW(rx.receive(f.capture, 8), Error) << protocol_name(p);
  }
}

TEST(Receiver, TruncatedPayloadReturnsNothing) {
  Rng rng(31);
  const OverlayReceiver rx(Protocol::Ble,
                           mode_params(Protocol::Ble, OverlayMode::Mode1));
  const PacketFixture f = make_capture(rx, 8, 100, 0, 25.0, rng);
  // Cut the capture mid-payload: sync succeeds, decode must not.
  const std::size_t cut = f.packet_at + rx.preamble_samples() + 100;
  const std::span<const Cf> cut_view(f.capture.data(), cut);
  EXPECT_FALSE(rx.receive(cut_view, 8).has_value());
}

TEST(Receiver, ShortCaptureRejected) {
  const OverlayReceiver rx(Protocol::Zigbee,
                           mode_params(Protocol::Zigbee, OverlayMode::Mode1));
  const Iq tiny(10, Cf(1.0f, 0.0f));
  EXPECT_FALSE(rx.synchronize(tiny).has_value());
}

TEST(Receiver, AssembledPacketStartsWithPreamble) {
  const OverlayReceiver rx(Protocol::Ble,
                           mode_params(Protocol::Ble, OverlayMode::Mode1));
  const Iq payload(100, Cf(0.5f, 0.0f));
  const Iq pkt = rx.assemble_packet(payload);
  EXPECT_EQ(pkt.size(), rx.preamble_samples() + payload.size());
}

}  // namespace
}  // namespace ms
