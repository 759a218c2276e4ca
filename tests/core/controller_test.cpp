#include "core/tag/controller.h"

#include <gtest/gtest.h>

#include "sim/excitation.h"

namespace ms {
namespace {

BackscatterLink near_link() {
  BackscatterLink link;
  return link;
}

TagController perfect_multiprotocol_tag() {
  TagControllerConfig cfg;
  cfg.multiprotocol = true;
  cfg.ident_accuracy = 1.0;
  return TagController(cfg, near_link());
}

TEST(Controller, PicksCarrierWithBestTagGoodput) {
  ExcitationSpec heavy = fig12_excitation(Protocol::Ble);   // near-saturated
  ExcitationSpec light = fig12_excitation(Protocol::Zigbee);
  const std::array<ExcitationSpec, 2> avail = {light, heavy};
  TagController tag = perfect_multiprotocol_tag();
  Rng rng(1);
  const auto r = tag.step(avail, 4.0, rng);
  ASSERT_TRUE(r.carrier.has_value());
  EXPECT_EQ(*r.carrier, Protocol::Ble);
}

TEST(Controller, NoCarriersNoPick) {
  TagController tag = perfect_multiprotocol_tag();
  Rng rng(1);
  const auto r = tag.step({}, 4.0, rng);
  EXPECT_FALSE(r.carrier.has_value());
  EXPECT_FALSE(r.transmitted);
}

TEST(Controller, MultiprotocolTagUsesAnyCarrier) {
  TagControllerConfig cfg;
  cfg.multiprotocol = true;
  cfg.ident_accuracy = 1.0;
  TagController tag(cfg, near_link());
  Rng rng(1);
  const std::array<ExcitationSpec, 1> wifi_n = {fig12_excitation(Protocol::WifiN)};
  const auto r = tag.step(wifi_n, 4.0, rng);
  EXPECT_TRUE(r.transmitted);
  EXPECT_EQ(r.carrier, Protocol::WifiN);
}

TEST(Controller, SingleProtocolTagIdlesOnForeignCarrier) {
  TagControllerConfig cfg;
  cfg.multiprotocol = false;
  cfg.only_protocol = Protocol::WifiB;
  cfg.ident_accuracy = 1.0;
  TagController tag(cfg, near_link());
  Rng rng(2);
  const std::array<ExcitationSpec, 1> wifi_n = {fig12_excitation(Protocol::WifiN)};
  const auto r = tag.step(wifi_n, 4.0, rng);
  EXPECT_FALSE(r.transmitted);
  EXPECT_EQ(tag.busy_fraction(), 0.0);
}

TEST(Controller, MisidentificationLosesSlot) {
  TagControllerConfig cfg;
  cfg.ident_accuracy = 0.0;  // always wrong
  TagController tag(cfg, near_link());
  Rng rng(3);
  const std::array<ExcitationSpec, 1> ble = {fig12_excitation(Protocol::Ble)};
  EXPECT_FALSE(tag.step(ble, 4.0, rng).transmitted);
}

TEST(Controller, BusyFractionTracksAvailability) {
  TagControllerConfig cfg;
  cfg.ident_accuracy = 1.0;
  TagController tag(cfg, near_link());
  Rng rng(4);
  const std::array<ExcitationSpec, 1> ble = {fig12_excitation(Protocol::Ble)};
  for (int i = 0; i < 10; ++i) tag.step(ble, 4.0, rng);
  for (int i = 0; i < 10; ++i) tag.step({}, 4.0, rng);
  EXPECT_NEAR(tag.busy_fraction(), 0.5, 1e-9);
}

TEST(Controller, AbstainingTagWithholdsInsteadOfCommittingGarbage) {
  TagControllerConfig cfg;
  cfg.ident_accuracy = 0.0;        // every sense misses
  cfg.wrong_commit_fraction = 0.0; // …and every miss abstains
  TagController tag(cfg, near_link());
  Rng rng(6);
  const std::array<ExcitationSpec, 1> ble = {fig12_excitation(Protocol::Ble)};
  for (int i = 0; i < 20; ++i) {
    const auto r = tag.step(ble, 4.0, rng);
    EXPECT_FALSE(r.transmitted);
    EXPECT_TRUE(r.abstained);
    EXPECT_FALSE(r.wrong_commit);
  }
  EXPECT_EQ(tag.wrong_commits(), 0u);
  EXPECT_EQ(tag.abstains(), 20u);
}

TEST(Controller, AbstainRetriesRecoverTheSlot) {
  // An abstain with fast re-arm gets another sense within the slot; with
  // enough retries a 50%-accurate identifier almost always recovers.
  TagControllerConfig cfg;
  cfg.ident_accuracy = 0.5;
  cfg.wrong_commit_fraction = 0.0;
  cfg.abstain_retries = 8;
  TagController tag(cfg, near_link());
  Rng rng(7);
  const std::array<ExcitationSpec, 1> ble = {fig12_excitation(Protocol::Ble)};
  int transmitted = 0;
  for (int i = 0; i < 50; ++i) transmitted += tag.step(ble, 4.0, rng).transmitted;
  EXPECT_GE(transmitted, 45);  // P(9 misses in a row) = 2^-9
  EXPECT_EQ(tag.wrong_commits(), 0u);

  // Without retries the same identifier loses roughly half the slots.
  cfg.abstain_retries = 0;
  TagController no_retry(cfg, near_link());
  Rng rng2(7);
  int tx2 = 0;
  for (int i = 0; i < 50; ++i) tx2 += no_retry.step(ble, 4.0, rng2).transmitted;
  EXPECT_LT(tx2, transmitted);
}

TEST(Controller, DefaultConfigMatchesSeedModelRngStream) {
  // wrong_commit_fraction = 1.0 must short-circuit the extra draw so the
  // default controller consumes exactly the seed model's Rng stream.
  TagControllerConfig cfg;
  cfg.ident_accuracy = 0.7;
  TagController tag(cfg, near_link());
  Rng rng(8), shadow(8);
  const std::array<ExcitationSpec, 1> ble = {fig12_excitation(Protocol::Ble)};
  for (int i = 0; i < 30; ++i) {
    const auto r = tag.step(ble, 4.0, rng);
    const bool hit = shadow.chance(cfg.ident_accuracy);  // seed model: one draw
    EXPECT_EQ(r.wrong_commit, !hit);
    EXPECT_FALSE(r.abstained);
  }
  EXPECT_EQ(tag.abstains(), 0u);
  EXPECT_EQ(tag.wrong_commits() > 0, true);
}

TEST(Controller, PicksBetterOfTwoCarriers) {
  TagControllerConfig cfg;
  cfg.ident_accuracy = 1.0;
  TagController tag(cfg, near_link());
  Rng rng(5);
  ExcitationSpec spotty_b = fig12_excitation(Protocol::WifiB);
  spotty_b.pkt_rate_hz = 2.0;
  const std::array<ExcitationSpec, 2> both = {spotty_b,
                                              fig12_excitation(Protocol::WifiN)};
  const auto r = tag.step(both, 4.0, rng);
  ASSERT_TRUE(r.transmitted);
  EXPECT_EQ(r.carrier, Protocol::WifiN);  // abundant beats spotty
}

}  // namespace
}  // namespace ms
