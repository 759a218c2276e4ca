#include "core/ident/identifier.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "sim/ident_experiment.h"

namespace ms {
namespace {

IdentTrialConfig base_config(double adc_rate, std::size_t lp, std::size_t lt) {
  IdentTrialConfig cfg;
  cfg.ident.templates.adc_rate_hz = adc_rate;
  cfg.ident.templates.preprocess_len = lp;
  cfg.ident.templates.match_len = lt;
  return cfg;
}

TEST(Identifier, CleanTracesSelfScoreNearOne) {
  IdentTrialConfig cfg = base_config(20e6, 40, 120);
  cfg.rf_snr_db = 60.0;
  cfg.amp_min = cfg.amp_max = 1.0;
  cfg.jitter_max_s = 0.0;
  const ProtocolIdentifier ident(cfg.ident);
  Rng rng(1);
  for (Protocol p : kAllProtocols) {
    const Samples trace = make_ident_trace(p, cfg, rng);
    const auto s = ident.scores(trace);
    EXPECT_GT(s[protocol_index(p)], 0.95) << protocol_name(p);
  }
}

TEST(Identifier, CleanTracesIdentifyCorrectly) {
  IdentTrialConfig cfg = base_config(20e6, 40, 120);
  cfg.rf_snr_db = 40.0;
  const ProtocolIdentifier ident(cfg.ident);
  Rng rng(2);
  for (Protocol p : kAllProtocols) {
    for (int t = 0; t < 5; ++t) {
      const auto detected = ident.identify(make_ident_trace(p, cfg, rng));
      ASSERT_TRUE(detected.has_value()) << protocol_name(p);
      EXPECT_EQ(*detected, p) << protocol_name(p);
    }
  }
}

TEST(Identifier, NoiseOnlyTraceIsRejected) {
  // Sub-trigger traces (§2.2.1: 0.15 V rectifier threshold) are noise.
  IdentTrialConfig cfg = base_config(20e6, 40, 120);
  const ProtocolIdentifier ident(cfg.ident);
  Rng rng(3);
  Samples noise(800);
  for (auto& v : noise) v = static_cast<float>(std::abs(rng.normal(0.02, 0.01)));
  EXPECT_FALSE(ident.identify(noise).has_value());
}

TEST(Identifier, FullPrecision20MspsAccuracyMatchesFig5) {
  // Fig 5b: ≥ 99% minimum per-protocol accuracy at 20 Msps full
  // precision with (L_p, L_t) = (40, 120).  Our reproduction band: ≥ 0.85
  // per protocol, ≥ 0.96 average (Monte-Carlo, 100 trials/protocol).
  IdentTrialConfig cfg = base_config(20e6, 40, 120);
  const IdentResult r = run_ident_experiment(cfg, 100);
  EXPECT_GE(r.average_accuracy(), 0.96);
  for (Protocol p : kAllProtocols)
    EXPECT_GE(r.accuracy(p), 0.85) << protocol_name(p);
}

TEST(Identifier, OneBitQuantizationDegradesButWorks) {
  IdentTrialConfig cfg = base_config(10e6, 20, 60);
  cfg.ident.compute = ComputeMode::OneBit;
  const IdentResult r = run_ident_experiment(cfg, 60);
  EXPECT_GE(r.average_accuracy(), 0.85);  // Fig 7a band (0.906 paper)
}

TEST(Identifier, OrderedBeatsBlindAt10Msps) {
  // Fig 7: ordered matching (0.976) beats blind (0.906) after the
  // lossy 1-bit + downsampling pipeline.
  IdentTrialConfig cfg = base_config(10e6, 20, 60);
  cfg.ident.compute = ComputeMode::OneBit;
  cfg.ident.decision = DecisionMode::Blind;
  const double blind = run_ident_experiment(cfg, 80).average_accuracy();

  const OrderedCalibration cal = calibrate_ordered_matching(cfg, 40);
  cfg.ident.decision = DecisionMode::Ordered;
  cfg.ident.order = cal.order;
  cfg.ident.thresholds = cal.thresholds;
  const double ordered = run_ident_experiment(cfg, 80).average_accuracy();
  EXPECT_GT(ordered, blind - 0.01);
  EXPECT_GE(ordered, 0.93);
}

TEST(Identifier, ExtendedWindowRescues25Msps) {
  // Fig 8: at 2.5 Msps the 8 µs window is insufficient; the 40 µs
  // extension recovers > 0.9 average accuracy.
  IdentTrialConfig ext = base_config(2.5e6, 20, 80);
  ext.ident.compute = ComputeMode::OneBit;
  IdentTrialConfig sh = base_config(2.5e6, 5, 15);
  sh.ident.compute = ComputeMode::OneBit;
  const double with_ext = run_ident_experiment(ext, 60).average_accuracy();
  const double without = run_ident_experiment(sh, 60).average_accuracy();
  EXPECT_GT(with_ext, without + 0.1);
  EXPECT_GE(with_ext, 0.85);
}

TEST(Identifier, OnsetDetectionFindsPacketStart) {
  IdentTrialConfig cfg = base_config(20e6, 40, 120);
  cfg.jitter_max_s = 2e-6;
  const ProtocolIdentifier ident(cfg.ident);
  Rng rng(5);
  const Samples trace = make_ident_trace(Protocol::Zigbee, cfg, rng);
  const std::size_t onset = ident.detect_onset(trace);
  // Jitter ≤ 2 µs = 40 samples at 20 Msps; onset must be in that region.
  EXPECT_LE(onset, 50u);
}

TEST(Identifier, ConfusionMatrixRowsSumToTrials) {
  IdentTrialConfig cfg = base_config(10e6, 20, 60);
  const IdentResult r = run_ident_experiment(cfg, 15);
  for (Protocol p : kAllProtocols) EXPECT_EQ(r.trials(p), 15u);
}

TEST(Identifier, DeterministicForFixedSeed) {
  IdentTrialConfig cfg = base_config(10e6, 20, 60);
  cfg.seed = 99;
  const IdentResult a = run_ident_experiment(cfg, 10);
  const IdentResult b = run_ident_experiment(cfg, 10);
  EXPECT_EQ(a.confusion, b.confusion);
}

/// Wrong-commit count over identical traces for a given abstain margin
/// (traces depend only on the seed, so both margins see the same set).
struct AbstainTally {
  std::size_t wrong = 0;
  std::size_t abstained = 0;
  std::size_t committed = 0;
};

AbstainTally tally_abstain(double margin) {
  IdentTrialConfig cfg;
  cfg.ident.templates.adc_rate_hz = 10e6;
  cfg.ident.templates.preprocess_len = 20;
  cfg.ident.templates.match_len = 60;
  cfg.ident.compute = ComputeMode::OneBit;
  cfg.ident.abstain_margin = margin;
  const ProtocolIdentifier ident(cfg.ident);
  Rng rng(31);  // one fixed stream → identical traces per margin
  AbstainTally tally;
  for (Protocol truth : kAllProtocols) {
    for (int t = 0; t < 30; ++t) {
      const IdentDecision d = ident.classify(make_ident_trace(truth, cfg, rng));
      if (d.abstained) ++tally.abstained;
      if (d.protocol) {
        ++tally.committed;
        if (*d.protocol != truth) ++tally.wrong;
      }
    }
  }
  return tally;
}

TEST(Identifier, AbstainMarginCutsMisidentifications) {
  const AbstainTally seed_model = tally_abstain(0.0);
  const AbstainTally abstaining = tally_abstain(0.15);
  // The seed model commits on every over-threshold window and pays for
  // it in wrong verdicts at this noisy 1-bit operating point.
  ASSERT_GT(seed_model.wrong, 0u);
  EXPECT_EQ(seed_model.abstained, 0u);
  // A decision margin turns most of those wrong commits into abstains
  // without gutting the commit rate.
  EXPECT_LT(abstaining.wrong, seed_model.wrong);
  EXPECT_GT(abstaining.abstained, 0u);
  EXPECT_GT(abstaining.committed, seed_model.committed / 2);
}

TEST(Identifier, ClassifyExposesDecisionMargin) {
  IdentTrialConfig cfg = base_config(20e6, 40, 120);
  cfg.rf_snr_db = 40.0;
  const ProtocolIdentifier ident(cfg.ident);
  Rng rng(5);
  const IdentDecision d =
      ident.classify(make_ident_trace(Protocol::Zigbee, cfg, rng));
  ASSERT_TRUE(d.protocol.has_value());
  EXPECT_EQ(*d.protocol, Protocol::Zigbee);
  EXPECT_FALSE(d.abstained);
  EXPECT_GT(d.confidence, 0.0);
  // identify() is the same decision with the scores dropped.
  Rng rng2(5);
  EXPECT_EQ(ident.identify(make_ident_trace(Protocol::Zigbee, cfg, rng2)),
            d.protocol);
}

}  // namespace
}  // namespace ms
