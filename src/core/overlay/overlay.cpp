#include "core/overlay/overlay.h"

#include <algorithm>

#include "channel/awgn.h"
#include "common/error.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "core/overlay/ble_overlay.h"
#include "core/overlay/wifi_b_overlay.h"
#include "core/overlay/wifi_n_overlay.h"
#include "core/overlay/zigbee_overlay.h"

namespace ms {

unsigned default_gamma(Protocol p) {
  switch (p) {
    case Protocol::WifiB:
    case Protocol::Ble:
      return 4;
    case Protocol::WifiN:
    case Protocol::Zigbee:
      return 2;
  }
  return 4;
}

OverlayParams mode_params(Protocol p, OverlayMode mode,
                          std::size_t payload_symbols) {
  OverlayParams params;
  params.gamma = default_gamma(p);
  switch (mode) {
    case OverlayMode::Mode1:
      params.kappa = 2 * params.gamma;  // 8/4/8/4 per Table 6
      break;
    case OverlayMode::Mode2:
      params.kappa = 4 * params.gamma;  // 16/8/16/8
      break;
    case OverlayMode::Mode3:
      params.kappa = static_cast<unsigned>(std::max<std::size_t>(
          2, payload_symbols));  // one reference symbol for the packet
      break;
  }
  return params;
}

OverlayCodec::OverlayCodec(OverlayParams params) : params_(params) {
  MS_CHECK_MSG(params_.kappa >= 2, "kappa must leave at least 1 modulatable symbol");
  MS_CHECK(params_.gamma >= 1);
}

std::unique_ptr<OverlayCodec> make_overlay_codec(Protocol p,
                                                 OverlayParams params) {
  switch (p) {
    case Protocol::WifiB:
      return std::make_unique<WifiBOverlay>(params);
    case Protocol::WifiN:
      return std::make_unique<WifiNOverlay>(params);
    case Protocol::Ble:
      return std::make_unique<BleOverlay>(params);
    case Protocol::Zigbee:
      return std::make_unique<ZigbeeOverlay>(params);
  }
  MS_CHECK_MSG(false, "unknown protocol");
}

OverlayTrialResult run_overlay_trial(const OverlayCodec& codec,
                                     std::size_t n_sequences, double snr_db,
                                     Rng& rng) {
  OBS_SCOPE("overlay.trial");
  MS_CHECK(n_sequences >= 1);
  const Bits productive =
      rng.bits(n_sequences * codec.productive_bits_per_sequence());
  const Bits tag = rng.bits(codec.tag_capacity(n_sequences));

  const Iq carrier = codec.make_carrier(productive);
  const Iq modulated = codec.tag_modulate(carrier, tag);
  const Iq rx = add_awgn(modulated, snr_db, rng);
  const OverlayDecoded decoded = codec.decode(rx, n_sequences);

  OverlayTrialResult r;
  r.productive_ber = bit_error_rate(productive, decoded.productive);
  r.tag_ber = bit_error_rate(tag, decoded.tag);
  if (obs::tracing()) {
    obs::Event(obs::Subsystem::Overlay, obs::Severity::Debug, "overlay.trial")
        .f("kappa", codec.params().kappa)
        .f("gamma", codec.params().gamma)
        .f("snr_db", snr_db)
        .f("productive_ber", r.productive_ber)
        .f("tag_ber", r.tag_ber)
        .emit();
  }
  return r;
}

}  // namespace ms
