#include "golden_vectors.h"

#include <cmath>
#include <cstdio>
#include <string>

#include "channel/awgn.h"
#include "channel/multipath.h"
#include "common/bits.h"
#include "common/rng.h"
#include "core/ident/templates.h"
#include "core/overlay/frame.h"
#include "core/overlay/overlay.h"
#include "dsp/iq.h"
#include "phy/ble/ble.h"
#include "phy/dsss/barker.h"
#include "phy/dsss/cck.h"
#include "phy/interleaver.h"
#include "phy/whitening.h"
#include "phy/zigbee/zigbee.h"
#include "superposition.h"

namespace ms::golden {
namespace {

std::string fmt_cf(Cf v) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%a %a", static_cast<double>(v.real()),
                static_cast<double>(v.imag()));
  return buf;
}

void append_iq(std::vector<std::string>& lines, const Iq& iq) {
  for (Cf v : iq) lines.push_back(fmt_cf(v));
}

std::string bits_line(const Bits& bits) {
  std::string s;
  s.reserve(bits.size());
  for (uint8_t b : bits) s.push_back(b ? '1' : '0');
  return s;
}

// 802.11b 1/2 Mbps DSSS: the 11 Barker chips for each DBPSK/DQPSK
// constellation point.
Vector barker_vector() {
  Vector v{"wifi_b_barker_chips.txt", {}};
  const Cf symbols[] = {{1.f, 0.f}, {0.f, 1.f}, {-1.f, 0.f}, {0.f, -1.f}};
  for (Cf s : symbols) append_iq(v.lines, barker_spread(s));
  return v;
}

// 802.11b CCK: codewords for every 5.5 Mbps data pair (with the DQPSK
// phase walked through its increments) and four 11 Mbps 6-bit groups.
Vector cck_vector() {
  Vector v{"wifi_b_cck_chips.txt", {}};
  const uint8_t pairs[4][2] = {{0, 0}, {0, 1}, {1, 0}, {1, 1}};
  double phi1 = 0.0;
  bool odd = false;
  for (const auto& p : pairs) {
    phi1 += dqpsk_increment(p[0], p[1], odd);
    odd = !odd;
    double phi2 = 0.0, phi3 = 0.0, phi4 = 0.0;
    cck_data_phases(p, false, phi2, phi3, phi4);
    append_iq(v.lines, cck_codeword(phi1, phi2, phi3, phi4));
  }
  const uint8_t groups[4][6] = {{0, 0, 0, 0, 0, 0},
                                {1, 0, 1, 0, 1, 0},
                                {1, 1, 0, 0, 1, 1},
                                {1, 1, 1, 1, 1, 1}};
  for (const auto& g : groups) {
    double phi2 = 0.0, phi3 = 0.0, phi4 = 0.0;
    cck_data_phases(g, true, phi2, phi3, phi4);
    append_iq(v.lines, cck_codeword(0.0, phi2, phi3, phi4));
  }
  return v;
}

// BLE whitening: a fixed payload whitened on the advertising channel 37
// and on data channel 8.  One line per channel.
Vector ble_vector() {
  Vector v{"ble_whitened_payload.txt", {}};
  const Bytes payload = {'m', 'u', 'l', 't', 'i', 's', 'c', 'a',
                         't', 't', 'e', 'r', 0x00, 0x55, 0xaa, 0xff};
  const Bits bits = bytes_to_bits_lsb(payload);
  v.lines.push_back(bits_line(ble_whiten(bits, 37)));
  v.lines.push_back(bits_line(ble_whiten(bits, 8)));
  return v;
}

// ZigBee: the 16-entry PN table, then the OQPSK waveform of the symbol
// sequence {0x0, 0x5, 0xA, 0xF} at 4 samples/chip.
Vector zigbee_vector() {
  Vector v{"zigbee_chip_waveform.txt", {}};
  for (std::uint32_t pn : zigbee_pn_table()) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "0x%08x", pn);
    v.lines.push_back(buf);
  }
  const ZigbeePhy phy;
  const uint8_t symbols[] = {0x0, 0x5, 0xA, 0xF};
  append_iq(v.lines, phy.modulate_symbols(symbols));
  return v;
}

// Overlay framing: the serialized bit stream of two representative tag
// frames (header + payload + CRC-8, LSB-first).
Vector overlay_vector() {
  Vector v{"overlay_frame_bits.txt", {}};
  const TagFrame a{5, 2, true, Bytes{'s', 'e', 'n', 's', 'o', 'r'}};
  const TagFrame b{15, 9, false, Bytes{0x00, 0x01, 0x7f, 0x80, 0xff}};
  v.lines.push_back(bits_line(a.to_bits()));
  v.lines.push_back(bits_line(b.to_bits()));
  return v;
}

// Packed 1-bit identification templates: for the Fig 7 operating point
// (10 Msps, L_p 20 / L_t 60) and the Fig 5b reference point (20 Msps,
// L_p 40 / L_t 120), the bit-packed template of each protocol as hex
// words.  One line per protocol per configuration:
//   <protocol> <lp> <lt> <nbits> <word0> <word1> ...
// Pins the entire template chain (PHY synthesis → front end → ADC →
// 1-bit quantization → bit packing): a drift in any stage flips bits.
Vector packed_template_vector() {
  Vector v{"ident_packed_templates.txt", {}};
  struct Config {
    double adc_rate_hz;
    std::size_t lp, lt;
  };
  const Config configs[] = {{10e6, 20, 60}, {20e6, 40, 120}};
  for (const Config& c : configs) {
    TemplateParams params;
    params.adc_rate_hz = c.adc_rate_hz;
    params.preprocess_len = c.lp;
    params.match_len = c.lt;
    const TemplateSet set = build_templates(params);
    for (Protocol p : kAllProtocols) {
      const bitpack::PackedVec& packed =
          set.one_bit_packed[protocol_index(p)];
      std::string line(protocol_name(p));
      char buf[32];
      std::snprintf(buf, sizeof buf, " %zu %zu %zu", c.lp, c.lt, packed.bits);
      line += buf;
      for (std::uint64_t w : packed.words) {
        std::snprintf(buf, sizeof buf, " 0x%016llx",
                      static_cast<unsigned long long>(w));
        line += buf;
      }
      v.lines.push_back(line);
    }
  }
  return v;
}

// BLE GFSK receiver: the per-symbol soft frequencies (Hz) recovered
// from a clean modulated waveform of a fixed bit pattern, at the
// default 8 samples/symbol and at the coarse 2 samples/symbol.  Pins
// the discriminator demod (conj-multiply → arg → middle-half average)
// that both the scalar oracle and the fused kernel must reproduce
// bit-for-bit.
Vector gfsk_softbits_vector() {
  Vector v{"ble_gfsk_softbits.txt", {}};
  const Bytes payload = {0xaa, 0x0f, 0x96, 'b', 'l', 'e', 0x00, 0xff};
  const Bits bits = bytes_to_bits_lsb(payload);
  for (unsigned sps : {8u, 2u}) {
    BleConfig cfg;
    cfg.samples_per_symbol = sps;
    const BlePhy phy(cfg);
    const Samples freqs =
        phy.symbol_frequencies(phy.modulate_bits(bits), bits.size());
    for (float f : freqs) {
      char buf[48];
      std::snprintf(buf, sizeof buf, "%a", static_cast<double>(f));
      v.lines.push_back(buf);
    }
  }
  return v;
}

// 802.11n deinterleaver: the output permutation for each supported
// (N_CBPS, N_BPSC) shape on a fixed aperiodic bit pattern, one line per
// shape.  Pins the §18.3.5.7 two-step index math the cached-permutation
// kernel replays from its table.
Vector ofdm_deinterleave_vector() {
  Vector v{"ofdm_deinterleaved_bits.txt", {}};
  const std::pair<unsigned, unsigned> shapes[] = {{48, 1}, {96, 2}, {192, 4}};
  for (auto [n_cbps, n_bpsc] : shapes) {
    Bits in(2 * n_cbps);  // two symbols: catches cross-symbol mixing
    for (std::size_t k = 0; k < in.size(); ++k)
      in[k] = static_cast<uint8_t>((k % 3 == 0) ^ (k % 7 == 1));
    v.lines.push_back(bits_line(deinterleave_11n(in, n_cbps, n_bpsc)));
  }
  return v;
}

// Fleet superposition: the composite waveform the receiver sees when a
// ZigBee-overlay tag and one or two BLE-overlay tags backscatter the
// same slot (both PHYs run 8 Msps baseband, so they superpose
// sample-for-sample).  Payloads are fixed seeded draws; per-tag
// channels use the fleet convention (winner at 0 dB / zero delay,
// interferers attenuated, rotated, and delayed).  Pins the whole chain
// carrier → tag modulation → per-tag channel → ascending-order
// accumulation: any drift in the PHYs, the overlay codecs, or the
// superposition arithmetic flips hexfloat bits here.
Iq fleet_tag_wave(Protocol p, std::uint64_t seed, std::size_t n_sequences) {
  const auto codec = make_overlay_codec(p, mode_params(p, OverlayMode::Mode1));
  Rng rng(seed);
  const Bits productive =
      rng.bits(n_sequences * codec->productive_bits_per_sequence());
  const Bits tag_bits = rng.bits(codec->tag_capacity(n_sequences));
  return codec->tag_modulate(codec->make_carrier(productive), tag_bits);
}

Vector fleet_superposed_vector(const char* filename, std::size_t n_tags) {
  Vector v{filename, {}};
  const Iq zig = fleet_tag_wave(Protocol::Zigbee, 0xf1ee7001, 1);
  const Iq ble1 = fleet_tag_wave(Protocol::Ble, 0xf1ee7002, 1);
  const Iq ble2 = fleet_tag_wave(Protocol::Ble, 0xf1ee7003, 1);
  std::vector<SuperposedSource> sources;
  sources.push_back({zig, {0.0, 0.0, 0}});           // slot winner
  sources.push_back({ble1, {-9.0, 1.25, 3}});        // near interferer
  if (n_tags >= 3) sources.push_back({ble2, {-17.5, 4.0, 11}});
  append_iq(v.lines, superpose_tags(sources));
  return v;
}

// Channel noise and fading: the drawn values themselves.  complex_noise
// and add_noise_power at seeds 1 and 2020 over lengths around a
// 128-sample boundary, with one call at seed 2020 entered with a normal()
// spare pending (the draws before and after it are pinned too), then the
// taps, delays and output of a default 3-tap channel at 20 Msps applied
// to a fixed waveform.  Pins every Gaussian draw behind the
// identification traces, whichever code computes it: a change to
// Rng::normal and to the batched draws together still fails here.
Vector channel_noise_vector() {
  Vector v{"channel_noise_stream.txt", {}};
  auto draw_line = [&](const char* what, double x) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s %a", what, x);
    v.lines.push_back(buf);
  };
  const std::size_t lengths[] = {1, 127, 128, 129, 1400};
  for (std::uint64_t seed : {1ull, 2020ull}) {
    Rng rng(seed);
    for (std::size_t n : lengths) {
      const bool spare = seed == 2020 && n == 129;
      if (spare) draw_line("normal", rng.normal());
      char buf[80];
      std::snprintf(buf, sizeof buf, "complex_noise seed %llu n %zu",
                    static_cast<unsigned long long>(seed), n);
      v.lines.push_back(buf);
      append_iq(v.lines, complex_noise(n, 0.5, rng));
      if (spare) draw_line("normal", rng.normal());
      Iq x(n);
      for (std::size_t k = 0; k < n; ++k)
        x[k] = Cf(static_cast<float>(k % 7) - 3.0f,
                  0.25f * static_cast<float>(k % 5));
      std::snprintf(buf, sizeof buf, "add_noise_power seed %llu n %zu",
                    static_cast<unsigned long long>(seed), n);
      v.lines.push_back(buf);
      append_iq(v.lines, add_noise_power(x, 2.0, rng));
    }
  }
  Rng rng(7);
  const MultipathChannel ch = sample_multipath(MultipathConfig{}, 20e6, rng);
  v.lines.push_back("multipath taps");
  append_iq(v.lines, Iq(ch.taps.begin(), ch.taps.end()));
  std::string delays = "multipath delays";
  for (std::size_t d : ch.delays) {
    delays += ' ';
    delays += std::to_string(d);
  }
  v.lines.push_back(delays);
  Iq x(40);
  for (std::size_t k = 0; k < x.size(); ++k)
    x[k] = Cf(static_cast<float>(std::cos(0.3 * static_cast<double>(k))),
              static_cast<float>(std::sin(0.7 * static_cast<double>(k))));
  append_iq(v.lines, ch.apply(x));
  return v;
}

}  // namespace

std::vector<Vector> build_all() {
  return {barker_vector(),   cck_vector(),
          ble_vector(),      zigbee_vector(),
          overlay_vector(),  packed_template_vector(),
          gfsk_softbits_vector(), ofdm_deinterleave_vector(),
          fleet_superposed_vector("fleet_superposed_2tag.txt", 2),
          fleet_superposed_vector("fleet_superposed_3tag.txt", 3),
          channel_noise_vector()};
}

}  // namespace ms::golden
