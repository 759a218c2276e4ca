// Closed-form AWGN bit-error-rate curves.
//
// The waveform simulator measures BER directly for functional tests; the
// range/throughput sweeps (Figs 13–15) additionally use these analytic
// curves so that 30 m × 100-location parameter sweeps stay fast.  All
// take Eb/N0 (or SNR where noted) in dB.
#pragma once

namespace ms {

/// Gaussian tail function Q(x).
double qfunc(double x);

/// Coherent BPSK / QPSK (per-bit): Q(sqrt(2 Eb/N0)).
double ber_bpsk(double ebn0_db);

/// Differential BPSK: 0.5 exp(−Eb/N0).
double ber_dbpsk(double ebn0_db);

/// Non-coherent binary FSK: 0.5 exp(−Eb/N0 / 2); GFSK with h = 0.5 and a
/// discriminator detector behaves close to this.
double ber_fsk_noncoherent(double ebn0_db);

/// 802.15.4 O-QPSK/DSSS per-bit error rate from the chip SNR, using the
/// standard union-bound expression over the 16 quasi-orthogonal PN words.
double ber_zigbee(double snr_chip_db);

/// Packet error rate for n_bits independent bit errors at rate `ber`.
double per_from_ber(double ber, double n_bits);

}  // namespace ms
