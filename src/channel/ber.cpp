#include "channel/ber.h"

#include <algorithm>
#include <cmath>

#include "common/units.h"

namespace ms {

double qfunc(double x) { return 0.5 * std::erfc(x / std::sqrt(2.0)); }

double ber_bpsk(double ebn0_db) {
  return qfunc(std::sqrt(2.0 * db_to_linear(ebn0_db)));
}

double ber_dbpsk(double ebn0_db) {
  return 0.5 * std::exp(-db_to_linear(ebn0_db));
}

double ber_fsk_noncoherent(double ebn0_db) {
  return 0.5 * std::exp(-db_to_linear(ebn0_db) / 2.0);
}

double ber_zigbee(double snr_chip_db) {
  // 802.15.4 SER union bound over 16 PN words (32 chips, ~17-chip min
  // distance), then SER→BER for orthogonal signaling (8/15 factor).
  const double snr_chip = db_to_linear(snr_chip_db);
  const double ser =
      std::min(1.0, 15.0 * qfunc(std::sqrt(2.0 * snr_chip * 17.0)));
  return (8.0 / 15.0) * ser;
}

double per_from_ber(double ber, double n_bits) {
  ber = std::clamp(ber, 0.0, 1.0);
  return 1.0 - std::pow(1.0 - ber, n_bits);
}

}  // namespace ms
