#include "hamming.h"

#include "common/error.h"

namespace ms {

std::size_t hamming_distance(std::span<const uint8_t> a,
                             std::span<const uint8_t> b) {
  MS_CHECK(a.size() == b.size());
  std::size_t d = 0;
  for (std::size_t i = 0; i < a.size(); ++i) d += (a[i] != b[i]) ? 1 : 0;
  return d;
}

}  // namespace ms
