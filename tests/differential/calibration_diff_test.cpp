// Differential gate for the §2.3.2 ordered-matching calibration search.
// detail::search_thresholds counts bucketed trials instead of
// re-classifying every trial for every threshold tuple.  It must return
// exactly what that brute force returns: the same accuracy double, the
// same four thresholds, and across the 24 matching orders the same
// winning order.  The brute force lives on here, verbatim, as the oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "diff_harness.h"
#include "sim/ident_experiment.h"

namespace ms {
namespace {

using detail::CalTrial;
using detail::kThresholdGrid;
using detail::ThresholdSearch;

namespace oracle {

/// Scan (t1, t2, t3) for one fixed outer threshold t0 and matching order.
ThresholdSearch search_inner(const std::vector<CalTrial>& trials,
                             const std::array<Protocol, 4>& order,
                             double t0) {
  ThresholdSearch best;
  for (double t1 : kThresholdGrid)
    for (double t2 : kThresholdGrid)
      for (double t3 : kThresholdGrid) {
        std::array<double, 4> thr{};
        thr[protocol_index(order[0])] = t0;
        thr[protocol_index(order[1])] = t1;
        thr[protocol_index(order[2])] = t2;
        thr[protocol_index(order[3])] = t3;
        std::array<std::size_t, 4> correct{}, total{};
        for (const CalTrial& tr : trials) {
          std::size_t det = 4;
          for (Protocol p : order) {
            const std::size_t idx = protocol_index(p);
            if (tr.scores[idx] > thr[idx]) {
              det = idx;
              break;
            }
          }
          ++total[tr.truth];
          if (det == tr.truth) ++correct[tr.truth];
        }
        double acc = 0.0;
        for (std::size_t i = 0; i < 4; ++i)
          acc += total[i] ? static_cast<double>(correct[i]) /
                                static_cast<double>(total[i])
                          : 0.0;
        acc /= 4.0;
        if (acc > best.acc) {
          best.acc = acc;
          best.thr = thr;
        }
      }
  return best;
}

/// Full grid search for one matching order (serial; callers parallelize
/// one level up so the pool is never entered twice).
ThresholdSearch search_thresholds(const std::vector<CalTrial>& trials,
                                  const std::array<Protocol, 4>& order) {
  ThresholdSearch best;
  for (double t0 : kThresholdGrid) {
    const ThresholdSearch s = search_inner(trials, order, t0);
    if (s.acc > best.acc) best = s;
  }
  return best;
}

}  // namespace oracle

constexpr std::array<double, 4> kFirstTuple = {0.15, 0.15, 0.15, 0.15};

/// The 24 matching orders, in the permutation order
/// calibrate_ordered_matching scans them.
std::vector<std::array<Protocol, 4>> all_orders() {
  std::vector<std::array<Protocol, 4>> orders;
  std::array<std::size_t, 4> perm = {0, 1, 2, 3};
  do {
    orders.push_back({kAllProtocols[perm[0]], kAllProtocols[perm[1]],
                      kAllProtocols[perm[2]], kAllProtocols[perm[3]]});
  } while (std::next_permutation(perm.begin(), perm.end()));
  return orders;
}

struct Winner {
  std::size_t order = 0;
  ThresholdSearch search;
};

/// Runs both searches on every matching order and compares them field by
/// field, then picks the winning order the way calibrate_ordered_matching
/// does (strict >, permutation order).  Returns the counting search's
/// winner.
Winner expect_same_search(const std::vector<CalTrial>& trials) {
  const auto orders = all_orders();
  Winner ref, got;
  for (std::size_t i = 0; i < orders.size(); ++i) {
    const ThresholdSearch r = oracle::search_thresholds(trials, orders[i]);
    const ThresholdSearch g = detail::search_thresholds(trials, orders[i]);
    EXPECT_EQ(g.acc, r.acc) << "order " << i;
    EXPECT_EQ(g.thr, r.thr) << "order " << i;
    if (r.acc > ref.search.acc) ref = {i, r};
    if (g.acc > got.search.acc) got = {i, g};
  }
  EXPECT_EQ(got.order, ref.order);
  return got;
}

/// counts[p] trials of protocol p, in the (protocol, trial) order the
/// calibration collects them; draw(truth, p) gives protocol p's score.
template <typename Draw>
std::vector<CalTrial> make_trials(const std::array<std::size_t, 4>& counts,
                                  Draw&& draw) {
  std::vector<CalTrial> trials;
  for (std::size_t truth = 0; truth < 4; ++truth)
    for (std::size_t t = 0; t < counts[truth]; ++t) {
      CalTrial tr{truth, {}};
      for (std::size_t p = 0; p < 4; ++p) tr.scores[p] = draw(truth, p);
      trials.push_back(tr);
    }
  return trials;
}

/// Identifier-like scores: the true protocol's template tends to match
/// best, but the ranges overlap, so both the order and the thresholds
/// matter.
double plausible_score(Rng& rng, std::size_t truth, std::size_t p) {
  return p == truth ? rng.uniform(0.3, 1.0) : rng.uniform(0.0, 0.75);
}

TEST(CalibrationDiff, FigureSizedScoreSetMatchesBruteForce) {
  // 60 calibration trials per protocol, as every figure bench calibrates.
  Rng rng(difftest::kSeed);
  expect_same_search(make_trials({60, 60, 60, 60}, [&](std::size_t truth,
                                                       std::size_t p) {
    return plausible_score(rng, truth, p);
  }));
}

TEST(CalibrationDiff, RandomScoreSetsMatchBruteForce) {
  Rng rng(difftest::kSeed + 1);
  for (int set = 0; set < 6; ++set) {
    SCOPED_TRACE("set " + std::to_string(set));
    std::array<std::size_t, 4> counts{};
    for (std::size_t& c : counts) c = 1 + rng.uniform_int(12);
    expect_same_search(make_trials(counts, [&](std::size_t truth,
                                               std::size_t p) {
      return plausible_score(rng, truth, p);
    }));
  }
}

TEST(CalibrationDiff, GridValuedScoresMatchBruteForce) {
  // `score > t` is false at t == score: a score of exactly 0.50 fires
  // for thresholds up to 0.45 and no further.  A bucketing that also
  // counted the grid value the score equals would fire it one step late.
  Rng rng(difftest::kSeed + 2);
  for (int set = 0; set < 4; ++set) {
    SCOPED_TRACE("set " + std::to_string(set));
    expect_same_search(make_trials({10, 10, 10, 10}, [&](std::size_t,
                                                         std::size_t) {
      return kThresholdGrid[rng.uniform_int(kThresholdGrid.size())];
    }));
  }
  // The lowest, a middle and the highest grid value on their own: every
  // true-protocol score sits exactly on it.
  for (double v : {0.15, 0.50, 0.90}) {
    SCOPED_TRACE("true-protocol score " + std::to_string(v));
    expect_same_search(make_trials({3, 5, 7, 9}, [&](std::size_t truth,
                                                     std::size_t p) {
      return p == truth ? v : rng.uniform(0.0, 1.0);
    }));
  }
}

TEST(CalibrationDiff, OutOfRangeScoresMatchBruteForce) {
  // Above 0.90 every threshold fires and below 0.15 none does, out to
  // the infinities.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double extremes[] = {-kInf, -0.3, 0.0,  0.1, 0.1499,
                             0.9001, 0.95, 1.0, kInf};
  Rng rng(difftest::kSeed + 3);
  for (int set = 0; set < 3; ++set) {
    SCOPED_TRACE("set " + std::to_string(set));
    expect_same_search(make_trials({8, 8, 8, 8}, [&](std::size_t truth,
                                                     std::size_t p) {
      return rng.chance(0.5) ? extremes[rng.uniform_int(std::size(extremes))]
                             : plausible_score(rng, truth, p);
    }));
  }
}

TEST(CalibrationDiff, NanScoresMatchBruteForce) {
  // `NaN > t` is false for every threshold: a NaN score never fires.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Rng rng(difftest::kSeed + 4);
  for (int set = 0; set < 3; ++set) {
    SCOPED_TRACE("set " + std::to_string(set));
    expect_same_search(make_trials({8, 8, 8, 8}, [&](std::size_t truth,
                                                     std::size_t p) {
      return rng.chance(0.3) ? nan : plausible_score(rng, truth, p);
    }));
  }
  // All NaN: nothing fires, every tuple scores 0, the first one wins.
  const Winner w = expect_same_search(
      make_trials({4, 4, 4, 4}, [&](std::size_t, std::size_t) { return nan; }));
  EXPECT_EQ(w.order, 0u);
  EXPECT_EQ(w.search.acc, 0.0);
  EXPECT_EQ(w.search.thr, kFirstTuple);
}

TEST(CalibrationDiff, ProtocolWithoutTrialsMatchesBruteForce) {
  // A protocol with no trials adds 0.0 to the average (total[i] == 0).
  Rng rng(difftest::kSeed + 5);
  for (std::size_t empty = 0; empty < 4; ++empty) {
    SCOPED_TRACE("no trials of protocol " + std::to_string(empty));
    std::array<std::size_t, 4> counts = {9, 9, 9, 9};
    counts[empty] = 0;
    expect_same_search(make_trials(counts, [&](std::size_t truth,
                                               std::size_t p) {
      return plausible_score(rng, truth, p);
    }));
  }
  // No trials at all: the first tuple of the first order wins at 0.
  const Winner w = expect_same_search({});
  EXPECT_EQ(w.order, 0u);
  EXPECT_EQ(w.search.acc, 0.0);
  EXPECT_EQ(w.search.thr, kFirstTuple);
}

TEST(CalibrationDiff, TiesResolveToFirstTupleInSerialOrder) {
  // Every score above the grid: stage 0 fires on every trial whatever
  // the thresholds, so every tuple of every order scores 1/4 and the
  // very first tuple of the very first order must win.
  const Winner w = expect_same_search(
      make_trials({5, 5, 5, 5}, [](std::size_t, std::size_t) { return 1.0; }));
  EXPECT_EQ(w.order, 0u);
  EXPECT_EQ(w.search.acc, 0.25);
  EXPECT_EQ(w.search.thr, kFirstTuple);

  // Three score values: 0.05 never fires, 0.95 always does, and 0.42
  // fires for thresholds up to 0.40.  Wide runs of tuples tie, and the
  // first of each run must win.
  const double levels[] = {0.05, 0.42, 0.95};
  Rng rng(difftest::kSeed + 6);
  for (int set = 0; set < 3; ++set) {
    SCOPED_TRACE("set " + std::to_string(set));
    expect_same_search(make_trials({6, 6, 6, 6}, [&](std::size_t truth,
                                                     std::size_t p) {
      return p == truth ? levels[1 + rng.uniform_int(2)]
                        : levels[rng.uniform_int(3)];
    }));
  }
}

}  // namespace
}  // namespace ms
