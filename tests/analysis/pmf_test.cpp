// Numeric edge cases of the convolution core (DESIGN.md §14): the
// degenerate zero-BER channel, p -> 1 saturation, truncation /
// renormalization error bounds, and quantization-step invariance of the
// upper-bound guarantee; plus a seeded differential test of the
// support-bounded kernels against full-grid reference kernels.
#include "analysis/pmf.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "fault/fault_model.hpp"
#include "sim/random.hpp"

namespace coeff::analysis {
namespace {

constexpr double kTol = 1e-12;

Pmf bernoulli(double p, sim::Time work, sim::Time quantum,
              std::size_t bins) {
  Pmf pmf(quantum, bins);
  pmf.add_mass(sim::Time::zero(), 1.0 - p);
  pmf.add_mass(work, p);
  return pmf;
}

TEST(PmfEdge, ZeroBerChannelIsDegenerateAtZero) {
  fault::FaultModelConfig config;
  config.kind = fault::FaultModelKind::kIid;
  config.ber = 0.0;
  fault::AnalyticFailure af(config);
  EXPECT_EQ(af.attempt(1000), 0.0);
  EXPECT_EQ(af.consecutive_failures(1000, 4), 0.0);
  EXPECT_EQ(af.independent_failures(1000, 4), 0.0);

  // The interference convolution collapses to a point mass at zero.
  Pmf acc(sim::micros(50), 64);
  acc.add_mass(sim::Time::zero(), 1.0);
  for (int i = 0; i < 10; ++i) {
    acc = acc.convolve(
        bernoulli(af.attempt(1000), sim::micros(50), sim::micros(50), 64));
  }
  EXPECT_NEAR(acc.total_mass(), 1.0, kTol);
  EXPECT_NEAR(acc.tail_above(sim::Time::zero()), 0.0, kTol);
  EXPECT_EQ(acc.quantile(0.999), sim::Time::zero());
}

TEST(PmfEdge, SaturatedChannelPushesAllMassToFailure) {
  // A frame so large at so high a BER that every attempt fails.
  fault::FaultModelConfig config;
  config.kind = fault::FaultModelKind::kIid;
  config.ber = 0.5;
  fault::AnalyticFailure af(config);
  const double p = af.attempt(1 << 20);
  EXPECT_GT(p, 1.0 - 1e-12);
  EXPECT_NEAR(af.consecutive_failures(1 << 20, 3), 1.0, 1e-9);

  // Response construction mirror: no attempt ever succeeds, so the
  // whole unit mass ends in the overflow ("never lands") bucket and the
  // deadline-miss tail saturates at 1 for every deadline.
  Pmf response(sim::micros(50), 64);
  double f_prev = 1.0;
  for (int i = 0; i < 3; ++i) {
    const double f_next = af.consecutive_failures(1 << 20, i + 1);
    response.add_mass(sim::millis(1) * (i + 1),
                      std::max(0.0, f_prev - f_next));
    f_prev = f_next;
  }
  response.add_overflow(f_prev);
  EXPECT_NEAR(response.total_mass(), 1.0, kTol);
  EXPECT_NEAR(response.tail_above(sim::seconds(3600)), 1.0, 1e-9);
  EXPECT_EQ(response.quantile(0.999), sim::Time::max());
}

TEST(PmfEdge, TruncationMovesMassToOverflowNeverDropsIt) {
  // 4 bins of 50us cover delays up to 150us; everything later must be
  // absorbed by the overflow bucket, not silently dropped.
  Pmf tiny(sim::micros(50), 4);
  tiny.add_mass(sim::micros(100), 0.25);
  tiny.add_mass(sim::micros(150), 0.25);
  tiny.add_mass(sim::micros(200), 0.25);  // beyond the grid
  tiny.add_mass(sim::seconds(10), 0.25);  // far beyond the grid
  EXPECT_NEAR(tiny.total_mass(), 1.0, kTol);
  EXPECT_NEAR(tiny.overflow(), 0.5, kTol);
  // The overflow bucket counts toward every tail: the bound stays an
  // upper bound no matter how coarse the grid.
  EXPECT_NEAR(tiny.tail_above(sim::micros(150)), 0.5, kTol);
  EXPECT_NEAR(tiny.tail_above(sim::micros(100)), 0.75, kTol);
  EXPECT_NEAR(tiny.tail_above(sim::micros(50)), 1.0, kTol);
}

TEST(PmfEdge, RepeatedConvolutionConservesMassWithinFloatTolerance) {
  Pmf acc(sim::micros(50), 32);  // deliberately narrow: forces overflow
  acc.add_mass(sim::Time::zero(), 1.0);
  for (int i = 0; i < 200; ++i) {
    acc = acc.convolve(
        bernoulli(0.3, sim::micros(150), sim::micros(50), 32));
  }
  // 200 convolutions drift the total by at most ~200 ulps-scale error.
  EXPECT_NEAR(acc.total_mass(), 1.0, 1e-9);
  EXPECT_GT(acc.overflow(), 0.9);  // mean 200*45us blew past the grid

  const double factor = acc.normalize();
  EXPECT_NEAR(acc.total_mass(), 1.0, kTol);
  EXPECT_NEAR(factor, 1.0, 1e-9);
}

TEST(PmfEdge, CoarserQuantumOnlyRaisesTheTailBound) {
  // Quantization rounds up, so refining the step can only tighten (never
  // invalidate) a deadline-miss bound: tail_coarse >= tail_fine >= exact.
  const sim::Time deadline = sim::micros(180);
  const auto build = [](sim::Time quantum) {
    Pmf pmf(quantum, 4096);
    pmf.add_mass(sim::micros(33), 0.5);    // lands before D either way
    pmf.add_mass(sim::micros(170), 0.3);   // rounds past D only at 50us
    pmf.add_mass(sim::micros(400), 0.2);   // past D either way
    return pmf;
  };
  const double coarse = build(sim::micros(50)).tail_above(deadline);
  const double fine = build(sim::micros(10)).tail_above(deadline);
  const double exact = 0.2;
  EXPECT_GE(coarse, fine - kTol);
  EXPECT_GE(fine, exact - kTol);
  EXPECT_NEAR(coarse, 0.5, kTol);  // 170 -> bin 200 > 180
  EXPECT_NEAR(fine, 0.2, kTol);    // 170 -> bin 170 <= 180
}

TEST(PmfEdge, QuantumInvarianceOfDegenerateAndSaturatedMasses) {
  // Grid-aligned point masses are step-invariant: the same distribution
  // quantized at 10us and 50us answers every grid-aligned query alike.
  for (const sim::Time q : {sim::micros(10), sim::micros(50)}) {
    Pmf pmf(q, 4096);
    pmf.add_mass(sim::Time::zero(), 0.25);
    pmf.add_mass(sim::micros(100), 0.5);
    pmf.add_mass(sim::micros(600), 0.25);
    EXPECT_NEAR(pmf.tail_above(sim::micros(100)), 0.25, kTol);
    EXPECT_NEAR(pmf.tail_above(sim::Time::zero()), 0.75, kTol);
    EXPECT_EQ(pmf.quantile(0.75), sim::micros(100));
  }
}

TEST(PmfEdge, ConvolveAndAccumulateRejectQuantumMismatch) {
  Pmf a(sim::micros(50), 8);
  Pmf b(sim::micros(10), 8);
  a.add_mass(sim::Time::zero(), 1.0);
  b.add_mass(sim::Time::zero(), 1.0);
  EXPECT_THROW((void)a.convolve(b), std::invalid_argument);
  EXPECT_THROW(a.accumulate(b, 0.5), std::invalid_argument);
}

// --- with_cycle_slips (DESIGN.md §15: geometric cycle-slip operator) ---

Pmf unit_at(sim::Time t, sim::Time quantum, std::size_t bins) {
  Pmf pmf(quantum, bins);
  pmf.add_mass(t, 1.0);
  return pmf;
}

TEST(CycleSlips, ZeroSlipProbabilityIsIdentityPlusNothing) {
  const Pmf first = unit_at(sim::micros(100), sim::micros(50), 64);
  const Pmf out = with_cycle_slips(first, 0.0, sim::millis(1), 8);
  EXPECT_NEAR(out.total_mass(), 1.0, kTol);
  EXPECT_NEAR(out.overflow(), 0.0, kTol);
  EXPECT_NEAR(out.tail_above(sim::micros(100)), 0.0, kTol);
  EXPECT_NEAR(out.tail_above(sim::micros(50)), 1.0, kTol);
  EXPECT_EQ(out.quantile(0.999), sim::micros(100));
}

TEST(CycleSlips, CertainSlipSendsAllMassToOverflow) {
  // p_slip = 1: no term of the geometric series ever lands, so the whole
  // unit mass must be conserved in the overflow bucket (certain miss),
  // never silently dropped.
  const Pmf first = unit_at(sim::micros(100), sim::micros(50), 64);
  const Pmf out = with_cycle_slips(first, 1.0, sim::millis(1), 16);
  EXPECT_NEAR(out.total_mass(), 1.0, kTol);
  EXPECT_NEAR(out.overflow(), 1.0, kTol);
  EXPECT_EQ(out.quantile(0.999), sim::Time::max());
}

TEST(CycleSlips, GeometricWeightsConserveMassAndMatchClosedForm) {
  const double p = 0.25;
  const sim::Time cycle = sim::millis(1);
  const Pmf first = unit_at(sim::micros(100), sim::micros(50), 4096);
  const Pmf out = with_cycle_slips(first, p, cycle, 32);
  EXPECT_NEAR(out.total_mass(), 1.0, 1e-9);
  // P(response > j cycles + first) = p^(j+1): the tail just above the
  // j-th landing point is exactly the not-yet-served geometric tail.
  for (int j = 0; j < 4; ++j) {
    EXPECT_NEAR(out.tail_above(cycle * j + sim::micros(100)),
                std::pow(p, j + 1), 1e-12)
        << "after slip " << j;
  }
}

TEST(CycleSlips, TruncationResidualLandsInOverflowAtTheSlipCap) {
  // max_slips = 2 keeps terms j=0..2; the residual p^3 must be overflow
  // so every deadline-miss tail stays an upper bound after truncation.
  const double p = 0.5;
  const Pmf first = unit_at(sim::micros(100), sim::micros(50), 4096);
  const Pmf out = with_cycle_slips(first, p, sim::millis(1), 2);
  EXPECT_NEAR(out.total_mass(), 1.0, kTol);
  EXPECT_NEAR(out.overflow(), 0.125, kTol);
  EXPECT_NEAR(out.tail_above(sim::seconds(1)), 0.125, kTol);
}

TEST(CycleSlips, GridExhaustionAtTheCutoffStillConserves) {
  // The shifted copies march off a deliberately tiny grid: shifted()
  // moves the late mass into overflow, and the operator's own residual
  // joins it — total mass stays 1 whatever the cap.
  const Pmf first = unit_at(sim::micros(100), sim::micros(50), 8);
  const Pmf out = with_cycle_slips(first, 0.5, sim::millis(5), 64);
  EXPECT_NEAR(out.total_mass(), 1.0, 1e-9);
  EXPECT_NEAR(out.overflow(), 0.5, 1e-9);  // every slipped term overflows
  EXPECT_NEAR(out.tail_above(sim::micros(100)), 0.5, 1e-9);
}

TEST(CycleSlips, RejectsMalformedParameters) {
  const Pmf first = unit_at(sim::micros(100), sim::micros(50), 8);
  EXPECT_THROW((void)with_cycle_slips(first, -0.1, sim::millis(1), 4),
               std::invalid_argument);
  EXPECT_THROW((void)with_cycle_slips(first, 1.1, sim::millis(1), 4),
               std::invalid_argument);
  EXPECT_THROW((void)with_cycle_slips(first, std::nan(""), sim::millis(1), 4),
               std::invalid_argument);
  EXPECT_THROW((void)with_cycle_slips(first, 0.5, sim::millis(1), -1),
               std::invalid_argument);
  EXPECT_THROW((void)with_cycle_slips(first, 0.5, sim::millis(-1), 4),
               std::invalid_argument);
}

// --- Differential test: support-bounded kernels vs the full grid ------

// The full-grid kernels Pmf used before it tracked its support: every
// loop walks all max_bins bins. The support-bounded kernels must match
// them bit for bit.
struct GridPmf {
  sim::Time quantum;
  std::vector<double> bins;
  double overflow = 0.0;

  GridPmf(sim::Time q, std::size_t n) : quantum(q), bins(n, 0.0) {}

  [[nodiscard]] std::size_t bin_of(sim::Time t) const {
    const std::int64_t q = quantum.ns();
    return static_cast<std::size_t>((t.ns() + q - 1) / q);
  }

  void add_mass(sim::Time t, double mass) {
    const std::size_t idx = bin_of(t);
    if (idx >= bins.size()) {
      overflow += mass;
    } else {
      bins[idx] += mass;
    }
  }

  [[nodiscard]] GridPmf convolve(const GridPmf& other) const {
    const std::size_t n = std::max(bins.size(), other.bins.size());
    GridPmf out(quantum, n);
    double in_a = 0.0;
    double in_b = 0.0;
    for (std::size_t i = 0; i < bins.size(); ++i) {
      const double a = bins[i];
      if (a == 0.0) continue;
      in_a += a;
      for (std::size_t j = 0; j < other.bins.size(); ++j) {
        const double b = other.bins[j];
        if (b == 0.0) continue;
        const std::size_t k = i + j;
        if (k >= n) {
          out.overflow += a * b;
        } else {
          out.bins[k] += a * b;
        }
      }
    }
    for (const double b : other.bins) in_b += b;
    out.overflow += overflow * (in_b + other.overflow) + other.overflow * in_a;
    return out;
  }

  void accumulate(const GridPmf& other, double weight) {
    const std::size_t n = std::min(bins.size(), other.bins.size());
    for (std::size_t i = 0; i < n; ++i) bins[i] += weight * other.bins[i];
    for (std::size_t i = n; i < other.bins.size(); ++i) {
      overflow += weight * other.bins[i];
    }
    overflow += weight * other.overflow;
  }

  [[nodiscard]] GridPmf shifted(sim::Time dt) const {
    const std::size_t shift = bin_of(dt);
    GridPmf out(quantum, bins.size());
    for (std::size_t i = 0; i < bins.size(); ++i) {
      if (bins[i] == 0.0) continue;
      const std::size_t k = i + shift;
      if (k >= out.bins.size()) {
        out.overflow += bins[i];
      } else {
        out.bins[k] = bins[i];
      }
    }
    out.overflow += overflow;
    return out;
  }

  [[nodiscard]] double tail_above(sim::Time t) const {
    double tail = overflow;
    if (t < sim::Time::zero()) t = sim::Time::zero();
    const std::size_t first =
        static_cast<std::size_t>(t.ns() / quantum.ns()) + 1;
    for (std::size_t i = first; i < bins.size(); ++i) tail += bins[i];
    return tail;
  }

  [[nodiscard]] sim::Time quantile(double p) const {
    double cum = 0.0;
    for (std::size_t i = 0; i < bins.size(); ++i) {
      cum += bins[i];
      if (cum >= p) return quantum * static_cast<std::int64_t>(i);
    }
    return sim::Time::max();
  }

  [[nodiscard]] double total_mass() const {
    double total = overflow;
    for (const double b : bins) total += b;
    return total;
  }

  double normalize() {
    const double total = total_mass();
    if (total <= 0.0) return 1.0;
    const double inv = 1.0 / total;
    for (double& b : bins) b *= inv;
    overflow *= inv;
    return inv;
  }
};

GridPmf grid_cycle_slips(const GridPmf& first, double p_slip, sim::Time cycle,
                         int max_slips) {
  GridPmf out(first.quantum, first.bins.size());
  double p_pow = 1.0;
  for (int j = 0; j <= max_slips; ++j) {
    const double weight = (1.0 - p_slip) * p_pow;
    if (weight > 0.0) out.accumulate(first.shifted(cycle * j), weight);
    p_pow *= p_slip;
    if (p_pow == 0.0 && j < max_slips) break;
  }
  out.overflow += p_pow * first.total_mass();
  return out;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Bins and overflow identical bit for bit, and the support covering
/// every nonzero bin.
::testing::AssertionResult matches(const Pmf& got, const GridPmf& want) {
  if (got.max_bins() != want.bins.size()) {
    return ::testing::AssertionFailure()
           << "max_bins " << got.max_bins() << " vs " << want.bins.size();
  }
  if (std::memcmp(got.bins().data(), want.bins.data(),
                  want.bins.size() * sizeof(double)) != 0) {
    return ::testing::AssertionFailure() << "bins differ";
  }
  if (!same_bits(got.overflow(), want.overflow)) {
    return ::testing::AssertionFailure()
           << "overflow " << got.overflow() << " vs " << want.overflow;
  }
  if (got.support_lo() > got.support_hi() ||
      got.support_hi() > got.max_bins()) {
    return ::testing::AssertionFailure() << "malformed support";
  }
  for (std::size_t i = 0; i < got.max_bins(); ++i) {
    if (got.bins()[i] != 0.0 &&
        (i < got.support_lo() || i >= got.support_hi())) {
      return ::testing::AssertionFailure()
             << "nonzero bin " << i << " outside support ["
             << got.support_lo() << ", " << got.support_hi() << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(PmfDifferential, SupportKernelsMatchFullGridBitForBit) {
  const sim::Time q = sim::micros(50);
  constexpr std::size_t kSizes[] = {1, 8, 16, 64, 300};
  sim::Rng rng(2026);
  int ops = 0;
  for (int run = 0; run < 60; ++run) {
    // Three slots with independently drawn grid sizes, so accumulate
    // and convolve see unequal max_bins both ways.
    std::vector<Pmf> got;
    std::vector<GridPmf> want;
    for (int k = 0; k < 3; ++k) {
      const std::size_t n = kSizes[rng.uniform_int(0, 4)];
      got.emplace_back(q, n);
      want.emplace_back(q, n);
    }
    for (int step = 0; step < 80; ++step, ++ops) {
      const auto slot = static_cast<std::size_t>(rng.uniform_int(0, 2));
      const auto src = static_cast<std::size_t>(rng.uniform_int(0, 2));
      Pmf& g = got[slot];
      GridPmf& w = want[slot];
      const std::size_t n = g.max_bins();
      // Delays up to twice past the grid, off the grid points too.
      const sim::Time t = sim::nanos(rng.uniform_int(
          0, static_cast<std::int64_t>(2 * n + 2) * q.ns()));
      const double weight = rng.bernoulli(0.1) ? 0.0 : rng.uniform01();
      const std::string where = "run " + std::to_string(run) + " step " +
                                std::to_string(step);
      switch (rng.uniform_int(0, 10)) {
        case 0:
        case 1:
          g.add_mass(t, weight);
          w.add_mass(t, weight);
          break;
        case 2:
          g.add_overflow(weight);
          w.overflow += weight;
          break;
        case 3:
          g = g.convolve(got[src]);
          w = w.convolve(want[src]);
          break;
        case 4:
          g.accumulate(got[src], weight);
          w.accumulate(want[src], weight);
          break;
        case 5:
          if (src == slot) break;  // accumulate_shifted must not alias
          g.accumulate_shifted(got[src], t, weight);
          w.accumulate(want[src].shifted(t), weight);
          break;
        case 6: {
          const double p = rng.bernoulli(0.2) ? rng.uniform_int(0, 1)
                                              : rng.uniform01();
          const sim::Time cycle =
              sim::nanos(rng.uniform_int(0, static_cast<std::int64_t>(n)) *
                         q.ns() / 2);
          const int slips = static_cast<int>(rng.uniform_int(0, 70));
          g = with_cycle_slips(got[src], p, cycle, slips);
          w = grid_cycle_slips(want[src], p, cycle, slips);
          break;
        }
        case 7:
          ASSERT_TRUE(same_bits(g.normalize(), w.normalize())) << where;
          break;
        case 8: {
          const sim::Time at = t - q * 2;  // negative queries too
          ASSERT_TRUE(same_bits(g.tail_above(at), w.tail_above(at))) << where;
          ASSERT_TRUE(same_bits(g.total_mass(), w.total_mass())) << where;
          break;
        }
        case 9: {
          const double p = rng.bernoulli(0.3)
                               ? rng.uniform(-0.5, 0.0)
                               : rng.uniform(0.0, 1.2) * g.total_mass();
          ASSERT_EQ(g.quantile(p), w.quantile(p)) << where << " p=" << p;
          break;
        }
        default:
          g = Pmf(q, n);  // back to all zero
          w = GridPmf(q, n);
          break;
      }
      ASSERT_TRUE(matches(g, w)) << where;
    }
  }
  EXPECT_GT(ops, 4000);
}

TEST(PmfDifferential, EdgeCasesMatchFullGrid) {
  const sim::Time q = sim::micros(50);
  // All zero: every query answers as the full grid does.
  const Pmf zero(q, 64);
  const GridPmf zero_ref(q, 64);
  EXPECT_TRUE(matches(zero, zero_ref));
  EXPECT_EQ(zero.quantile(0.0), sim::Time::zero());
  EXPECT_EQ(zero.quantile(-1.0), zero_ref.quantile(-1.0));
  EXPECT_EQ(zero.quantile(0.5), sim::Time::max());
  EXPECT_TRUE(same_bits(zero.total_mass(), zero_ref.total_mass()));
  EXPECT_TRUE(matches(zero.convolve(zero), zero_ref.convolve(zero_ref)));

  // quantile(p <= 0) is 0 even when the support starts late.
  Pmf late(q, 64);
  late.add_mass(q * 40, 1.0);
  EXPECT_EQ(late.support_lo(), 40u);
  EXPECT_EQ(late.quantile(0.0), sim::Time::zero());
  EXPECT_EQ(late.quantile(-0.25), sim::Time::zero());
  EXPECT_EQ(late.quantile(1.0), q * 40);

  // A shift of max_bins or more spills everything into the overflow.
  GridPmf late_ref(q, 64);
  late_ref.add_mass(q * 40, 1.0);
  for (const sim::Time dt : {q * 24, q * 64, q * 1000}) {
    Pmf got(q, 64);
    GridPmf want(q, 64);
    got.accumulate_shifted(late, dt, 0.375);
    want.accumulate(late_ref.shifted(dt), 0.375);
    EXPECT_TRUE(matches(got, want)) << "dt=" << dt.ns();
  }
  EXPECT_THROW(Pmf(q, 8).accumulate_shifted(late, sim::nanos(-1), 1.0),
               std::invalid_argument);
  EXPECT_THROW(Pmf(sim::micros(10), 8).accumulate_shifted(late, q, 1.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace coeff::analysis
