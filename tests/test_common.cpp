// Unit tests for the common substrate: Grid2D, Rng, FFT, statistics,
// deadlines.

#include <cmath>
#include <complex>
#include <limits>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "common/deadline.hpp"
#include "common/error.hpp"
#include "common/fft.hpp"
#include "common/grid2d.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"

namespace neurfill {
namespace {

TEST(Grid2D, IndexingRoundTrip) {
  Grid2D<int> g(3, 4, 0);
  int v = 0;
  for (std::size_t i = 0; i < g.rows(); ++i)
    for (std::size_t j = 0; j < g.cols(); ++j) g(i, j) = v++;
  // Flat order must be row major.
  for (std::size_t k = 0; k < g.size(); ++k)
    EXPECT_EQ(g[k], static_cast<int>(k));
}

TEST(Grid2D, FillAndEquality) {
  GridD a(2, 2, 1.5);
  GridD b(2, 2, 1.5);
  EXPECT_EQ(a, b);
  b(1, 1) = 2.0;
  EXPECT_FALSE(a == b);
  a.fill(0.0);
  for (const double v : a) EXPECT_EQ(v, 0.0);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformRange) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIndexUnbiasedish) {
  Rng r(11);
  std::vector<int> counts(5, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[r.uniform_index(5)];
  for (const int c : counts)
    EXPECT_NEAR(static_cast<double>(c) / n, 0.2, 0.02);
}

TEST(Rng, NormalMoments) {
  Rng r(13);
  std::vector<double> xs(20000);
  for (auto& x : xs) x = r.normal(3.0, 2.0);
  const Summary s = summarize(xs);
  EXPECT_NEAR(s.mean, 3.0, 0.1);
  EXPECT_NEAR(s.stddev, 2.0, 0.1);
}

TEST(Rng, SplitStreamsIndependent) {
  Rng a(5);
  Rng b = a.split();
  Rng c = a.split();
  EXPECT_NE(b.next_u64(), c.next_u64());
}

TEST(Fft, MatchesNaiveDft) {
  Rng rng(3);
  const std::size_t n = 16;
  std::vector<std::complex<double>> x(n);
  for (auto& v : x) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  auto fx = x;
  fft(fx, false);
  for (std::size_t k = 0; k < n; ++k) {
    std::complex<double> acc{0, 0};
    for (std::size_t t = 0; t < n; ++t) {
      const double ang = -2.0 * M_PI * static_cast<double>(k * t) / n;
      acc += x[t] * std::complex<double>(std::cos(ang), std::sin(ang));
    }
    EXPECT_NEAR(std::abs(fx[k] - acc), 0.0, 1e-9);
  }
}

TEST(Fft, RoundTripIdentity) {
  Rng rng(4);
  std::vector<std::complex<double>> x(64);
  for (auto& v : x) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  auto y = x;
  fft(y, false);
  fft(y, true);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(std::abs(y[i] - x[i]), 0.0, 1e-12);
}

TEST(Fft, ParsevalEnergyConservation) {
  Rng rng(5);
  std::vector<std::complex<double>> x(32);
  double e_time = 0.0;
  for (auto& v : x) {
    v = {rng.uniform(-1, 1), 0.0};
    e_time += std::norm(v);
  }
  auto fx = x;
  fft(fx, false);
  double e_freq = 0.0;
  for (const auto& v : fx) e_freq += std::norm(v);
  EXPECT_NEAR(e_time, e_freq / 32.0, 1e-10);
}

TEST(Fft2d, RoundTrip) {
  Rng rng(6);
  std::vector<std::complex<double>> x(8 * 16);
  for (auto& v : x) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  auto y = x;
  fft2d(y, 8, 16, false);
  fft2d(y, 8, 16, true);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(std::abs(y[i] - x[i]), 0.0, 1e-12);
}

TEST(CircularConvolver, DeltaKernelIsIdentity) {
  GridD kernel(8, 8, 0.0);
  kernel(0, 0) = 1.0;
  CircularConvolver conv(kernel);
  Rng rng(8);
  GridD in(8, 8, 0.0);
  for (auto& v : in) v = rng.uniform(-1, 1);
  const GridD out = conv.apply(in);
  for (std::size_t k = 0; k < in.size(); ++k) EXPECT_NEAR(out[k], in[k], 1e-10);
}

TEST(CircularConvolver, ShiftKernelShiftsInput) {
  GridD kernel(8, 8, 0.0);
  kernel(1, 0) = 1.0;  // shift down by one row (wrap within padded grid)
  CircularConvolver conv(kernel);
  GridD in(8, 8, 0.0);
  in(2, 3) = 1.0;
  const GridD out = conv.apply(in);
  EXPECT_NEAR(out(3, 3), 1.0, 1e-10);
  EXPECT_NEAR(out(2, 3), 0.0, 1e-10);
}

TEST(ConvolveSmall, MatchesManualConvolution) {
  GridD in(4, 4, 0.0);
  in(1, 1) = 2.0;
  in(2, 3) = -1.0;
  GridD k(3, 3, 0.0);
  k(1, 1) = 0.5;
  k(0, 1) = 0.25;
  k(2, 1) = 0.25;
  const GridD out = convolve_small(in, k);
  EXPECT_NEAR(out(1, 1), 1.0, 1e-12);
  EXPECT_NEAR(out(2, 1), 0.5, 1e-12);   // from in(1,1) via k(0? ...)
  EXPECT_NEAR(out(0, 1), 0.5, 1e-12);
  EXPECT_NEAR(out(2, 3), -0.5, 1e-12);
}

TEST(ConvolveSmall, SumPreservedByNormalizedKernelInterior) {
  // A normalized kernel on an all-ones grid returns ones in the interior.
  GridD in(6, 6, 1.0);
  GridD k(3, 3, 1.0 / 9.0);
  const GridD out = convolve_small(in, k);
  EXPECT_NEAR(out(3, 3), 1.0, 1e-12);
  // Corners lose mass to the zero boundary.
  EXPECT_LT(out(0, 0), 1.0);
}

TEST(Stats, SummaryBasics) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 4u);
  EXPECT_NEAR(s.mean, 2.5, 1e-12);
  EXPECT_NEAR(s.variance, 1.25, 1e-12);
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, 4.0);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> xs{0.0, 10.0};
  EXPECT_NEAR(percentile(xs, 50.0), 5.0, 1e-12);
  EXPECT_NEAR(percentile(xs, 0.0), 0.0, 1e-12);
  EXPECT_NEAR(percentile(xs, 100.0), 10.0, 1e-12);
}

TEST(ErrorTaxonomy, EveryCodeHasADistinctStableName) {
  // Every ErrorCode must format to a distinct, machine-greppable name —
  // the serve protocol ships these strings to clients ("overloaded",
  // "queue_full", "retry_exhausted" are part of the wire contract).
  const ErrorCode codes[] = {
      ErrorCode::kNonConverged,      ErrorCode::kNumericPoison,
      ErrorCode::kIo,                ErrorCode::kNotFound,
      ErrorCode::kCorrupt,           ErrorCode::kDeadlineExceeded,
      ErrorCode::kInterrupted,       ErrorCode::kResourceExhausted,
      ErrorCode::kInvalidArgument,   ErrorCode::kOverloaded,
      ErrorCode::kQueueFull,         ErrorCode::kRetryExhausted,
  };
  std::set<std::string> names;
  for (const ErrorCode code : codes) {
    const std::string name = error_code_name(code);
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "unknown");
    EXPECT_TRUE(names.insert(name).second) << "duplicate name: " << name;
  }
  EXPECT_EQ(std::string(error_code_name(ErrorCode::kOverloaded)),
            "overloaded");
  EXPECT_EQ(std::string(error_code_name(ErrorCode::kQueueFull)),
            "queue_full");
  EXPECT_EQ(std::string(error_code_name(ErrorCode::kRetryExhausted)),
            "retry_exhausted");
}

TEST(ErrorTaxonomy, RoundTripsThroughWhatFormatting) {
  // An Error thrown as ErrorException must survive both ways: the typed
  // `err` carries the code, and the generic what() string embeds the
  // "[subsystem] code: message" rendering so a plain catch still logs the
  // full context.
  const ErrorCode codes[] = {
      ErrorCode::kOverloaded, ErrorCode::kQueueFull,
      ErrorCode::kRetryExhausted, ErrorCode::kIo, ErrorCode::kCorrupt,
  };
  for (const ErrorCode code : codes) {
    const Error err(code, "serve.test", "round trip");
    try {
      throw ErrorException(err);
    } catch (const ErrorException& e) {
      EXPECT_EQ(e.err.code, code);
      const std::string what = e.what();
      EXPECT_EQ(what, err.to_string());
      EXPECT_NE(what.find(error_code_name(code)), std::string::npos);
      EXPECT_NE(what.find("[serve.test]"), std::string::npos);
      EXPECT_NE(what.find("round trip"), std::string::npos);
    }
  }
}

TEST(Stats, HistogramClampsAndCounts) {
  Histogram h(0.0, 1.0, 10);
  h.add(-0.5);  // clamps into bucket 0
  h.add(0.05);
  h.add(0.95);
  h.add(2.0);  // clamps into last bucket
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.counts.front(), 2u);
  EXPECT_EQ(h.counts.back(), 2u);
  EXPECT_NEAR(h.fraction_below(0.5), 0.5, 1e-12);
}

TEST(Deadline, BudgetPastTheClockRangeIsNoDeadline) {
  // nf_fill --deadline-s and a submit's deadline_s reach after_seconds
  // unchecked; the chrono cast must never see these.
  for (const double s : {1e300, std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN()}) {
    const Deadline d = Deadline::after_seconds(s);
    EXPECT_TRUE(d.is_infinite()) << s;
    EXPECT_FALSE(d.expired()) << s;
  }
  const Deadline hour = Deadline::after_seconds(3600.0);
  EXPECT_FALSE(hour.is_infinite());
  EXPECT_FALSE(hour.expired());
  EXPECT_TRUE(Deadline::after_seconds(0.0).expired());
}

}  // namespace
}  // namespace neurfill
