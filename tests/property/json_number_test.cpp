#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>

#include "snipr/core/json_writer.hpp"
#include "snipr/sim/rng.hpp"

/// The JSON writer's numbers against printf: `append_number` must write
/// exactly what "%.10g" writes for every finite double (and `null`
/// otherwise), and `append_uint_field` exactly what "%llu" writes. The
/// golden corpus was written through snprintf, so any difference would
/// move its bytes.

namespace snipr::core::json {
namespace {

std::string printf_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.10g", value);
  return buffer;
}

void expect_number_like_printf(double value) {
  std::string out;
  append_number(out, value);
  ASSERT_EQ(out, printf_number(value))
      << "bits 0x" << std::hex << std::bit_cast<std::uint64_t>(value);
}

void expect_uint_like_printf(std::uint64_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "\"k\":%llu,",
                static_cast<unsigned long long>(value));
  std::string out;
  append_uint_field(out, "k", value);
  ASSERT_EQ(out, buffer);
}

TEST(JsonNumber, EdgeValuesMatchPrintf) {
  using limits = std::numeric_limits<double>;
  const double two53 = 9007199254740992.0;
  for (const double v :
       {0.0, -0.0, 1.0, -1.0, 0.1, 1.0 / 3.0, 2.0 / 3.0, 0.5, 100.0, 1e10,
        12345678901.0, 9999999999.0, 9999999999.5, 99999.999995, 0.0001,
        0.00001, 0.000099999999995, 1e15, 1e16, 1e21, -1e21, 1e22, two53,
        two53 + 2.0, limits::max(), -limits::max(), limits::min(),
        limits::denorm_min(), -limits::denorm_min(), 1e-310, -4.9e-324,
        1e-300, 123456.7890123, -0.000123456789012345, 1e100, 5e-324,
        limits::infinity(), -limits::infinity(), limits::quiet_NaN()}) {
    expect_number_like_printf(v);
  }
  // 2^53 + 1 is not a double; the nearest ones are.
  expect_number_like_printf(std::nextafter(two53, 0.0));
  expect_number_like_printf(std::nextafter(two53, limits::infinity()));
  // Integer-valued doubles across the fixed/exponent switch at 1e10.
  double v = 1.0;
  for (int k = 0; k < 25; ++k, v = v * 10.0 + 7.0) {
    expect_number_like_printf(v);
    expect_number_like_printf(-v);
  }
}

TEST(JsonNumber, RandomDoublesMatchPrintf) {
  sim::Rng rng{41};
  for (int i = 0; i < 100000; ++i) {
    // Raw bit patterns: every exponent, subnormals, NaN and infinities.
    expect_number_like_printf(std::bit_cast<double>(rng.next()));
    // Values as metrics hold them: a modest mantissa at some scale.
    const double scale = std::pow(10.0, rng.uniform(-12.0, 14.0));
    expect_number_like_printf(rng.uniform(-1.0, 1.0) * scale);
  }
}

TEST(JsonNumber, UnsignedFieldsMatchPrintf) {
  const std::uint64_t two53 = std::uint64_t{1} << 53;
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{9},
        std::uint64_t{10}, two53, two53 + 1,
        std::numeric_limits<std::uint64_t>::max() - 1,
        std::numeric_limits<std::uint64_t>::max()}) {
    expect_uint_like_printf(v);
  }
  sim::Rng rng{42};
  for (int i = 0; i < 10000; ++i) {
    expect_uint_like_printf(rng.next() >> rng.uniform_int(64));
  }
}

}  // namespace
}  // namespace snipr::core::json
