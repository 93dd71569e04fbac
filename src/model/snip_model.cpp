#include "snipr/model/snip_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace snipr::model {
namespace {

void check_positive(double value, const char* name) {
  if (!(value > 0.0)) {
    throw std::invalid_argument(std::string{name} + " must be > 0");
  }
}

}  // namespace

double expected_probed_time(double l_s, double tcycle_s) {
  check_positive(tcycle_s, "tcycle");
  if (l_s <= 0.0) return 0.0;
  if (tcycle_s >= l_s) {
    // A wakeup lands inside the contact with probability l/Tcycle, and the
    // hit point is uniform over the contact: E = (l/Tcycle)·(l/2).
    return l_s * l_s / (2.0 * tcycle_s);
  }
  // A wakeup always lands inside; the wait to the first one is uniform
  // over the cycle: E = l − Tcycle/2.
  return l_s - tcycle_s / 2.0;
}

double upsilon_fixed(double duty, double tcontact_s, double ton_s) {
  check_positive(tcontact_s, "tcontact");
  check_positive(ton_s, "ton");
  if (duty <= 0.0) return 0.0;
  const double d = std::min(duty, 1.0);
  const double tcycle = ton_s / d;
  return expected_probed_time(tcontact_s, tcycle) / tcontact_s;
}

double knee_duty(double tcontact_s, double ton_s) {
  check_positive(tcontact_s, "tcontact");
  check_positive(ton_s, "ton");
  return std::min(1.0, ton_s / tcontact_s);
}

double upsilon_exponential(double duty, double mean_s, double ton_s) {
  check_positive(mean_s, "mean contact length");
  check_positive(ton_s, "ton");
  if (duty <= 0.0) return 0.0;
  const double d = std::min(duty, 1.0);
  const double t = ton_s / d;  // Tcycle
  const double a = t / mean_s;
  // E[Tprobed] = ∫_0^T l²/(2T) f(l) dl + ∫_T^∞ (l − T/2) f(l) dl for
  // f exponential with mean μ:
  //   first term  = μ²(2 − e^{−a}(a² + 2a + 2)) / (2T)
  //   second term = e^{−a}(μ(a + 1) − T/2)
  const double ea = std::exp(-a);
  const double first =
      mean_s * mean_s * (2.0 - ea * (a * a + 2.0 * a + 2.0)) / (2.0 * t);
  const double second = ea * (mean_s * (a + 1.0) - t / 2.0);
  return (first + second) / mean_s;
}

double upsilon_monte_carlo(double duty, const sim::Distribution& length,
                           double ton_s, std::size_t samples, sim::Rng& rng) {
  check_positive(ton_s, "ton");
  if (samples == 0) {
    throw std::invalid_argument("upsilon_monte_carlo: samples must be > 0");
  }
  if (duty <= 0.0) return 0.0;
  const double tcycle = ton_s / std::min(duty, 1.0);
  double probed = 0.0;
  double capacity = 0.0;
  for (std::size_t i = 0; i < samples; ++i) {
    const double l = length.sample(rng);
    probed += expected_probed_time(l, tcycle);
    capacity += l;
  }
  return capacity > 0.0 ? probed / capacity : 0.0;
}

}  // namespace snipr::model
