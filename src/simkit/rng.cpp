#include "simkit/rng.hpp"

#include <cassert>
#include <cmath>

namespace simkit {

double Rng::exponential(double mean) {
  assert(mean > 0.0);
  double u;
  do {
    u = uniform();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

}  // namespace simkit
