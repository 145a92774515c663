// perfbench: one run of one workload.
//
//   perfbench --workload mc_read|mc_write|email --seed N --seconds S
//             --trace 0|1
//
// Prints `#` info lines, then one JSON result line (see ../README.md).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "concurrent/rng.hpp"
#include "workloads.hpp"

namespace pb {

std::vector<std::uint64_t> poisson_offsets(double rps, double seconds,
                                           std::uint64_t seed) {
  icilk::Xoshiro256 rng(seed, 1);
  std::vector<std::uint64_t> out;
  out.reserve(static_cast<std::size_t>(rps * seconds * 1.1) + 16);
  const double end_ns = seconds * 1e9;
  double t = 0;
  for (;;) {
    t += -std::log1p(-rng.uniform()) / rps * 1e9;
    if (t >= end_ns) break;
    out.push_back(static_cast<std::uint64_t>(t));
  }
  return out;
}

}  // namespace pb

int main(int argc, char** argv) {
  pb::Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      o.workload = v;
    } else if (k == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      o.seconds = std::atof(v);
    } else if (k == "--trace") {
      o.trace = std::strcmp(v, "0") != 0;
    } else {
      std::fprintf(stderr, "perfbench: unknown option %s\n", k.c_str());
      return 2;
    }
  }
  if (o.seconds <= 0) {
    std::fprintf(stderr, "perfbench: --seconds must be positive\n");
    return 2;
  }
  pb::Report r;
  if (o.workload == "mc_read" || o.workload == "mc_write") {
    r = pb::run_mc(o);
  } else if (o.workload == "email") {
    r = pb::run_email(o);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 o.workload.c_str());
    return 2;
  }
  r.print();
  return 0;
}
