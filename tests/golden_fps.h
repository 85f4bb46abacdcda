// Golden traffic fingerprints: the one place the engine's exact output is
// pinned.
//
// Each constant is the TrafficReport fingerprint of RunTraffic over the
// configuration built beside it. They pin the whole engine — deal
// generation, the protocol drivers, indexed observation delivery, the
// checker and the report fold — so any change to the wire traffic or to
// the fold moves them.
//
// If a change legitimately alters the fingerprint (i.e. the observable
// wire traffic changed on purpose), update the constants HERE — once —
// and say why in the commit message. Never fork a private copy in a test.

#ifndef XDEAL_TESTS_GOLDEN_FPS_H_
#define XDEAL_TESTS_GOLDEN_FPS_H_

#include <cstdint>

#include "core/traffic_engine.h"

namespace xdeal {

/// seed 101, 40 deals, 6 chains, default protocol mix, stock options.
inline TrafficOptions GoldenMixedOptions() {
  TrafficOptions options;
  options.base_seed = 101;
  options.num_deals = 40;
  options.num_chains = 6;
  return options;
}
inline constexpr uint64_t kGoldenFpMixedSeed101 = 0x18a7c1d300a981a3ULL;

/// seed 202, 30 deals, 4 chains, all-kCbc mix, stock options.
inline TrafficOptions GoldenCbcOptions() {
  TrafficOptions options;
  options.base_seed = 202;
  options.num_deals = 30;
  options.num_chains = 4;
  options.protocol_mix = {Protocol::kCbc};
  return options;
}
inline constexpr uint64_t kGoldenFpCbcSeed202 = 0x9eb4ae26fd1e44b3ULL;

}  // namespace xdeal

#endif  // XDEAL_TESTS_GOLDEN_FPS_H_
