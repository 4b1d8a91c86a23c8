// Deterministic pseudo-random number generator (splitmix64 + xoshiro256**).
//
// std::mt19937 is avoided so that random sequences are identical across
// standard-library implementations; reproducing the paper's tables requires
// bit-exact determinism.
#pragma once

#include <array>
#include <cstdint>
#include <limits>

namespace pbse {

/// xoshiro256** seeded via splitmix64. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    // splitmix64 to fill the state; avoids the all-zero state.
    std::uint64_t x = seed;
    for (auto& s : state_) {
      x += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      s = z ^ (z >> 31);
    }
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, n). n must be > 0. Uses Lemire's method.
  std::uint64_t below(std::uint64_t n) {
    // Rejection-free multiply-shift; bias is negligible (< 2^-64 * n) and
    // determinism matters more than perfect uniformity here.
    unsigned __int128 m = static_cast<unsigned __int128>((*this)()) * n;
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Raw generator state, for snapshot/restore (src/serialize). A restored
  /// Rng continues the exact sequence the saved one would have produced.
  std::array<std::uint64_t, 4> state() const {
    return {state_[0], state_[1], state_[2], state_[3]};
  }
  void set_state(const std::array<std::uint64_t, 4>& s) {
    for (int i = 0; i < 4; ++i) state_[i] = s[i];
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4] = {};
};

}  // namespace pbse
