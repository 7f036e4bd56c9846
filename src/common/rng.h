// Deterministic randomness. Every component derives its generator from the
// experiment seed through named streams, so adding a new consumer of
// randomness never perturbs existing ones.
#pragma once

#include <cstdint>
#include <random>
#include <string_view>
#include <vector>

#include "common/assert.h"

namespace gocast {

/// SplitMix64 step — used to derive well-mixed child seeds.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state);

/// Stable 64-bit FNV-1a hash of a label, for naming RNG streams.
[[nodiscard]] std::uint64_t hash_label(std::string_view label);

/// A seeded random source. Thin wrapper over std::mt19937_64 that adds the
/// handful of sampling helpers the protocols need and supports deriving
/// independent child generators by label.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(mix(seed)), seed_material_(seed) {}

  /// Child generator whose stream is independent of (and stable w.r.t.)
  /// this generator's own consumption.
  [[nodiscard]] Rng fork(std::string_view label) const {
    return Rng(seed_material_ ^ hash_label(label));
  }

  /// Child generator derived from a numeric index (e.g. per-node streams).
  [[nodiscard]] Rng fork(std::uint64_t index) const {
    std::uint64_t s = seed_material_ + 0x632be59bd9b4e019ULL * (index + 1);
    return Rng(splitmix64(s));
  }

  /// The material fork() derives children from: Rng(r.seed()).fork(x)
  /// equals r.fork(x), so a holder that only ever forks can keep these
  /// 8 bytes instead of the 2.5 KB engine.
  [[nodiscard]] std::uint64_t seed() const { return seed_material_; }

  /// Uniform integer in [0, bound). bound must be positive.
  [[nodiscard]] std::uint64_t next_below(std::uint64_t bound) {
    GOCAST_ASSERT(bound > 0);
    return std::uniform_int_distribution<std::uint64_t>(0, bound - 1)(engine_);
  }

  /// Uniform double in [0, 1).
  [[nodiscard]] double next_unit() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
  }

  /// Uniform double in [lo, hi).
  [[nodiscard]] double next_range(double lo, double hi) {
    GOCAST_ASSERT(lo <= hi);
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Normal deviate.
  [[nodiscard]] double next_gaussian(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Bernoulli trial.
  [[nodiscard]] bool next_bool(double p_true) {
    return std::bernoulli_distribution(p_true)(engine_);
  }

  /// Uniformly chosen element of a non-empty vector.
  template <typename T>
  [[nodiscard]] const T& pick(const std::vector<T>& v) {
    GOCAST_ASSERT(!v.empty());
    return v[static_cast<std::size_t>(next_below(v.size()))];
  }

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(next_below(i));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Reservoir-samples k distinct positions of v (order unspecified).
  template <typename T>
  [[nodiscard]] std::vector<T> sample(const std::vector<T>& v, std::size_t k) {
    std::vector<T> out;
    out.reserve(std::min(k, v.size()));
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (out.size() < k) {
        out.push_back(v[i]);
      } else {
        std::size_t j = static_cast<std::size_t>(next_below(i + 1));
        if (j < k) out[j] = v[i];
      }
    }
    return out;
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  static std::uint64_t mix(std::uint64_t seed) {
    std::uint64_t s = seed;
    return splitmix64(s);
  }

  std::mt19937_64 engine_;
  std::uint64_t seed_material_ = 0;
};

}  // namespace gocast
