/**
 * @file
 * Deterministic pseudo-random number generation for workload synthesis.
 *
 * The simulator must be bit-reproducible across runs and platforms, so we
 * avoid std::mt19937's unspecified distribution implementations and ship a
 * small xoshiro256** engine plus the handful of distributions the graph
 * generators need. All distributions are implemented here and therefore
 * stable across standard libraries.
 */

#ifndef DITILE_COMMON_RNG_HH
#define DITILE_COMMON_RNG_HH

#include <cstdint>
#include <vector>

namespace ditile {

/**
 * xoshiro256** PRNG with SplitMix64 seeding.
 *
 * Satisfies the C++ UniformRandomBitGenerator concept so it can also be
 * handed to standard algorithms where reproducibility does not matter.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Construct from a 64-bit seed; all four lanes derived by SplitMix64. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type(0); }

    /** Next raw 64-bit value (inline: the generators call it ~10^6 times). */
    result_type
    operator()()
    {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    /** Uniform integer in [lo, hi] (inclusive). Requires lo <= hi. */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /** Uniform double in [0, 1): the 53 high bits of one draw. */
    double
    uniformReal()
    {
        return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double uniformReal(double lo, double hi);

    /** Bernoulli trial with success probability p (clamped to [0,1]). */
    bool bernoulli(double p);

    /**
     * Zipf-like integer in [0, n) with exponent s.
     *
     * Used for skewed-degree vertex selection; implemented by inverse
     * transform over the (approximated) generalized harmonic CDF.
     */
    std::int64_t zipf(std::int64_t n, double s);

    /** Fisher-Yates shuffle of a vector (deterministic given the seed). */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i) {
            std::size_t j =
                static_cast<std::size_t>(uniformInt(0,
                    static_cast<std::int64_t>(i) - 1));
            std::swap(v[i - 1], v[j]);
        }
    }

    /**
     * Draw k distinct integers from [0, n) without replacement.
     * Uses Floyd's algorithm; O(k) expected time, deterministic order
     * normalization (ascending).
     */
    std::vector<std::int64_t> sampleWithoutReplacement(std::int64_t n,
                                                       std::int64_t k);

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s_[4];
};

/**
 * Stateless 64-bit mix (SplitMix64 finalizer); handy for hashing seeds.
 * Inline: the planner's edge sampling and the traffic drain call it
 * once per edge or message.
 */
inline std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace ditile

#endif // DITILE_COMMON_RNG_HH
