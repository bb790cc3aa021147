/**
 * @file
 * xoshiro256** engine and distribution implementations.
 */

#include "common/rng.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace ditile {

Rng::Rng(std::uint64_t seed)
{
    // SplitMix64 expansion of the seed into the four state lanes; this
    // guarantees a non-zero state for every seed, including zero.
    std::uint64_t x = seed;
    for (auto &lane : s_) {
        x += 0x9e3779b97f4a7c15ULL;
        std::uint64_t z = x;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        lane = z ^ (z >> 31);
    }
}

std::int64_t
Rng::uniformInt(std::int64_t lo, std::int64_t hi)
{
    assert(lo <= hi);
    const std::uint64_t range = static_cast<std::uint64_t>(hi - lo) + 1;
    if (range == 0) { // full 64-bit span
        return static_cast<std::int64_t>((*this)());
    }
    // Rejection sampling to remove modulo bias.
    const std::uint64_t limit = max() - max() % range;
    std::uint64_t v;
    do {
        v = (*this)();
    } while (v >= limit);
    return lo + static_cast<std::int64_t>(v % range);
}

double
Rng::uniformReal(double lo, double hi)
{
    return lo + (hi - lo) * uniformReal();
}

bool
Rng::bernoulli(double p)
{
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniformReal() < p;
}

std::int64_t
Rng::zipf(std::int64_t n, double s)
{
    assert(n > 0);
    if (n == 1) return 0;
    // Rejection-inversion (Hörmann) is overkill here; the generators only
    // need a deterministic skewed pick, so we invert the continuous
    // approximation of the CDF: F(x) ~ x^(1-s) for s != 1, log for s == 1.
    const double u = uniformReal();
    double x;
    if (std::abs(s - 1.0) < 1e-9) {
        x = std::exp(u * std::log(static_cast<double>(n)));
    } else {
        const double oneMinusS = 1.0 - s;
        const double nPow = std::pow(static_cast<double>(n), oneMinusS);
        x = std::pow(u * (nPow - 1.0) + 1.0, 1.0 / oneMinusS);
    }
    auto idx = static_cast<std::int64_t>(x) - 0;
    if (idx < 1) idx = 1;
    if (idx > n) idx = n;
    return idx - 1;
}

std::vector<std::int64_t>
Rng::sampleWithoutReplacement(std::int64_t n, std::int64_t k)
{
    assert(k >= 0 && k <= n);
    // Floyd's algorithm: for j in [n-k, n), pick t in [0, j]; insert t if
    // unseen else insert j. Set membership via sorted vector (k is small
    // relative to n in all our uses).
    std::vector<std::int64_t> chosen;
    chosen.reserve(static_cast<std::size_t>(k));
    for (std::int64_t j = n - k; j < n; ++j) {
        std::int64_t t = uniformInt(0, j);
        auto it = std::lower_bound(chosen.begin(), chosen.end(), t);
        if (it != chosen.end() && *it == t) {
            auto jt = std::lower_bound(chosen.begin(), chosen.end(), j);
            chosen.insert(jt, j);
        } else {
            chosen.insert(it, t);
        }
    }
    return chosen;
}

} // namespace ditile
