/**
 * @file
 * xoshiro256++ implementation (public-domain reference algorithm by
 * Blackman & Vigna, reimplemented here).
 */

#include "support/rng.hh"

#include <cmath>

#include "support/logging.hh"

namespace hc {

namespace {

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // anonymous namespace

Rng::Rng(std::uint64_t seed)
{
    // Expand the single 64-bit seed into 256 bits of state. splitmix64
    // guarantees the state is never all-zero for any seed.
    for (auto &word : s_)
        word = splitmix64(seed);
}

std::int64_t
Rng::nextRange(std::int64_t lo, std::int64_t hi)
{
    hc_assert(lo <= hi);
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(span == 0 ? next()
                                                    : nextBelow(span));
}

double
Rng::nextDouble()
{
    // 53 random mantissa bits give a uniform double in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool
Rng::chance(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return nextDouble() < p;
}

double
Rng::nextExponential(double mean)
{
    hc_assert(mean > 0.0);
    double u;
    do {
        u = nextDouble();
    } while (u == 0.0);
    return -mean * std::log(u);
}

double
Rng::nextGaussian(double mean, double stddev)
{
    double u1;
    do {
        u1 = nextDouble();
    } while (u1 == 0.0);
    const double u2 = nextDouble();
    const double mag = std::sqrt(-2.0 * std::log(u1));
    return mean + stddev * mag * std::cos(2.0 * M_PI * u2);
}

} // namespace hc
