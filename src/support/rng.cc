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

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // anonymous namespace

Rng::Rng(std::uint64_t seed)
{
    // Expand the single 64-bit seed into 256 bits of state. splitmix64
    // guarantees the state is never all-zero for any seed.
    for (auto &word : s_)
        word = splitmix64(seed);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;

    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);

    return result;
}

std::uint64_t
Rng::nextBelow(std::uint64_t bound)
{
    hc_assert(bound > 0);
    // Rejection sampling to avoid modulo bias.
    if (bound != lastBound_) {
        lastBound_ = bound;
        lastThreshold_ = (0 - bound) % bound;
    }
    for (;;) {
        std::uint64_t r = next();
        if (r >= lastThreshold_)
            return r % bound;
    }
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
