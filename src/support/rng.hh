/**
 * @file
 * Deterministic pseudo-random number generator.
 *
 * The simulator must be fully reproducible for a fixed seed, so every
 * stochastic component (AEX arrival, measurement jitter, workload key
 * distributions) draws from its own Rng instance seeded from the
 * experiment configuration. The generator is xoshiro256++, which is
 * fast, has a 256-bit state, and passes BigCrush.
 */

#ifndef HC_SUPPORT_RNG_HH
#define HC_SUPPORT_RNG_HH

#include <cstdint>

#include "support/logging.hh"

namespace hc {

/** xoshiro256++ deterministic PRNG. */
class Rng
{
  public:
    /** Construct from a 64-bit seed, expanded via splitmix64. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** @return the next raw 64-bit value. */
    std::uint64_t next();

    /** @return a uniform integer in [0, bound); bound must be > 0. */
    std::uint64_t nextBelow(std::uint64_t bound);

    /** @return a uniform integer in [lo, hi] inclusive. */
    std::int64_t nextRange(std::int64_t lo, std::int64_t hi);

    /** @return a uniform double in [0, 1). */
    double nextDouble();

    /** @return true with probability @p p. */
    bool chance(double p);

    /**
     * @return an exponentially distributed value with the given mean.
     * Used for Poisson inter-arrival processes (e.g. OS interrupts).
     */
    double nextExponential(double mean);

    /** @return a normally distributed value (Box-Muller). */
    double nextGaussian(double mean, double stddev);

  private:
    using Wide = unsigned __int128;

    static std::uint64_t rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    /** @return r % magicBound_, by multiplication with magic_. */
    std::uint64_t fastMod(std::uint64_t r) const
    {
        // The high word of (magic·r mod 2^128)·bound, a 192-bit
        // product taken in two 64-bit halves.
        const Wide low = magic_ * r;
        const Wide bottom =
            (static_cast<Wide>(static_cast<std::uint64_t>(low)) *
             magicBound_) >>
            64;
        const Wide top = (low >> 64) * magicBound_;
        return static_cast<std::uint64_t>((bottom + top) >> 64);
    }

    std::uint64_t s_[4];
    /** nextBelow()'s last bound and its rejection threshold: callers
     *  draw with one bound in long runs (poll jitter), so the threshold's
     *  division is paid once per change of bound. */
    std::uint64_t lastBound_ = 1;
    std::uint64_t lastThreshold_ = 0;
    /** The bound magic_ belongs to (0: none yet) and its reciprocal,
     *  ceil(2^128 / bound) mod 2^128 (Lemire, Kaser & Kurz 2019: with
     *  128 fractional bits, fastMod() is exact for every 64-bit value
     *  and bound). */
    std::uint64_t magicBound_ = 0;
    Wide magic_ = 0;
};

inline std::uint64_t
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

inline std::uint64_t
Rng::nextBelow(std::uint64_t bound)
{
    hc_assert(bound > 0);
    // Rejection sampling to avoid modulo bias.
    if (bound != lastBound_) {
        // A new bound pays one division for its threshold and takes
        // `%`: a caller that changes the bound on every draw (mcf's
        // Fisher-Yates shuffle) would pay for a reciprocal it never
        // reuses.
        lastBound_ = bound;
        lastThreshold_ = (0 - bound) % bound;
        for (;;) {
            const std::uint64_t r = next();
            if (r >= lastThreshold_)
                return r % bound;
        }
    }
    // A repeated bound: worth its reciprocal, computed once.
    if (magicBound_ != bound) {
        magicBound_ = bound;
        magic_ = ~Wide{0} / bound + 1;
    }
    for (;;) {
        const std::uint64_t r = next();
        if (r >= lastThreshold_)
            return fastMod(r);
    }
}

} // namespace hc

#endif // HC_SUPPORT_RNG_HH
