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
    std::uint64_t s_[4];
    /** nextBelow()'s last bound and its rejection threshold: callers
     *  draw with one bound in long runs (poll jitter), so the threshold's
     *  division is paid once per change of bound. */
    std::uint64_t lastBound_ = 1;
    std::uint64_t lastThreshold_ = 0;
};

} // namespace hc

#endif // HC_SUPPORT_RNG_HH
