/**
 * @file
 * Implementation of the fast mixing hash (fasthash64 algorithm by
 * Zilong Tan, public domain; reimplemented).
 */

#include "support/hash.hh"

#include <cstring>

namespace hc {

namespace {

std::uint64_t
mix(std::uint64_t h)
{
    h ^= h >> 23;
    h *= 0x2127599bf4325c37ull;
    h ^= h >> 47;
    return h;
}

} // anonymous namespace

std::uint64_t
fastHash64(const void *data, std::size_t len, std::uint64_t seed)
{
    const std::uint64_t m = 0x880355f21e6d1965ull;
    const auto *pos = static_cast<const std::uint8_t *>(data);
    const std::uint8_t *end = pos + (len / 8) * 8;
    std::uint64_t h = seed ^ (len * m);

    while (pos != end) {
        std::uint64_t v;
        std::memcpy(&v, pos, 8);
        pos += 8;
        h ^= mix(v);
        h *= m;
    }

    const std::size_t rem = len & 7;
    if (rem) {
        std::uint64_t v = 0;
        std::memcpy(&v, pos, rem);
        h ^= mix(v);
        h *= m;
    }

    return mix(h);
}

} // namespace hc
