/**
 * @file
 * Fast non-cryptographic 64-bit hashing.
 *
 * Used on the simulator's hot paths: MEE line MACs (where we need a
 * cheap keyed tag computed per simulated eviction, not cryptographic
 * strength — the *protocol* is what is under test), cache indexing,
 * and workload key generation. The cryptographic primitives live in
 * src/crypto.
 */

#ifndef HC_SUPPORT_HASH_HH
#define HC_SUPPORT_HASH_HH

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace hc {

/**
 * fasthash64-style mixing hash over an arbitrary byte buffer.
 *
 * @param data  buffer start
 * @param len   buffer length in bytes
 * @param seed  hash seed / key
 * @return 64-bit digest
 */
std::uint64_t fastHash64(const void *data, std::size_t len,
                         std::uint64_t seed = 0);

/** Convenience overload for string views. */
inline std::uint64_t
fastHash64(std::string_view s, std::uint64_t seed = 0)
{
    return fastHash64(s.data(), s.size(), seed);
}

/** Single-value 64-bit finalizer (splitmix64 finalization function). */
inline std::uint64_t
mix64(std::uint64_t x)
{
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace hc

#endif // HC_SUPPORT_HASH_HH
