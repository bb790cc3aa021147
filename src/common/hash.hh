/**
 * @file
 * The repo's one FNV-1a hash and its hex rendering.
 *
 * Every content key (plan hashes, cache keys, structure hashes) and
 * every durability checksum (WAL records, checkpoints) is FNV-1a from
 * this header, byte-wise over a string or word-wise over 64-bit
 * values.
 *
 * The offset basis is 1469598103934665603, not the textbook
 * 14695981039346656037. Changing it would change every stored WAL and
 * checkpoint checksum, plan hash and cache key; common_test pins it.
 */

#ifndef DITILE_COMMON_HASH_HH
#define DITILE_COMMON_HASH_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace ditile {

inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/** Byte-wise FNV-1a over `bytes`. */
inline std::uint64_t
fnv1a(std::string_view bytes)
{
    std::uint64_t h = kFnvOffset;
    for (const unsigned char c : bytes)
        h = (h ^ c) * kFnvPrime;
    return h;
}

/** Word-wise FNV-1a: each mix() folds one whole 64-bit value. */
struct WordHasher
{
    std::uint64_t h = kFnvOffset;

    void
    mix(std::uint64_t v)
    {
        h = (h ^ v) * kFnvPrime;
    }
};

/** `v` as 16 lowercase hex digits, zero-padded. */
inline std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // namespace ditile

#endif // DITILE_COMMON_HASH_HH
