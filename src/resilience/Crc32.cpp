#include "resilience/Crc32.hpp"

#include <array>

namespace crocco::resilience {

namespace {
using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/// t[0] is the byte-at-a-time table; t[s][b] is the CRC state after byte b
/// is followed by s zero bytes, so eight table lookups fold eight bytes.
constexpr Tables makeTables() {
    Tables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (std::size_t s = 1; s < 8; ++s)
        for (std::size_t i = 0; i < 256; ++i)
            t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xFFu];
    return t;
}
constexpr Tables kTables = makeTables();

/// Little-endian 32-bit word at p, whatever the host byte order.
inline std::uint32_t load32(const unsigned char* p) {
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
}
} // namespace

std::uint32_t crc32(const void* data, std::size_t nbytes, std::uint32_t seed) {
    const auto* p = static_cast<const unsigned char*>(data);
    const auto& t = kTables;
    std::uint32_t c = seed ^ 0xFFFFFFFFu;
    // Slicing-by-8: the same remainder as the byte loop below, eight bytes
    // per step.
    for (; nbytes >= 8; p += 8, nbytes -= 8) {
        const std::uint32_t lo = c ^ load32(p);
        const std::uint32_t hi = load32(p + 4);
        c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
            t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
            t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    }
    for (; nbytes > 0; ++p, --nbytes) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

} // namespace crocco::resilience
