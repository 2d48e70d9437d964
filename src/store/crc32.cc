#include "store/crc32.hh"

#include <array>

namespace lts::store
{

namespace
{

/**
 * Slicing-by-8 tables for the reflected IEEE polynomial: table[0] is
 * the classic byte-at-a-time table, and table[k][b] is the CRC of byte
 * b followed by k zero bytes, so eight table reads fold eight bytes.
 */
using Tables = std::array<std::array<uint32_t, 256>, 8>;

Tables
makeTables()
{
    Tables table{};
    for (uint32_t i = 0; i < 256; i++) {
        uint32_t c = i;
        for (int k = 0; k < 8; k++)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        table[0][i] = c;
    }
    for (size_t k = 1; k < 8; k++) {
        for (uint32_t i = 0; i < 256; i++) {
            uint32_t prev = table[k - 1][i];
            table[k][i] = (prev >> 8) ^ table[0][prev & 0xffu];
        }
    }
    return table;
}

/** Four bytes as a little-endian word, whatever the host's order. */
inline uint32_t
load32(const unsigned char *p)
{
    return uint32_t(p[0]) | uint32_t(p[1]) << 8 | uint32_t(p[2]) << 16 |
           uint32_t(p[3]) << 24;
}

} // namespace

uint32_t
crc32Update(uint32_t crc, const void *data, size_t len)
{
    static const Tables table = makeTables();
    const auto *p = static_cast<const unsigned char *>(data);
    for (; len >= 8; len -= 8, p += 8) {
        uint32_t lo = crc ^ load32(p);
        uint32_t hi = load32(p + 4);
        crc = table[7][lo & 0xffu] ^ table[6][(lo >> 8) & 0xffu] ^
              table[5][(lo >> 16) & 0xffu] ^ table[4][lo >> 24] ^
              table[3][hi & 0xffu] ^ table[2][(hi >> 8) & 0xffu] ^
              table[1][(hi >> 16) & 0xffu] ^ table[0][hi >> 24];
    }
    for (; len > 0; len--, p++)
        crc = table[0][(crc ^ *p) & 0xffu] ^ (crc >> 8);
    return crc;
}

} // namespace lts::store
