// CRC-32C (Castagnoli, reflected polynomial 0x82F63B78), shared by the
// checkpoint format (file trailers) and the storage tier's page cache
// (per-page content baselines for dirty detection). Header-only, so
// neither user owns it.
//
// Uses the x86 crc32 instruction when the CPU has SSE4.2, falling back to
// slice-by-8 tables that produce identical values — a buffer checksummed
// on either path verifies on the other.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace hlsmpc::hls {

namespace crc_detail {

/// Software CRC-32C: slice-by-8 tables, built once — table[0] is the
/// classic byte table, table[k] shifts it k extra bytes so eight lookups
/// retire eight input bytes per iteration.
inline std::uint32_t crc32c_sw(const unsigned char* p, std::size_t bytes,
                               std::uint32_t crc) {
  static const auto tables = [] {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c >> 1) ^ ((c & 1u) != 0 ? 0x82F63B78u : 0u);
      }
      t[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = t[0][i];
      for (std::size_t k = 1; k < 8; ++k) {
        c = t[0][c & 0xffu] ^ (c >> 8);
        t[k][i] = c;
      }
    }
    return t;
  }();

  while (bytes >= 8) {
    std::uint32_t lo;
    std::uint32_t hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= crc;
    crc = tables[7][lo & 0xffu] ^ tables[6][(lo >> 8) & 0xffu] ^
          tables[5][(lo >> 16) & 0xffu] ^ tables[4][lo >> 24] ^
          tables[3][hi & 0xffu] ^ tables[2][(hi >> 8) & 0xffu] ^
          tables[1][(hi >> 16) & 0xffu] ^ tables[0][hi >> 24];
    p += 8;
    bytes -= 8;
  }
  while (bytes-- > 0) {
    crc = tables[0][(crc ^ *p++) & 0xffu] ^ (crc >> 8);
  }
  return crc;
}

#if defined(__x86_64__) && defined(__GNUC__)
/// Hardware CRC-32C via SSE4.2 (the instruction implements exactly the
/// Castagnoli polynomial, so the value matches crc32c_sw bit for bit).
__attribute__((target("sse4.2"))) inline std::uint32_t crc32c_hw(
    const unsigned char* p, std::size_t bytes, std::uint32_t crc) {
  std::uint64_t c = crc;
  while (bytes >= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    c = __builtin_ia32_crc32di(c, word);
    p += 8;
    bytes -= 8;
  }
  std::uint32_t c32 = static_cast<std::uint32_t>(c);
  while (bytes-- > 0) {
    c32 = __builtin_ia32_crc32qi(c32, *p++);
  }
  return c32;
}

inline bool have_sse42() {
  static const bool have = __builtin_cpu_supports("sse4.2");
  return have;
}
#endif

}  // namespace crc_detail

/// `seed` chains incremental updates (pass the previous return value; 0
/// starts a fresh sum).
inline std::uint32_t crc32c(const void* data, std::size_t bytes,
                            std::uint32_t seed = 0) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  const std::uint32_t crc = ~seed;
#if defined(__x86_64__) && defined(__GNUC__)
  if (crc_detail::have_sse42()) return ~crc_detail::crc32c_hw(p, bytes, crc);
#endif
  return ~crc_detail::crc32c_sw(p, bytes, crc);
}

}  // namespace hlsmpc::hls
