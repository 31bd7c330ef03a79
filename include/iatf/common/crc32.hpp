// CRC-32 (IEEE 802.3: reflected polynomial 0xEDB88320, init and xorout
// 0xFFFFFFFF), the one checksum of the wire frames (net/wire.hpp) and the
// health-ledger records (resilience/health_ledger.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace iatf {

std::uint32_t crc32(const void* data, std::size_t size) noexcept;

inline std::uint32_t crc32(std::string_view text) noexcept {
  return crc32(text.data(), text.size());
}

} // namespace iatf
