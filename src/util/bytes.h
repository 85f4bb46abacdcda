// Byte-buffer aliases and helpers shared by serialization and crypto code.

#ifndef XDEAL_UTIL_BYTES_H_
#define XDEAL_UTIL_BYTES_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace xdeal {

using Bytes = std::vector<uint8_t>;

/// Converts a string's bytes into a Bytes buffer.
inline Bytes ToBytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

}  // namespace xdeal

#endif  // XDEAL_UTIL_BYTES_H_
