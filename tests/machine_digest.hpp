// FNV-1a digests of a Machine's client state, shared by the bit-identity
// tests (determinism_test, sharded_test).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>

#include "net/machine.hpp"
#include "util/json.hpp"

namespace anton::test {

/// One FNV-1a step over the eight little-endian bytes of `v`.
inline std::uint64_t fnvMix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= util::kFnvPrime;
  }
  return h;
}

/// Bytes folded at once when they are all zero.
inline constexpr std::size_t kZeroRunBytes = 4096;

/// kFnvPrime^kZeroRunBytes. FNV-1a folds a zero byte as h *= kFnvPrime
/// (h ^ 0 == h), so a zero run of kZeroRunBytes is one multiply by this.
inline constexpr std::uint64_t kFnvPrimeZeroRun = [] {
  std::uint64_t p = 1;
  for (std::size_t i = 0; i < kZeroRunBytes; ++i) p *= util::kFnvPrime;
  return p;
}();

/// Whether every byte of `bytes` is zero, scanned a word at a time.
inline bool allZero(std::span<const std::byte> bytes) {
  std::uint64_t acc = 0;
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    std::uint64_t w;
    std::memcpy(&w, bytes.data() + i, 8);
    acc |= w;
  }
  for (; i < bytes.size(); ++i) acc |= std::uint64_t(bytes[i]);
  return acc == 0;
}

/// FNV-1a over `bytes`, continuing from `h`. Byte-identical to the plain
/// byte loop; each all-zero kZeroRunBytes chunk costs one multiply.
inline std::uint64_t fnvBytes(std::uint64_t h, std::span<const std::byte> bytes) {
  for (std::size_t i = 0; i < bytes.size(); i += kZeroRunBytes) {
    std::span<const std::byte> chunk =
        bytes.subspan(i, std::min(kZeroRunBytes, bytes.size() - i));
    if (chunk.size() == kZeroRunBytes && allZero(chunk)) {
      h *= kFnvPrimeZeroRun;
      continue;
    }
    for (std::byte b : chunk) {
      h ^= std::uint64_t(b);
      h *= util::kFnvPrime;
    }
  }
  return h;
}

/// FNV-1a over every client of the machine, node by node and client by
/// client: its memory (when `withMemory`), then every counter value of its
/// bank. Builds every node.
inline std::uint64_t machineDigest(net::Machine& m, bool withMemory = true) {
  std::uint64_t h = util::kFnvOffsetBasis;
  for (int n = 0; n < m.numNodes(); ++n) {
    for (int c = 0; c < net::kClientsPerNode; ++c) {
      net::NetworkClient& cl = m.client({n, c});
      if (withMemory) h = fnvBytes(h, cl.memory());
      for (int k = 0; k < cl.numCounters(); ++k)
        h = fnvMix(h, cl.counterValue(k));
    }
  }
  return h;
}

}  // namespace anton::test
