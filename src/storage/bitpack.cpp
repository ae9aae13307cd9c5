#include "storage/bitpack.hpp"

#include <array>
#include <bit>
#include <utility>

#include "util/assert.hpp"

namespace eidb::storage {

std::size_t packed_word_count(std::size_t count, unsigned bits) {
  EIDB_EXPECTS(bits <= 64);
  return (count * bits + 63) / 64;
}

unsigned min_bits(std::span<const std::uint64_t> values) {
  std::uint64_t all = 0;
  for (const std::uint64_t v : values) all |= v;
  return all == 0 ? 0u : static_cast<unsigned>(64 - std::countl_zero(all));
}

std::vector<std::uint64_t> bitpack(std::span<const std::uint64_t> values,
                                   unsigned bits) {
  EIDB_EXPECTS(bits <= 64);
  std::vector<std::uint64_t> out(packed_word_count(values.size(), bits), 0);
  if (bits == 0) return out;
  const std::uint64_t mask =
      bits == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
  std::size_t bitpos = 0;
  for (const std::uint64_t raw : values) {
    const std::uint64_t v = raw & mask;
    EIDB_ASSERT(bits == 64 || raw <= mask);
    const std::size_t word = bitpos >> 6;
    const unsigned off = bitpos & 63;
    out[word] |= v << off;
    if (off + bits > 64) out[word + 1] |= v >> (64 - off);
    bitpos += bits;
  }
  return out;
}

void bitunpack(std::span<const std::uint64_t> packed, unsigned bits,
               std::size_t count, std::span<std::uint64_t> out) {
  EIDB_EXPECTS(bits <= 64);
  EIDB_EXPECTS(out.size() >= count);
  if (bits == 0) {
    for (std::size_t i = 0; i < count; ++i) out[i] = 0;
    return;
  }
  const std::uint64_t mask =
      bits == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
  std::size_t bitpos = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t word = bitpos >> 6;
    const unsigned off = bitpos & 63;
    std::uint64_t v = packed[word] >> off;
    if (off + bits > 64) v |= packed[word + 1] << (64 - off);
    out[i] = v & mask;
    bitpos += bits;
  }
}

namespace {

/// Value I of a 64-value block packed at width B: word index and bit
/// offset are compile-time constants, so each value is one or two shifts,
/// an OR and a mask — no loop-carried bit position.
template <unsigned B, std::size_t I>
inline std::uint64_t packed_value(const std::uint64_t* in) {
  constexpr std::size_t bit = I * B;
  constexpr std::size_t word = bit / 64;
  constexpr unsigned off = bit % 64;
  constexpr std::uint64_t mask = ~std::uint64_t{0} >> (64 - B);
  if constexpr (off + B <= 64) {
    return (in[word] >> off) & mask;
  } else {
    return ((in[word] >> off) | (in[word + 1] << (64 - off))) & mask;
  }
}

/// One fully unrolled 64-value kernel per width; `in` points at the
/// block's first word (a block at width B spans exactly B words).
template <unsigned B, std::size_t... I>
void unpack_block64(const std::uint64_t* in, std::uint64_t* out,
                    std::index_sequence<I...>) {
  if constexpr (B == 0) {
    ((out[I] = 0), ...);
  } else {
    ((out[I] = packed_value<B, I>(in)), ...);
  }
}

using BlockKernel = void (*)(const std::uint64_t*, std::uint64_t*);

template <unsigned B>
void unpack_block64(const std::uint64_t* in, std::uint64_t* out) {
  unpack_block64<B>(in, out, std::make_index_sequence<64>{});
}

template <std::size_t... B>
constexpr std::array<BlockKernel, sizeof...(B)> block_kernels(
    std::index_sequence<B...>) {
  return {&unpack_block64<static_cast<unsigned>(B)>...};
}

/// Dispatch table indexed by width 0..64.
constexpr std::array<BlockKernel, 65> kBlockKernels =
    block_kernels(std::make_index_sequence<65>{});

}  // namespace

void bitunpack_block64(std::span<const std::uint64_t> packed, unsigned bits,
                       std::size_t block_start, std::uint64_t out[64]) {
  EIDB_EXPECTS((block_start & 63) == 0);
  EIDB_EXPECTS(bits <= 64);
  const std::size_t first_word = block_start / 64 * bits;
  EIDB_EXPECTS(first_word + bits <= packed.size());
  kBlockKernels[bits](packed.data() + first_word, out);
}

}  // namespace eidb::storage
