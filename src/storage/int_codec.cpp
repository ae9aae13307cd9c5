#include "storage/int_codec.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

#include "storage/bitpack.hpp"
#include "storage/lz.hpp"
#include "util/assert.hpp"

namespace eidb::storage {

namespace {

// -- little helpers over byte buffers ---------------------------------------

void put_u64(std::vector<std::byte>& out, std::uint64_t v) {
  const std::size_t at = out.size();
  out.resize(at + 8);
  std::memcpy(out.data() + at, &v, 8);
}

std::uint64_t get_u64(std::span<const std::byte> in, std::size_t at) {
  std::uint64_t v;
  EIDB_EXPECTS(at + 8 <= in.size());
  std::memcpy(&v, in.data() + at, 8);
  return v;
}

std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

/// std::memcpy for buffers that may be empty: a zero-length memcpy is
/// still undefined when either pointer is null, as an empty span's or
/// vector's data() may be.
void copy_bytes(void* dst, const void* src, std::size_t n) {
  if (n != 0) std::memcpy(dst, src, n);
}

void append_words(std::vector<std::byte>& out,
                  const std::vector<std::uint64_t>& words) {
  const std::size_t at = out.size();
  out.resize(at + words.size() * 8);
  copy_bytes(out.data() + at, words.data(), words.size() * 8);
}

std::vector<std::uint64_t> read_words(std::span<const std::byte> in,
                                      std::size_t at, std::size_t n_words) {
  EIDB_EXPECTS(at + n_words * 8 <= in.size());
  std::vector<std::uint64_t> words(n_words);
  copy_bytes(words.data(), in.data() + at, n_words * 8);
  return words;
}

// -- Plain -------------------------------------------------------------------

class PlainCodec final : public IntCodec {
 public:
  [[nodiscard]] CodecKind kind() const override { return CodecKind::kPlain; }

  [[nodiscard]] std::vector<std::byte> encode(
      std::span<const std::int64_t> values) const override {
    std::vector<std::byte> out;
    put_u64(out, values.size());
    const std::size_t at = out.size();
    out.resize(at + values.size_bytes());
    copy_bytes(out.data() + at, values.data(), values.size_bytes());
    return out;
  }

  [[nodiscard]] std::vector<std::int64_t> decode(
      std::span<const std::byte> bytes) const override {
    const std::uint64_t n = get_u64(bytes, 0);
    std::vector<std::int64_t> out(n);
    EIDB_EXPECTS(8 + n * 8 <= bytes.size());
    copy_bytes(out.data(), bytes.data() + 8, n * 8);
    return out;
  }

  [[nodiscard]] double nominal_cycles_per_value() const override { return 0.5; }
};

// -- Frame-of-reference + bitpack ---------------------------------------------

class ForBitpackCodec final : public IntCodec {
 public:
  [[nodiscard]] CodecKind kind() const override {
    return CodecKind::kForBitpack;
  }

  [[nodiscard]] std::vector<std::byte> encode(
      std::span<const std::int64_t> values) const override {
    std::vector<std::byte> out;
    put_u64(out, values.size());
    if (values.empty()) return out;
    const auto [mn_it, mx_it] =
        std::minmax_element(values.begin(), values.end());
    const std::int64_t base = *mn_it;
    // Offsets in uint64: full-range input would overflow int64.
    std::vector<std::uint64_t> offsets(values.size());
    for (std::size_t i = 0; i < values.size(); ++i)
      offsets[i] = static_cast<std::uint64_t>(values[i]) -
                   static_cast<std::uint64_t>(base);
    const unsigned bits = min_bits(offsets);
    put_u64(out, static_cast<std::uint64_t>(base));
    put_u64(out, bits);
    append_words(out, bitpack(offsets, bits));
    (void)mx_it;
    return out;
  }

  [[nodiscard]] std::vector<std::int64_t> decode(
      std::span<const std::byte> bytes) const override {
    const std::uint64_t n = get_u64(bytes, 0);
    std::vector<std::int64_t> out(n);
    if (n == 0) return out;
    const auto base = static_cast<std::int64_t>(get_u64(bytes, 8));
    const auto bits = static_cast<unsigned>(get_u64(bytes, 16));
    const auto words = read_words(bytes, 24, packed_word_count(n, bits));
    std::vector<std::uint64_t> offsets(n);
    bitunpack(words, bits, n, offsets);
    for (std::size_t i = 0; i < n; ++i)
      out[i] = static_cast<std::int64_t>(static_cast<std::uint64_t>(base) +
                                         offsets[i]);
    return out;
  }

  [[nodiscard]] double nominal_cycles_per_value() const override { return 4; }
};

// -- Zigzag delta + FOR + bitpack ---------------------------------------------

class DeltaBitpackCodec final : public IntCodec {
 public:
  [[nodiscard]] CodecKind kind() const override {
    return CodecKind::kDeltaBitpack;
  }

  [[nodiscard]] std::vector<std::byte> encode(
      std::span<const std::int64_t> values) const override {
    std::vector<std::byte> out;
    put_u64(out, values.size());
    if (values.empty()) return out;
    // Deltas wrap modulo 2^64 (uint64 arithmetic): full-range input
    // would overflow int64, and decode wraps back the same way.
    std::vector<std::uint64_t> deltas(values.size());
    std::uint64_t prev = 0;
    for (std::size_t i = 0; i < values.size(); ++i) {
      const auto v = static_cast<std::uint64_t>(values[i]);
      deltas[i] = zigzag(static_cast<std::int64_t>(v - prev));
      prev = v;
    }
    const unsigned bits = min_bits(deltas);
    put_u64(out, bits);
    append_words(out, bitpack(deltas, bits));
    return out;
  }

  [[nodiscard]] std::vector<std::int64_t> decode(
      std::span<const std::byte> bytes) const override {
    const std::uint64_t n = get_u64(bytes, 0);
    std::vector<std::int64_t> out(n);
    if (n == 0) return out;
    const auto bits = static_cast<unsigned>(get_u64(bytes, 8));
    const auto words = read_words(bytes, 16, packed_word_count(n, bits));
    std::vector<std::uint64_t> deltas(n);
    bitunpack(words, bits, n, deltas);
    std::uint64_t prev = 0;
    for (std::size_t i = 0; i < n; ++i) {
      prev += static_cast<std::uint64_t>(unzigzag(deltas[i]));
      out[i] = static_cast<std::int64_t>(prev);
    }
    return out;
  }

  [[nodiscard]] double nominal_cycles_per_value() const override { return 6; }
};

// -- RLE ----------------------------------------------------------------------

class RleCodec final : public IntCodec {
 public:
  [[nodiscard]] CodecKind kind() const override { return CodecKind::kRle; }

  [[nodiscard]] std::vector<std::byte> encode(
      std::span<const std::int64_t> values) const override {
    std::vector<std::byte> out;
    put_u64(out, values.size());
    std::size_t i = 0;
    while (i < values.size()) {
      const std::int64_t v = values[i];
      std::size_t run = 1;
      while (i + run < values.size() && values[i + run] == v) ++run;
      put_u64(out, static_cast<std::uint64_t>(v));
      put_u64(out, run);
      i += run;
    }
    return out;
  }

  [[nodiscard]] std::vector<std::int64_t> decode(
      std::span<const std::byte> bytes) const override {
    const std::uint64_t n = get_u64(bytes, 0);
    std::vector<std::int64_t> out;
    out.reserve(n);
    std::size_t at = 8;
    while (out.size() < n) {
      const auto v = static_cast<std::int64_t>(get_u64(bytes, at));
      const std::uint64_t run = get_u64(bytes, at + 8);
      at += 16;
      out.insert(out.end(), run, v);
    }
    EIDB_ENSURES(out.size() == n);
    return out;
  }

  [[nodiscard]] double nominal_cycles_per_value() const override { return 2; }
};

// -- LZ over the raw byte image -------------------------------------------------

class LzIntCodec final : public IntCodec {
 public:
  [[nodiscard]] CodecKind kind() const override { return CodecKind::kLz; }

  [[nodiscard]] std::vector<std::byte> encode(
      std::span<const std::int64_t> values) const override {
    std::vector<std::byte> out;
    put_u64(out, values.size());
    const std::span<const std::byte> raw{
        reinterpret_cast<const std::byte*>(values.data()),
        values.size_bytes()};
    const std::vector<std::byte> lz = lz_compress(raw);
    put_u64(out, lz.size());
    out.insert(out.end(), lz.begin(), lz.end());
    return out;
  }

  [[nodiscard]] std::vector<std::int64_t> decode(
      std::span<const std::byte> bytes) const override {
    const std::uint64_t n = get_u64(bytes, 0);
    const std::uint64_t lz_size = get_u64(bytes, 8);
    EIDB_EXPECTS(16 + lz_size <= bytes.size());
    const std::vector<std::byte> raw =
        lz_decompress(bytes.subspan(16, lz_size), n * 8);
    std::vector<std::int64_t> out(n);
    copy_bytes(out.data(), raw.data(), n * 8);
    return out;
  }

  [[nodiscard]] double nominal_cycles_per_value() const override { return 25; }
};

}  // namespace

std::string codec_name(CodecKind kind) {
  switch (kind) {
    case CodecKind::kPlain:
      return "plain";
    case CodecKind::kForBitpack:
      return "for-bitpack";
    case CodecKind::kDeltaBitpack:
      return "delta-bitpack";
    case CodecKind::kRle:
      return "rle";
    case CodecKind::kLz:
      return "lz";
  }
  return "invalid";
}

std::unique_ptr<IntCodec> make_codec(CodecKind kind) {
  switch (kind) {
    case CodecKind::kPlain:
      return std::make_unique<PlainCodec>();
    case CodecKind::kForBitpack:
      return std::make_unique<ForBitpackCodec>();
    case CodecKind::kDeltaBitpack:
      return std::make_unique<DeltaBitpackCodec>();
    case CodecKind::kRle:
      return std::make_unique<RleCodec>();
    case CodecKind::kLz:
      return std::make_unique<LzIntCodec>();
  }
  throw Error("unknown codec kind");
}

std::vector<CodecKind> all_codec_kinds() {
  return {CodecKind::kPlain, CodecKind::kForBitpack, CodecKind::kDeltaBitpack,
          CodecKind::kRle, CodecKind::kLz};
}

}  // namespace eidb::storage
