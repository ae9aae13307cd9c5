#include "exec/vector_agg.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include <algorithm>
#include <limits>
#include <optional>
#include <type_traits>

#include "exec/hash_table.hpp"
#include "storage/bitpack_avx512.hpp"
#include "util/assert.hpp"

namespace eidb::exec {

namespace {

constexpr std::uint64_t kAllLive = ~std::uint64_t{0};

// ---------------------------------------------------------------------------
// The live lanes of one selection word: the only places a pass lists its
// selected rows or decodes a packed block.
// ---------------------------------------------------------------------------

/// Row ids of the rows set in `live` (the word at `base`) into out[],
/// in row order (count-trailing-zeros walk); returns their count.
std::size_t live_rows(std::size_t base, std::uint64_t live,
                      std::uint32_t* out) {
  std::size_t k = 0;
  while (live != 0) {
    out[k++] = static_cast<std::uint32_t>(
        base + static_cast<std::size_t>(__builtin_ctzll(live)));
    live &= live - 1;
  }
  return k;
}

/// The scalar block decode: the 64-value block of `pv` at `base` through
/// storage::bitunpack_block64, then the packed values (reference not
/// added) of the rows set in `live` to out[], in row order; returns their
/// count. `Raw` is uint32_t for widths up to 32, uint64_t above.
template <typename Raw>
std::size_t unpack_live(
    const storage::PackedView& pv, std::size_t base, std::uint64_t live,
    Raw* out) {
  alignas(64) std::uint64_t buf[64];
  storage::bitunpack_block64(pv.words, pv.bits, base, buf);
  if (live == kAllLive) {
    for (unsigned j = 0; j < 64; ++j) out[j] = static_cast<Raw>(buf[j]);
    return 64;
  }
  std::size_t k = 0;
  while (live != 0) {
    out[k++] = static_cast<Raw>(buf[__builtin_ctzll(live)]);
    live &= live - 1;
  }
  return k;
}

/// A packed column's block decoder at the scalar tier, the reference on
/// any host.
class ScalarDecoder {
 public:
  explicit ScalarDecoder(const storage::PackedView& pv) : pv_(&pv) {}
  [[nodiscard]] const storage::PackedView& view() const { return *pv_; }
  /// unpack_live for widths up to 32.
  std::size_t decode32(std::size_t base, std::uint64_t live,
                       std::uint32_t* out) const {
    return unpack_live(*pv_, base, live, out);
  }

 private:
  const storage::PackedView* pv_;
};

#if defined(__x86_64__)
/// A packed column's block decoder at the AVX-512 VBMI tier: widths 1..25
/// keep one storage::avx512::Unpacker, and each 16-value group of a block
/// decodes through it while vpcompressd keeps the live lanes in row
/// order; widths 0 and 26..32 decode as ScalarDecoder does. Each member
/// ends with vzeroupper: the word loop calls its folds out of line, and an
/// SSE-encoded fold entered with the ZMM state dirty ran several times
/// slower (k0's BM_MultiAggregatePacked: 3.4 against 0.4 ms). Aligned by
/// hand: outside the AVX-512 target, alignof(__m512i) reads 16, so the
/// decoders' std::vector would hand the Unpacker's aligned stores a
/// 16-byte-aligned object.
class alignas(64) SimdDecoder {
 public:
  EIDB_TARGET_AVX512_VBMI explicit SimdDecoder(const storage::PackedView& pv)
      : pv_(&pv),
        simd_(pv.bits >= 1 && pv.bits <= storage::avx512::kMaxBits),
        // Never loaded at the scalar widths.
        unpack_(pv.words.data(), simd_ ? pv.bits : 1) {
    _mm256_zeroupper();
  }
  [[nodiscard]] const storage::PackedView& view() const { return *pv_; }
  /// A group's 16-lane store starts at k <= 16 * g, so it stays inside
  /// out[0..64).
  EIDB_TARGET_AVX512_VBMI std::size_t decode32(std::size_t base,
                                               std::uint64_t live,
                                               std::uint32_t* out) const {
    if (!simd_) return unpack_live(*pv_, base, live, out);
    std::size_t k = 0;
    #pragma GCC unroll 4
    for (unsigned g = 0; g < 4; ++g) {
      const auto m = static_cast<__mmask16>(live >> (16 * g));
      _mm512_storeu_si512(out + k, _mm512_maskz_compress_epi32(
                                       m, unpack_.load16(base + 16 * g)));
      k += static_cast<std::size_t>(__builtin_popcount(m));
    }
    _mm256_zeroupper();
    return k;
  }

 private:
  const storage::PackedView* pv_;
  bool simd_;
  storage::avx512::Unpacker unpack_;
};
#endif  // __x86_64__

/// The tiers a chunk's word loop is instantiated at.
struct ScalarTier {
  using Decoder = ScalarDecoder;
  static constexpr PackedTier kTier = PackedTier::kScalar;
};
#if defined(__x86_64__)
struct SimdTier {
  using Decoder = SimdDecoder;
  static constexpr PackedTier kTier = PackedTier::kAvx512Vbmi;
};
#endif

/// The block preconditions of `pv` for block words [word_begin,
/// block_end), checked at the last one: both grow with the word index.
void expect_blocks(const storage::PackedView& pv, std::size_t word_begin,
                   std::size_t block_end) {
  if (word_begin >= block_end) return;
  EIDB_EXPECTS(block_end * 64 <= pv.count);
  // A 64-value block ends on a word boundary: block b spans words
  // [b * bits, (b + 1) * bits).
  EIDB_EXPECTS(block_end * pv.bits <= pv.words.size());
}

/// One decoder per input (over an empty image for a plain input), built
/// at chunk entry.
template <typename Decoder>
std::vector<Decoder> input_decoders(std::span<const AggInput> inputs,
                                    std::size_t word_begin,
                                    std::size_t block_end) {
  std::vector<Decoder> decoders;
  decoders.reserve(inputs.size());
  for (const AggInput& in : inputs) {
    if (in.kind == AggInput::Kind::kPacked)
      expect_blocks(in.packed, word_begin, block_end);
    decoders.emplace_back(in.packed);
  }
  return decoders;
}

// Value accessors: value(e) of the e-th live row of a word, as the folds
// read it. Named types, so each fold compiles once per accessor and op set
// for every kernel and tier.

/// Decoded block lanes, reference added.
template <typename Raw>
struct BlockValues {
  const Raw* raw;
  std::int64_t ref;
  std::int64_t operator()(std::size_t e) const {
    return ref + static_cast<std::int64_t>(raw[e]);
  }
};

/// A packed column at the listed rows.
struct PackedRows {
  const storage::PackedView* pv;
  const std::uint32_t* idx;
  std::int64_t operator()(std::size_t e) const {
    return pv->value_at(idx[e]);
  }
};

/// A plain column at the listed rows, as S.
template <typename S, typename T>
struct PlainRows {
  const T* data;
  const std::uint32_t* idx;
  S operator()(std::size_t e) const { return static_cast<S>(data[idx[e]]); }
};

/// Calls fn(values) over the live lanes of `dec`'s block at `base`: its
/// tier's decode32 up to width 32, unpack_live into 64-bit lanes above.
template <typename Decoder, typename Fn>
[[gnu::always_inline]] inline void with_block_values(const Decoder& dec,
                                                     std::size_t base,
                                                     std::uint64_t live,
                                                     Fn&& fn) {
  const storage::PackedView& pv = dec.view();
  if (pv.bits <= 32) {
    alignas(64) std::uint32_t raw[64];
    dec.decode32(base, live, raw);
    fn(BlockValues<std::uint32_t>{raw, pv.reference});
  } else {
    alignas(64) std::uint64_t raw[64];
    unpack_live(pv, base, live, raw);
    fn(BlockValues<std::uint64_t>{raw, pv.reference});
  }
}

/// Which words of a pass take the block path: those with at least
/// agg_block_min_live(tier) live rows whose 64-row block lies inside
/// every column (`rows`, and each packed input). A block word lists its
/// row ids only when some column reads plain rows.
struct BlockPlan {
  std::size_t block_words = 0;
  unsigned min_live = 0;
  bool plain_reads = false;
  [[nodiscard]] bool block(std::size_t w, std::size_t live) const {
    return w < block_words && live >= min_live;
  }
};

BlockPlan plan_blocks(std::span<const AggInput> inputs, std::size_t rows,
                      PackedTier tier, bool plain_reads) {
  for (const AggInput& in : inputs) {
    if (in.kind == AggInput::Kind::kPacked)
      rows = std::min(rows, in.packed.count);
    else
      plain_reads = true;
  }
  return {rows / 64, agg_block_min_live(tier), plain_reads};
}

// ---------------------------------------------------------------------------
// Folds: one fused loop per op set, which reads each value once and updates
// only the state the set names, in row order (double sums stay
// bit-identical).
// ---------------------------------------------------------------------------

template <typename S>
constexpr S fold_top() {
  if constexpr (std::is_floating_point_v<S>)
    return std::numeric_limits<S>::infinity();
  else
    return std::numeric_limits<S>::max();
}

template <typename S>
constexpr S fold_bottom() {
  if constexpr (std::is_floating_point_v<S>)
    return -std::numeric_limits<S>::infinity();
  else
    return std::numeric_limits<S>::min();
}

constexpr bool has(AggOpSet ops, AggOpSet op) { return (ops & op) != 0; }

/// Calls fn(std::integral_constant<AggOpSet, ops>{}), so each fold below
/// compiles one loop per op set; an empty set folds nothing.
template <typename Fn>
void with_ops(AggOpSet ops, Fn&& fn) {
  using std::integral_constant;
  switch (ops & kAggAllOps) {
    case 1: return fn(integral_constant<AggOpSet, 1>{});
    case 2: return fn(integral_constant<AggOpSet, 2>{});
    case 3: return fn(integral_constant<AggOpSet, 3>{});
    case 4: return fn(integral_constant<AggOpSet, 4>{});
    case 5: return fn(integral_constant<AggOpSet, 5>{});
    case 6: return fn(integral_constant<AggOpSet, 6>{});
    case 7: return fn(integral_constant<AggOpSet, 7>{});
    default: return;
  }
}

/// Folds value(0..k) into one running state.
template <typename S, typename Value>
void fold(AggOpSet ops, std::size_t k,
                                        const Value& value, S& sum, S& mn,
                                        S& mx) {
  with_ops(ops, [&](auto set) {
    constexpr AggOpSet kOps = decltype(set)::value;
    S s = sum, lo = mn, hi = mx;
    for (std::size_t e = 0; e < k; ++e) {
      const S v = value(e);
      if constexpr (has(kOps, kAggSum)) s += v;
      if constexpr (has(kOps, kAggMin)) lo = std::min(lo, v);
      if constexpr (has(kOps, kAggMax)) hi = std::max(hi, v);
    }
    sum = s;
    mn = lo;
    mx = hi;
  });
}

/// Folds value(e) into slot[e]'s state, e in [0, k).
template <typename S, typename Value>
void fold_slots(AggOpSet ops, std::size_t k,
                                              const std::uint32_t* slot,
                                              const Value& value,
                                              GroupTable::Arrays<S>& a) {
  with_ops(ops, [&](auto set) {
    constexpr AggOpSet kOps = decltype(set)::value;
    S* sum = a.sum.data();
    S* mn = a.mn.data();
    S* mx = a.mx.data();
    for (std::size_t e = 0; e < k; ++e) {
      const S v = value(e);
      const std::uint32_t g = slot[e];
      if constexpr (has(kOps, kAggSum)) sum[g] += v;
      if constexpr (has(kOps, kAggMin)) mn[g] = std::min(mn[g], v);
      if constexpr (has(kOps, kAggMax)) mx[g] = std::max(mx[g], v);
    }
  });
}

// ---------------------------------------------------------------------------
// Global (ungrouped) multi-aggregate.
// ---------------------------------------------------------------------------

/// Per-input running accumulator; integer inputs (int32/int64/packed)
/// promote into the int64 fields, doubles into the double fields.
struct InputAcc {
  std::int64_t isum = 0;
  std::int64_t imin = fold_top<std::int64_t>();
  std::int64_t imax = fold_bottom<std::int64_t>();
  double dsum = 0;
  double dmin = fold_top<double>();
  double dmax = fold_bottom<double>();
};

/// Branch-free full-word accumulate over 64 consecutive rows: the plain
/// loop autovectorizes (SIMD) on any target. Integer sums add a word
/// partial (exact in any order); double sums add each value onto the
/// running sum in row order, as the per-row fold and the join pipeline's
/// aggregator do, so a global double SUM is the same on every path.
template <typename T, typename S>
void acc_word_full(const T* data, AggOpSet ops,
                                                 S& sum, S& mn, S& mx) {
  with_ops(ops, [&](auto set) {
    constexpr AggOpSet kOps = decltype(set)::value;
    constexpr bool kInOrder = std::is_floating_point_v<S>;
    S s = kInOrder ? sum : S{0};
    T lo = data[0];
    T hi = data[0];
    for (std::size_t j = 0; j < 64; ++j) {
      if constexpr (has(kOps, kAggSum)) s += static_cast<S>(data[j]);
      if constexpr (has(kOps, kAggMin)) lo = std::min(lo, data[j]);
      if constexpr (has(kOps, kAggMax)) hi = std::max(hi, data[j]);
    }
    if constexpr (has(kOps, kAggSum)) sum = kInOrder ? s : sum + s;
    if constexpr (has(kOps, kAggMin)) mn = std::min(mn, static_cast<S>(lo));
    if constexpr (has(kOps, kAggMax)) mx = std::max(mx, static_cast<S>(hi));
  });
}

/// One plain input over one word: full words branch-free, partial words
/// at the listed rows idx[0..k).
template <typename T, typename S>
void acc_word_plain(
    const T* data, std::size_t base, bool full, const std::uint32_t* idx,
    std::size_t k, AggOpSet ops, S& sum, S& mn, S& mx) {
  if (full) {
    acc_word_full(data + base, ops, sum, mn, mx);
    return;
  }
  fold(ops, k, PlainRows<S, T>{data, idx}, sum, mn, mx);
}

/// The global kernel's word loop over selection words [word_begin,
/// word_end) at `Tier`, accumulating every input; returns the number of
/// selected rows seen. Packed inputs decode through decoders built at
/// chunk entry.
template <typename Tier>
[[gnu::always_inline]] inline std::uint64_t multi_acc_words(
    std::span<const AggInput> inputs, const BitVector& selection,
    std::size_t word_begin, std::size_t word_end,
    std::vector<InputAcc>& accs) {
  // Full words of plain inputs read all 64 rows without listing them.
  const BlockPlan plan =
      plan_blocks(inputs, selection.size(), Tier::kTier, false);
  const std::vector<typename Tier::Decoder> decoders =
      input_decoders<typename Tier::Decoder>(
          inputs, word_begin, std::min(word_end, plan.block_words));
  const std::uint64_t* words = selection.words();
  std::uint64_t count = 0;
  alignas(64) std::uint32_t idx[64];
  for (std::size_t w = word_begin; w < word_end; ++w) {
    const std::uint64_t bits = words[w];
    if (bits == 0) continue;
    const auto k = static_cast<std::size_t>(__builtin_popcountll(bits));
    count += k;
    const bool full = bits == kAllLive;
    const bool block = plan.block(w, k);
    const std::size_t base = w * 64;
    if (!block || (plan.plain_reads && !full)) live_rows(base, bits, idx);
    for (std::size_t j = 0; j < inputs.size(); ++j) {
      const AggInput& in = inputs[j];
      InputAcc& a = accs[j];
      switch (in.kind) {
        case AggInput::Kind::kInt32:
          acc_word_plain(in.i32.data(), base, full, idx, k, in.ops, a.isum,
                         a.imin, a.imax);
          break;
        case AggInput::Kind::kInt64:
          acc_word_plain(in.i64.data(), base, full, idx, k, in.ops, a.isum,
                         a.imin, a.imax);
          break;
        case AggInput::Kind::kDouble:
          acc_word_plain(in.f64.data(), base, full, idx, k, in.ops, a.dsum,
                         a.dmin, a.dmax);
          break;
        case AggInput::Kind::kPacked:
          if (block) {
            with_block_values(decoders[j], base, bits,
                              [&](const auto& value) {
                                fold(in.ops, k, value, a.isum, a.imin,
                                     a.imax);
                              });
          } else {
            fold(in.ops, k, PackedRows{&in.packed, idx}, a.isum, a.imin,
                 a.imax);
          }
          break;
      }
    }
  }
  return count;
}

std::uint64_t multi_acc_scalar(std::span<const AggInput> inputs,
                               const BitVector& selection,
                               std::size_t word_begin, std::size_t word_end,
                               std::vector<InputAcc>& accs) {
  return multi_acc_words<ScalarTier>(inputs, selection, word_begin, word_end,
                                     accs);
}

#if defined(__x86_64__)
EIDB_TARGET_AVX512_VBMI std::uint64_t multi_acc_avx512(
    std::span<const AggInput> inputs, const BitVector& selection,
    std::size_t word_begin, std::size_t word_end,
    std::vector<InputAcc>& accs) {
  return multi_acc_words<SimdTier>(inputs, selection, word_begin, word_end,
                                   accs);
}
#endif

/// One chunk of the global kernel, its whole word loop at `tier`.
std::uint64_t multi_acc_range(std::span<const AggInput> inputs,
                              const BitVector& selection,
                              std::size_t word_begin, std::size_t word_end,
                              PackedTier tier, std::vector<InputAcc>& accs) {
#if defined(__x86_64__)
  if (tier == PackedTier::kAvx512Vbmi)
    return multi_acc_avx512(inputs, selection, word_begin, word_end, accs);
#endif
  (void)tier;
  return multi_acc_scalar(inputs, selection, word_begin, word_end, accs);
}

std::vector<AggOut> finalize_multi(std::span<const AggInput> inputs,
                                   const std::vector<InputAcc>& accs,
                                   std::uint64_t count) {
  std::vector<AggOut> outs(inputs.size());
  for (std::size_t j = 0; j < inputs.size(); ++j) {
    AggOut& o = outs[j];
    const AggOpSet ops = inputs[j].ops;
    const bool any = count != 0;
    o.is_double = inputs[j].is_double();
    if (o.is_double) {
      o.d.count = count;
      o.d.sum = (ops & kAggSum) ? accs[j].dsum : 0;
      o.d.min = any && (ops & kAggMin) ? accs[j].dmin : 0;
      o.d.max = any && (ops & kAggMax) ? accs[j].dmax : 0;
    } else {
      o.i.count = count;
      o.i.sum = (ops & kAggSum) ? accs[j].isum : 0;
      o.i.min = any && (ops & kAggMin) ? accs[j].imin : 0;
      o.i.max = any && (ops & kAggMax) ? accs[j].imax : 0;
    }
  }
  return outs;
}

void check_input_sizes(std::span<const AggInput> inputs,
                       const BitVector& selection) {
  for (const AggInput& in : inputs)
    EIDB_EXPECTS(selection.size() >= in.size());
}

/// A caller-picked tier must be the reference or the host's own.
void check_tier(PackedTier tier) {
  EIDB_EXPECTS(tier == PackedTier::kScalar || tier == packed_tier());
}

// ---------------------------------------------------------------------------
// Grouped multi-aggregate.
// ---------------------------------------------------------------------------

/// Readonly key accessor over a bit-packed column image, shaped like the
/// span the templated grouped kernels expect (operator[] + size()).
/// Accessors whose keys decode from a packed image per block word also
/// name that image (packed()) and map each decoded value to its key.
struct PackedKeys {
  storage::PackedView view;
  [[nodiscard]] std::int64_t operator[](std::size_t i) const {
    return view.value_at(i);
  }
  [[nodiscard]] std::size_t size() const { return view.count; }
  [[nodiscard]] const storage::PackedView& packed() const { return view; }
  [[nodiscard]] static std::int64_t map(std::int64_t v) { return v; }
};

/// Throws unless `offset` indexes a lookup of `size` entries.
void check_lookup_offset(std::int64_t offset, std::size_t size) {
  if (static_cast<std::uint64_t>(offset) >= size)
    throw Error("groupjoin foreign key outside its lookup's domain");
}

/// Key accessor of a LookupKey over its foreign-key view `Fk` (an int32 or
/// int64 span, or PackedKeys); kCheckFk bound-checks every key it maps.
template <typename Fk, bool kCheckFk>
struct LookupKeys {
  Fk fk;
  const std::int64_t* lut;
  std::int64_t lut_min;
  std::size_t lut_size;
  [[nodiscard]] std::int64_t map(std::int64_t v) const {
    if constexpr (kCheckFk) check_lookup_offset(v - lut_min, lut_size);
    return lut[v - lut_min];
  }
  [[nodiscard]] std::int64_t operator[](std::size_t i) const {
    return map(static_cast<std::int64_t>(fk[i]));
  }
  [[nodiscard]] std::size_t size() const { return fk.size(); }
  [[nodiscard]] const storage::PackedView& packed() const
    requires std::is_same_v<Fk, PackedKeys>
  {
    return fk.view;
  }
};

/// Calls fn(accessor) with the LookupKeys over `keys.fk`'s kind.
template <bool kCheckFk, typename Fn>
decltype(auto) with_lookup_keys(const LookupKey& keys, Fn&& fn) {
  const std::int64_t* lut = keys.lut.data();
  const std::size_t size = keys.lut.size();
  switch (keys.fk.kind) {
    case AggInput::Kind::kInt32:
      return fn(LookupKeys<std::span<const std::int32_t>, kCheckFk>{
          keys.fk.i32, lut, keys.lut_min, size});
    case AggInput::Kind::kInt64:
      return fn(LookupKeys<std::span<const std::int64_t>, kCheckFk>{
          keys.fk.i64, lut, keys.lut_min, size});
    case AggInput::Kind::kPacked:
      return fn(LookupKeys<PackedKeys, kCheckFk>{PackedKeys{keys.fk.packed},
                                                 lut, keys.lut_min, size});
    case AggInput::Kind::kDouble:
      break;
  }
  throw Error("lookup foreign key must be an integer view");
}

/// The packed image a key accessor decodes per block word, or an empty
/// one for plain keys.
template <typename Keys>
const storage::PackedView& key_image(const Keys& keys) {
  if constexpr (requires { keys.packed(); }) {
    return keys.packed();
  } else {
    static constexpr storage::PackedView kNone{};
    return kNone;
  }
}

/// The one-loop fold of a block word: each live row's slot is resolved
/// from key(e), counted, and value(e) of the first input folds into it,
/// in row order. The arrays are indexed through the table on every row:
/// a hash resolver may grow them.
template <typename Key, typename Resolve, typename Value>
void resolve_fold(
    AggOpSet ops, std::size_t k, const Key& key, const Resolve& resolve,
    const Value& value, std::uint32_t* slot, GroupTable& acc,
    GroupTable::Arrays<std::int64_t>& a) {
  with_ops(ops, [&](auto set) {
    constexpr AggOpSet kOps = decltype(set)::value;
    for (std::size_t e = 0; e < k; ++e) {
      const std::uint32_t g = resolve(key(e));
      slot[e] = g;
      ++acc.counts[g];
      const std::int64_t v = value(e);
      if constexpr (has(kOps, kAggSum)) a.sum[g] += v;
      if constexpr (has(kOps, kAggMin)) a.mn[g] = std::min(a.mn[g], v);
      if constexpr (has(kOps, kAggMax)) a.mx[g] = std::max(a.mx[g], v);
    }
  });
}

/// The grouped kernels' word loop over selection words [word_begin,
/// word_end) at `Tier`, templated over the key accessor. `resolve` maps a
/// key to its slot (identity-offset for dense slots, hash lookup
/// otherwise). The key image and every packed input decode through
/// decoders built at chunk entry.
template <typename Tier, typename Keys, typename Resolve>
[[gnu::always_inline]] inline void grouped_acc_words(
    const Keys& keys, std::span<const AggInput> inputs,
    const BitVector& selection, std::size_t word_begin, std::size_t word_end,
    const Resolve& resolve, GroupTable& acc) {
  using Decoder = typename Tier::Decoder;
  constexpr bool kPackedKeys = requires(const Keys& k) { k.packed(); };
  const BlockPlan plan =
      plan_blocks(inputs, keys.size(), Tier::kTier, !kPackedKeys);
  const std::size_t block_end = std::min(word_end, plan.block_words);
  const storage::PackedView& image = key_image(keys);
  if constexpr (kPackedKeys) expect_blocks(image, word_begin, block_end);
  const Decoder key_decoder(image);
  const std::vector<Decoder> decoders =
      input_decoders<Decoder>(inputs, word_begin, block_end);
  // A block word folds the first input in its key loop when that input
  // keeps state and decodes, with the key image, into 32-bit lanes.
  const bool fold_first = !inputs.empty() &&
                          inputs[0].kind == AggInput::Kind::kPacked &&
                          (inputs[0].ops & kAggAllOps) != 0 &&
                          inputs[0].packed.bits <= 32 && image.bits <= 32;
  const std::uint64_t* words = selection.words();
  alignas(64) std::uint32_t idx[64];
  alignas(64) std::uint32_t slot[64];
  for (std::size_t w = word_begin; w < word_end; ++w) {
    const std::uint64_t bits = words[w];
    if (bits == 0) continue;  // dead block: 64 rows skipped outright
    const std::size_t base = w * 64;
    const auto k = static_cast<std::size_t>(__builtin_popcountll(bits));
    const bool block = plan.block(w, k);
    if (!block || plan.plain_reads) live_rows(base, bits, idx);
    // Key column touched once per row: slots computed (and counted) for
    // the whole word, then every input accumulates column-at-a-time.
    const auto resolve_all = [&](const auto& key) {
      for (std::size_t e = 0; e < k; ++e) {
        const std::uint32_t s = resolve(key(e));
        slot[e] = s;
        ++acc.counts[s];
      }
    };
    const auto row_key = [&](std::size_t e) {
      return static_cast<std::int64_t>(keys[idx[e]]);
    };
    std::size_t folded = 0;  // inputs the key loop folded
    if (block && fold_first) {
      alignas(64) std::uint32_t first[64];
      decoders[0].decode32(base, bits, first);
      const BlockValues<std::uint32_t> value{first,
                                             inputs[0].packed.reference};
      if constexpr (kPackedKeys) {
        alignas(64) std::uint32_t raw[64];
        key_decoder.decode32(base, bits, raw);
        const std::int64_t ref = image.reference;
        resolve_fold(
            inputs[0].ops, k,
            [&](std::size_t e) {
              return keys.map(ref + static_cast<std::int64_t>(raw[e]));
            },
            resolve, value, slot, acc, acc.iarr[0]);
      } else {
        resolve_fold(inputs[0].ops, k, row_key, resolve, value, slot, acc,
                     acc.iarr[0]);
      }
      folded = 1;
    } else if (block && kPackedKeys) {
      if constexpr (kPackedKeys) {
        with_block_values(key_decoder, base, bits, [&](const auto& value) {
          resolve_all([&](std::size_t e) { return keys.map(value(e)); });
        });
      }
    } else {
      resolve_all(row_key);
    }
    for (std::size_t j = folded; j < inputs.size(); ++j) {
      const AggInput& in = inputs[j];
      switch (in.kind) {
        case AggInput::Kind::kInt32:
          fold_slots(in.ops, k, slot,
                     PlainRows<std::int64_t, std::int32_t>{in.i32.data(), idx},
                     acc.iarr[j]);
          break;
        case AggInput::Kind::kInt64:
          fold_slots(in.ops, k, slot,
                     PlainRows<std::int64_t, std::int64_t>{in.i64.data(), idx},
                     acc.iarr[j]);
          break;
        case AggInput::Kind::kDouble:
          fold_slots(in.ops, k, slot,
                     PlainRows<double, double>{in.f64.data(), idx},
                     acc.darr[j]);
          break;
        case AggInput::Kind::kPacked:
          if (block) {
            with_block_values(decoders[j], base, bits,
                              [&](const auto& value) {
                                fold_slots(in.ops, k, slot, value,
                                           acc.iarr[j]);
                              });
          } else {
            fold_slots(in.ops, k, slot, PackedRows{&in.packed, idx},
                       acc.iarr[j]);
          }
          break;
      }
    }
  }
}

template <typename Keys, typename Resolve>
void grouped_acc_scalar(const Keys& keys, std::span<const AggInput> inputs,
                        const BitVector& selection, std::size_t word_begin,
                        std::size_t word_end, const Resolve& resolve,
                        GroupTable& acc) {
  grouped_acc_words<ScalarTier>(keys, inputs, selection, word_begin,
                                word_end, resolve, acc);
}

#if defined(__x86_64__)
template <typename Keys, typename Resolve>
EIDB_TARGET_AVX512_VBMI void grouped_acc_avx512(
    const Keys& keys, std::span<const AggInput> inputs,
    const BitVector& selection, std::size_t word_begin, std::size_t word_end,
    const Resolve& resolve, GroupTable& acc) {
  grouped_acc_words<SimdTier>(keys, inputs, selection, word_begin, word_end,
                              resolve, acc);
}
#endif

/// One chunk of a grouped kernel, its whole word loop at `tier`.
template <typename Keys, typename Resolve>
void grouped_acc_range(const Keys& keys, std::span<const AggInput> inputs,
                       const BitVector& selection, std::size_t word_begin,
                       std::size_t word_end, PackedTier tier,
                       const Resolve& resolve, GroupTable& acc) {
#if defined(__x86_64__)
  if (tier == PackedTier::kAvx512Vbmi) {
    grouped_acc_avx512(keys, inputs, selection, word_begin, word_end, resolve,
                       acc);
    return;
  }
#endif
  (void)tier;
  grouped_acc_scalar(keys, inputs, selection, word_begin, word_end, resolve,
                     acc);
}

/// Key min/max over the selected rows (fallback when the caller has no
/// cached statistics).
template <typename Keys>
KeyRange selected_key_range(const Keys& keys, const BitVector& selection) {
  KeyRange r;
  std::int64_t mn = std::numeric_limits<std::int64_t>::max();
  std::int64_t mx = std::numeric_limits<std::int64_t>::min();
  bool any = false;
  selection.for_each_set([&](std::size_t i) {
    if (i >= keys.size()) return;
    any = true;
    mn = std::min<std::int64_t>(mn, keys[i]);
    mx = std::max<std::int64_t>(mx, keys[i]);
  });
  if (any) {
    r.known = true;
    r.min = mn;
    r.max = mx;
  }
  return r;
}

/// Groups a hash table over selection words [word_begin, word_end)
/// expects: the cached distinct estimate when the caller has one, else an
/// eighth of the words' selected rows.
std::size_t hash_groups(const KeyRange& range, const BitVector& selection,
                        std::size_t word_begin, std::size_t word_end) {
  if (range.distinct_hint != 0) return range.distinct_hint;
  const std::uint64_t* words = selection.words();
  std::uint64_t live = 0;
  for (std::size_t w = word_begin; w < word_end; ++w)
    live += static_cast<std::uint64_t>(__builtin_popcountll(words[w]));
  return static_cast<std::size_t>(live) / 8 + 16;
}

/// The grouped kernels' one path: a GroupTable per chunk, each chunk's
/// rows accumulated through its resolver, chunks 1.. folded into chunk
/// 0's table in chunk order.
template <typename Keys>
GroupedAggs grouped_impl(const Keys& keys, std::span<const AggInput> inputs,
                         const BitVector& selection, KeyRange range,
                         GroupStrategy strategy, PackedTier tier,
                         sched::ThreadPool* pool, std::size_t morsel_rows) {
  EIDB_EXPECTS(selection.size() >= keys.size());
  check_input_sizes(inputs, selection);
  check_tier(tier);
  if (!range.known) range = selected_key_range(keys, selection);
  if (!range.known) return {};  // empty selection

  const Chunks chunks = pass_chunks(pool, keys.size(), selection, morsel_rows);
  const bool dense =
      GroupTable::dense_layout(range, strategy, chunks.count(), chunks.grain);
  std::vector<std::optional<GroupTable>> tables(chunks.count());
  chunks.run([&](std::size_t chunk, std::size_t begin, std::size_t end) {
    const std::size_t wb = begin / 64;
    const std::size_t we = (end + 63) / 64;
    GroupTable& table = tables[chunk].emplace(
        inputs, range, dense,
        dense ? 0 : hash_groups(range, selection, wb, we));
    table.with_resolver([&](const auto& resolve) {
      grouped_acc_range(keys, inputs, selection, wb, we, tier, resolve,
                        table);
    });
  });
  for (std::size_t c = 1; c < tables.size(); ++c)
    tables.front()->merge_from(*tables[c]);
  return tables.front()->emit();
}

/// Grows the arrays `ops` names to `slots`, new slots at the fold
/// identities.
template <typename S>
void grow(GroupTable::Arrays<S>& a, AggOpSet ops, std::size_t slots,
          std::size_t cap) {
  const auto grow_one = [&](std::vector<S>& v, S identity) {
    v.reserve(cap);
    v.resize(slots, identity);
  };
  if (ops & kAggSum) grow_one(a.sum, S{0});
  if (ops & kAggMin) grow_one(a.mn, fold_top<S>());
  if (ops & kAggMax) grow_one(a.mx, fold_bottom<S>());
}

/// Folds slot `t` of `o` into slot `s` of `a`.
template <typename S>
void fold_into(GroupTable::Arrays<S>& a, AggOpSet ops, std::uint32_t s,
               const GroupTable::Arrays<S>& o, std::size_t t) {
  if (ops & kAggSum) a.sum[s] += o.sum[t];
  if (ops & kAggMin) a.mn[s] = std::min(a.mn[s], o.mn[t]);
  if (ops & kAggMax) a.mx[s] = std::max(a.mx[s], o.mx[t]);
}

template <typename R, typename S>
R slot_result(const GroupTable::Arrays<S>& a, AggOpSet ops, std::uint32_t s,
              std::uint64_t count) {
  R r;
  r.count = count;
  if (ops & kAggSum) r.sum = a.sum[s];
  if (count != 0 && (ops & kAggMin)) r.min = a.mn[s];
  if (count != 0 && (ops & kAggMax)) r.max = a.mx[s];
  return r;
}

}  // namespace

bool GroupTable::dense_layout(const KeyRange& range, GroupStrategy strategy,
                              std::size_t chunks, std::size_t chunk_rows) {
  // Unsigned width survives hash-like int64 keys whose spread overflows
  // a signed domain computation (huge widths simply fail the dense test).
  const std::uint64_t width = static_cast<std::uint64_t>(range.max) -
                              static_cast<std::uint64_t>(range.min);
  const auto fits = [&](std::int64_t limit) {
    return range.known && width < static_cast<std::uint64_t>(limit);
  };
  switch (strategy) {
    case GroupStrategy::kDenseArray:
      if (!fits(kDenseDomainLimit))
        throw Error("dense group-by domain too large");
      return true;
    case GroupStrategy::kHash:
      return false;
    case GroupStrategy::kAuto:
      break;
  }
  if (chunks <= 1) return fits(kDenseDomainLimit);
  // Every chunk's dense table spans the whole range, so it takes no more
  // slots than the chunk has rows.
  return fits(static_cast<std::int64_t>(
      std::min<std::size_t>(kChunkDenseLimit, chunk_rows)));
}

GroupTable::GroupTable(std::span<const AggInput> inputs, const KeyRange& range,
                       bool dense, std::size_t hash_groups)
    : iarr(inputs.size()),
      darr(inputs.size()),
      dense_(dense),
      dense_min_(range.min),
      slots_(dense ? 16 : hash_groups) {
  shapes_.reserve(inputs.size());
  for (const AggInput& in : inputs) shapes_.push_back({in.is_double(), in.ops});
  if (dense) {
    EIDB_EXPECTS(range.known);
    ensure(static_cast<std::size_t>(static_cast<std::uint64_t>(range.max) -
                                    static_cast<std::uint64_t>(range.min)) +
           1);
  }
}

void GroupTable::ensure(std::size_t slots) {
  if (counts.size() >= slots) return;
  const std::size_t cap = counts.capacity() >= slots
                              ? counts.capacity()
                              : std::max(slots, counts.capacity() * 2 + 16);
  counts.reserve(cap);
  counts.resize(slots, 0);
  for (std::size_t j = 0; j < shapes_.size(); ++j) {
    if (shapes_[j].is_double)
      grow(darr[j], shapes_[j].ops, slots, cap);
    else
      grow(iarr[j], shapes_[j].ops, slots, cap);
  }
}

void GroupTable::merge_from(const GroupTable& other) {
  EIDB_EXPECTS(dense_ == other.dense_);
  // Dense tables share one slot layout (same range): slot s merges into
  // slot s. Hash slots merge into their key's slot here.
  EIDB_EXPECTS(!dense_ || (dense_min_ == other.dense_min_ &&
                           counts.size() == other.counts.size()));
  for (std::size_t s = 0; s < other.counts.size(); ++s) {
    if (other.counts[s] == 0) continue;
    const std::uint32_t mine =
        dense_ ? static_cast<std::uint32_t>(s) : hash_slot(other.keys_[s]);
    counts[mine] += other.counts[s];
    for (std::size_t j = 0; j < shapes_.size(); ++j) {
      if (shapes_[j].is_double)
        fold_into(darr[j], shapes_[j].ops, mine, other.darr[j], s);
      else
        fold_into(iarr[j], shapes_[j].ops, mine, other.iarr[j], s);
    }
  }
}

GroupedAggs GroupTable::emit(bool empty_slots) const {
  // Slot order is key order for dense slots; hash slots sort by key.
  std::vector<std::pair<std::int64_t, std::uint32_t>> order;
  order.reserve(dense_ ? 0 : keys_.size());
  for (std::size_t s = 0; s < counts.size(); ++s)
    if (empty_slots || counts[s] != 0)
      order.emplace_back(dense_ ? dense_min_ + static_cast<std::int64_t>(s)
                                : keys_[s],
                         static_cast<std::uint32_t>(s));
  if (!dense_) std::sort(order.begin(), order.end());

  GroupedAggs out;
  const std::size_t g = order.size();
  out.keys.reserve(g);
  out.counts.reserve(g);
  out.iout.resize(shapes_.size());
  out.dout.resize(shapes_.size());
  for (std::size_t j = 0; j < shapes_.size(); ++j) {
    if (shapes_[j].is_double)
      out.dout[j].reserve(g);
    else
      out.iout[j].reserve(g);
  }
  for (const auto& [key, slot] : order) {
    out.keys.push_back(key);
    const std::uint64_t count = counts[slot];
    out.counts.push_back(count);
    for (std::size_t j = 0; j < shapes_.size(); ++j) {
      if (shapes_[j].is_double)
        out.dout[j].push_back(
            slot_result<AggResultD>(darr[j], shapes_[j].ops, slot, count));
      else
        out.iout[j].push_back(
            slot_result<AggResult>(iarr[j], shapes_[j].ops, slot, count));
    }
  }
  return out;
}

std::int64_t LookupKey::at(std::size_t i) const {
  const std::int64_t offset = fk.int_at(i) - lut_min;
  if (check_fk) check_lookup_offset(offset, lut.size());
  return lut[static_cast<std::size_t>(offset)];
}

std::vector<AggOut> multi_aggregate(std::span<const AggInput> inputs,
                                    const BitVector& selection,
                                    PackedTier tier, sched::ThreadPool* pool,
                                    std::size_t morsel_rows) {
  check_input_sizes(inputs, selection);
  check_tier(tier);
  const Chunks chunks =
      pass_chunks(pool, selection.size(), selection, morsel_rows);
  std::vector<std::vector<InputAcc>> accs(
      chunks.count(), std::vector<InputAcc>(inputs.size()));
  std::vector<std::uint64_t> counts(chunks.count(), 0);
  chunks.run([&](std::size_t chunk, std::size_t begin, std::size_t end) {
    counts[chunk] = multi_acc_range(inputs, selection, begin / 64,
                                    (end + 63) / 64, tier, accs[chunk]);
  });
  // Chunk order, not completion order: double sums are the same on every
  // run.
  std::vector<InputAcc>& acc = accs.front();
  for (std::size_t c = 1; c < accs.size(); ++c) {
    if (counts[c] == 0) continue;
    counts.front() += counts[c];
    for (std::size_t j = 0; j < inputs.size(); ++j) {
      const InputAcc& p = accs[c][j];
      acc[j].isum += p.isum;
      acc[j].imin = std::min(acc[j].imin, p.imin);
      acc[j].imax = std::max(acc[j].imax, p.imax);
      acc[j].dsum += p.dsum;
      acc[j].dmin = std::min(acc[j].dmin, p.dmin);
      acc[j].dmax = std::max(acc[j].dmax, p.dmax);
    }
  }
  return finalize_multi(inputs, acc, counts.front());
}

GroupedAggs grouped_multi_aggregate(std::span<const std::int64_t> keys,
                                    std::span<const AggInput> inputs,
                                    const BitVector& selection, KeyRange range,
                                    GroupStrategy strategy, PackedTier tier,
                                    sched::ThreadPool* pool,
                                    std::size_t morsel_rows) {
  return grouped_impl(keys, inputs, selection, range, strategy, tier, pool,
                      morsel_rows);
}

GroupedAggs grouped_multi_aggregate32(std::span<const std::int32_t> keys,
                                      std::span<const AggInput> inputs,
                                      const BitVector& selection,
                                      KeyRange range, GroupStrategy strategy,
                                      PackedTier tier, sched::ThreadPool* pool,
                                      std::size_t morsel_rows) {
  return grouped_impl(keys, inputs, selection, range, strategy, tier, pool,
                      morsel_rows);
}

GroupedAggs grouped_multi_aggregate_packed(const storage::PackedView& keys,
                                           std::span<const AggInput> inputs,
                                           const BitVector& selection,
                                           KeyRange range,
                                           GroupStrategy strategy,
                                           PackedTier tier,
                                           sched::ThreadPool* pool,
                                           std::size_t morsel_rows) {
  return grouped_impl(PackedKeys{keys}, inputs, selection, range, strategy,
                      tier, pool, morsel_rows);
}

GroupedAggs grouped_multi_aggregate_lookup(const LookupKey& keys,
                                           std::span<const AggInput> inputs,
                                           const BitVector& selection,
                                           KeyRange range,
                                           GroupStrategy strategy,
                                           PackedTier tier,
                                           sched::ThreadPool* pool,
                                           std::size_t morsel_rows) {
  const auto run = [&](const auto& k) {
    return grouped_impl(k, inputs, selection, range, strategy, tier, pool,
                        morsel_rows);
  };
  return keys.check_fk ? with_lookup_keys<true>(keys, run)
                       : with_lookup_keys<false>(keys, run);
}

// ---------------------------------------------------------------------------
// JoinAggregator: gather-based sink for the late-materialized join pipeline.
// ---------------------------------------------------------------------------

namespace {

/// Internal sub-block size: key/slot scratch stays on the stack.
constexpr std::size_t kGatherBlock = 1024;

std::vector<AggInput> columns_of(
    const std::vector<JoinAggregator::Input>& inputs) {
  std::vector<AggInput> columns;
  columns.reserve(inputs.size());
  for (const JoinAggregator::Input& in : inputs) columns.push_back(in.column);
  return columns;
}

}  // namespace

JoinAggregator::JoinAggregator(std::vector<Input> inputs)
    : inputs_(std::move(inputs)),
      table_(columns_of(inputs_), KeyRange{true, 0, 0}, true) {}

JoinAggregator::JoinAggregator(std::vector<Input> inputs,
                               std::vector<KeyPart> key, KeyRange range,
                               std::size_t chunks, std::size_t chunk_rows)
    : inputs_(std::move(inputs)),
      key_(std::move(key)),
      table_(columns_of(inputs_), range,
             GroupTable::dense_layout(range, GroupStrategy::kAuto, chunks,
                                      chunk_rows)) {
  EIDB_EXPECTS(!key_.empty());
  for (const KeyPart& part : key_)
    EIDB_EXPECTS(part.column.kind != AggInput::Kind::kDouble);
}

void JoinAggregator::add_block(const std::uint32_t* build_rows,
                               const std::uint32_t* probe_rows,
                               std::size_t count) {
  const std::uint32_t* rows[2] = {probe_rows, build_rows};
  add_block(rows, count);
}

void JoinAggregator::add_block(const std::uint32_t* const* side_rows,
                               std::size_t count) {
  pairs_ += count;
  table_.with_resolver([&](const auto& resolve) {
    std::int64_t keys[kGatherBlock];
    std::uint32_t slot[kGatherBlock];
    for (std::size_t at = 0; at < count; at += kGatherBlock) {
      const std::size_t n = std::min(kGatherBlock, count - at);
      if (key_.empty()) {
        for (std::size_t e = 0; e < n; ++e) slot[e] = 0;
        table_.counts[0] += n;
      } else {
        // Key column(s) touched once per match: the composite key is
        // synthesized per block, then every input gathers
        // column-at-a-time.
        for (std::size_t e = 0; e < n; ++e) keys[e] = 0;
        for (const KeyPart& part : key_) {
          const std::uint32_t* rows = side_rows[part.side] + at;
          for (std::size_t e = 0; e < n; ++e)
            keys[e] +=
                (part.column.int_at(rows[e]) - part.offset) * part.stride;
        }
        for (std::size_t e = 0; e < n; ++e) slot[e] = resolve(keys[e]);
        for (std::size_t e = 0; e < n; ++e) ++table_.counts[slot[e]];
      }
      for (std::size_t j = 0; j < inputs_.size(); ++j) {
        const AggInput& column = inputs_[j].column;
        const std::uint32_t* rows = side_rows[inputs_[j].side] + at;
        if (column.is_double()) {
          const double* data = column.f64.data();
          fold_slots(column.ops, n, slot,
                     [&](std::size_t e) { return data[rows[e]]; },
                     table_.darr[j]);
        } else {
          fold_slots(column.ops, n, slot,
                     [&](std::size_t e) { return column.int_at(rows[e]); },
                     table_.iarr[j]);
        }
      }
    }
  });
}

void JoinAggregator::merge_from(const JoinAggregator& other) {
  pairs_ += other.pairs_;
  table_.merge_from(other.table_);
}

GroupedAggs JoinAggregator::finish() const {
  return table_.emit(/*empty_slots=*/key_.empty());
}

}  // namespace eidb::exec
