#include "exec/vector_agg.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include <algorithm>
#include <limits>
#include <type_traits>

#include "exec/hash_table.hpp"
#include "storage/bitpack_avx512.hpp"
#include "util/assert.hpp"

namespace eidb::exec {

namespace {

// Serial dense slots come from the shared kDenseDomainLimit
// (exec/aggregate.hpp); per-chunk dense accumulators cap lower.
constexpr std::int64_t kParallelDenseLimit = 1 << 16;

constexpr std::uint64_t kAllLive = ~std::uint64_t{0};

// ---------------------------------------------------------------------------
// The live lanes of one selection word: the only places a pass lists its
// selected rows or decodes a packed block.
// ---------------------------------------------------------------------------

#if defined(__x86_64__)
/// AVX-512 tier of decode_live: each 16-value group decodes through the
/// storage core and vpcompressd keeps its live lanes in row order. A
/// group's 16-lane store starts at k <= 16 * g, so it stays inside
/// out[0..64).
EIDB_TARGET_AVX512_VBMI std::size_t decode_live_avx512(
    const storage::PackedView& pv, std::size_t base, std::uint64_t live,
    std::uint32_t* out) {
  const storage::avx512::Unpacker unpack(pv.words.data(), pv.bits);
  std::size_t k = 0;
  for (unsigned g = 0; g < 4; ++g) {
    const auto m = static_cast<__mmask16>(live >> (16 * g));
    _mm512_storeu_si512(
        out + k, _mm512_maskz_compress_epi32(m, unpack.load16(base + 16 * g)));
    k += static_cast<std::size_t>(__builtin_popcount(m));
  }
  return k;
}
#endif  // __x86_64__

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

/// The block helper: decodes the 64-value block of `pv` at `base` once and
/// writes the packed values (reference not added) of the rows set in
/// `live` to out[], in row order; returns their count. `Raw` is uint32_t
/// for widths up to 32, uint64_t above. The AVX-512 tier decodes widths
/// 1..25 with storage::avx512::Unpacker; widths 0 and above 25, and other
/// CPUs, take the scalar block decoder and a ctz walk.
template <typename Raw>
std::size_t decode_live(const storage::PackedView& pv, std::size_t base,
                        std::uint64_t live, PackedTier tier, Raw* out) {
  EIDB_EXPECTS(base % 64 == 0 && base + 64 <= pv.count);
  EIDB_EXPECTS(pv.bits <= 8 * sizeof(Raw));
#if defined(__x86_64__)
  if constexpr (std::is_same_v<Raw, std::uint32_t>) {
    if (tier == PackedTier::kAvx512Vbmi && pv.bits >= 1 &&
        pv.bits <= storage::avx512::kMaxBits) {
      // A 64-value block ends on a word boundary: block b spans words
      // [b * bits, (b + 1) * bits).
      EIDB_EXPECTS((base / 64 + 1) * pv.bits <= pv.words.size());
      return decode_live_avx512(pv, base, live, out);
    }
  }
#endif
  (void)tier;
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

/// Calls fn(value), where value(e) is the decoded value (reference added)
/// of the e-th live row of the word at `base`: from one decode_live for a
/// block word, through value_at at the listed rows idx[] otherwise.
template <typename Fn>
void with_live_values(const storage::PackedView& pv, std::size_t base,
                      std::uint64_t live, bool block, PackedTier tier,
                      const std::uint32_t* idx, Fn&& fn) {
  const std::int64_t ref = pv.reference;
  if (block && pv.bits <= 32) {
    alignas(64) std::uint32_t raw[64];
    decode_live(pv, base, live, tier, raw);
    fn([&](std::size_t e) { return ref + static_cast<std::int64_t>(raw[e]); });
  } else if (block) {
    alignas(64) std::uint64_t raw[64];
    decode_live(pv, base, live, tier, raw);
    fn([&](std::size_t e) { return ref + static_cast<std::int64_t>(raw[e]); });
  } else {
    fn([&](std::size_t e) { return pv.value_at(idx[e]); });
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
void fold(AggOpSet ops, std::size_t k, const Value& value, S& sum, S& mn,
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
void fold_slots(AggOpSet ops, std::size_t k, const std::uint32_t* slot,
                const Value& value, GroupAccum::Arrays<S>& a) {
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
void acc_word_full(const T* data, AggOpSet ops, S& sum, S& mn, S& mx) {
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
void acc_word_plain(const T* data, std::size_t base, bool full,
                    const std::uint32_t* idx, std::size_t k, AggOpSet ops,
                    S& sum, S& mn, S& mx) {
  if (full) {
    acc_word_full(data + base, ops, sum, mn, mx);
    return;
  }
  fold(ops, k, [&](std::size_t e) { return static_cast<S>(data[idx[e]]); },
       sum, mn, mx);
}

/// One pass over selection words [word_begin, word_end) accumulating every
/// input; returns the number of selected rows seen.
std::uint64_t multi_acc_range(std::span<const AggInput> inputs,
                              const BitVector& selection,
                              std::size_t word_begin, std::size_t word_end,
                              PackedTier tier, std::vector<InputAcc>& accs) {
  // Full words of plain inputs read all 64 rows without listing them.
  const BlockPlan plan = plan_blocks(inputs, selection.size(), tier, false);
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
          with_live_values(in.packed, base, bits, block, tier, idx,
                           [&](const auto& value) {
                             fold(in.ops, k, value, a.isum, a.imin, a.imax);
                           });
          break;
      }
    }
  }
  return count;
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

/// Key accessor of a LookupKey over its foreign-key view `Fk` (an int32 or
/// int64 span, or PackedKeys).
template <typename Fk>
struct LookupKeys {
  Fk fk;
  const std::int64_t* lut;
  std::int64_t lut_min;
  [[nodiscard]] std::int64_t map(std::int64_t v) const {
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
template <typename Fn>
decltype(auto) with_lookup_keys(const LookupKey& keys, Fn&& fn) {
  const std::int64_t* lut = keys.lut.data();
  switch (keys.fk.kind) {
    case AggInput::Kind::kInt32:
      return fn(LookupKeys<std::span<const std::int32_t>>{keys.fk.i32, lut,
                                                          keys.lut_min});
    case AggInput::Kind::kInt64:
      return fn(LookupKeys<std::span<const std::int64_t>>{keys.fk.i64, lut,
                                                          keys.lut_min});
    case AggInput::Kind::kPacked:
      return fn(LookupKeys<PackedKeys>{PackedKeys{keys.fk.packed}, lut,
                                       keys.lut_min});
    case AggInput::Kind::kDouble:
      break;
  }
  throw Error("lookup foreign key must be an integer view");
}

/// Core grouped pass, templated over key width. `resolve` maps a key to a
/// dense slot id (identity-offset for the dense strategy, hash lookup
/// otherwise). Processes selection words [word_begin, word_end).
template <typename Keys, typename Resolve>
void grouped_acc_range(const Keys& keys, std::span<const AggInput> inputs,
                       const BitVector& selection, std::size_t word_begin,
                       std::size_t word_end, PackedTier tier,
                       Resolve&& resolve, GroupAccum& acc) {
  constexpr bool kPackedKeys = requires(const Keys& k) { k.packed(); };
  const BlockPlan plan =
      plan_blocks(inputs, keys.size(), tier, !kPackedKeys);
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
    if constexpr (kPackedKeys) {
      with_live_values(keys.packed(), base, bits, block, tier, idx,
                       [&](const auto& value) {
                         resolve_all([&](std::size_t e) {
                           return keys.map(value(e));
                         });
                       });
    } else {
      resolve_all([&](std::size_t e) {
        return static_cast<std::int64_t>(keys[idx[e]]);
      });
    }
    for (std::size_t j = 0; j < inputs.size(); ++j) {
      const AggInput& in = inputs[j];
      switch (in.kind) {
        case AggInput::Kind::kInt32: {
          const std::int32_t* data = in.i32.data();
          fold_slots(in.ops, k, slot,
                     [&](std::size_t e) {
                       return static_cast<std::int64_t>(data[idx[e]]);
                     },
                     acc.iarr[j]);
          break;
        }
        case AggInput::Kind::kInt64: {
          const std::int64_t* data = in.i64.data();
          fold_slots(in.ops, k, slot,
                     [&](std::size_t e) { return data[idx[e]]; },
                     acc.iarr[j]);
          break;
        }
        case AggInput::Kind::kDouble: {
          const double* data = in.f64.data();
          fold_slots(in.ops, k, slot,
                     [&](std::size_t e) { return data[idx[e]]; },
                     acc.darr[j]);
          break;
        }
        case AggInput::Kind::kPacked:
          with_live_values(in.packed, base, bits, block, tier, idx,
                           [&](const auto& value) {
                             fold_slots(in.ops, k, slot, value, acc.iarr[j]);
                           });
          break;
      }
    }
  }
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

template <typename Keys>
GroupedAggs grouped_impl(const Keys& keys, std::span<const AggInput> inputs,
                         const BitVector& selection, KeyRange range,
                         GroupStrategy strategy, std::size_t word_begin,
                         std::size_t word_end, PackedTier tier) {
  if (!range.known) range = selected_key_range(keys, selection);
  if (!range.known) return {};  // empty selection

  // Unsigned width survives hash-like int64 keys whose spread overflows
  // a signed domain computation (huge widths simply fail the dense test).
  const std::uint64_t width = static_cast<std::uint64_t>(range.max) -
                              static_cast<std::uint64_t>(range.min);
  const bool dense_ok = width < static_cast<std::uint64_t>(kDenseDomainLimit);
  GroupStrategy chosen = strategy;
  if (chosen == GroupStrategy::kAuto)
    chosen = dense_ok ? GroupStrategy::kDenseArray : GroupStrategy::kHash;
  if (chosen == GroupStrategy::kDenseArray && !dense_ok)
    throw Error("dense group-by domain too large");

  GroupAccum acc(inputs);
  std::vector<std::pair<std::int64_t, std::uint32_t>> order;

  if (chosen == GroupStrategy::kDenseArray) {
    const auto domain = static_cast<std::size_t>(width) + 1;
    acc.ensure(domain);
    const std::int64_t kmin = range.min;
    grouped_acc_range(keys, inputs, selection, word_begin, word_end, tier,
                      [kmin](std::int64_t key) {
                        return static_cast<std::uint32_t>(key - kmin);
                      },
                      acc);
    // Slot order == key order for the dense layout.
    for (std::size_t s = 0; s < domain; ++s)
      if (acc.counts[s] != 0)
        order.emplace_back(kmin + static_cast<std::int64_t>(s),
                           static_cast<std::uint32_t>(s));
  } else {
    // Size the table from the cached distinct estimate when the caller
    // has one; otherwise popcount only this call's word range (the
    // parallel path invokes grouped_impl once per chunk).
    std::size_t sized = range.distinct_hint;
    if (sized == 0) {
      const std::uint64_t* words = selection.words();
      std::uint64_t local = 0;
      for (std::size_t w = word_begin; w < word_end; ++w)
        local += static_cast<std::uint64_t>(__builtin_popcountll(words[w]));
      sized = static_cast<std::size_t>(local) / 8 + 16;
    }
    HashTable<std::uint32_t> slots(sized);
    std::uint32_t next = 0;
    grouped_acc_range(
        keys, inputs, selection, word_begin, word_end, tier,
        [&](std::int64_t key) {
          std::uint32_t& s = slots.get_or_insert(
              key, [&](std::uint32_t& fresh) { fresh = next++; });
          acc.ensure(next);
          return s;
        },
        acc);
    order.reserve(next);
    slots.for_each([&](std::int64_t key, const std::uint32_t& s) {
      order.emplace_back(key, s);
    });
    std::sort(order.begin(), order.end());
  }
  return acc.emit(order);
}

template <typename Keys>
GroupedAggs parallel_grouped_impl(sched::ThreadPool& pool, const Keys& keys,
                                  std::span<const AggInput> inputs,
                                  const BitVector& selection, KeyRange range,
                                  std::size_t morsel_rows, PackedTier tier) {
  EIDB_EXPECTS(selection.size() >= keys.size());
  check_input_sizes(inputs, selection);
  if (!range.known) range = selected_key_range(keys, selection);
  if (!range.known) return {};

  // Per-chunk dense accumulators only for modest domains; everything
  // larger hashes explicitly — per-chunk dense arrays over a big domain
  // would pay O(domain) init and emit per chunk.
  const std::uint64_t width = static_cast<std::uint64_t>(range.max) -
                              static_cast<std::uint64_t>(range.min);
  const GroupStrategy strategy =
      width < static_cast<std::uint64_t>(kParallelDenseLimit)
          ? GroupStrategy::kDenseArray
          : GroupStrategy::kHash;

  const std::size_t n = keys.size();
  // Chunks are cut from the row count alone: the pool width never moves a
  // chunk boundary, so the result does not depend on it.
  const std::size_t grain = chunk_grain(n, morsel_rows);
  const std::size_t total_words = (n + 63) / 64;

  // Morsels are grain-aligned (multiples of 64): whole selection words,
  // one partial per chunk slot.
  std::vector<GroupedAggs> parts((n + grain - 1) / grain);
  pool.parallel_for(n, grain, [&](std::size_t begin, std::size_t end) {
    const std::size_t wb = begin / 64;
    const std::size_t we = std::min(total_words, (end + 63) / 64);
    parts[begin / grain] =
        grouped_impl(keys, inputs, selection, range, strategy, wb, we, tier);
  });

  // Merged in chunk order, not completion order: double sums are then the
  // same on every run.
  GroupAccum merged(inputs);
  HashTable<std::uint32_t> slots;
  std::uint32_t next = 0;
  for (const GroupedAggs& part : parts) {
    for (std::size_t g = 0; g < part.group_count(); ++g) {
      const std::uint32_t s = slots.get_or_insert(
          part.keys[g], [&](std::uint32_t& f) { f = next++; });
      merged.ensure(next);
      merged.merge(s, part, g);
    }
  }
  std::vector<std::pair<std::int64_t, std::uint32_t>> order;
  order.reserve(next);
  slots.for_each([&](std::int64_t key, const std::uint32_t& s) {
    order.emplace_back(key, s);
  });
  std::sort(order.begin(), order.end());
  return merged.emit(order);
}

/// Grows the arrays `ops` names to `slots`, new slots at the fold
/// identities.
template <typename S>
void grow(GroupAccum::Arrays<S>& a, AggOpSet ops, std::size_t slots,
          std::size_t cap) {
  const auto grow_one = [&](std::vector<S>& v, S identity) {
    v.reserve(cap);
    v.resize(slots, identity);
  };
  if (ops & kAggSum) grow_one(a.sum, S{0});
  if (ops & kAggMin) grow_one(a.mn, fold_top<S>());
  if (ops & kAggMax) grow_one(a.mx, fold_bottom<S>());
}

/// Folds one (sum, min, max) partial into slot `s`.
template <typename S>
void fold_into(GroupAccum::Arrays<S>& a, AggOpSet ops, std::uint32_t s,
               S sum, S mn, S mx) {
  if (ops & kAggSum) a.sum[s] += sum;
  if (ops & kAggMin) a.mn[s] = std::min(a.mn[s], mn);
  if (ops & kAggMax) a.mx[s] = std::max(a.mx[s], mx);
}

template <typename S>
void fold_into(GroupAccum::Arrays<S>& a, AggOpSet ops, std::uint32_t s,
               const GroupAccum::Arrays<S>& o, std::size_t t) {
  fold_into(a, ops, s, (ops & kAggSum) ? o.sum[t] : S{0},
            (ops & kAggMin) ? o.mn[t] : S{0},
            (ops & kAggMax) ? o.mx[t] : S{0});
}

template <typename R, typename S>
R slot_result(const GroupAccum::Arrays<S>& a, AggOpSet ops, std::uint32_t s,
              std::uint64_t count) {
  R r;
  r.count = count;
  if (ops & kAggSum) r.sum = a.sum[s];
  if (count != 0 && (ops & kAggMin)) r.min = a.mn[s];
  if (count != 0 && (ops & kAggMax)) r.max = a.mx[s];
  return r;
}

}  // namespace

GroupAccum::GroupAccum(std::span<const AggInput> inputs)
    : iarr(inputs.size()), darr(inputs.size()) {
  shapes_.reserve(inputs.size());
  for (const AggInput& in : inputs) shapes_.push_back({in.is_double(), in.ops});
}

void GroupAccum::ensure(std::size_t slots) {
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

void GroupAccum::merge(std::uint32_t s, const GroupedAggs& part,
                       std::size_t g) {
  counts[s] += part.counts[g];
  for (std::size_t j = 0; j < shapes_.size(); ++j) {
    if (shapes_[j].is_double) {
      const AggResultD& r = part.dout[j][g];
      fold_into(darr[j], shapes_[j].ops, s, r.sum, r.min, r.max);
    } else {
      const AggResult& r = part.iout[j][g];
      fold_into(iarr[j], shapes_[j].ops, s, r.sum, r.min, r.max);
    }
  }
}

void GroupAccum::merge(std::uint32_t mine, const GroupAccum& other,
                       std::size_t theirs) {
  counts[mine] += other.counts[theirs];
  for (std::size_t j = 0; j < shapes_.size(); ++j) {
    if (shapes_[j].is_double)
      fold_into(darr[j], shapes_[j].ops, mine, other.darr[j], theirs);
    else
      fold_into(iarr[j], shapes_[j].ops, mine, other.iarr[j], theirs);
  }
}

GroupedAggs GroupAccum::emit(
    std::span<const std::pair<std::int64_t, std::uint32_t>> order) const {
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

std::vector<AggOut> multi_aggregate(std::span<const AggInput> inputs,
                                    const BitVector& selection,
                                    PackedTier tier) {
  check_input_sizes(inputs, selection);
  check_tier(tier);
  std::vector<InputAcc> accs(inputs.size());
  const std::uint64_t count = multi_acc_range(
      inputs, selection, 0, selection.word_count(), tier, accs);
  return finalize_multi(inputs, accs, count);
}

std::vector<AggOut> parallel_multi_aggregate(sched::ThreadPool& pool,
                                             std::span<const AggInput> inputs,
                                             const BitVector& selection,
                                             std::size_t morsel_rows) {
  check_input_sizes(inputs, selection);
  const std::size_t n = selection.size();
  const std::size_t grain = chunk_grain(n, morsel_rows);
  const std::size_t total_words = selection.word_count();
  const PackedTier tier = packed_tier();

  // One partial per chunk slot, merged in chunk order below.
  const std::size_t chunks = (n + grain - 1) / grain;
  std::vector<std::vector<InputAcc>> parts(chunks);
  std::vector<std::uint64_t> part_counts(chunks, 0);
  pool.parallel_for(n, grain, [&](std::size_t begin, std::size_t end) {
    const std::size_t chunk = begin / grain;
    const std::size_t wb = begin / 64;
    const std::size_t we = std::min(total_words, (end + 63) / 64);
    parts[chunk].resize(inputs.size());
    part_counts[chunk] =
        multi_acc_range(inputs, selection, wb, we, tier, parts[chunk]);
  });

  std::vector<InputAcc> accs(inputs.size());
  std::uint64_t count = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    if (part_counts[c] == 0) continue;
    count += part_counts[c];
    for (std::size_t j = 0; j < inputs.size(); ++j) {
      const InputAcc& p = parts[c][j];
      accs[j].isum += p.isum;
      accs[j].imin = std::min(accs[j].imin, p.imin);
      accs[j].imax = std::max(accs[j].imax, p.imax);
      accs[j].dsum += p.dsum;
      accs[j].dmin = std::min(accs[j].dmin, p.dmin);
      accs[j].dmax = std::max(accs[j].dmax, p.dmax);
    }
  }
  return finalize_multi(inputs, accs, count);
}

GroupedAggs grouped_multi_aggregate(std::span<const std::int64_t> keys,
                                    std::span<const AggInput> inputs,
                                    const BitVector& selection, KeyRange range,
                                    GroupStrategy strategy) {
  EIDB_EXPECTS(selection.size() >= keys.size());
  check_input_sizes(inputs, selection);
  return grouped_impl(keys, inputs, selection, range, strategy, 0,
                      (keys.size() + 63) / 64, packed_tier());
}

GroupedAggs grouped_multi_aggregate32(std::span<const std::int32_t> keys,
                                      std::span<const AggInput> inputs,
                                      const BitVector& selection,
                                      KeyRange range, GroupStrategy strategy) {
  EIDB_EXPECTS(selection.size() >= keys.size());
  check_input_sizes(inputs, selection);
  return grouped_impl(keys, inputs, selection, range, strategy, 0,
                      (keys.size() + 63) / 64, packed_tier());
}

GroupedAggs parallel_grouped_multi_aggregate(
    sched::ThreadPool& pool, std::span<const std::int64_t> keys,
    std::span<const AggInput> inputs, const BitVector& selection,
    KeyRange range, std::size_t morsel_rows) {
  return parallel_grouped_impl(pool, keys, inputs, selection, range,
                               morsel_rows, packed_tier());
}

GroupedAggs parallel_grouped_multi_aggregate32(
    sched::ThreadPool& pool, std::span<const std::int32_t> keys,
    std::span<const AggInput> inputs, const BitVector& selection,
    KeyRange range, std::size_t morsel_rows) {
  return parallel_grouped_impl(pool, keys, inputs, selection, range,
                               morsel_rows, packed_tier());
}

GroupedAggs grouped_multi_aggregate_packed(const storage::PackedView& keys,
                                           std::span<const AggInput> inputs,
                                           const BitVector& selection,
                                           KeyRange range,
                                           GroupStrategy strategy,
                                           PackedTier tier) {
  EIDB_EXPECTS(selection.size() >= keys.count);
  check_input_sizes(inputs, selection);
  check_tier(tier);
  return grouped_impl(PackedKeys{keys}, inputs, selection, range, strategy,
                      0, (keys.count + 63) / 64, tier);
}

GroupedAggs parallel_grouped_multi_aggregate_packed(
    sched::ThreadPool& pool, const storage::PackedView& keys,
    std::span<const AggInput> inputs, const BitVector& selection,
    KeyRange range, std::size_t morsel_rows, PackedTier tier) {
  check_tier(tier);
  return parallel_grouped_impl(pool, PackedKeys{keys}, inputs, selection,
                               range, morsel_rows, tier);
}

GroupedAggs grouped_multi_aggregate_lookup(const LookupKey& keys,
                                           std::span<const AggInput> inputs,
                                           const BitVector& selection,
                                           KeyRange range,
                                           GroupStrategy strategy,
                                           PackedTier tier) {
  EIDB_EXPECTS(selection.size() >= keys.fk.size());
  check_input_sizes(inputs, selection);
  check_tier(tier);
  return with_lookup_keys(keys, [&](const auto& k) {
    return grouped_impl(k, inputs, selection, range, strategy, 0,
                        (k.size() + 63) / 64, tier);
  });
}

GroupedAggs parallel_grouped_multi_aggregate_lookup(
    sched::ThreadPool& pool, const LookupKey& keys,
    std::span<const AggInput> inputs, const BitVector& selection,
    KeyRange range, std::size_t morsel_rows, PackedTier tier) {
  check_tier(tier);
  return with_lookup_keys(keys, [&](const auto& k) {
    return parallel_grouped_impl(pool, k, inputs, selection, range,
                                 morsel_rows, tier);
  });
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
    : inputs_(std::move(inputs)), acc_(columns_of(inputs_)) {
  dense_ = true;  // one implicit slot
  acc_.ensure(1);
}

JoinAggregator::JoinAggregator(std::vector<Input> inputs,
                               std::vector<KeyPart> key, KeyRange range)
    : inputs_(std::move(inputs)),
      key_(std::move(key)),
      grouped_(true),
      acc_(columns_of(inputs_)) {
  EIDB_EXPECTS(!key_.empty());
  for (const KeyPart& part : key_)
    EIDB_EXPECTS(part.column.kind != AggInput::Kind::kDouble);
  const std::uint64_t width = static_cast<std::uint64_t>(range.max) -
                              static_cast<std::uint64_t>(range.min);
  dense_ = range.known &&
           width < static_cast<std::uint64_t>(kDenseDomainLimit);
  if (dense_) {
    dense_min_ = range.min;
    acc_.ensure(static_cast<std::size_t>(width) + 1);
  }
}

std::uint32_t JoinAggregator::resolve(std::int64_t key) {
  if (dense_) return static_cast<std::uint32_t>(key - dense_min_);
  const std::uint32_t s = slots_.get_or_insert(key, [&](std::uint32_t& f) {
    f = next_++;
    slot_keys_.push_back(key);
  });
  acc_.ensure(next_);
  return s;
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
  std::int64_t keys[kGatherBlock];
  std::uint32_t slot[kGatherBlock];
  for (std::size_t at = 0; at < count; at += kGatherBlock) {
    const std::size_t n = std::min(kGatherBlock, count - at);
    if (!grouped_) {
      for (std::size_t e = 0; e < n; ++e) slot[e] = 0;
      acc_.counts[0] += n;
    } else {
      // Key column(s) touched once per match: the composite key is
      // synthesized per block, then every input gathers column-at-a-time.
      for (std::size_t e = 0; e < n; ++e) keys[e] = 0;
      for (const KeyPart& part : key_) {
        const std::uint32_t* rows = side_rows[part.side] + at;
        for (std::size_t e = 0; e < n; ++e)
          keys[e] +=
              (part.column.int_at(rows[e]) - part.offset) * part.stride;
      }
      for (std::size_t e = 0; e < n; ++e) slot[e] = resolve(keys[e]);
      for (std::size_t e = 0; e < n; ++e) ++acc_.counts[slot[e]];
    }
    for (std::size_t j = 0; j < inputs_.size(); ++j) {
      const AggInput& column = inputs_[j].column;
      const std::uint32_t* rows = side_rows[inputs_[j].side] + at;
      if (column.is_double()) {
        const double* data = column.f64.data();
        fold_slots(column.ops, n, slot,
                   [&](std::size_t e) { return data[rows[e]]; },
                   acc_.darr[j]);
      } else {
        fold_slots(column.ops, n, slot,
                   [&](std::size_t e) { return column.int_at(rows[e]); },
                   acc_.iarr[j]);
      }
    }
  }
}

void JoinAggregator::merge_from(const JoinAggregator& other) {
  pairs_ += other.pairs_;
  if (dense_) {
    // Same slot layout (shared dense_min_): merge elementwise.
    acc_.ensure(other.acc_.counts.size());
    for (std::size_t s = 0; s < other.acc_.counts.size(); ++s) {
      if (other.acc_.counts[s] != 0)
        acc_.merge(static_cast<std::uint32_t>(s), other.acc_, s);
    }
  } else {
    for (std::size_t s = 0; s < other.next_; ++s)
      acc_.merge(resolve(other.slot_keys_[s]), other.acc_, s);
  }
}

GroupedAggs JoinAggregator::finish() const {
  std::vector<std::pair<std::int64_t, std::uint32_t>> order;
  if (!grouped_) {
    order.emplace_back(0, 0);
  } else if (dense_) {
    for (std::size_t s = 0; s < acc_.counts.size(); ++s)
      if (acc_.counts[s] != 0)
        order.emplace_back(dense_min_ + static_cast<std::int64_t>(s),
                           static_cast<std::uint32_t>(s));
  } else {
    order.reserve(next_);
    for (std::size_t s = 0; s < next_; ++s)
      order.emplace_back(slot_keys_[s], static_cast<std::uint32_t>(s));
    std::sort(order.begin(), order.end());
  }
  return acc_.emit(order);
}

}  // namespace eidb::exec
