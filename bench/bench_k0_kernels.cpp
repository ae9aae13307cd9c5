// K0 — google-benchmark micro suite backing the experiment harnesses:
// scan kernels, bit packing, codecs, hash table, group-by (plain and over
// packed columns), join, LZ.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "exec/aggregate.hpp"
#include "exec/expression.hpp"
#include "exec/fused.hpp"
#include "exec/hash_table.hpp"
#include "exec/join.hpp"
#include "exec/radix_join.hpp"
#include "exec/scan_kernels.hpp"
#include "exec/vector_agg.hpp"
#include "storage/bitpack.hpp"
#include "storage/int_codec.hpp"
#include "storage/lz.hpp"
#include "util/rng.hpp"

namespace {

using namespace eidb;

std::vector<std::int32_t> data_i32(std::size_t n) {
  Pcg32 rng(1);
  std::vector<std::int32_t> v(n);
  for (auto& x : v) x = static_cast<std::int32_t>(rng.next_bounded(100000));
  return v;
}

std::vector<std::int64_t> data_i64(std::size_t n, std::uint32_t domain) {
  Pcg32 rng(2);
  std::vector<std::int64_t> v(n);
  for (auto& x : v) x = rng.next_bounded(domain);
  return v;
}

// -- scan kernels -------------------------------------------------------------

void BM_ScanBranching(benchmark::State& state) {
  const auto v = data_i32(1 << 20);
  const auto hi = static_cast<std::int32_t>(state.range(0));
  std::vector<std::uint32_t> out(v.size());
  for (auto _ : state)
    benchmark::DoNotOptimize(exec::scan_branching(v, 0, hi, out.data()));
  state.SetItemsProcessed(state.iterations() * v.size());
}
BENCHMARK(BM_ScanBranching)->Arg(1000)->Arg(50000)->Arg(99000);

void BM_ScanPredicated(benchmark::State& state) {
  const auto v = data_i32(1 << 20);
  const auto hi = static_cast<std::int32_t>(state.range(0));
  std::vector<std::uint32_t> out(v.size());
  for (auto _ : state)
    benchmark::DoNotOptimize(exec::scan_predicated(v, 0, hi, out.data()));
  state.SetItemsProcessed(state.iterations() * v.size());
}
BENCHMARK(BM_ScanPredicated)->Arg(1000)->Arg(50000)->Arg(99000);

void BM_ScanAvx2(benchmark::State& state) {
  const auto v = data_i32(1 << 20);
  BitVector out(v.size());
  for (auto _ : state) {
    exec::scan_bitmap_avx2(v, 0, 50000, out);
    benchmark::DoNotOptimize(out.words());
  }
  state.SetItemsProcessed(state.iterations() * v.size());
}
BENCHMARK(BM_ScanAvx2);

void BM_ScanAvx512(benchmark::State& state) {
  const auto v = data_i32(1 << 20);
  BitVector out(v.size());
  for (auto _ : state) {
    exec::scan_bitmap_avx512(v, 0, 50000, out);
    benchmark::DoNotOptimize(out.words());
  }
  state.SetItemsProcessed(state.iterations() * v.size());
}
BENCHMARK(BM_ScanAvx512);

void BM_ScanPacked(benchmark::State& state) {
  const auto bits = static_cast<unsigned>(state.range(0));
  const std::uint64_t mask = (std::uint64_t{1} << bits) - 1;
  Pcg32 rng(3);
  std::vector<std::uint64_t> values(1 << 20);
  for (auto& v : values) v = rng.next64() & mask;
  const auto packed = storage::bitpack(values, bits);
  BitVector out(values.size());
  for (auto _ : state) {
    exec::scan_packed_bitmap(packed, bits, values.size(), mask / 4, mask / 2,
                             out);
    benchmark::DoNotOptimize(out.words());
  }
  state.SetItemsProcessed(state.iterations() * values.size());
}
BENCHMARK(BM_ScanPacked)->Arg(8)->Arg(12)->Arg(16)->Arg(32);

// -- bit packing ----------------------------------------------------------------

void BM_BitPack(benchmark::State& state) {
  Pcg32 rng(4);
  std::vector<std::uint64_t> values(1 << 18);
  for (auto& v : values) v = rng.next() & 0xfff;
  for (auto _ : state)
    benchmark::DoNotOptimize(storage::bitpack(values, 12));
  state.SetItemsProcessed(state.iterations() * values.size());
}
BENCHMARK(BM_BitPack);

void BM_BitUnpack(benchmark::State& state) {
  Pcg32 rng(5);
  std::vector<std::uint64_t> values(1 << 18);
  for (auto& v : values) v = rng.next() & 0xfff;
  const auto packed = storage::bitpack(values, 12);
  std::vector<std::uint64_t> out(values.size());
  for (auto _ : state) {
    storage::bitunpack(packed, 12, values.size(), out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * values.size());
}
BENCHMARK(BM_BitUnpack);

// Block decode per width: the unit every packed consumer (scans, masked
// scans, aggregation inputs and group keys, join keys) runs, one
// unrolled kernel per width. Items are decoded values; bytes are the
// packed image streamed.
void BM_BitUnpackBlock64(benchmark::State& state) {
  const auto bits = static_cast<unsigned>(state.range(0));
  const std::uint64_t mask = ~std::uint64_t{0} >> (64 - bits);
  Pcg32 rng(6);
  std::vector<std::uint64_t> values(1 << 18);
  for (auto& v : values) v = rng.next64() & mask;
  const auto packed = storage::bitpack(values, bits);
  alignas(64) std::uint64_t out[64];
  std::uint64_t* sink = out;
  for (auto _ : state) {
    for (std::size_t block = 0; block < values.size(); block += 64)
      storage::bitunpack_block64(packed, bits, block, out);
    benchmark::DoNotOptimize(sink);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * values.size());
  state.SetBytesProcessed(state.iterations() * packed.size() *
                          sizeof(std::uint64_t));
}
BENCHMARK(BM_BitUnpackBlock64)
    ->Arg(1)->Arg(3)->Arg(7)->Arg(12)->Arg(15)->Arg(17)->Arg(31)->Arg(33)
    ->Arg(64);

// -- packed kernels per tier -------------------------------------------------
//
// Arg 0 is the packed width, arg 1 the tier: 0 runs the scalar reference,
// 1 the dispatched kernel (the tier named in the context and the label).
// Items are keys decoded; bytes are the packed image streamed.

const bool kTierContext = [] {
  benchmark::AddCustomContext("packed_tier",
                              exec::packed_tier_name(exec::packed_tier()));
  return true;
}();

std::string tier_label(std::int64_t tier) {
  return tier == 0 ? exec::packed_tier_name(exec::PackedTier::kScalar)
                   : exec::packed_tier_name(exec::packed_tier());
}

std::vector<std::uint64_t> packed_keys(unsigned bits, std::size_t n) {
  const std::uint64_t mask = (std::uint64_t{1} << bits) - 1;
  Pcg32 rng(8);
  std::vector<std::uint64_t> values(n);
  for (auto& v : values) v = rng.next64() & mask;
  return storage::bitpack(values, bits);
}

void BM_PackedRangeScan(benchmark::State& state) {
  const auto bits = static_cast<unsigned>(state.range(0));
  const bool scalar = state.range(1) == 0;
  const std::uint64_t mask = (std::uint64_t{1} << bits) - 1;
  const std::size_t n = 1 << 20;
  const auto packed = packed_keys(bits, n);
  BitVector out(n);
  for (auto _ : state) {
    if (scalar)
      exec::scan_packed_bitmap_range_scalar(packed, bits, 0, n, mask / 4,
                                            mask / 2, out);
    else
      exec::scan_packed_bitmap_range(packed, bits, 0, n, mask / 4, mask / 2,
                                     out);
    benchmark::DoNotOptimize(out.words());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetBytesProcessed(state.iterations() * packed.size() *
                          sizeof(std::uint64_t));
  state.SetLabel(tier_label(state.range(1)));
}
BENCHMARK(BM_PackedRangeScan)
    ->ArgsProduct({{3, 4, 6, 12, 15, 17, 25}, {0, 1}});

// The semi-join filter test over all-live selection words: a filter over
// the whole key domain with a random 64k build keys set. Each iteration
// first restores the selection (a 128 KiB copy, the same for both tiers).
void BM_JoinFilterApply(benchmark::State& state) {
  const auto bits = static_cast<unsigned>(state.range(0));
  const bool scalar = state.range(1) == 0;
  const std::size_t n = 1 << 20;
  const auto packed = packed_keys(bits, n);
  const auto keys =
      exec::JoinKeys::from(storage::PackedView{packed, bits, 0, n});
  const std::int64_t domain = std::int64_t{1} << bits;
  const auto build = data_i64(1 << 16, static_cast<std::uint32_t>(domain));
  BitVector build_sel(build.size());
  build_sel.set_all();
  const exec::JoinFilter filter(exec::JoinKeys::from(std::span(build)),
                                build_sel, 0, domain);
  BitVector live(n);
  live.set_all();
  BitVector sel(n);
  for (auto _ : state) {
    std::copy(live.words(), live.words() + live.word_count(), sel.words());
    benchmark::DoNotOptimize(
        scalar ? filter.apply_scalar(keys, sel, 0, sel.word_count())
               : filter.apply(keys, sel, 0, sel.word_count()));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetBytesProcessed(state.iterations() * packed.size() *
                          sizeof(std::uint64_t));
  state.SetLabel(tier_label(state.range(1)));
}
BENCHMARK(BM_JoinFilterApply)
    ->ArgsProduct({{3, 4, 6, 12, 15, 17, 25}, {0, 1}});

// Grouped aggregation over a packed group key and a packed FOR input,
// SUM only (the serving benchmark's scan_agg shape): arg 0 is the key
// width (dense groups), arg 1 the input width, arg 2 the live rows per
// selection word (at random positions), arg 3 the tier as above. Words
// with at least exec::agg_block_min_live(tier) live rows take the block
// path.
// Items are selected rows; bytes are both packed images streamed.
void BM_GroupedAggPacked(benchmark::State& state) {
  const auto key_bits = static_cast<unsigned>(state.range(0));
  const auto in_bits = static_cast<unsigned>(state.range(1));
  const auto live = static_cast<unsigned>(state.range(2));
  const exec::PackedTier tier = state.range(3) == 0
                                    ? exec::PackedTier::kScalar
                                    : exec::packed_tier();
  const std::size_t n = 1 << 20;
  const auto keys = packed_keys(key_bits, n);
  const auto values = packed_keys(in_bits, n);
  Pcg32 rng(10);
  BitVector sel(n);
  for (std::size_t w = 0; w < sel.word_count(); ++w) {
    std::uint64_t bits = live == 64 ? ~std::uint64_t{0} : 0;
    while (static_cast<unsigned>(__builtin_popcountll(bits)) < live)
      bits |= std::uint64_t{1} << rng.next_bounded(64);
    sel.words()[w] = bits;
  }
  std::vector<exec::AggInput> inputs = {exec::AggInput::from(
      storage::PackedView{values, in_bits, 1000, n})};
  inputs[0].ops = exec::kAggSum;
  const storage::PackedView key_view{keys, key_bits, 0, n};
  const exec::KeyRange range{true, 0,
                             (std::int64_t{1} << key_bits) - 1, 0};
  for (auto _ : state) {
    const exec::GroupedAggs g = exec::grouped_multi_aggregate_packed(
        key_view, inputs, sel, range, exec::GroupStrategy::kAuto, tier);
    benchmark::DoNotOptimize(g.counts.data());
  }
  state.SetItemsProcessed(state.iterations() * (n / 64) * live);
  state.SetBytesProcessed(state.iterations() * (keys.size() + values.size()) *
                          sizeof(std::uint64_t));
  state.SetLabel(tier_label(state.range(3)));
}
BENCHMARK(BM_GroupedAggPacked)
    ->ArgsProduct({{4, 12}, {17, 25}, {1, 8, 16, 32, 64}, {0, 1}});

// The groupjoin's grouped SUM: the group key is read through a dense
// lookup (exec::LookupKey) over a packed foreign key — a dimension's five
// group codes indexed by the fact key, as star_join's customer.region is.
// Arg 0 is the foreign-key width (the lookup spans 2^width keys), arg 1
// the live rows per selection word (at random positions), arg 2 the tier
// as above; the input is a 17-bit packed column. Items are selected rows;
// bytes are both packed images streamed.
void BM_GroupJoinLookup(benchmark::State& state) {
  const auto fk_bits = static_cast<unsigned>(state.range(0));
  const auto live = static_cast<unsigned>(state.range(1));
  const exec::PackedTier tier = state.range(2) == 0
                                    ? exec::PackedTier::kScalar
                                    : exec::packed_tier();
  const std::size_t n = 1 << 20;
  const unsigned in_bits = 17;
  const auto fks = packed_keys(fk_bits, n);
  const auto values = packed_keys(in_bits, n);
  Pcg32 rng(11);
  BitVector sel(n);
  for (std::size_t w = 0; w < sel.word_count(); ++w) {
    std::uint64_t bits = live == 64 ? ~std::uint64_t{0} : 0;
    while (static_cast<unsigned>(__builtin_popcountll(bits)) < live)
      bits |= std::uint64_t{1} << rng.next_bounded(64);
    sel.words()[w] = bits;
  }
  std::vector<exec::AggInput> inputs = {exec::AggInput::from(
      storage::PackedView{values, in_bits, 1000, n})};
  inputs[0].ops = exec::kAggSum;
  std::vector<std::int64_t> lut(std::size_t{1} << fk_bits);
  for (std::int64_t& code : lut) code = rng.next_bounded(5);
  const exec::LookupKey key{
      exec::AggInput::from(storage::PackedView{fks, fk_bits, 0, n}), lut, 0};
  const exec::KeyRange range{true, 0, 4, 5};
  for (auto _ : state) {
    const exec::GroupedAggs g = exec::grouped_multi_aggregate_lookup(
        key, inputs, sel, range, exec::GroupStrategy::kAuto, tier);
    benchmark::DoNotOptimize(g.counts.data());
  }
  state.SetItemsProcessed(state.iterations() * (n / 64) * live);
  state.SetBytesProcessed(state.iterations() * (fks.size() + values.size()) *
                          sizeof(std::uint64_t));
  state.SetLabel(tier_label(state.range(2)));
}
BENCHMARK(BM_GroupJoinLookup)
    ->ArgsProduct({{12, 15}, {1, 5, 8, 16, 64}, {0, 1}});

// -- codecs ----------------------------------------------------------------------

void BM_CodecEncode(benchmark::State& state) {
  const auto kind = static_cast<storage::CodecKind>(state.range(0));
  const auto codec = storage::make_codec(kind);
  const auto values = data_i64(1 << 17, 4096);
  for (auto _ : state) benchmark::DoNotOptimize(codec->encode(values));
  state.SetItemsProcessed(state.iterations() * values.size());
  state.SetLabel(storage::codec_name(kind));
}
BENCHMARK(BM_CodecEncode)->DenseRange(0, 4);

void BM_CodecDecode(benchmark::State& state) {
  const auto kind = static_cast<storage::CodecKind>(state.range(0));
  const auto codec = storage::make_codec(kind);
  const auto values = data_i64(1 << 17, 4096);
  const auto encoded = codec->encode(values);
  for (auto _ : state) benchmark::DoNotOptimize(codec->decode(encoded));
  state.SetItemsProcessed(state.iterations() * values.size());
  state.SetLabel(storage::codec_name(kind));
}
BENCHMARK(BM_CodecDecode)->DenseRange(0, 4);

// -- LZ ---------------------------------------------------------------------------

void BM_LzCompressText(benchmark::State& state) {
  std::string s;
  for (int i = 0; i < 20000; ++i) s += "row_" + std::to_string(i % 500);
  std::vector<std::byte> in(s.size());
  std::memcpy(in.data(), s.data(), s.size());
  for (auto _ : state) benchmark::DoNotOptimize(storage::lz_compress(in));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(in.size()));
}
BENCHMARK(BM_LzCompressText);

void BM_LzDecompress(benchmark::State& state) {
  std::string s;
  for (int i = 0; i < 20000; ++i) s += "row_" + std::to_string(i % 500);
  std::vector<std::byte> in(s.size());
  std::memcpy(in.data(), s.data(), s.size());
  const auto compressed = storage::lz_compress(in);
  for (auto _ : state)
    benchmark::DoNotOptimize(storage::lz_decompress(compressed, in.size()));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(in.size()));
}
BENCHMARK(BM_LzDecompress);

// -- hash table / group-by / join ---------------------------------------------------

void BM_HashTableInsert(benchmark::State& state) {
  const auto keys = data_i64(1 << 16, 1 << 30);
  for (auto _ : state) {
    exec::HashTable<std::int64_t> table(keys.size());
    for (const auto k : keys) table.get_or_insert(k) += 1;
    benchmark::DoNotOptimize(table.size());
  }
  state.SetItemsProcessed(state.iterations() * keys.size());
}
BENCHMARK(BM_HashTableInsert);

void BM_HashTableProbe(benchmark::State& state) {
  const auto keys = data_i64(1 << 16, 1 << 30);
  exec::HashTable<std::int64_t> table(keys.size());
  for (const auto k : keys) table.get_or_insert(k) += 1;
  for (auto _ : state) {
    std::int64_t hits = 0;
    for (const auto k : keys) hits += table.find(k) != nullptr;
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * keys.size());
}
BENCHMARK(BM_HashTableProbe);

void BM_GroupAggregate(benchmark::State& state) {
  const bool dense = state.range(0) != 0;
  const auto keys = data_i64(1 << 19, dense ? 1024 : 1 << 30);
  const auto vals = data_i64(1 << 19, 1000);
  BitVector sel(keys.size());
  sel.set_all();
  for (auto _ : state)
    benchmark::DoNotOptimize(exec::group_aggregate(
        keys, vals, sel,
        dense ? exec::GroupStrategy::kDenseArray : exec::GroupStrategy::kHash));
  state.SetItemsProcessed(state.iterations() * keys.size());
  state.SetLabel(dense ? "dense" : "hash");
}
BENCHMARK(BM_GroupAggregate)->Arg(1)->Arg(0);

void BM_HashJoin(benchmark::State& state) {
  const auto build = data_i64(1 << 16, 1 << 16);
  const auto probe = data_i64(1 << 18, 1 << 16);
  BitVector bsel(build.size()), psel(probe.size());
  bsel.set_all();
  psel.set_all();
  for (auto _ : state)
    benchmark::DoNotOptimize(exec::hash_join(build, bsel, probe, psel));
  state.SetItemsProcessed(state.iterations() * probe.size());
}
BENCHMARK(BM_HashJoin);

void BM_RadixJoin(benchmark::State& state) {
  const auto bits = static_cast<unsigned>(state.range(0));
  const auto build = data_i64(1 << 18, 1 << 18);  // cache-busting build
  const auto probe = data_i64(1 << 19, 1 << 18);
  BitVector bsel(build.size()), psel(probe.size());
  bsel.set_all();
  psel.set_all();
  for (auto _ : state)
    benchmark::DoNotOptimize(
        exec::radix_hash_join(build, bsel, probe, psel, bits));
  state.SetItemsProcessed(state.iterations() * probe.size());
}
BENCHMARK(BM_RadixJoin)->Arg(1)->Arg(4)->Arg(8);

void BM_FusedFilterAggregate(benchmark::State& state) {
  const auto keys = data_i64(1 << 20, 100000);
  const auto vals = data_i64(1 << 20, 1000);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        exec::fused_filter_aggregate(keys, 0, 49999, vals));
  state.SetItemsProcessed(state.iterations() * keys.size());
}
BENCHMARK(BM_FusedFilterAggregate);

void BM_ExpressionEval(benchmark::State& state) {
  using storage::Column;
  storage::Table t("t", storage::Schema({{"a", storage::TypeId::kInt64},
                                         {"b", storage::TypeId::kInt64}}));
  const auto a = data_i64(1 << 20, 1000);
  const auto b = data_i64(1 << 20, 100);
  t.set_column(0, Column::from_int64("a", a));
  t.set_column(1, Column::from_int64("b", b));
  // a * (1 - b/100)
  const auto e = exec::Expr::binary(
      exec::ExprOp::kMul, exec::Expr::column("a"),
      exec::Expr::binary(
          exec::ExprOp::kSub, exec::Expr::literal(1),
          exec::Expr::binary(exec::ExprOp::kDiv, exec::Expr::column("b"),
                             exec::Expr::literal(100))));
  std::vector<double> out;
  for (auto _ : state) {
    exec::evaluate_expression(*e, t, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * a.size());
}
BENCHMARK(BM_ExpressionEval);

}  // namespace
