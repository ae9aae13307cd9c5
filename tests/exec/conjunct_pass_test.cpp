// ConjunctPass — the one predicate pass (exec/shared_scan.hpp) as a solo
// scan runs it: one member, every conjunct kind, checked against the
// full-column kernels and their AND; its fan-out on the shared pool; and
// the per-conjunct counts of the rows a later conjunct evaluated.
#include "exec/shared_scan.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <optional>
#include <stdexcept>
#include <vector>

#include "exec/scan_kernels.hpp"
#include "storage/bitpack.hpp"
#include "util/rng.hpp"

namespace eidb::exec {
namespace {

using Kind = SharedConjunct::Kind;
constexpr Kind kKinds[] = {Kind::kInt32, Kind::kInt64, Kind::kDouble,
                           Kind::kPacked};

/// One column's values in every representation a conjunct streams.
struct Columns {
  Columns(std::vector<std::int64_t> values, unsigned packed_bits)
      : v64(std::move(values)),
        v32(v64.begin(), v64.end()),
        f64(v64.begin(), v64.end()),
        bits(packed_bits) {
    const std::vector<std::uint64_t> raw(v64.begin(), v64.end());
    packed = storage::bitpack(raw, bits);
  }

  /// `n` random values in [0, 100000).
  static Columns random(std::size_t n, std::uint64_t seed) {
    Pcg32 rng(seed);
    std::vector<std::int64_t> v(n);
    for (auto& x : v) x = rng.next_bounded(100000);
    return {std::move(v), 17};
  }

  /// Conjunct of `kind` keeping the values in [lo, hi].
  [[nodiscard]] SharedConjunct conjunct(Kind kind, std::int64_t lo,
                                        std::int64_t hi) const {
    SharedConjunct c;
    c.kind = kind;
    c.i32 = v32;
    c.i64 = v64;
    c.f64 = f64;
    c.packed = packed;
    c.packed_bits = bits;
    c.lo = lo;
    c.hi = hi;
    c.ulo = static_cast<std::uint64_t>(lo);
    c.uhi = static_cast<std::uint64_t>(hi);
    c.dlo = static_cast<double>(lo);
    c.dhi = static_cast<double>(hi);
    return c;
  }

  /// The full-column kernel's answer for `c`.
  [[nodiscard]] BitVector full_scan(const SharedConjunct& c) const {
    BitVector out(v64.size());
    switch (c.kind) {
      case Kind::kInt32:
        scan_bitmap_best(v32, static_cast<std::int32_t>(c.lo),
                         static_cast<std::int32_t>(c.hi), out);
        break;
      case Kind::kInt64:
        scan_bitmap_best64(v64, c.lo, c.hi, out);
        break;
      case Kind::kDouble:
        scan_bitmap_double(f64, c.dlo, c.dhi, out);
        break;
      case Kind::kPacked:
        scan_packed_bitmap_range(packed, bits, 0, v64.size(), c.ulo, c.uhi,
                                 out);
        break;
    }
    return out;
  }

  std::vector<std::int64_t> v64;
  std::vector<std::int32_t> v32;
  std::vector<double> f64;
  unsigned bits;
  std::vector<std::uint64_t> packed;
};

/// A one-member pass of `conjuncts` over `rows` rows. The selection starts
/// soiled: the pass must overwrite it, not AND into it.
BitVector run_pass(std::size_t rows, std::vector<SharedConjunct> conjuncts,
                   sched::ThreadPool* pool,
                   std::size_t morsel_rows = kDefaultMorselRows,
                   SharedScanStats* stats = nullptr) {
  BitVector sel(rows);
  sel.set_all();
  SharedQuery q{std::move(conjuncts), &sel};
  SharedScanStats local;
  shared_scan(rows, {&q, 1}, pool, stats != nullptr ? *stats : local,
              morsel_rows);
  return sel;
}

TEST(ConjunctPass, OneConjunctMatchesFullKernelEveryKind) {
  sched::ThreadPool pool(4);
  for (const std::size_t n : {std::size_t{0}, std::size_t{64},
                              std::size_t{1000}, std::size_t{300001}}) {
    const Columns cols = Columns::random(n, 1 + n);
    for (const Kind kind : kKinds) {
      const SharedConjunct c = cols.conjunct(kind, 1000, 50000);
      const BitVector want = cols.full_scan(c);
      EXPECT_EQ(run_pass(n, {c}, nullptr), want) << "n=" << n;
      // Small morsels: the pooled pass cuts several chunks of several
      // morsels each.
      SharedScanStats stats;
      EXPECT_EQ(run_pass(n, {c}, &pool, 64 * 100, &stats), want)
          << "n=" << n << " kind=" << static_cast<int>(kind);
      ASSERT_EQ(stats.evaluated.size(), 1u);
      EXPECT_EQ(stats.evaluated[0][0], n);
      EXPECT_EQ(stats.member_rows(0), n);
    }
  }
}

TEST(ConjunctPass, PackedWidthsMatchFullKernel) {
  sched::ThreadPool pool(4);
  Pcg32 rng(15);
  for (const unsigned bits : {1u, 7u, 17u, 33u}) {
    for (const std::size_t n : {std::size_t{0}, std::size_t{64},
                                std::size_t{1000}, std::size_t{300001}}) {
      const std::uint64_t mask = (std::uint64_t{1} << bits) - 1;
      std::vector<std::int64_t> raw(n);
      for (auto& x : raw) x = static_cast<std::int64_t>(rng.next64() & mask);
      const Columns cols(std::move(raw), bits);
      const SharedConjunct c = cols.conjunct(
          Kind::kPacked, static_cast<std::int64_t>(mask / 4),
          static_cast<std::int64_t>(mask / 2));
      EXPECT_EQ(run_pass(n, {c}, &pool, 64 * 100), cols.full_scan(c))
          << "bits=" << bits << " n=" << n;
    }
  }
}

TEST(ConjunctPass, UnalignedMorselSizeIsAligned) {
  sched::ThreadPool pool(2);
  const Columns cols = Columns::random(10000, 3);
  for (const Kind kind : kKinds) {
    const SharedConjunct c = cols.conjunct(kind, 0, 50000);
    EXPECT_EQ(run_pass(10000, {c}, &pool, /*morsel_rows=*/100),
              cols.full_scan(c))
        << "kind=" << static_cast<int>(kind);
  }
}

// A later conjunct of every kind, after a first conjunct of every kind,
// against the AND of full-column scans: with and without a pool, through
// many morsels and the partial tail word.
TEST(ConjunctPass, MixedKindsMatchAndOfFullScans) {
  constexpr std::size_t kN = 200'003;
  const std::vector<Columns> cols = {
      Columns::random(kN, 31), Columns::random(kN, 32),
      Columns::random(kN, 33), Columns::random(kN, 34)};
  std::vector<SharedConjunct> conjuncts = {
      cols[0].conjunct(Kind::kPacked, 0, 30000),
      cols[1].conjunct(Kind::kInt32, 20000, 90000),
      cols[2].conjunct(Kind::kDouble, 5000, 70000),
      cols[3].conjunct(Kind::kInt64, 0, 49999)};
  BitVector want = cols[0].full_scan(conjuncts[0]);
  for (std::size_t k = 1; k < conjuncts.size(); ++k)
    want &= cols[k].full_scan(conjuncts[k]);

  for (const std::size_t width :
       {std::size_t{0}, std::size_t{2}, std::size_t{8}}) {
    std::optional<sched::ThreadPool> pool;
    if (width > 0) pool.emplace(width);
    // Every kind takes a turn as the first conjunct.
    for (std::size_t first = 0; first < conjuncts.size(); ++first) {
      std::vector<SharedConjunct> order;
      for (std::size_t k = 0; k < conjuncts.size(); ++k)
        order.push_back(conjuncts[(first + k) % conjuncts.size()]);
      SharedScanStats stats;
      EXPECT_EQ(run_pass(kN, order, pool ? &*pool : nullptr, 64 * 100,
                         &stats),
                want)
          << "width=" << width << " first=" << first;
      // Later conjuncts skip words only: never more rows than the table.
      EXPECT_EQ(stats.evaluated[0][0], kN);
      for (std::size_t k = 1; k < order.size(); ++k)
        EXPECT_LE(stats.evaluated[0][k], kN);
    }
  }
}

/// 100 full words and a 10-row tail word; column `a` is 7 on the rows of
/// `live_word` and 0 elsewhere, column `b` is i % 3 (2 bits packed).
struct OneLiveWord {
  static constexpr std::size_t kRows = 64 * 100 + 10;
  explicit OneLiveWord(std::size_t live_word)
      : a(a_values(live_word), 3), b(b_values(), 2) {}
  static std::vector<std::int64_t> a_values(std::size_t live_word) {
    std::vector<std::int64_t> v(kRows, 0);
    const std::size_t end = std::min(kRows, live_word * 64 + 64);
    for (std::size_t i = live_word * 64; i < end; ++i) v[i] = 7;
    return v;
  }
  static std::vector<std::int64_t> b_values() {
    std::vector<std::int64_t> v(kRows);
    for (std::size_t i = 0; i < kRows; ++i)
      v[i] = static_cast<std::int64_t>(i % 3);
    return v;
  }
  Columns a;
  Columns b;
};

// A later conjunct evaluates only the rows of the words still live: one
// full live word is 64 rows, the live partial tail word its 10 rows.
TEST(ConjunctPass, LaterConjunctEvaluatesOnlyLiveWords) {
  for (const std::size_t live_word : {std::size_t{50}, std::size_t{100}}) {
    const OneLiveWord t(live_word);
    const std::uint64_t live_rows = live_word == 100 ? 10 : 64;
    for (const Kind kind : kKinds) {
      SharedScanStats stats;
      const BitVector got = run_pass(
          OneLiveWord::kRows,
          {t.a.conjunct(Kind::kInt64, 7, 7), t.b.conjunct(kind, 0, 1)},
          nullptr, kDefaultMorselRows, &stats);
      EXPECT_EQ(stats.evaluated[0][0], OneLiveWord::kRows);
      EXPECT_EQ(stats.evaluated[0][1], live_rows)
          << "word=" << live_word << " kind=" << static_cast<int>(kind);
      EXPECT_EQ(stats.member_rows(0), OneLiveWord::kRows + live_rows);
      for (std::size_t i = 0; i < OneLiveWord::kRows; ++i)
        ASSERT_EQ(got.test(i), i / 64 == live_word && i % 3 <= 1)
            << "row " << i;
    }
  }
}

TEST(ConjunctPass, AllLiveSelectionSkipsNothing) {
  const Columns cols = Columns::random(6400 + 5, 5);
  for (const Kind kind : kKinds) {
    SharedScanStats stats;
    const BitVector got = run_pass(
        6405,
        {cols.conjunct(Kind::kInt64, 0, 99999), cols.conjunct(kind, 0, 99999)},
        nullptr, kDefaultMorselRows, &stats);
    EXPECT_EQ(stats.evaluated[0][1], 6405u) << static_cast<int>(kind);
    EXPECT_EQ(got.count(), 6405u);
  }
}

/// One conjunct of each kind over the same rows, in four pass chunks, with
/// the full kernels' answers to compare against.
struct ChunkedInputs {
  static constexpr std::size_t n = std::size_t{1} << 18;
  ChunkedInputs() : cols(Columns::random(n, 21)) {}
  [[nodiscard]] BitVector run(sched::ThreadPool& pool, Kind kind) const {
    return run_pass(n, {cols.conjunct(kind, 1000, 50000)}, &pool);
  }
  [[nodiscard]] BitVector want(Kind kind) const {
    return cols.full_scan(cols.conjunct(kind, 1000, 50000));
  }
  Columns cols;
};

// A scan drains its own chunks on the calling thread and the free worker;
// it never waits for another task on the shared pool.
TEST(ConjunctPass, CompletesWhileAnotherTaskHoldsAWorker) {
  const ChunkedInputs in;
  sched::ThreadPool pool(2);
  for (const Kind kind : kKinds) {
    std::promise<void> release;
    std::shared_future<void> gate = release.get_future().share();
    pool.submit([gate] { gate.wait(); });
    auto scan = std::async(std::launch::async,
                           [&in, &pool, kind] { return in.run(pool, kind); });
    const bool finished = scan.wait_for(std::chrono::seconds(5)) ==
                          std::future_status::ready;
    release.set_value();
    const BitVector got = scan.get();
    pool.wait_idle();
    EXPECT_TRUE(finished) << "kind " << static_cast<int>(kind)
                          << " waited for the blocker";
    EXPECT_EQ(got, in.want(kind)) << "kind " << static_cast<int>(kind);
  }
}

// A scan rethrows only its own chunks' errors: an unrelated task's
// exception stays with the pool for the next wait_idle().
TEST(ConjunctPass, DoesNotRethrowAnUnrelatedTaskError) {
  const ChunkedInputs in;
  for (const Kind kind : kKinds) {
    sched::ThreadPool pool(1);
    pool.submit([] { throw std::runtime_error("unrelated task"); });
    BitVector got;
    EXPECT_NO_THROW(got = in.run(pool, kind)) << static_cast<int>(kind);
    EXPECT_EQ(got, in.want(kind)) << static_cast<int>(kind);
    EXPECT_THROW(pool.wait_idle(), std::runtime_error)
        << static_cast<int>(kind);
  }
}

}  // namespace
}  // namespace eidb::exec
