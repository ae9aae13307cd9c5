#include "exec/parallel.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <stdexcept>
#include <vector>

#include "exec/scan_kernels.hpp"
#include "storage/bitpack.hpp"
#include "util/rng.hpp"

namespace eidb::exec {
namespace {

std::vector<std::int64_t> random_i64(std::size_t n, std::uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<std::int64_t> v(n);
  for (auto& x : v) x = rng.next_bounded(100000);
  return v;
}

TEST(ParallelScan, MatchesSerialKernel64) {
  sched::ThreadPool pool(4);
  for (const std::size_t n : {std::size_t{0}, std::size_t{64},
                              std::size_t{1000}, std::size_t{300000}}) {
    const auto v = random_i64(n, 1 + n);
    BitVector parallel(n), serial(n);
    parallel_scan_bitmap64(&pool, v, 1000, 50000, parallel, 64 * 128);
    scan_bitmap_best64(v, 1000, 50000, serial);
    EXPECT_EQ(parallel, serial) << "n=" << n;
  }
}

TEST(ParallelScan, MatchesSerialKernel32) {
  sched::ThreadPool pool(4);
  Pcg32 rng(9);
  std::vector<std::int32_t> v(250000);
  for (auto& x : v) x = static_cast<std::int32_t>(rng.next_bounded(1000));
  BitVector parallel(v.size()), serial(v.size());
  parallel_scan_bitmap32(&pool, v, 100, 499, parallel, 64 * 100);
  scan_bitmap_best(v, 100, 499, serial);
  EXPECT_EQ(parallel, serial);
}

TEST(ParallelScan, UnalignedMorselSizeIsAligned) {
  sched::ThreadPool pool(2);
  const auto v = random_i64(10000, 3);
  BitVector parallel(v.size()), serial(v.size());
  parallel_scan_bitmap64(&pool, v, 0, 50000, parallel, 100);  // not 64-aligned
  scan_bitmap_best64(v, 0, 50000, serial);
  EXPECT_EQ(parallel, serial);
}

TEST(ParallelScan, PackedMatchesSerialKernel) {
  sched::ThreadPool pool(4);
  Pcg32 rng(15);
  for (const unsigned bits : {1u, 7u, 17u, 33u}) {
    for (const std::size_t n : {std::size_t{0}, std::size_t{64},
                                std::size_t{1000}, std::size_t{300001}}) {
      const std::uint64_t mask = (std::uint64_t{1} << bits) - 1;
      std::vector<std::uint64_t> raw(n);
      for (auto& x : raw) x = rng.next64() & mask;
      const std::vector<std::uint64_t> packed = storage::bitpack(raw, bits);
      const std::uint64_t lo = mask / 4;
      const std::uint64_t hi = mask / 2;
      BitVector parallel(n), serial(n);
      parallel_scan_packed_bitmap(&pool, packed, bits, n, lo, hi, parallel,
                                  64 * 100);
      scan_packed_bitmap(packed, bits, n, lo, hi, serial);
      EXPECT_EQ(parallel, serial) << "bits=" << bits << " n=" << n;
    }
  }
}

/// The three parallel scans over the same rows, each writing its own
/// bitmap, with the serial kernels' answers to compare against.
struct ScanInputs {
  static constexpr std::size_t n = std::size_t{1} << 18;  // four chunks
  static constexpr unsigned bits = 17;
  ScanInputs() : v64(random_i64(n, 21)), v32(v64.begin(), v64.end()) {
    const std::vector<std::uint64_t> raw(v64.begin(), v64.end());
    packed = storage::bitpack(raw, bits);
    want64 = BitVector(n);
    want32 = BitVector(n);
    want_packed = BitVector(n);
    scan_bitmap_best64(v64, 1000, 50000, want64);
    scan_bitmap_best(v32, 1000, 50000, want32);
    scan_packed_bitmap(packed, bits, n, 1000, 50000, want_packed);
  }

  /// Runs scan `which` (0: int64, 1: int32, 2: packed) on `pool`.
  [[nodiscard]] BitVector run(sched::ThreadPool& pool, int which) const {
    BitVector out(n);
    if (which == 0)
      parallel_scan_bitmap64(&pool, v64, 1000, 50000, out);
    else if (which == 1)
      parallel_scan_bitmap32(&pool, v32, 1000, 50000, out);
    else
      parallel_scan_packed_bitmap(&pool, packed, bits, n, 1000, 50000, out);
    return out;
  }
  [[nodiscard]] const BitVector& want(int which) const {
    return which == 0 ? want64 : which == 1 ? want32 : want_packed;
  }

  std::vector<std::int64_t> v64;
  std::vector<std::int32_t> v32;
  std::vector<std::uint64_t> packed;
  BitVector want64, want32, want_packed;
};

// A scan drains its own chunks on the calling thread and the free worker;
// it never waits for another task on the shared pool.
TEST(ParallelScan, CompletesWhileAnotherTaskHoldsAWorker) {
  const ScanInputs in;
  sched::ThreadPool pool(2);
  for (int which = 0; which < 3; ++which) {
    std::promise<void> release;
    std::shared_future<void> gate = release.get_future().share();
    pool.submit([gate] { gate.wait(); });
    auto scan = std::async(std::launch::async,
                           [&in, &pool, which] { return in.run(pool, which); });
    const bool finished = scan.wait_for(std::chrono::seconds(5)) ==
                          std::future_status::ready;
    release.set_value();
    const BitVector got = scan.get();
    pool.wait_idle();
    EXPECT_TRUE(finished) << "scan " << which << " waited for the blocker";
    EXPECT_EQ(got, in.want(which)) << "scan " << which;
  }
}

// A scan rethrows only its own chunks' errors: an unrelated task's
// exception stays with the pool for the next wait_idle().
TEST(ParallelScan, DoesNotRethrowAnUnrelatedTaskError) {
  const ScanInputs in;
  for (int which = 0; which < 3; ++which) {
    sched::ThreadPool pool(1);
    pool.submit([] { throw std::runtime_error("unrelated task"); });
    BitVector got;
    EXPECT_NO_THROW(got = in.run(pool, which)) << "scan " << which;
    EXPECT_EQ(got, in.want(which)) << "scan " << which;
    EXPECT_THROW(pool.wait_idle(), std::runtime_error) << "scan " << which;
  }
}

}  // namespace
}  // namespace eidb::exec
