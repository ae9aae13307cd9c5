#include "exec/parallel.hpp"

#include <algorithm>

#include "exec/scan_kernels.hpp"
#include "util/assert.hpp"

namespace eidb::exec {

namespace {

/// Runs scan(values chunk, chunk bitmap) over the chunks of a scan pass;
/// one chunk scans straight into `out`.
template <typename T, typename Scan>
void chunked_scan(sched::ThreadPool* pool, std::span<const T> values,
                  BitVector& out, std::size_t morsel_rows, const Scan& scan) {
  EIDB_EXPECTS(out.size() >= values.size());
  const std::size_t n = values.size();
  const Chunks chunks = pass_chunks(pool, n, n, morsel_rows);
  if (chunks.count() == 1) {
    scan(values, out);
    return;
  }
  chunks.run([&](std::size_t, std::size_t begin, std::size_t end) {
    // Chunks are 64-aligned: each owns whole words.
    BitVector local(end - begin);
    scan(values.subspan(begin, end - begin), local);
    std::copy(local.words(), local.words() + local.word_count(),
              out.words() + begin / 64);
  });
}

}  // namespace

void parallel_scan_bitmap64(sched::ThreadPool* pool,
                            std::span<const std::int64_t> values,
                            std::int64_t lo, std::int64_t hi, BitVector& out,
                            std::size_t morsel_rows) {
  chunked_scan(pool, values, out, morsel_rows,
               [&](std::span<const std::int64_t> v, BitVector& bits) {
                 scan_bitmap_best64(v, lo, hi, bits);
               });
}

void parallel_scan_bitmap32(sched::ThreadPool* pool,
                            std::span<const std::int32_t> values,
                            std::int32_t lo, std::int32_t hi, BitVector& out,
                            std::size_t morsel_rows) {
  chunked_scan(pool, values, out, morsel_rows,
               [&](std::span<const std::int32_t> v, BitVector& bits) {
                 scan_bitmap_best(v, lo, hi, bits);
               });
}

void parallel_scan_packed_bitmap(sched::ThreadPool* pool,
                                 std::span<const std::uint64_t> packed,
                                 unsigned bits, std::size_t count,
                                 std::uint64_t lo, std::uint64_t hi,
                                 BitVector& out, std::size_t morsel_rows) {
  EIDB_EXPECTS(out.size() >= count);
  pass_chunks(pool, count, count, morsel_rows)
      .run([&](std::size_t, std::size_t begin, std::size_t end) {
        scan_packed_bitmap_range(packed, bits, begin, end, lo, hi, out);
      });
}

}  // namespace eidb::exec
