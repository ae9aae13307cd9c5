#include "exec/parallel.hpp"

#include <algorithm>

#include "exec/scan_kernels.hpp"
#include "util/assert.hpp"

namespace eidb::exec {

void parallel_scan_bitmap64(sched::ThreadPool& pool,
                            std::span<const std::int64_t> values,
                            std::int64_t lo, std::int64_t hi, BitVector& out,
                            std::size_t morsel_rows) {
  EIDB_EXPECTS(out.size() >= values.size());
  const std::size_t n = values.size();
  pool.parallel_for(n, chunk_grain(n, morsel_rows),
                    [&](std::size_t begin, std::size_t end) {
                      // Chunks are 64-aligned: each owns whole words.
                      BitVector local(end - begin);
                      scan_bitmap_best64(values.subspan(begin, end - begin),
                                         lo, hi, local);
                      std::copy(local.words(),
                                local.words() + local.word_count(),
                                out.words() + begin / 64);
                    });
}

void parallel_scan_bitmap32(sched::ThreadPool& pool,
                            std::span<const std::int32_t> values,
                            std::int32_t lo, std::int32_t hi, BitVector& out,
                            std::size_t morsel_rows) {
  EIDB_EXPECTS(out.size() >= values.size());
  const std::size_t n = values.size();
  pool.parallel_for(n, chunk_grain(n, morsel_rows),
                    [&](std::size_t begin, std::size_t end) {
                      BitVector local(end - begin);
                      scan_bitmap_best(values.subspan(begin, end - begin), lo,
                                       hi, local);
                      std::copy(local.words(),
                                local.words() + local.word_count(),
                                out.words() + begin / 64);
                    });
}

void parallel_scan_packed_bitmap(sched::ThreadPool& pool,
                                 std::span<const std::uint64_t> packed,
                                 unsigned bits, std::size_t count,
                                 std::uint64_t lo, std::uint64_t hi,
                                 BitVector& out, std::size_t morsel_rows) {
  EIDB_EXPECTS(out.size() >= count);
  pool.parallel_for(count, chunk_grain(count, morsel_rows),
                    [&](std::size_t begin, std::size_t end) {
                      scan_packed_bitmap_range(packed, bits, begin, end, lo,
                                               hi, out);
                    });
}

}  // namespace eidb::exec
