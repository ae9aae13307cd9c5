// Test helper: a packed image placed so that it ends where an unreadable
// page begins, for the SIMD-tier tests that must never read past an image.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <new>
#include <span>
#include <vector>

#if defined(__linux__)
#include <sys/mman.h>
#include <unistd.h>
#endif

namespace eidb::exec {

/// A copy of a packed image whose last word ends where an unreadable page
/// begins (on Linux), so any read past the image faults instead of passing.
class GuardedImage {
 public:
  explicit GuardedImage(const std::vector<std::uint64_t>& words) {
    const std::size_t bytes = words.size() * sizeof(std::uint64_t);
#if defined(__linux__)
    page_ = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    span_ = (bytes + page_ - 1) / page_ * page_ + page_;
    void* p = mmap(nullptr, span_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    base_ = static_cast<std::uint8_t*>(p);
    EXPECT_EQ(mprotect(base_ + span_ - page_, page_, PROT_NONE), 0);
    auto* first =
        reinterpret_cast<std::uint64_t*>(base_ + span_ - page_ - bytes);
    if (bytes != 0) std::memcpy(first, words.data(), bytes);
    view_ = {first, words.size()};
#else
    copy_ = words;
    view_ = copy_;
    (void)bytes;
#endif
  }
  ~GuardedImage() {
#if defined(__linux__)
    munmap(base_, span_);
#endif
  }
  GuardedImage(const GuardedImage&) = delete;
  GuardedImage& operator=(const GuardedImage&) = delete;

  [[nodiscard]] std::span<const std::uint64_t> words() const { return view_; }

 private:
#if defined(__linux__)
  std::uint8_t* base_ = nullptr;
  std::size_t page_ = 0;
  std::size_t span_ = 0;
#else
  std::vector<std::uint64_t> copy_;
#endif
  std::span<const std::uint64_t> view_;
};

}  // namespace eidb::exec
