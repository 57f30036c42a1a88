#include "capture.hpp"

#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <stdexcept>

// --- Counting allocator ------------------------------------------------------
// Replaces the global allocation functions for this binary only, as the
// micro-benchmarks do. Counters are striped per thread (one cache line each)
// so the sharded workload's worker threads do not contend on a shared line;
// the stripe index is a trivially destructible thread_local, safe to touch
// from operator new at any point of a thread's life.

namespace {

struct alignas(64) Stripe {
  std::atomic<std::uint64_t> n{0};
};
constexpr std::size_t kStripes = 64;
std::array<Stripe, kStripes> g_allocs;
std::atomic<unsigned> g_next_stripe{0};
thread_local unsigned t_stripe =
    g_next_stripe.fetch_add(1, std::memory_order_relaxed) % kStripes;

void* counted_alloc(std::size_t n) {
  g_allocs[t_stripe].n.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

std::uint64_t alloc_count() {
  std::uint64_t total = 0;
  for (const auto& s : g_allocs) total += s.n.load(std::memory_order_relaxed);
  return total;
}

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  Usage u;
  u.cpu_s = secs(ru.ru_utime) + secs(ru.ru_stime);
  u.minor_faults = static_cast<std::uint64_t>(ru.ru_minflt);
  u.peak_rss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  return u;
}

std::uint64_t count_lines(const std::string& text,
                          std::vector<std::string>& sample, std::size_t keep) {
  std::uint64_t lines = 0;
  std::size_t start = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '\n') continue;
    ++lines;
    if (sample.size() < keep) sample.push_back(text.substr(start, i - start));
    start = i + 1;
  }
  return lines;
}

StderrCapture::~StderrCapture() {
  if (saved_fd_ >= 0) end();
  if (mem_fd_ >= 0) close(mem_fd_);
}

void StderrCapture::begin() {
  if (mem_fd_ < 0) {
    mem_fd_ = memfd_create("perfbench-stderr", 0);
    if (mem_fd_ < 0) throw std::runtime_error("memfd_create failed");
  }
  std::fflush(stderr);
  saved_fd_ = dup(2);
  if (saved_fd_ < 0 || dup2(mem_fd_, 2) < 0) {
    throw std::runtime_error("cannot redirect stderr");
  }
}

std::uint64_t StderrCapture::end() {
  std::fflush(stderr);
  dup2(saved_fd_, 2);
  close(saved_fd_);
  saved_fd_ = -1;

  std::string text;
  std::array<char, 1 << 16> buf;
  off_t at = 0;
  for (;;) {
    const ssize_t n = pread(mem_fd_, buf.data(), buf.size(), at);
    if (n <= 0) break;
    text.append(buf.data(), static_cast<std::size_t>(n));
    at += n;
  }
  // Rewind as well as truncate: writes through fd 2 land at the shared file
  // offset, and a stale offset would leave an ever-growing hole to read back.
  if (ftruncate(mem_fd_, 0) != 0 || lseek(mem_fd_, 0, SEEK_SET) != 0) {
    throw std::runtime_error("cannot reset the stderr capture");
  }
  const std::uint64_t lines = count_lines(text, sample_, keep_);
  total_ += lines;
  return lines;
}

void StderrCapture::print_summary(const char* label) const {
  if (total_ == 0) return;
  for (const auto& line : sample_) {
    std::fprintf(stderr, "%s\n", line.c_str());
  }
  if (total_ > sample_.size()) {
    std::fprintf(stderr, "perfbench: %s: suppressed %llu further stderr lines\n",
                 label,
                 static_cast<unsigned long long>(total_ - sample_.size()));
  }
}

}  // namespace perfbench
