// Process-level probes the benchmark reads around each timed phase: a
// counting global operator new, getrusage snapshots (CPU, minor faults, peak
// RSS), and a capture of file descriptor 2 that counts the lines the library
// logs instead of letting them reach the terminal.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Heap allocations made through operator new / new[] since process start,
/// summed over every thread that ever ran.
std::uint64_t alloc_count();

struct Usage {
  double cpu_s = 0.0;               ///< user + system CPU of the process
  std::uint64_t minor_faults = 0;
  double peak_rss_mib = 0.0;        ///< high-water mark since process start
};
Usage usage_now();

inline double wall_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Snapshot of every process counter a timed phase reports as a delta.
struct Probe {
  double wall_s = 0.0;
  Usage usage;
  std::uint64_t allocs = 0;

  static Probe now() { return Probe{wall_now_s(), usage_now(), alloc_count()}; }
};

/// Redirects fd 2 into an anonymous in-memory file between begin() and
/// end(). end() restores the terminal, returns the number of lines written
/// meanwhile, and keeps the first `keep` lines ever captured so the run can
/// show a sample of what was suppressed.
class StderrCapture {
 public:
  explicit StderrCapture(std::size_t keep = 5) : keep_(keep) {}
  ~StderrCapture();
  StderrCapture(const StderrCapture&) = delete;
  StderrCapture& operator=(const StderrCapture&) = delete;

  void begin();
  std::uint64_t end();

  std::uint64_t total_lines() const { return total_; }
  const std::vector<std::string>& sample() const { return sample_; }
  /// Writes the kept sample and a "suppressed N" line to the real stderr.
  void print_summary(const char* label) const;

 private:
  std::size_t keep_;
  int mem_fd_ = -1;
  int saved_fd_ = -1;
  std::uint64_t total_ = 0;
  std::vector<std::string> sample_;
};

/// Counts '\n'-terminated lines in `text` and appends up to `keep` of them
/// (minus those already in `sample`) to `sample`. Exposed for the self-tests.
std::uint64_t count_lines(const std::string& text,
                          std::vector<std::string>& sample, std::size_t keep);

}  // namespace perfbench
