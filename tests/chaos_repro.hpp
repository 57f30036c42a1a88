// Failure-repro listener for seeded chaos/crash tests.
//
// Chaos, crash-recovery, supervision and shard-parity tests are fully
// deterministic given their seed, so one command line reproduces any
// failure exactly. This listener prints that command line the moment a test
// assertion fails — binary path plus --gtest_filter — and, when the test
// registered a scenario seed via set_repro_seed(), the seed too. Include
// this header from any seeded test binary; the listener installs itself once
// per binary through a static initializer (gtest permits Append before
// RUN_ALL_TESTS, which gtest_main calls later).
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <climits>
#include <cstdint>
#include <cstdio>
#include <string>

namespace kmsg::test {

/// Seed of the scenario currently running (0 = none registered). Tests that
/// sweep seeds call set_repro_seed(s) at the top of each iteration so a
/// failure names the exact world that produced it.
inline std::uint64_t& repro_seed() {
  static std::uint64_t seed = 0;
  return seed;
}
inline void set_repro_seed(std::uint64_t s) { repro_seed() = s; }

namespace detail {

inline std::string self_exe() {
  char buf[PATH_MAX];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "<test-binary>";
  buf[static_cast<std::size_t>(n)] = '\0';
  return buf;
}

class ReproListener final : public ::testing::EmptyTestEventListener {
  // The test's name is taken when it starts: gtest reports a failure while
  // holding the lock that UnitTest::current_test_info() takes, so asking for
  // it from OnTestPartResult would deadlock.
  void OnTestStart(const ::testing::TestInfo& info) override {
    filter_ = std::string(info.test_suite_name()) + "." + info.name();
  }
  void OnTestEnd(const ::testing::TestInfo&) override { filter_.clear(); }
  void OnTestPartResult(const ::testing::TestPartResult& result) override {
    if (!result.failed() || filter_.empty()) return;
    std::fprintf(stderr, "[  REPRO  ] %s --gtest_filter='%s'\n",
                 self_exe().c_str(), filter_.c_str());
    if (repro_seed() != 0) {
      std::fprintf(stderr, "[  REPRO  ] scenario seed: %llu\n",
                   static_cast<unsigned long long>(repro_seed()));
    }
  }

  std::string filter_;
};

inline const bool repro_listener_installed = [] {
  ::testing::UnitTest::GetInstance()->listeners().Append(new ReproListener);
  return true;
}();

}  // namespace detail
}  // namespace kmsg::test
