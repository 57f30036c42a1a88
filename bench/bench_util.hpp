// Shared helpers for the figure-reproduction benches: flag parsing and
// aligned table printing. Every bench prints the series/rows of the paper
// figure it reproduces, plus the expected qualitative shape.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace kmsg::bench {

/// Minimal --key=value / --key value flag reader.
class Flags {
 public:
  Flags(int argc, char** argv) : argc_(argc), argv_(argv) {}

  double get_double(const char* name, double fallback) const {
    const char* v = find(name);
    return v ? std::strtod(v, nullptr) : fallback;
  }
  long long get_int(const char* name, long long fallback) const {
    const char* v = find(name);
    return v ? std::strtoll(v, nullptr, 10) : fallback;
  }
  bool has(const char* name) const { return find(name) != nullptr || flag_present(name); }

 private:
  const char* find(const char* name) const {
    const std::string key = std::string("--") + name;
    for (int i = 1; i < argc_; ++i) {
      const char* arg = argv_[i];
      if (std::strncmp(arg, key.c_str(), key.size()) == 0) {
        if (arg[key.size()] == '=') return arg + key.size() + 1;
        if (arg[key.size()] == '\0' && i + 1 < argc_) return argv_[i + 1];
      }
    }
    return nullptr;
  }
  bool flag_present(const char* name) const {
    const std::string key = std::string("--") + name;
    for (int i = 1; i < argc_; ++i) {
      if (key == argv_[i]) return true;
    }
    return false;
  }
  int argc_;
  char** argv_;
};

inline void print_header(const char* fig, const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", fig, title);
  std::printf("================================================================\n");
}

inline void print_expectation(const char* text) {
  std::printf("Paper shape: %s\n\n", text);
}

/// main()'s exit status: non-zero when any NetworkComponent the bench ran
/// dropped messages at its session queue cap. Windowed sources are paced
/// by backpressure, so a drop means the flow control broke; stdout (the
/// figure table) is the same either way.
inline int exit_status(const char* bench, std::uint64_t queue_overflow) {
  if (queue_overflow == 0) return 0;
  std::fprintf(stderr, "%s: %llu messages overflowed a session queue\n",
               bench, static_cast<unsigned long long>(queue_overflow));
  return 1;
}

}  // namespace kmsg::bench
