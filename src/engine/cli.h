// Command-line parsing for the engine CLI (dcn_run) and the bench
// harnesses.
//
// Promoted from bench/bench_util.h so every binary shares one parser:
// `--key value` options, bare `--flag` switches, comma-separated lists.
// bench_util.h now forwards here. Header-only on purpose — the bench
// targets link only the pieces of the library they exercise.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

namespace dcn::cli {

/// Parses a whole string as a decimal uint64. nullopt for anything else
/// — empty, signed ("-1" would wrap), trailing characters, or past
/// UINT64_MAX — so a bad value is an error, never a silent 0 or clamp.
inline std::optional<std::uint64_t> parse_u64(const std::string& s) {
  if (s.empty() || s[0] < '0' || s[0] > '9') return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno == ERANGE || end != s.c_str() + s.size()) return std::nullopt;
  return static_cast<std::uint64_t>(v);
}

/// Minimal --key value / --flag parser.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) tokens_.emplace_back(argv[i]);
  }

  [[nodiscard]] bool has_flag(const std::string& name) const {
    for (const std::string& t : tokens_) {
      if (t == "--" + name) return true;
    }
    return false;
  }

  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const {
    for (std::size_t i = 0; i + 1 < tokens_.size(); ++i) {
      if (tokens_[i] == "--" + name) return tokens_[i + 1];
    }
    return fallback;
  }

  [[nodiscard]] double get_double(const std::string& name, double fallback) const {
    const std::string v = get(name, "");
    return v.empty() ? fallback : std::strtod(v.c_str(), nullptr);
  }

  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const {
    const std::string v = get(name, "");
    return v.empty() ? fallback : std::strtoll(v.c_str(), nullptr, 10);
  }

  /// Comma-separated string list ("a,b,c"); `fallback` when absent.
  [[nodiscard]] std::vector<std::string> get_list(
      const std::string& name, const std::vector<std::string>& fallback) const {
    const std::string v = get(name, "");
    if (v.empty()) return fallback;
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= v.size()) {
      std::size_t next = v.find(',', pos);
      if (next == std::string::npos) next = v.size();
      if (next > pos) out.push_back(v.substr(pos, next - pos));
      pos = next + 1;
    }
    return out;
  }

  /// Comma-separated uint64 list (seeds); `fallback` when absent,
  /// nullopt when any entry fails parse_u64.
  [[nodiscard]] std::optional<std::vector<std::uint64_t>> get_u64_list(
      const std::string& name,
      const std::vector<std::uint64_t>& fallback) const {
    if (get(name, "").empty()) return fallback;
    std::vector<std::uint64_t> out;
    for (const std::string& item : get_list(name, {})) {
      const std::optional<std::uint64_t> v = parse_u64(item);
      if (!v) return std::nullopt;
      out.push_back(*v);
    }
    return out;
  }

  /// Comma-separated integer list. Empty segments ("1,,2") are
  /// skipped, matching get_list.
  [[nodiscard]] std::vector<std::int64_t> get_int_list(
      const std::string& name, const std::vector<std::int64_t>& fallback) const {
    const std::string v = get(name, "");
    if (v.empty()) return fallback;
    std::vector<std::int64_t> out;
    std::size_t pos = 0;
    while (pos < v.size()) {
      std::size_t next = v.find(',', pos);
      if (next == std::string::npos) next = v.size();
      if (next > pos) {
        out.push_back(
            std::strtoll(v.substr(pos, next - pos).c_str(), nullptr, 10));
      }
      pos = next + 1;
    }
    return out;
  }

 private:
  std::vector<std::string> tokens_;
};

/// Prints a horizontal rule sized for typical tables.
inline void rule() {
  std::printf("-------------------------------------------------------------------------------\n");
}

}  // namespace dcn::cli
