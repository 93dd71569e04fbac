#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

/// \file checkpoint_io.hpp
/// The one text checkpoint codec: scheduler/learner snapshots (the
/// crash-recovery seam) and the streaming-fleet checkpoint file both
/// write and read through it. Doubles travel as hexfloats ("%a", parsed
/// back by strtod) so a snapshot -> restore round trip is bit-exact.
/// Each appended token ends in one space; readers fail soft (return
/// false) so a truncated or foreign blob is rejected instead of
/// half-applied.

namespace snipr::core::ckpt {

inline void append_double(std::string& out, double value) {
  char buffer[48];
  std::snprintf(buffer, sizeof buffer, "%a", value);
  out += buffer;
  out += ' ';
}

inline void append_u64(std::string& out, std::uint64_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%llu",
                static_cast<unsigned long long>(value));
  out += buffer;
  out += ' ';
}

inline void append_i64(std::string& out, std::int64_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%lld", static_cast<long long>(value));
  out += buffer;
  out += ' ';
}

/// Sequential whitespace-separated token reader over a checkpoint blob.
class TokenReader {
 public:
  explicit TokenReader(std::string_view text) noexcept : text_{text} {}

  bool next(std::string_view& token) noexcept {
    std::size_t begin = pos_;
    while (begin < text_.size() && is_space(text_[begin])) ++begin;
    if (begin >= text_.size()) return false;
    std::size_t end = begin;
    while (end < text_.size() && !is_space(text_[end])) ++end;
    token = text_.substr(begin, end - begin);
    pos_ = end;
    return true;
  }

  /// Expect the literal `tag` as the next token.
  bool expect(std::string_view tag) noexcept {
    std::string_view token;
    return next(token) && token == tag;
  }

  bool read_double(double& value) noexcept {
    std::string_view token;
    if (!next(token)) return false;
    // Tokens are short; a bounded copy keeps strtod's NUL requirement
    // without allocating.
    char buffer[64];
    if (token.size() >= sizeof buffer) return false;
    token.copy(buffer, token.size());
    buffer[token.size()] = '\0';
    char* end = nullptr;
    value = std::strtod(buffer, &end);
    return end == buffer + token.size();
  }

  bool read_u64(std::uint64_t& value) noexcept {
    std::string_view token;
    if (!next(token)) return false;
    char buffer[32];
    if (token.size() >= sizeof buffer || token.empty()) return false;
    token.copy(buffer, token.size());
    buffer[token.size()] = '\0';
    char* end = nullptr;
    value = std::strtoull(buffer, &end, 10);
    return end == buffer + token.size();
  }

  bool read_i64(std::int64_t& value) noexcept {
    std::string_view token;
    if (!next(token)) return false;
    char buffer[32];
    if (token.size() >= sizeof buffer || token.empty()) return false;
    token.copy(buffer, token.size());
    buffer[token.size()] = '\0';
    char* end = nullptr;
    value = std::strtoll(buffer, &end, 10);
    return end == buffer + token.size();
  }

  /// True when every token has been consumed.
  [[nodiscard]] bool exhausted() noexcept {
    std::size_t at = pos_;
    while (at < text_.size() && is_space(text_[at])) ++at;
    return at >= text_.size();
  }

 private:
  [[nodiscard]] static bool is_space(char c) noexcept {
    return c == ' ' || c == '\n' || c == '\t' || c == '\r';
  }

  std::string_view text_;
  std::size_t pos_{0};
};

}  // namespace snipr::core::ckpt
