#pragma once
// Buffered text output for the trace writers. Records are formatted into
// one fixed local buffer with std::to_chars and handed to the stream with
// one write per full buffer, so a field costs no stream sentry or num_put
// call. The bytes are those of a default-formatted std::ostream:
//   - integers in decimal;
//   - doubles as printf "%.6g", which std::to_chars with
//     chars_format::general at precision 6 is defined to produce, and which
//     is what operator<< writes at the default precision and flags.
// The stream's own format flags are not consulted.

#include <charconv>
#include <concepts>
#include <cstddef>
#include <cstring>
#include <ostream>
#include <string_view>

namespace hpcs::trace {

class TextOut {
 public:
  explicit TextOut(std::ostream& os) : os_(os) {}
  TextOut(const TextOut&) = delete;
  TextOut& operator=(const TextOut&) = delete;

  TextOut& operator<<(char c) {
    reserve(1);
    buf_[len_++] = c;
    return *this;
  }

  TextOut& operator<<(std::string_view s) {
    if (s.size() > kSize - len_) {
      flush();
      if (s.size() > kSize) {
        os_.write(s.data(), static_cast<std::streamsize>(s.size()));
        return *this;
      }
    }
    std::memcpy(buf_ + len_, s.data(), s.size());
    len_ += s.size();
    return *this;
  }

  template <std::integral T>
  TextOut& operator<<(T v) {
    reserve(kMaxField);
    len_ = static_cast<std::size_t>(std::to_chars(buf_ + len_, buf_ + kSize, v).ptr - buf_);
    return *this;
  }

  TextOut& operator<<(double v) {
    reserve(kMaxField);
    len_ = static_cast<std::size_t>(
        std::to_chars(buf_ + len_, buf_ + kSize, v, std::chars_format::general, 6).ptr - buf_);
    return *this;
  }

  /// Hand the buffered bytes to the stream. Call once after the last
  /// record; a failed write shows in the stream's state.
  void flush() {
    os_.write(buf_, static_cast<std::streamsize>(len_));
    len_ = 0;
  }

 private:
  static constexpr std::size_t kSize = 4096;
  /// Longest number text: "-9223372036854775808" is 20 bytes, a "%.6g"
  /// double at most 13 ("-1.23457e-308").
  static constexpr std::size_t kMaxField = 32;

  void reserve(std::size_t n) {
    if (kSize - len_ < n) flush();
  }

  std::ostream& os_;
  std::size_t len_ = 0;
  char buf_[kSize]{};
};

}  // namespace hpcs::trace
