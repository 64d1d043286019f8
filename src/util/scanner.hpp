// The one token scanner under every on-disk format.
//
// Profiles (v1–v4), schedules (v1–v2), collectives (v1) and plan stores
// (v1) are text written by their own save functions, but the disk is
// untrusted, so the checks every loader needs live here once:
//   - the stream is pulled in fixed 64 KiB chunks, never whole, so a
//     load holds one chunk plus what its data builds;
//   - tokens are runs of non-whitespace (the C locale's isspace set),
//     handed out as string_views into the chunk that stay valid until
//     the next read; a token longer than a chunk is refused;
//   - numbers are parsed with std::from_chars and must span their whole
//     token: no sign on a count, no leading '+', no hex, no trailing
//     characters, and a double that rounds to zero or overflows is out
//     of range rather than silently 0 or ±max;
//   - every primitive throws IoError naming what was being read, the
//     offending token and the line it sits on.
// A scanner reads ahead of what it hands out, so one stream gets one
// scanner: nested sections (v4 tiles, plan-store schedules) are parsed
// by (Scanner&) bodies that share the outer scanner.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>

#include "util/matrix.hpp"

namespace optibar {

class Scanner {
 public:
  static constexpr std::size_t kChunkBytes = std::size_t{64} << 10;
  /// Cap for a count that sizes nothing (an index checked elsewhere, a
  /// failure tally): only its 64-bit range is enforced.
  static constexpr std::size_t kNoCap = ~std::size_t{0};

  explicit Scanner(std::istream& is);

  /// The next token; throws at the end of the input.
  std::string_view token(std::string_view what);

  /// The next token, which must be exactly `tag`.
  void expect(std::string_view tag);

  /// The next token, which must be `tag` followed by `index` ("S3").
  void expect(std::string_view tag, std::size_t index);

  /// The next token as an unsigned decimal count no larger than `cap`.
  std::size_t count(std::string_view what, std::size_t cap);

  /// The next token as a finite double.
  double finite(std::string_view what);

  /// An n x n row-major matrix of finite doubles. Its storage grows with
  /// the entries read, never with `n`, so a header that overstates `n`
  /// runs out of input before it can drive an allocation.
  Matrix<double> finite_matrix(std::size_t n, std::string_view what);

  /// The rest of the line after the last token, without its newline;
  /// throws when the input ends before any character of it.
  std::string rest_of_line(std::string_view what);

 private:
  // Bytes kept in hand before parsing a number in place.
  static constexpr std::size_t kLookahead = 128;

  // Moves the unread bytes from `keep` on to the front of the chunk and
  // tops it up from the stream; returns the number of bytes added.
  std::size_t refill(const char* keep);

  // Moves the cursor to the next token; throws at the end of the input.
  void skip_space(std::string_view what);

  // The next token as a T in `grammar` that `accept` takes; `refusal()`
  // names what `accept` wants.
  template <class T, class Accept, class Refusal>
  T number(std::string_view what, std::string_view grammar, Accept accept,
           Refusal refusal);

  // Throws IoError "<what>: expected <expected>, got <got> (line N)".
  [[noreturn]] void fail(std::string_view what, std::string_view expected,
                         std::string_view got) const;

  std::istream& is_;
  std::unique_ptr<char[]> chunk_;
  const char* pos_ = nullptr;
  const char* end_ = nullptr;
  bool drained_ = false;  ///< the stream has nothing more to give
  std::size_t line_ = 1;
};

}  // namespace optibar
