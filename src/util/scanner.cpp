#include "util/scanner.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <istream>
#include <vector>

#include "util/error.hpp"

namespace optibar {

namespace {

// The C locale's isspace set, which is what istream >> stops at.
constexpr bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

}  // namespace

Scanner::Scanner(std::istream& is)
    : is_(is), chunk_(std::make_unique<char[]>(kChunkBytes)) {
  pos_ = end_ = chunk_.get();
}

std::size_t Scanner::refill(const char* keep) {
  const auto kept = static_cast<std::size_t>(end_ - keep);
  const auto offset = static_cast<std::size_t>(pos_ - keep);
  std::memmove(chunk_.get(), keep, kept);
  std::size_t got = 0;
  if (!drained_) {
    const std::size_t want = kChunkBytes - kept;
    is_.read(chunk_.get() + kept, static_cast<std::streamsize>(want));
    got = static_cast<std::size_t>(is_.gcount());
    OPTIBAR_IO_REQUIRE(!is_.bad(), "I/O error at line " << line_);
    drained_ = got < want;
  }
  pos_ = chunk_.get() + offset;
  end_ = chunk_.get() + kept + got;
  return got;
}

void Scanner::fail(std::string_view what, std::string_view expected,
                   std::string_view got) const {
  // Cut a hostile token short so it cannot inflate the message.
  const std::string_view quote = got.empty() ? "" : "'";
  OPTIBAR_IO_FAIL(what << ": expected " << expected << ", got " << quote
                       << (got.empty() ? "end of input" : got.substr(0, 40))
                       << (got.size() > 40 ? "..." : "") << quote
                       << " (line " << line_ << ")");
}

void Scanner::skip_space(std::string_view what) {
  for (;;) {
    for (; pos_ != end_ && is_space(*pos_); ++pos_) {
      line_ += *pos_ == '\n' ? 1 : 0;
    }
    if (pos_ != end_) {
      return;
    }
    if (refill(pos_) == 0) {
      fail(what, "more input", {});
    }
  }
}

std::string_view Scanner::token(std::string_view what) {
  skip_space(what);
  const char* start = pos_;
  for (;;) {
    while (pos_ != end_ && !is_space(*pos_)) {
      ++pos_;
    }
    if (pos_ != end_ || drained_) {
      return {start, static_cast<std::size_t>(pos_ - start)};
    }
    // The token runs into the chunk's end: slide it to the front and
    // read on. No format writes a token as long as a whole chunk.
    if (start == chunk_.get()) {
      fail(what, "a token shorter than 64 KiB", {start, kChunkBytes});
    }
    refill(start);
    start = chunk_.get();
  }
}

void Scanner::expect(std::string_view tag) {
  const std::string_view got = token(tag);
  if (got != tag) {
    std::string quoted(1, '\'');
    quoted += tag;
    fail("tag", quoted += '\'', got);
  }
}

void Scanner::expect(std::string_view tag, std::size_t index) {
  expect(std::string(tag) + std::to_string(index));
}

template <class T, class Accept, class Refusal>
T Scanner::number(std::string_view what, std::string_view grammar,
                  Accept accept, Refusal refusal) {
  skip_space(what);
  // Fast path: parse straight from the chunk. With kLookahead bytes in
  // hand, a number only runs into the chunk's end if it is longer than
  // any a writer emits; that case, like every refusal, re-reads the
  // token, which gives the same verdict with the token in the message.
  if (static_cast<std::size_t>(end_ - pos_) < kLookahead && !drained_) {
    refill(pos_);
  }
  T value{};
  std::from_chars_result r = std::from_chars(pos_, end_, value);
  if (r.ec == std::errc{} && (r.ptr == end_ ? drained_ : is_space(*r.ptr)) &&
      accept(value)) {
    pos_ = r.ptr;
    return value;
  }
  const std::string_view tok = token(what);
  const auto [end, ec] =
      std::from_chars(tok.data(), tok.data() + tok.size(), value);
  if (ec == std::errc::result_out_of_range) {
    fail(what, std::string(grammar) + " in range", tok);
  }
  if (ec != std::errc{} || end != tok.data() + tok.size()) {
    fail(what, grammar, tok);
  }
  if (!accept(value)) {
    fail(what, refusal(), tok);
  }
  return value;
}

std::size_t Scanner::count(std::string_view what, std::size_t cap) {
  return number<std::size_t>(
      what, "an unsigned decimal count",
      [cap](std::size_t v) { return v <= cap; },
      [cap] { return "a count of at most " + std::to_string(cap); });
}

double Scanner::finite(std::string_view what) {
  return number<double>(
      what, "a number", [](double v) { return std::isfinite(v); },
      [] { return std::string("a finite number"); });
}

Matrix<double> Scanner::finite_matrix(std::size_t n, std::string_view what) {
  // Every entry takes at least two bytes (a digit and a separator), so
  // the bytes already buffered bound how many this reserve can hold.
  std::vector<double> data;
  data.reserve(std::min(n * n, static_cast<std::size_t>(end_ - pos_) / 2));
  for (std::size_t i = 0; i < n * n; ++i) {
    data.push_back(finite(what));
  }
  return Matrix<double>(n, n, std::move(data));
}

std::string Scanner::rest_of_line(std::string_view what) {
  std::string line;
  for (;;) {
    const auto* newline = static_cast<const char*>(
        std::memchr(pos_, '\n', static_cast<std::size_t>(end_ - pos_)));
    line.append(pos_, newline != nullptr ? newline : end_);
    if (newline != nullptr) {
      pos_ = newline + 1;
      ++line_;
      return line;
    }
    pos_ = end_;
    // As getline: only an input that ends before any character of the
    // line fails; a bare newline is an empty line.
    if (refill(pos_) == 0) {
      if (line.empty()) {
        fail(what, "more input", {});
      }
      return line;
    }
  }
}

}  // namespace optibar
