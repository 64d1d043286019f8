// The shared Scanner on its own: tokens and numbers that straddle the
// 64 KiB chunk boundary at every offset, numbers too long for the
// in-place fast path, lines longer than a chunk, and the IoError text
// each primitive produces.
#include <gtest/gtest.h>

#include <bit>
#include <charconv>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/scanner.hpp"

namespace optibar {
namespace {

// The IoError message `read` raises on `text`, or "no error".
std::string error_of(const std::string& text, void (*read)(Scanner&)) {
  std::istringstream is(text);
  Scanner in(is);
  try {
    read(in);
  } catch (const IoError& e) {
    return e.what();
  }
  return "no error";
}

TEST(Scanner, NumbersStraddleTheChunkBoundaryAtEveryOffset) {
  const std::vector<std::string> words = {
      "1.2345678901234567e-05", "7", "-0.00000000000000000e+00",
      "4.9406564584124654e-324", "123456789", "2.5"};
  for (std::size_t shift = 0; shift < 48; ++shift) {
    std::string text(shift, ' ');
    std::vector<std::string> tokens;
    for (std::size_t i = 0; text.size() < Scanner::kChunkBytes * 2 + 100;
         ++i) {
      tokens.push_back(words[i % words.size()]);
      text += tokens.back();
      text += i % 7 == 0 ? '\n' : ' ';
    }
    std::istringstream is(text);
    Scanner in(is);
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      double want = 0.0;
      std::from_chars(tokens[i].data(), tokens[i].data() + tokens[i].size(),
                      want);
      const double got = in.finite("value");
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got),
                std::bit_cast<std::uint64_t>(want))
          << "shift " << shift << " token " << i;
    }
    EXPECT_THROW(in.token("past the end"), IoError);
  }
}

TEST(Scanner, TagsAndCountsStraddleTheChunkBoundary) {
  for (std::size_t shift = 0; shift < 16; ++shift) {
    std::string text(Scanner::kChunkBytes - 8 + shift, '\n');
    text += "stage S12 4096 tail";
    std::istringstream is(text);
    Scanner in(is);
    in.expect("stage");
    in.expect("S", 12);
    EXPECT_EQ(in.count("edges", 4096), 4096u);
    EXPECT_EQ(in.token("tail"), "tail");
  }
}

TEST(Scanner, LongNumbersTakeTheTokenPath) {
  // More digits than the in-place lookahead, mid-chunk and across the
  // chunk boundary: still one number, parsed whole.
  const std::string zeros(300, '0');
  for (const std::size_t lead :
       {std::size_t{10}, Scanner::kChunkBytes - 100}) {
    std::istringstream is(std::string(lead, ' ') + zeros + "1.5 " + zeros +
                          "42 end");
    Scanner in(is);
    EXPECT_EQ(in.finite("value"), 1.5);
    EXPECT_EQ(in.count("count", 100), 42u);
    in.expect("end");
  }
}

TEST(Scanner, TokenLongerThanAChunkIsRefused) {
  std::istringstream is(std::string(Scanner::kChunkBytes + 1, 'x'));
  Scanner in(is);
  EXPECT_THROW(in.token("tag"), IoError);
}

TEST(Scanner, RestOfLineSpansChunks) {
  const std::string reason(Scanner::kChunkBytes + 1000, 'r');
  std::istringstream is("reason " + reason + "\nnext");
  Scanner in(is);
  in.expect("reason");
  EXPECT_EQ(in.rest_of_line("reason"), " " + reason);
  EXPECT_EQ(in.token("next"), "next");
}

TEST(Scanner, RestOfLineFollowsGetline) {
  {
    std::istringstream is("reason\nnext");
    Scanner in(is);
    in.expect("reason");
    EXPECT_EQ(in.rest_of_line("reason"), "");  // a bare newline
  }
  {
    std::istringstream is("reason \t- ");
    Scanner in(is);
    in.expect("reason");
    EXPECT_EQ(in.rest_of_line("reason"), " \t- ");  // ends at end of input
  }
  {
    std::istringstream is("reason");
    Scanner in(is);
    in.expect("reason");
    EXPECT_THROW(in.rest_of_line("reason"), IoError);  // nothing left
  }
}

TEST(Scanner, ErrorsNameWhatWasReadTheTokenAndTheLine) {
  const std::string nan = error_of("1\n2\nnan", [](Scanner& in) {
    for (int i = 0; i < 3; ++i) {
      in.finite("O matrix");
    }
  });
  EXPECT_NE(nan.find("O matrix: expected a finite number, got 'nan' (line 3)"),
            std::string::npos)
      << nan;
  const std::string cap = error_of("P 9000", [](Scanner& in) {
    in.expect("P");
    in.count("rank count", 8192);
  });
  EXPECT_NE(cap.find("rank count: expected a count of at most 8192, got "
                     "'9000' (line 1)"),
            std::string::npos)
      << cap;
  const std::string tag =
      error_of("\n\nQ", [](Scanner& in) { in.expect("O"); });
  EXPECT_NE(tag.find("tag: expected 'O', got 'Q' (line 3)"), std::string::npos)
      << tag;
  const std::string end = error_of("P", [](Scanner& in) {
    in.expect("P");
    in.count("rank count", 8192);
  });
  EXPECT_NE(end.find("rank count: expected more input, got end of input"),
            std::string::npos)
      << end;
}

TEST(Scanner, CountGrammar) {
  const auto verdict = [](const std::string& text) {
    return error_of(text, [](Scanner& in) { in.count("n", 1000); });
  };
  EXPECT_EQ(verdict("12"), "no error");
  EXPECT_EQ(verdict("0012"), "no error");
  EXPECT_NE(verdict("-1").find("unsigned decimal count"), std::string::npos);
  EXPECT_NE(verdict("+1").find("unsigned decimal count"), std::string::npos);
  EXPECT_NE(verdict("1x").find("unsigned decimal count"), std::string::npos);
  EXPECT_NE(verdict("18446744073709551616").find("count in range"),
            std::string::npos);
  EXPECT_NE(verdict("1001").find("at most 1000"), std::string::npos);
}

TEST(Scanner, FiniteGrammar) {
  const auto verdict = [](const std::string& text) {
    return error_of(text, [](Scanner& in) { in.finite("x"); });
  };
  EXPECT_EQ(verdict("-1.5e-300"), "no error");
  EXPECT_EQ(verdict(".5"), "no error");
  EXPECT_EQ(verdict("4.9406564584124654e-324"), "no error");
  EXPECT_NE(verdict("1e-400").find("number in range"), std::string::npos);
  EXPECT_NE(verdict("1e999").find("number in range"), std::string::npos);
  EXPECT_NE(verdict("inf").find("finite number"), std::string::npos);
  EXPECT_NE(verdict("+1.5").find("a number"), std::string::npos);
  EXPECT_NE(verdict("0x1p3").find("a number"), std::string::npos);
  EXPECT_NE(verdict("1.5abc").find("a number"), std::string::npos);
}

}  // namespace
}  // namespace optibar
