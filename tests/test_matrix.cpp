// Unit tests for the dense matrix and the boolean semiring operations
// that implement Eq. 3.
#include "util/matrix.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "dense_schedule_oracle.hpp"
#include "util/error.hpp"

namespace optibar {
namespace {

TEST(Matrix, DefaultConstructedIsEmpty) {
  Matrix<double> m;
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
  EXPECT_TRUE(m.empty());
}

TEST(Matrix, SizedConstructionFills) {
  Matrix<double> m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_DOUBLE_EQ(m(r, c), 1.5);
    }
  }
}

TEST(Matrix, InitializerListLayout) {
  Matrix<int> m{{1, 2, 3}, {4, 5, 6}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m(0, 0), 1);
  EXPECT_EQ(m(0, 2), 3);
  EXPECT_EQ(m(1, 0), 4);
  EXPECT_EQ(m(1, 2), 6);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix<int>{{1, 2}, {3}}), Error);
}

TEST(Matrix, IdentityHasUnitDiagonal) {
  const auto id = Matrix<int>::identity(4);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      EXPECT_EQ(id(r, c), r == c ? 1 : 0);
    }
  }
}

TEST(Matrix, OutOfBoundsAccessThrows) {
  Matrix<int> m(2, 2);
  EXPECT_THROW(m(2, 0), Error);
  EXPECT_THROW(m(0, 2), Error);
}

TEST(Matrix, TransposedSwapsIndices) {
  Matrix<int> m{{1, 2, 3}, {4, 5, 6}};
  const auto t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      EXPECT_EQ(t(c, r), m(r, c));
    }
  }
}

TEST(Matrix, DoubleTransposeIsIdentityOp) {
  Matrix<int> m{{1, 2}, {3, 4}, {5, 6}};
  EXPECT_EQ(m.transposed().transposed(), m);
}

TEST(Matrix, SubmatrixExtractsPrincipalBlock) {
  Matrix<int> m{{0, 1, 2}, {10, 11, 12}, {20, 21, 22}};
  const auto s = m.submatrix({0, 2});
  EXPECT_EQ(s.rows(), 2u);
  EXPECT_EQ(s(0, 0), 0);
  EXPECT_EQ(s(0, 1), 2);
  EXPECT_EQ(s(1, 0), 20);
  EXPECT_EQ(s(1, 1), 22);
}

TEST(Matrix, SubmatrixPreservesIndexOrder) {
  Matrix<int> m{{0, 1}, {10, 11}};
  const auto s = m.submatrix({1, 0});
  EXPECT_EQ(s(0, 0), 11);
  EXPECT_EQ(s(1, 1), 0);
}

TEST(Matrix, SubmatrixRejectsOutOfRangeIndex) {
  Matrix<int> m(2, 2);
  EXPECT_THROW(m.submatrix({0, 5}), Error);
}

TEST(Matrix, CountNonzeroAndPredicates) {
  Matrix<int> m{{0, 1}, {0, 2}};
  EXPECT_EQ(m.count_nonzero(), 2u);
  EXPECT_FALSE(m.all_nonzero());
  EXPECT_FALSE(m.all_zero());
  EXPECT_TRUE(Matrix<int>(3, 3, 0).all_zero());
  EXPECT_TRUE(Matrix<int>(3, 3, 7).all_nonzero());
}

TEST(Matrix, MinMaxElement) {
  Matrix<double> m{{3.0, -1.0}, {2.0, 5.0}};
  EXPECT_DOUBLE_EQ(m.max_element(), 5.0);
  EXPECT_DOUBLE_EQ(m.min_element(), -1.0);
}

TEST(Matrix, MinMaxOfEmptyThrows) {
  Matrix<double> m;
  EXPECT_THROW(m.max_element(), Error);
  EXPECT_THROW(m.min_element(), Error);
}

TEST(BoolMatrix, MultiplyIsSemiringProduct) {
  // A: 0 -> 1; B: 1 -> 2. A*B must connect 0 -> 2.
  BoolMatrix a(3, 3, 0);
  a(0, 1) = 1;
  BoolMatrix b(3, 3, 0);
  b(1, 2) = 1;
  const auto c = bool_multiply(a, b);
  EXPECT_EQ(c(0, 2), 1);
  EXPECT_EQ(c.count_nonzero(), 1u);
}

TEST(BoolMatrix, MultiplySaturatesInsteadOfCounting) {
  // Two distinct paths from 0 to 1 must still yield exactly 1, not 2.
  BoolMatrix a(3, 3, 0);
  a(0, 1) = 1;
  a(0, 2) = 1;
  BoolMatrix b(3, 3, 0);
  b(1, 0) = 1;
  b(2, 0) = 1;
  const auto c = bool_multiply(a, b);
  EXPECT_EQ(c(0, 0), 1);
}

TEST(BoolMatrix, MultiplyDimensionMismatchThrows) {
  BoolMatrix a(2, 3, 0);
  BoolMatrix b(2, 3, 0);
  EXPECT_THROW(bool_multiply(a, b), Error);
}

// bool_add survives only in the dense Schedule oracle's Eq. 3.
TEST(BoolMatrix, AddIsElementwiseOr) {
  BoolMatrix a(2, 2, 0);
  a(0, 0) = 1;
  BoolMatrix b(2, 2, 0);
  b(0, 0) = 1;
  b(1, 1) = 1;
  const auto c = oracle::bool_add(a, b);
  EXPECT_EQ(c(0, 0), 1);
  EXPECT_EQ(c(1, 1), 1);
  EXPECT_EQ(c(0, 1), 0);
}

TEST(BoolMatrix, IdentityIsMultiplicativeUnit) {
  BoolMatrix a(3, 3, 0);
  a(0, 1) = 1;
  a(2, 0) = 1;
  const auto id = BoolMatrix::identity(3);
  EXPECT_EQ(bool_multiply(id, a), a);
  EXPECT_EQ(bool_multiply(a, id), a);
}

TEST(Matrix, StreamOutputPrintsNumbersNotChars) {
  BoolMatrix m(1, 2, 0);
  m(0, 1) = 1;
  std::ostringstream os;
  os << m;
  EXPECT_EQ(os.str(), "0 1\n");
}

}  // namespace
}  // namespace optibar
