// Dense row-major matrix used throughout optibar.
//
// Two instantiations carry the whole paper:
//   Matrix<double>  — the O and L cost matrices of the topological model
//   BoolMatrix      — boolean matrices over the semiring where + is OR
//                     and * is AND (stored as uint8_t): the search's
//                     knowledge masks and the StallReport's delivered
//                     knowledge. Barrier stages themselves are sorted
//                     edge lists (barrier/schedule.hpp).
//
// The class is intentionally a plain value type: cheap to copy at the
// sizes involved (P <= a few hundred), regular, and hashable by content.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <ostream>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace optibar {

template <typename T>
class Matrix {
 public:
  Matrix() = default;

  Matrix(std::size_t rows, std::size_t cols, T fill = T{})
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Adopt `data` as the row-major entries of a rows x cols matrix.
  Matrix(std::size_t rows, std::size_t cols, std::vector<T> data)
      : rows_(rows), cols_(cols), data_(std::move(data)) {
    OPTIBAR_REQUIRE(data_.size() == rows_ * cols_,
                    data_.size() << " entries for a " << rows_ << "x"
                                 << cols_ << " matrix");
  }

  /// Construct from nested initializer lists; all rows must have equal
  /// length. `Matrix<int> m{{1,2},{3,4}};`
  Matrix(std::initializer_list<std::initializer_list<T>> rows) {
    rows_ = rows.size();
    cols_ = rows_ == 0 ? 0 : rows.begin()->size();
    data_.reserve(rows_ * cols_);
    for (const auto& row : rows) {
      OPTIBAR_REQUIRE(row.size() == cols_,
                      "ragged initializer: expected " << cols_
                                                      << " columns, got "
                                                      << row.size());
      data_.insert(data_.end(), row.begin(), row.end());
    }
  }

  static Matrix identity(std::size_t n) {
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      m(i, i) = T{1};
    }
    return m;
  }

  static Matrix filled(std::size_t rows, std::size_t cols, T value) {
    return Matrix(rows, cols, value);
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }
  bool square() const { return rows_ == cols_; }

  T& operator()(std::size_t r, std::size_t c) {
    OPTIBAR_ASSERT(r < rows_ && c < cols_,
                   "index (" << r << "," << c << ") out of bounds for "
                             << rows_ << "x" << cols_);
    return data_[r * cols_ + c];
  }

  const T& operator()(std::size_t r, std::size_t c) const {
    OPTIBAR_ASSERT(r < rows_ && c < cols_,
                   "index (" << r << "," << c << ") out of bounds for "
                             << rows_ << "x" << cols_);
    return data_[r * cols_ + c];
  }

  /// Unchecked access for hot loops (simulator inner loops).
  T& at_unchecked(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  const T& at_unchecked(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  const std::vector<T>& data() const { return data_; }

  Matrix transposed() const {
    Matrix t(cols_, rows_);
    for (std::size_t r = 0; r < rows_; ++r) {
      for (std::size_t c = 0; c < cols_; ++c) {
        t(c, r) = (*this)(r, c);
      }
    }
    return t;
  }

  /// Extract the submatrix of the given rows x cols index sets.
  Matrix submatrix(const std::vector<std::size_t>& row_idx,
                   const std::vector<std::size_t>& col_idx) const {
    Matrix s(row_idx.size(), col_idx.size());
    for (std::size_t r = 0; r < row_idx.size(); ++r) {
      OPTIBAR_REQUIRE(row_idx[r] < rows_, "row index out of range");
      for (std::size_t c = 0; c < col_idx.size(); ++c) {
        OPTIBAR_REQUIRE(col_idx[c] < cols_, "col index out of range");
        s(r, c) = (*this)(row_idx[r], col_idx[c]);
      }
    }
    return s;
  }

  /// Principal submatrix over one index set (rows == cols), the common
  /// case when restricting a P x P cost matrix to a rank cluster.
  Matrix submatrix(const std::vector<std::size_t>& idx) const {
    return submatrix(idx, idx);
  }

  bool operator==(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_ &&
           data_ == other.data_;
  }
  bool operator!=(const Matrix& other) const { return !(*this == other); }

  /// Count of non-zero entries.
  std::size_t count_nonzero() const {
    std::size_t n = 0;
    for (const T& v : data_) {
      if (v != T{}) {
        ++n;
      }
    }
    return n;
  }

  bool all_nonzero() const { return count_nonzero() == data_.size(); }
  bool all_zero() const { return count_nonzero() == 0; }

  T max_element() const {
    OPTIBAR_REQUIRE(!data_.empty(), "max_element of empty matrix");
    T m = data_.front();
    for (const T& v : data_) {
      if (v > m) {
        m = v;
      }
    }
    return m;
  }

  T min_element() const {
    OPTIBAR_REQUIRE(!data_.empty(), "min_element of empty matrix");
    T m = data_.front();
    for (const T& v : data_) {
      if (v < m) {
        m = v;
      }
    }
    return m;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T> data_;
};

/// Boolean incidence matrix over the (OR, AND) semiring.
using BoolMatrix = Matrix<std::uint8_t>;

/// Boolean matrix product over the (OR, AND) semiring:
/// (A*B)(i,j) = OR_k ( A(i,k) AND B(k,j) ).
inline BoolMatrix bool_multiply(const BoolMatrix& a, const BoolMatrix& b) {
  OPTIBAR_REQUIRE(a.cols() == b.rows(),
                  "dimension mismatch in bool_multiply: " << a.rows() << "x"
                                                          << a.cols() << " * "
                                                          << b.rows() << "x"
                                                          << b.cols());
  BoolMatrix c(a.rows(), b.cols(), 0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      if (!a.at_unchecked(i, k)) {
        continue;
      }
      for (std::size_t j = 0; j < b.cols(); ++j) {
        if (b.at_unchecked(k, j)) {
          c.at_unchecked(i, j) = 1;
        }
      }
    }
  }
  return c;
}

template <typename T>
std::ostream& operator<<(std::ostream& os, const Matrix<T>& m) {
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      if (c != 0) {
        os << ' ';
      }
      // uint8_t would print as a character; promote to a number.
      if constexpr (sizeof(T) == 1) {
        os << static_cast<int>(m(r, c));
      } else {
        os << m(r, c);
      }
    }
    os << '\n';
  }
  return os;
}

}  // namespace optibar
