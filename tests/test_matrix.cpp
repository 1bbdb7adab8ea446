// Unit tests for the dense linear-algebra kernel (opt/matrix), against the
// frozen scalar oracles of matrix_oracles.hpp.

#include <cmath>
#include <cstring>
#include <random>

#include <gtest/gtest.h>

#include "lane_variants.hpp"
#include "matrix_oracles.hpp"
#include "opt/matrix.hpp"

namespace lens::opt {
namespace {

/// Bit-level double equality (stricter than ==: distinguishes ±0.0).
bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

Matrix identity(std::size_t n) {
  Matrix m(n, n);
  m.add_diagonal(1.0);
  return m;
}

/// Random SPD matrix of size n (Gram of a Gaussian matrix plus ridge).
Matrix random_spd(std::size_t n, unsigned seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> gauss(0.0, 1.0);
  Matrix b(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) b(r, c) = gauss(rng);
  }
  Matrix a = b.multiply(b.transposed());
  a.add_diagonal(0.5);
  return a;
}

TEST(Matrix, ConstructionAndAccess) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m.at(0, 1), -2.0);
  EXPECT_THROW(m.at(2, 0), std::out_of_range);
  EXPECT_THROW(m.at(0, 3), std::out_of_range);
}

TEST(Matrix, AssignReshapesAndFills) {
  Matrix m(3, 4, 2.0);
  m.assign(2, 5, -1.0);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 5u);
  for (double v : m.data()) EXPECT_EQ(v, -1.0);
  m.assign(4, 4);
  EXPECT_EQ(m.data().size(), 16u);
  for (double v : m.data()) EXPECT_EQ(v, 0.0);
}

TEST(Matrix, FromRowsRejectsRagged) {
  EXPECT_THROW(Matrix::from_rows({{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(Matrix, IdentityMultiplication) {
  const Matrix a = Matrix::from_rows({{1, 2}, {3, 4}});
  const Matrix i = identity(2);
  const Matrix ai = a.multiply(i);
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 2; ++c) EXPECT_DOUBLE_EQ(ai(r, c), a(r, c));
  }
}

TEST(Matrix, MultiplyKnownProduct) {
  const Matrix a = Matrix::from_rows({{1, 2, 3}, {4, 5, 6}});
  const Matrix b = Matrix::from_rows({{7, 8}, {9, 10}, {11, 12}});
  const Matrix ab = a.multiply(b);
  EXPECT_DOUBLE_EQ(ab(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(ab(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(ab(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(ab(1, 1), 154.0);
}

TEST(Matrix, MultiplyShapeMismatchThrows) {
  const Matrix a(2, 3);
  const Matrix b(2, 3);
  EXPECT_THROW(a.multiply(b), std::invalid_argument);
  EXPECT_THROW(a.multiply(std::vector<double>{1.0, 2.0}), std::invalid_argument);
}

TEST(Matrix, MatrixVectorProduct) {
  const Matrix a = Matrix::from_rows({{1, 2}, {3, 4}, {5, 6}});
  const std::vector<double> v = {1.0, -1.0};
  const std::vector<double> out = a.multiply(v);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_DOUBLE_EQ(out[0], -1.0);
  EXPECT_DOUBLE_EQ(out[1], -1.0);
  EXPECT_DOUBLE_EQ(out[2], -1.0);
}

TEST(Matrix, TransposeRoundTrip) {
  const Matrix a = Matrix::from_rows({{1, 2, 3}, {4, 5, 6}});
  const Matrix att = a.transposed().transposed();
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) EXPECT_DOUBLE_EQ(att(r, c), a(r, c));
  }
}

TEST(Matrix, AddDiagonal) {
  Matrix a = Matrix::from_rows({{1, 2}, {3, 4}});
  a.add_diagonal(0.5);
  EXPECT_DOUBLE_EQ(a(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(a(1, 1), 4.5);
  EXPECT_DOUBLE_EQ(a(0, 1), 2.0);
}

TEST(Cholesky, FactorOfKnownSpdMatrix) {
  // A = L L^T with L = [[2,0],[1,3]] -> A = [[4,2],[2,10]].
  const Matrix a = Matrix::from_rows({{4, 2}, {2, 10}});
  const Matrix l = CholeskyFactor::factorize(a).dense();
  EXPECT_NEAR(l(0, 0), 2.0, 1e-12);
  EXPECT_NEAR(l(1, 0), 1.0, 1e-12);
  EXPECT_NEAR(l(1, 1), 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(l(0, 1), 0.0);
}

TEST(Cholesky, RejectsIndefinite) {
  const Matrix a = Matrix::from_rows({{1, 2}, {2, 1}});  // eigenvalues 3, -1
  EXPECT_THROW(CholeskyFactor::factorize(a), std::domain_error);
  EXPECT_THROW(oracle::cholesky(a), std::domain_error);
}

TEST(Cholesky, RejectsNonSquare) {
  EXPECT_THROW(CholeskyFactor::factorize(Matrix(2, 3)), std::invalid_argument);
  EXPECT_THROW(oracle::cholesky(Matrix(2, 3)), std::invalid_argument);
}

TEST(Cholesky, SolveReconstructsSolution) {
  const Matrix a = Matrix::from_rows({{6, 2, 1}, {2, 5, 2}, {1, 2, 4}});
  const std::vector<double> x_true = {1.0, -2.0, 3.0};
  const std::vector<double> b = a.multiply(x_true);
  const std::vector<double> x = CholeskyFactor::factorize(a).solve(b);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-10);
}

TEST(Cholesky, LogDetMatchesDirectComputation) {
  const Matrix a = Matrix::from_rows({{4, 2}, {2, 10}});  // det = 36
  EXPECT_NEAR(CholeskyFactor::factorize(a).log_det(), std::log(36.0), 1e-12);
  EXPECT_NEAR(oracle::log_det_from_cholesky(oracle::cholesky(a)), std::log(36.0), 1e-12);
}

TEST(Dot, BasicAndMismatch) {
  EXPECT_DOUBLE_EQ(dot({1, 2, 3}, {4, 5, 6}), 32.0);
  EXPECT_THROW(dot({1.0}, {1.0, 2.0}), std::invalid_argument);
}

// Property sweep: random SPD systems solve to high accuracy.
class CholeskyPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(CholeskyPropertyTest, RandomSpdSolve) {
  const int n = GetParam();
  std::mt19937_64 rng(1000 + static_cast<unsigned>(n));
  std::normal_distribution<double> gauss(0.0, 1.0);
  Matrix b(static_cast<std::size_t>(n), static_cast<std::size_t>(n));
  for (std::size_t r = 0; r < b.rows(); ++r) {
    for (std::size_t c = 0; c < b.cols(); ++c) b(r, c) = gauss(rng);
  }
  Matrix a = b.multiply(b.transposed());  // PSD
  a.add_diagonal(0.5);                    // strictly PD
  std::vector<double> x_true(static_cast<std::size_t>(n));
  for (double& v : x_true) v = gauss(rng);
  const std::vector<double> rhs = a.multiply(x_true);
  const CholeskyFactor f = CholeskyFactor::factorize(a);
  const std::vector<double> x = f.solve(rhs);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(x[i], x_true[i], 1e-7);
  const Matrix l = f.dense();

  // L L^T reconstructs A.
  const Matrix rebuilt = l.multiply(l.transposed());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) EXPECT_NEAR(rebuilt(r, c), a(r, c), 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskyPropertyTest, ::testing::Values(1, 2, 3, 5, 8, 16, 32, 64));

TEST(TriangularSolves, ForwardAndTransposeAgreeWithDense) {
  const Matrix l = Matrix::from_rows({{2, 0, 0}, {1, 3, 0}, {-1, 2, 4}});
  const std::vector<double> b = {2.0, 7.0, 9.0};
  const std::vector<double> y = oracle::solve_lower(l, b);
  // Verify L y = b.
  const std::vector<double> ly = l.multiply(y);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(ly[i], b[i], 1e-12);
  const std::vector<double> z = oracle::solve_lower_transpose(l, b);
  const std::vector<double> ltz = l.transposed().multiply(z);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(ltz[i], b[i], 1e-12);
}

// ---- CholeskyFactor: the incremental factorization layer --------------------

TEST(CholeskyFactor, SingleElementEdgeCase) {
  CholeskyFactor f;
  EXPECT_TRUE(f.empty());
  f.extend({}, 4.0);  // 1x1: L = [2]
  EXPECT_EQ(f.size(), 1u);
  EXPECT_DOUBLE_EQ(f.at(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(f.log_det(), std::log(4.0));
  const std::vector<double> x = f.solve({8.0});
  ASSERT_EQ(x.size(), 1u);
  EXPECT_DOUBLE_EQ(x[0], 2.0);

  const CholeskyFactor g = CholeskyFactor::factorize(Matrix::from_rows({{4.0}}));
  EXPECT_TRUE(same_bits(g.at(0, 0), f.at(0, 0)));
}

TEST(CholeskyFactor, FactorizeMatchesFreeCholeskyBitForBit) {
  for (const std::size_t n : {1u, 2u, 5u, 17u, 40u}) {
    const Matrix a = random_spd(n, 90 + static_cast<unsigned>(n));
    const Matrix reference = oracle::cholesky(a);
    const CholeskyFactor f = CholeskyFactor::factorize(a);
    ASSERT_EQ(f.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j <= i; ++j) {
        EXPECT_TRUE(same_bits(f.at(i, j), reference(i, j))) << "n=" << n << " (" << i << "," << j << ")";
      }
      for (std::size_t j = i + 1; j < n; ++j) EXPECT_DOUBLE_EQ(f.at(i, j), 0.0);
    }
    EXPECT_TRUE(same_bits(f.log_det(), oracle::log_det_from_cholesky(reference)));
  }
}

TEST(CholeskyFactor, ExtendEqualsFullFactorizationBitForBit) {
  // Randomized SPD append sweep: start from a small factor and append rows
  // one at a time; after every append the incrementally-built factor must
  // equal the from-scratch factorization of the leading block, bit for bit.
  const std::size_t n_max = 32;
  const Matrix a = random_spd(n_max, 1234);
  CholeskyFactor incremental;
  std::vector<double> cross;
  for (std::size_t n = 1; n <= n_max; ++n) {
    cross.resize(n - 1);
    for (std::size_t j = 0; j + 1 < n; ++j) cross[j] = a(n - 1, j);
    incremental.extend(cross, a(n - 1, n - 1));

    Matrix leading(n, n);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) leading(r, c) = a(r, c);
    }
    const Matrix reference = oracle::cholesky(leading);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j <= i; ++j) {
        ASSERT_TRUE(same_bits(incremental.at(i, j), reference(i, j)))
            << "n=" << n << " (" << i << "," << j << ")";
      }
    }
  }
}

TEST(CholeskyFactor, BlockedSolveLowerMatchesScalarOracleBitForBit) {
  // solve_lower's blocked four-row forward substitution vs the scalar
  // row-oriented oracle (solve_lower_reference), across sizes that exercise
  // every tail length mod 4. Bitwise equality: the blocked panels must keep
  // each row's accumulation in ascending column order, which makes the two
  // paths the same sequence of IEEE operations.
  for (const std::size_t n : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 11u, 16u, 33u, 64u}) {
    const Matrix a = random_spd(n, 400 + static_cast<unsigned>(n));
    const CholeskyFactor f = CholeskyFactor::factorize(a);
    std::mt19937_64 rng(500 + n);
    std::normal_distribution<double> gauss(0.0, 1.0);
    std::vector<double> b(n);
    for (double& v : b) v = gauss(rng);
    const std::vector<double> blocked = f.solve_lower(b);
    const std::vector<double> reference = oracle::solve_lower_reference(f, b);
    ASSERT_EQ(blocked.size(), reference.size());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(same_bits(blocked[i], reference[i])) << "n=" << n << " i=" << i;
    }
  }
}

// The blocked solve and factorization tests run once per lane variant.
class CholeskyLanes : public LaneVariantTest<> {};

TEST_P(CholeskyLanes, SolveLowerManyMatchesPerColumnSolvesBitForBit) {
  // Four right-hand sides per pass over 4-row panels: every column must be
  // the scalar forward substitution of that column alone, for every factor
  // size mod 4 and every right-hand-side count mod 4, and columns past
  // `count` (when ld > count) must stay untouched.
  for (const std::size_t n : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 13u, 30u}) {
    const CholeskyFactor f =
        CholeskyFactor::factorize(random_spd(n, 800 + static_cast<unsigned>(n)));
    for (const std::size_t count : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
      for (const std::size_t ld : {count, count + 3}) {
        std::mt19937_64 rng(900 + 16 * n + count);
        std::normal_distribution<double> gauss(0.0, 1.0);
        std::vector<double> b(n * ld);
        for (double& v : b) v = gauss(rng);
        std::vector<double> x = b;
        f.solve_lower_many(x.data(), ld, count);
        for (std::size_t q = 0; q < ld; ++q) {
          std::vector<double> column(n);
          for (std::size_t t = 0; t < n; ++t) column[t] = b[t * ld + q];
          const std::vector<double> expected =
              q < count ? oracle::solve_lower_reference(f, column) : column;
          for (std::size_t t = 0; t < n; ++t) {
            ASSERT_TRUE(same_bits(x[t * ld + q], expected[t]))
                << "n=" << n << " count=" << count << " ld=" << ld << " q=" << q
                << " t=" << t;
          }
        }
      }
    }
  }
  const CholeskyFactor f = CholeskyFactor::factorize(identity(3));
  std::vector<double> b(6);
  EXPECT_THROW(f.solve_lower_many(b.data(), 1, 2), std::invalid_argument);
}

TEST_P(CholeskyLanes, BlockedFactorizeMatchesExtendsOnEveryElement) {
  // factorize() settles four rows per block; it must equal the factor built
  // by n successive extends (and the dense column-oriented oracle) on every
  // element, for every size mod 4.
  for (std::size_t n = 1; n <= 13; ++n) {
    for (const std::size_t size : {n, n + 51}) {
      const Matrix a = random_spd(size, 1300 + static_cast<unsigned>(size));
      std::size_t failed_row = 0;
      const CholeskyFactor extends = oracle::factorize_by_extends(a, failed_row);
      ASSERT_EQ(failed_row, size);
      const Matrix dense = oracle::cholesky(a);
      const CholeskyFactor blocked = CholeskyFactor::factorize(a);
      ASSERT_EQ(blocked.size(), size);
      for (std::size_t i = 0; i < size; ++i) {
        for (std::size_t j = 0; j < size; ++j) {
          ASSERT_TRUE(same_bits(blocked.at(i, j), extends.at(i, j)))
              << "size=" << size << " (" << i << "," << j << ")";
          ASSERT_TRUE(same_bits(blocked.at(i, j), dense(i, j)))
              << "size=" << size << " (" << i << "," << j << ")";
        }
      }
    }
  }
}

TEST_P(CholeskyLanes, BlockedFactorizeFailsOnTheRowExtendsFailsOn) {
  // A matrix whose row r breaks positive definiteness (a negative diagonal,
  // or a NaN left of it) must make factorize() throw exactly when n extends
  // stop at row r, whatever r's position inside its four-row block; the
  // rows before r still factorize to the extends factor.
  for (const std::size_t n : {5u, 8u, 11u}) {
    for (std::size_t r = 0; r < n; ++r) {
      for (const bool use_nan : {false, true}) {
        if (use_nan && r == 0) continue;
        Matrix a = random_spd(n, 1500 + static_cast<unsigned>(n));
        if (use_nan) {
          a(r, r - 1) = std::nan("");
        } else {
          a(r, r) = -1.0;
        }
        std::size_t failed_row = 0;
        const CholeskyFactor extends = oracle::factorize_by_extends(a, failed_row);
        ASSERT_EQ(failed_row, r) << "n=" << n << " r=" << r;
        EXPECT_THROW(CholeskyFactor::factorize(a), std::domain_error) << "n=" << n << " r=" << r;
        Matrix leading(r, r);
        for (std::size_t i = 0; i < r; ++i) {
          for (std::size_t j = 0; j < r; ++j) leading(i, j) = a(i, j);
        }
        const CholeskyFactor blocked = CholeskyFactor::factorize(leading);
        for (std::size_t i = 0; i < r; ++i) {
          for (std::size_t j = 0; j <= i; ++j) {
            ASSERT_TRUE(same_bits(blocked.at(i, j), extends.at(i, j)))
                << "n=" << n << " r=" << r << " (" << i << "," << j << ")";
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Lanes, CholeskyLanes, ::testing::ValuesIn(kLaneVariants),
                         [](const auto& info) { return lane_variant_label(info.param); });

TEST(CholeskyFactor, RefactorizeIntoUsedStorageMatchesAFreshFactor) {
  // A factor reused for a smaller matrix, and again after a failed
  // factorization, must hold exactly the floats of a fresh factorize().
  CholeskyFactor reused = CholeskyFactor::factorize(random_spd(23, 1700));
  for (const std::size_t n : {9u, 14u, 3u}) {
    const Matrix a = random_spd(n, 1700 + static_cast<unsigned>(n));
    reused.refactorize(a);
    const CholeskyFactor fresh = CholeskyFactor::factorize(a);
    ASSERT_EQ(reused.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j <= i; ++j) {
        ASSERT_TRUE(same_bits(reused.at(i, j), fresh.at(i, j))) << "n=" << n;
      }
    }
    Matrix broken = a;
    broken(n - 1, n - 1) = -1.0;
    EXPECT_THROW(reused.refactorize(broken), std::domain_error);
    EXPECT_TRUE(reused.empty());
  }
  // A failed factorization leaves an empty factor that extends normally.
  reused.extend({}, 4.0);
  EXPECT_DOUBLE_EQ(reused.at(0, 0), 2.0);
}

TEST(CholeskyFactor, AddLowerProductSumsEachRowInAscendingOrder) {
  const CholeskyFactor f = CholeskyFactor::factorize(random_spd(11, 1800));
  std::mt19937_64 rng(1801);
  std::normal_distribution<double> gauss(0.0, 1.0);
  std::vector<double> z(11), acc(11);
  for (double& v : z) v = gauss(rng);
  for (double& v : acc) v = gauss(rng);
  std::vector<double> expected = acc;
  for (std::size_t i = 0; i < 11; ++i) {
    for (std::size_t j = 0; j <= i; ++j) expected[i] += f.at(i, j) * z[j];
  }
  f.add_lower_product(z, acc);
  for (std::size_t i = 0; i < 11; ++i) EXPECT_TRUE(same_bits(acc[i], expected[i])) << i;
  std::vector<double> short_acc(10);
  EXPECT_THROW(f.add_lower_product(z, short_acc), std::invalid_argument);
}

TEST(CholeskyFactor, SolvesMatchFreeFunctions) {
  const std::size_t n = 12;
  const Matrix a = random_spd(n, 77);
  const Matrix l = oracle::cholesky(a);
  const CholeskyFactor f = CholeskyFactor::factorize(a);
  std::mt19937_64 rng(7);
  std::normal_distribution<double> gauss(0.0, 1.0);
  std::vector<double> b(n);
  for (double& v : b) v = gauss(rng);

  const std::vector<double> fwd = f.solve_lower(b);
  const std::vector<double> fwd_ref = oracle::solve_lower(l, b);
  const std::vector<double> bwd = f.solve_lower_transpose(b);
  const std::vector<double> bwd_ref = oracle::solve_lower_transpose(l, b);
  const std::vector<double> full = f.solve(b);
  const std::vector<double> full_ref = oracle::cholesky_solve(l, b);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(same_bits(fwd[i], fwd_ref[i]));
    EXPECT_TRUE(same_bits(bwd[i], bwd_ref[i]));
    EXPECT_TRUE(same_bits(full[i], full_ref[i]));
  }
}

TEST(CholeskyFactor, RejectsNonPositiveDefiniteExtension) {
  // [[1, 1], [1, 1]] is singular: the second pivot is exactly 0.
  CholeskyFactor f;
  f.extend({}, 1.0);
  EXPECT_THROW(f.extend({1.0}, 1.0), std::domain_error);
  // A failed extend leaves the factor untouched and usable.
  EXPECT_EQ(f.size(), 1u);
  EXPECT_DOUBLE_EQ(f.at(0, 0), 1.0);
  f.extend({0.5}, 1.0);  // a valid append still works afterwards
  EXPECT_EQ(f.size(), 2u);

  EXPECT_THROW(CholeskyFactor::factorize(Matrix::from_rows({{1, 2}, {2, 1}})),
               std::domain_error);
  EXPECT_THROW(CholeskyFactor::factorize(Matrix(2, 3)), std::invalid_argument);
}

TEST(CholeskyFactor, ValidatesShapes) {
  CholeskyFactor f = CholeskyFactor::factorize(identity(3));
  EXPECT_THROW(f.extend({1.0}, 1.0), std::invalid_argument);       // cross_row too short
  EXPECT_THROW(f.solve({1.0, 2.0}), std::invalid_argument);        // rhs size mismatch
  EXPECT_THROW(f.solve_lower({1.0}), std::invalid_argument);
  EXPECT_THROW(f.solve_lower_transpose({1.0}), std::invalid_argument);
  EXPECT_THROW(f.at(3, 0), std::out_of_range);
}

TEST(CholeskyFactor, DenseRoundTrip) {
  const Matrix a = random_spd(6, 55);
  const CholeskyFactor f = CholeskyFactor::factorize(a);
  const Matrix dense = f.dense();
  const Matrix rebuilt = dense.multiply(dense.transposed());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) EXPECT_NEAR(rebuilt(r, c), a(r, c), 1e-8);
  }
}

}  // namespace
}  // namespace lens::opt
