//! Property-based tests for the linear-algebra substrate.

use abft_linalg::{
    cholesky, determinant, inverse, least_squares, rowops, solve, solve_spd, sym_eigenvalues,
    Matrix, Vector,
};
use proptest::prelude::*;

/// Strategy: a small vector with bounded, well-conditioned entries.
fn vec_strategy(dim: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-10.0..10.0f64, dim)
}

/// Strategy: a row entry from the corners of the `f64` range — signed
/// zeros, subnormals, magnitudes whose squares under- and overflow, and
/// non-finite values — mixed with ordinary ones.
fn hostile_entry() -> impl Strategy<Value = f64> {
    prop_oneof![
        -10.0..10.0f64,
        -10.0..10.0f64,
        Just(0.0),
        Just(-0.0),
        Just(5e-324),
        Just(-2e-310),
        Just(1e150),
        Just(-1e150),
        Just(1e-150),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(f64::NAN),
    ]
}

/// Strategy: a row `a` and four rows to measure it against, all of one
/// length drawn from {0, 1, odd, 10⁴}.
fn five_hostile_rows() -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop_oneof![
        Just(0usize),
        Just(1usize),
        (1usize..40).prop_map(|k| 2 * k + 1),
        Just(10_000usize),
    ]
    .prop_flat_map(|len| prop::collection::vec(prop::collection::vec(hostile_entry(), len), 5))
}

/// Strategy: a diagonally dominant (hence invertible) square matrix.
fn dominant_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-1.0..1.0f64, n * n).prop_map(move |mut data| {
        for i in 0..n {
            // Make row i dominant: |a_ii| > sum of |a_ij|.
            let row_sum: f64 = (0..n)
                .filter(|&j| j != i)
                .map(|j| data[i * n + j].abs())
                .sum();
            data[i * n + i] = row_sum + 1.0;
        }
        Matrix::new(n, n, data).expect("shape is consistent")
    })
}

/// Strategy: a symmetric positive-definite matrix built as BᵀB + I.
fn spd_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-1.0..1.0f64, n * n).prop_map(move |data| {
        let b = Matrix::new(n, n, data).expect("shape is consistent");
        b.gram().add(&Matrix::identity(n)).expect("same shape")
    })
}

proptest! {
    #[test]
    fn vector_addition_commutes(a in vec_strategy(5), b in vec_strategy(5)) {
        let x = Vector::from(a);
        let y = Vector::from(b);
        prop_assert!((&x + &y).approx_eq(&(&y + &x), 1e-12));
    }

    #[test]
    fn triangle_inequality(a in vec_strategy(4), b in vec_strategy(4)) {
        let x = Vector::from(a);
        let y = Vector::from(b);
        prop_assert!((&x + &y).norm() <= x.norm() + y.norm() + 1e-9);
    }

    #[test]
    fn cauchy_schwarz(a in vec_strategy(6), b in vec_strategy(6)) {
        let x = Vector::from(a);
        let y = Vector::from(b);
        prop_assert!(x.dot(&y).abs() <= x.norm() * y.norm() + 1e-9);
    }

    #[test]
    fn scaling_scales_norm(a in vec_strategy(4), c in -5.0..5.0f64) {
        let x = Vector::from(a);
        prop_assert!((x.scale(c).norm() - c.abs() * x.norm()).abs() < 1e-9);
    }

    #[test]
    fn solve_then_multiply_recovers_rhs(m in dominant_matrix(4), b in vec_strategy(4)) {
        let rhs = Vector::from(b);
        let x = solve(&m, &rhs).expect("dominant matrices are invertible");
        let back = m.matvec(&x).expect("square");
        prop_assert!(back.approx_eq(&rhs, 1e-6));
    }

    #[test]
    fn inverse_multiplies_to_identity(m in dominant_matrix(3)) {
        let inv = inverse(&m).expect("dominant matrices are invertible");
        let prod = m.matmul(&inv).expect("square");
        prop_assert!(prod.approx_eq(&Matrix::identity(3), 1e-6));
    }

    #[test]
    fn determinant_of_product_is_product_of_determinants(
        a in dominant_matrix(3),
        b in dominant_matrix(3),
    ) {
        let da = determinant(&a).expect("square");
        let db = determinant(&b).expect("square");
        let dab = determinant(&a.matmul(&b).expect("square")).expect("square");
        prop_assert!((dab - da * db).abs() < 1e-6 * dab.abs().max(1.0));
    }

    #[test]
    fn cholesky_reconstructs_spd(m in spd_matrix(4)) {
        let l = cholesky(&m).expect("SPD by construction");
        let back = l.matmul(&l.transpose()).expect("square");
        prop_assert!(back.approx_eq(&m, 1e-8));
    }

    #[test]
    fn spd_solve_agrees_with_general_solve(m in spd_matrix(3), b in vec_strategy(3)) {
        let rhs = Vector::from(b);
        let x1 = solve(&m, &rhs).expect("SPD is invertible");
        let x2 = solve_spd(&m, &rhs).expect("SPD");
        prop_assert!(x1.approx_eq(&x2, 1e-7));
    }

    #[test]
    fn eigenvalues_sum_to_trace(m in spd_matrix(4)) {
        let eig = sym_eigenvalues(&m).expect("symmetric");
        let sum: f64 = eig.values.iter().sum();
        let trace = m.trace().expect("square");
        prop_assert!((sum - trace).abs() < 1e-8 * trace.abs().max(1.0));
        // SPD: all eigenvalues strictly positive.
        prop_assert!(eig.min() > 0.0);
    }

    #[test]
    fn eigenvalue_product_matches_determinant(m in spd_matrix(3)) {
        let eig = sym_eigenvalues(&m).expect("symmetric");
        let prod: f64 = eig.values.iter().product();
        let det = determinant(&m).expect("square");
        prop_assert!((prod - det).abs() < 1e-6 * det.abs().max(1.0));
    }

    #[test]
    fn least_squares_residual_is_orthogonal_to_columns(
        data in prop::collection::vec(-5.0..5.0f64, 6 * 2),
        b in vec_strategy(6),
    ) {
        let a = Matrix::new(6, 2, data).expect("shape");
        // Skip (rare) rank-deficient draws.
        if abft_linalg::solve::rank(&a, 1e-8).expect("tall matrix") < 2 {
            return Ok(());
        }
        let rhs = Vector::from(b);
        let x = least_squares(&a, &rhs).expect("full rank");
        // Normal equations: Aᵀ(Ax − b) = 0.
        let residual = &a.matvec(&x).expect("shape") - &rhs;
        let atr = a.matvec_t(&residual).expect("shape");
        prop_assert!(atr.norm() < 1e-6, "A^T r = {atr:?}");
    }

    #[test]
    fn matmul_is_associative(
        a in dominant_matrix(3),
        b in dominant_matrix(3),
        c in dominant_matrix(3),
    ) {
        let left = a.matmul(&b).expect("square").matmul(&c).expect("square");
        let right = a.matmul(&b.matmul(&c).expect("square")).expect("square");
        prop_assert!(left.approx_eq(&right, 1e-6));
    }

    #[test]
    fn transpose_reverses_products(a in dominant_matrix(3), b in dominant_matrix(3)) {
        let lhs = a.matmul(&b).expect("square").transpose();
        let rhs = b.transpose().matmul(&a.transpose()).expect("square");
        prop_assert!(lhs.approx_eq(&rhs, 1e-9));
    }

    #[test]
    fn trimmed_mean_bounded_by_extremes(
        mut xs in prop::collection::vec(-100.0..100.0f64, 5..20),
        trim in 0usize..2,
    ) {
        if xs.len() <= 2 * trim { return Ok(()); }
        let tm = abft_linalg::stats::trimmed_mean(&xs, trim).expect("non-empty");
        xs.sort_by(|a, b| a.total_cmp(b));
        prop_assert!(tm >= xs[0] - 1e-12 && tm <= xs[xs.len() - 1] + 1e-12);
    }

    #[test]
    fn median_minimizes_l1(xs in prop::collection::vec(-50.0..50.0f64, 1..15)) {
        let med = abft_linalg::stats::median(&xs).expect("non-empty");
        let cost = |c: f64| xs.iter().map(|x| (x - c).abs()).sum::<f64>();
        let at_median = cost(med);
        // The median minimizes sum of absolute deviations; probe nearby points.
        for delta in [-1.0, -0.1, 0.1, 1.0] {
            prop_assert!(at_median <= cost(med + delta) + 1e-9);
        }
    }

    #[test]
    fn dist4_equals_dist_bit_for_bit_per_lane(rows in five_hostile_rows()) {
        let [a, b0, b1, b2, b3] = &rows[..] else { unreachable!("five rows") };
        let lanes = [b0.as_slice(), b1, b2, b3];
        let four = rowops::dist4(a, lanes);
        for (got, b) in four.iter().zip(lanes) {
            let want = rowops::dist(a, b);
            // A lane that meets two different NaNs (an input NaN and an
            // `∞ − ∞`) may keep either payload; any other value is exact.
            prop_assert!(
                got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                "len {}: {got:e} vs {want:e}", a.len()
            );
        }
    }

    #[test]
    fn norm4_and_a_reversed_dist4_equal_norm_and_dist_bit_for_bit(rows in five_hostile_rows()) {
        // The row-to-centre passes: `norm4` per row, and `dist4` with the
        // centre as `a`, which must equal `dist(row, centre)`.
        let [centre, b0, b1, b2, b3] = &rows[..] else { unreachable!("five rows") };
        let lanes = [b0.as_slice(), b1, b2, b3];
        let same = |got: f64, want: f64| {
            got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan())
        };
        let (norms, dists) = (rowops::norm4(lanes), rowops::dist4(centre, lanes));
        for ((&norm, &dist), b) in norms.iter().zip(&dists).zip(lanes) {
            prop_assert!(same(norm, rowops::norm(b)), "len {}: {norm:e}", b.len());
            prop_assert!(same(dist, rowops::dist(b, centre)), "len {}: {dist:e}", b.len());
        }
    }
}
