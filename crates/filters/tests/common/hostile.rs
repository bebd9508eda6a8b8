//! Columns built to break an order-statistics kernel. A module of its
//! own, needing nothing but `abft_linalg`, so that the kernel's unit tests
//! in `src/par.rs` read the same columns as the integration tests.

use abft_linalg::Vector;

/// `n` finite rows of dimension `dim` whose **columns** are built to break
/// an order-statistics kernel, each column in one of six ways chosen from
/// `seed`: all-identical; a handful of values repeated (signed zeros among
/// them); signed zeros mixed with the smallest subnormals and ±1, so `-0.0`
/// and `+0.0` land on both sides of any trim boundary and at the median;
/// subnormals; magnitudes from `1e-308` to `1e308` of either sign (their
/// sums overflow, cancel and underflow); and ordinary values in `(-10, 10)`.
pub fn hostile_rows(n: usize, dim: usize, seed: u64) -> Vec<Vector> {
    let mut state = seed;
    // SplitMix64.
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut rows = vec![vec![0.0; dim]; n];
    for k in 0..dim {
        let kind = next() % 6;
        let anchor = (next() % 2001) as f64 / 100.0 - 10.0;
        for row in &mut rows {
            let r = next();
            let sign = if r & 1 == 0 { 1.0 } else { -1.0 };
            let unit = (r >> 11) as f64 / (1u64 << 53) as f64;
            row[k] = match kind {
                0 => anchor,
                1 => [anchor, -anchor, 0.0, -0.0, 1.0][(r >> 1) as usize % 5],
                2 => sign * [0.0, 0.0, 5e-324, 1.0][(r >> 1) as usize % 4],
                3 => sign * f64::from_bits((r >> 12) & 0xF_FFFF_FFFF_FFFF),
                4 => sign * (1.0 + 0.79 * unit) * 10f64.powi(((r >> 1) % 617) as i32 - 308),
                _ => sign * 10.0 * unit,
            };
        }
    }
    debug_assert!(rows.iter().flatten().all(|v| v.is_finite()));
    rows.into_iter().map(Vector::from).collect()
}
