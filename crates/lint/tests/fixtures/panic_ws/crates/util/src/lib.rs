//! Fixture utility crate: no hot-path crate, so clippy's panic denies do
//! not reach it; the seeded panics below are only reportable through
//! reachability.

pub fn checked_push(out: &mut Vec<f64>, v: f64) {
    record(v);
    out.push(v);
}

fn record(v: f64) {
    verify(v);
    bound(v);
}

fn verify(v: f64) {
    if !v.is_finite() {
        panic!("seeded transitive panic");
    }
}

fn bound(v: f64) {
    #[expect(clippy::expect_used, reason = "fixture: a justified panic")]
    let checked = Some(v).expect("seeded justified expect");
    assert!(checked < 1e300, "seeded reachable assert");
}
