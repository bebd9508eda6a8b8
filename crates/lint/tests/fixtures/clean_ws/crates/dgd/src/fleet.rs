//! Fixture collect root whose only determinism-relevant sink sits inside
//! a sanctioned home: the taint walk must terminate there and report
//! nothing.

pub fn collect_round(out: &mut Vec<f64>) {
    let t = now_ms();
    out.push(t as f64);
}
