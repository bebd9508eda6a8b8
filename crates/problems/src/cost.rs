//! The cost-function abstraction and aggregate helpers.

use abft_linalg::Vector;
use std::sync::Arc;

/// A local cost function `Q_i : ℝᵈ → ℝ` held by one agent.
///
/// Implementors provide [`CostFunction::gradient_into`], the in-place
/// form the DGD drivers call once per agent per round;
/// [`CostFunction::gradient`] is a provided convenience over it (its docs
/// say why it remains). For
/// non-differentiable costs (e.g. [`crate::absval::AbsoluteCost`]) both
/// produce a subgradient; the DGD machinery of Section 4 is only applied
/// to differentiable families, matching the paper.
///
/// Implementors must be `Send + Sync` so the threaded runtime can share costs
/// across agent threads.
pub trait CostFunction: Send + Sync {
    /// Dimension `d` of the decision variable.
    fn dim(&self) -> usize;

    /// Cost value `Q_i(x)`.
    ///
    /// # Panics
    ///
    /// Implementations may panic when `x.dim() != self.dim()`.
    fn value(&self, x: &Vector) -> f64;

    /// Writes `∇Q_i(x)` (a subgradient for non-smooth costs) into `out`,
    /// overwriting every slot — the **required** method: the DGD drivers
    /// fill `GradientBatch` rows through it, so it should not allocate.
    ///
    /// # Panics
    ///
    /// Implementations may panic when `x.dim() != self.dim()` or
    /// `out.len() != self.dim()`.
    fn gradient_into(&self, x: &Vector, out: &mut [f64]);

    /// `∇Q_i(x)` as a fresh [`Vector`]: provided, as
    /// [`CostFunction::gradient_into`] over a zeroed buffer.
    ///
    /// The one allocating twin left on a data-path trait. It stays because
    /// the benchmark package (`perfbench/`) overrides it in an
    /// `impl CostFunction`, and that package changes only on its own. No
    /// round loop calls it.
    ///
    /// # Panics
    ///
    /// Implementations may panic when `x.dim() != self.dim()`.
    fn gradient(&self, x: &Vector) -> Vector {
        let mut out = Vector::zeros(self.dim());
        self.gradient_into(x, out.as_mut_slice());
        out
    }
}

/// A shareable, thread-safe cost function handle.
pub type SharedCost = Arc<dyn CostFunction>;

/// Sum of `Σ_{i∈subset} Q_i(x)` over the given agent indices.
///
/// # Panics
///
/// Panics when an index is out of range.
// LINT-ALLOW(panic-reach): documented panic contract — subsets come from
// scenario builders that validate agent ids against `n`.
pub fn total_value(costs: &[SharedCost], subset: &[usize], x: &Vector) -> f64 {
    subset.iter().map(|&i| costs[i].value(x)).sum()
}

/// Gradient of the subset aggregate `Σ_{i∈subset} ∇Q_i(x)`.
///
/// # Panics
///
/// Panics when `subset` is empty or an index is out of range.
pub fn total_gradient(costs: &[SharedCost], subset: &[usize], x: &Vector) -> Vector {
    assert!(!subset.is_empty(), "total_gradient over empty subset");
    let mut acc = Vector::zeros(x.dim());
    total_gradient_into(costs, subset, x, acc.as_mut_slice());
    acc
}

/// `out ← Σ_{i∈subset} ∇Q_i(x)`, members added in `subset` order. Member
/// gradients overwrite their output, so the sum goes through one scratch
/// row per call.
// LINT-ALLOW(panic-reach): documented panic contract — subsets come from
// scenario builders that validate agent ids against `n`.
fn total_gradient_into(costs: &[SharedCost], subset: &[usize], x: &Vector, out: &mut [f64]) {
    out.fill(0.0);
    let mut member = vec![0.0; out.len()];
    for &i in subset {
        costs[i].gradient_into(x, &mut member);
        for (acc, g) in out.iter_mut().zip(&member) {
            *acc += g;
        }
    }
}

/// The aggregate cost `Σ_{i∈indices} Q_i(x)` packaged as a [`CostFunction`].
///
/// This is the object the paper's definitions quantify over: resilience is
/// about the minimizers of `Σ_{i∈S} Q_i` for honest subsets `S`.
pub struct AggregateCost {
    costs: Vec<SharedCost>,
    indices: Vec<usize>,
    dim: usize,
}

impl AggregateCost {
    /// Builds the aggregate of `costs[i]` for `i ∈ indices`.
    ///
    /// # Panics
    ///
    /// Panics when `indices` is empty, out of range, or the member costs
    /// disagree on dimension.
    pub fn new(costs: Vec<SharedCost>, indices: Vec<usize>) -> Self {
        assert!(!indices.is_empty(), "aggregate of zero costs");
        let dim = costs[indices[0]].dim();
        for &i in &indices {
            assert_eq!(costs[i].dim(), dim, "cost dimensions disagree");
        }
        AggregateCost {
            costs,
            indices,
            dim,
        }
    }

    /// The member indices.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }
}

impl CostFunction for AggregateCost {
    fn dim(&self) -> usize {
        self.dim
    }

    fn value(&self, x: &Vector) -> f64 {
        total_value(&self.costs, &self.indices, x)
    }

    fn gradient_into(&self, x: &Vector, out: &mut [f64]) {
        total_gradient_into(&self.costs, &self.indices, x, out);
    }
}

/// Central finite-difference approximation of `∇Q(x)` — used in tests to
/// validate analytic gradients.
pub fn finite_difference_gradient(cost: &dyn CostFunction, x: &Vector, h: f64) -> Vector {
    Vector::from_fn(x.dim(), |i| {
        let mut plus = x.clone();
        let mut minus = x.clone();
        plus[i] += h;
        minus[i] -= h;
        (cost.value(&plus) - cost.value(&minus)) / (2.0 * h)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Q(x) = ‖x − c‖² — minimal hand-rolled cost for testing the helpers.
    struct SquaredDistance {
        center: Vector,
    }

    impl CostFunction for SquaredDistance {
        fn dim(&self) -> usize {
            self.center.dim()
        }
        fn value(&self, x: &Vector) -> f64 {
            (x - &self.center).norm_sq()
        }
        fn gradient_into(&self, x: &Vector, out: &mut [f64]) {
            for ((slot, xi), ci) in out.iter_mut().zip(x.iter()).zip(self.center.iter()) {
                *slot = (xi - ci) * 2.0;
            }
        }
    }

    fn make_costs(centers: &[&[f64]]) -> Vec<SharedCost> {
        centers
            .iter()
            .map(|c| {
                Arc::new(SquaredDistance {
                    center: Vector::from(*c),
                }) as SharedCost
            })
            .collect()
    }

    #[test]
    fn total_value_sums_members() {
        let costs = make_costs(&[&[0.0, 0.0], &[2.0, 0.0], &[0.0, 2.0]]);
        let x = Vector::zeros(2);
        assert_eq!(total_value(&costs, &[0, 1, 2], &x), 0.0 + 4.0 + 4.0);
        assert_eq!(total_value(&costs, &[1], &x), 4.0);
    }

    #[test]
    fn total_gradient_sums_members() {
        let costs = make_costs(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let x = Vector::zeros(2);
        let g = total_gradient(&costs, &[0, 1], &x);
        assert!(g.approx_eq(&Vector::from(vec![-2.0, -2.0]), 1e-12));
    }

    #[test]
    #[should_panic(expected = "empty subset")]
    fn total_gradient_rejects_empty() {
        let costs = make_costs(&[&[0.0]]);
        let _ = total_gradient(&costs, &[], &Vector::zeros(1));
    }

    #[test]
    fn aggregate_cost_behaves_like_sum() {
        let costs = make_costs(&[&[1.0], &[3.0], &[5.0]]);
        let agg = AggregateCost::new(costs.clone(), vec![0, 2]);
        let x = Vector::from(vec![2.0]);
        assert_eq!(agg.value(&x), 1.0 + 9.0);
        assert_eq!(agg.dim(), 1);
        assert_eq!(agg.indices(), &[0, 2]);
        // Gradient: 2(2−1) + 2(2−5) = 2 − 6 = −4.
        assert!(agg.gradient(&x).approx_eq(&Vector::from(vec![-4.0]), 1e-12));
    }

    #[test]
    fn finite_difference_matches_analytic() {
        let cost = SquaredDistance {
            center: Vector::from(vec![1.0, -2.0]),
        };
        let x = Vector::from(vec![0.3, 0.7]);
        let fd = finite_difference_gradient(&cost, &x, 1e-6);
        assert!(fd.approx_eq(&cost.gradient(&x), 1e-6));
    }

    #[test]
    #[should_panic(expected = "dimensions disagree")]
    fn aggregate_rejects_mixed_dimensions() {
        let costs: Vec<SharedCost> = vec![
            Arc::new(SquaredDistance {
                center: Vector::zeros(1),
            }),
            Arc::new(SquaredDistance {
                center: Vector::zeros(2),
            }),
        ];
        let _ = AggregateCost::new(costs, vec![0, 1]);
    }
}
