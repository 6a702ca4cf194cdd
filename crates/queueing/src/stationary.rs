//! Solvers for the equilibrium flow equation `λP = λ` (paper Eq. 1).
//!
//! The paper's Lemma 1 shows (via Perron–Frobenius) that a non-trivial,
//! non-negative solution always exists for a row-stochastic **P**. On the
//! irreducible case — which every connected overlay produces — the
//! solution is unique up to scale and strictly positive. Two solvers are
//! provided:
//!
//! * [`direct_solve`]: dense Gaussian elimination on `(Pᵀ − I)λ = 0` with
//!   the normalization `Σλ = 1` replacing one equation. Exact up to
//!   floating-point error; O(n³).
//! * [`power_iteration`]: repeated application of `λ ← λP` with lazy
//!   (Cesàro-style) averaging so periodic chains (e.g. bipartite rings)
//!   still converge. O(n²) per step.
//!
//! [`stationary_flows`] picks automatically: direct for `n ≤ 512`, power
//! iteration beyond.

use crate::error::QueueingError;
use crate::matrix::TransferMatrix;

/// Which algorithm [`stationary_flows`] should use.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SolveMethod {
    /// Direct for small systems, power iteration for large ones.
    #[default]
    Auto,
    /// Dense Gaussian elimination.
    Direct,
    /// Lazy power iteration.
    Power,
}

/// Dimension at or below which [`SolveMethod::Auto`] uses the direct
/// solver.
pub const AUTO_DIRECT_LIMIT: usize = 512;

/// Options for [`power_iteration`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PowerOptions {
    /// Maximum iterations before giving up.
    pub max_iterations: usize,
    /// Convergence threshold on `‖λP − λ‖∞`.
    pub tolerance: f64,
}

impl Default for PowerOptions {
    fn default() -> Self {
        PowerOptions {
            max_iterations: 100_000,
            tolerance: 1e-12,
        }
    }
}

/// Computes the stationary flow vector of `p`, normalized to sum to 1.
///
/// # Errors
/// Returns [`QueueingError::Singular`] if `p` is reducible (no unique
/// positive flow) and [`QueueingError::NoConvergence`] if power iteration
/// exhausts its budget.
pub fn stationary_flows(
    p: &TransferMatrix,
    method: SolveMethod,
) -> Result<Vec<f64>, QueueingError> {
    if !p.is_irreducible() {
        return Err(QueueingError::Singular(
            "transfer matrix is reducible; stationary flow not unique".into(),
        ));
    }
    match method {
        SolveMethod::Direct => direct_solve(p),
        SolveMethod::Power => power_iteration(p, PowerOptions::default()),
        SolveMethod::Auto => {
            if p.n() <= AUTO_DIRECT_LIMIT {
                direct_solve(p)
            } else {
                power_iteration(p, PowerOptions::default())
            }
        }
    }
}

/// Solves `λP = λ`, `Σλ = 1` by Gaussian elimination with partial
/// pivoting.
///
/// # Errors
/// Returns [`QueueingError::Singular`] if the system is singular, which
/// for a validated transfer matrix means **P** is reducible.
pub fn direct_solve(p: &TransferMatrix) -> Result<Vec<f64>, QueueingError> {
    let n = p.n();
    // Build A = Pᵀ − I with the last row replaced by the normalization
    // Σλ = 1; right-hand side e_n.
    let mut a = vec![0.0f64; n * n];
    for i in 0..n {
        for j in 0..n {
            a[j * n + i] = p.get(i, j); // transpose
        }
    }
    for i in 0..n {
        a[i * n + i] -= 1.0;
    }
    for j in 0..n {
        a[(n - 1) * n + j] = 1.0;
    }
    let mut b = vec![0.0f64; n];
    b[n - 1] = 1.0;

    solve_dense(&mut a, &mut b, n)?;

    // Numerical noise can leave tiny negatives; clamp and renormalize.
    let mut total = 0.0;
    for v in &mut b {
        if *v < 0.0 {
            if *v < -1e-8 {
                return Err(QueueingError::Singular(format!(
                    "stationary solve produced negative flow {v}"
                )));
            }
            *v = 0.0;
        }
        total += *v;
    }
    if total <= 0.0 {
        return Err(QueueingError::Singular("zero stationary flow".into()));
    }
    for v in &mut b {
        *v /= total;
    }
    Ok(b)
}

/// In-place dense linear solve `A x = b` (row-major `a`, overwriting `b`
/// with the solution) via Gaussian elimination with partial pivoting.
fn solve_dense(a: &mut [f64], b: &mut [f64], n: usize) -> Result<(), QueueingError> {
    debug_assert_eq!(a.len(), n * n);
    debug_assert_eq!(b.len(), n);
    for col in 0..n {
        // Partial pivot.
        let mut pivot_row = col;
        let mut pivot_val = a[col * n + col].abs();
        for row in (col + 1)..n {
            let v = a[row * n + col].abs();
            if v > pivot_val {
                pivot_val = v;
                pivot_row = row;
            }
        }
        if pivot_val < 1e-13 {
            return Err(QueueingError::Singular(format!(
                "pivot {pivot_val:.3e} at column {col}"
            )));
        }
        if pivot_row != col {
            for k in 0..n {
                a.swap(col * n + k, pivot_row * n + k);
            }
            b.swap(col, pivot_row);
        }
        // Eliminate below.
        let diag = a[col * n + col];
        for row in (col + 1)..n {
            let factor = a[row * n + col] / diag;
            if factor == 0.0 {
                continue;
            }
            a[row * n + col] = 0.0;
            for k in (col + 1)..n {
                a[row * n + k] -= factor * a[col * n + k];
            }
            b[row] -= factor * b[col];
        }
    }
    // Back substitution.
    for col in (0..n).rev() {
        let mut sum = b[col];
        for k in (col + 1)..n {
            sum -= a[col * n + k] * b[k];
        }
        b[col] = sum / a[col * n + col];
    }
    Ok(())
}

/// Lazy power iteration: `λ ← ½(λ + λP)`, normalized each step.
///
/// The ½ mixing makes the chain aperiodic regardless of the structure of
/// **P**, so convergence holds for any irreducible matrix.
///
/// # Errors
/// Returns [`QueueingError::NoConvergence`] if `opts.max_iterations` is
/// reached with residual above `opts.tolerance`.
pub fn power_iteration(p: &TransferMatrix, opts: PowerOptions) -> Result<Vec<f64>, QueueingError> {
    let n = p.n();
    let mut x = vec![1.0 / n as f64; n];
    let mut residual = f64::INFINITY;
    for _ in 0..opts.max_iterations {
        let px = p.left_multiply(&x);
        residual = px
            .iter()
            .zip(&x)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        let mut next: Vec<f64> = px.iter().zip(&x).map(|(a, b)| 0.5 * (a + b)).collect();
        let total: f64 = next.iter().sum();
        for v in &mut next {
            *v /= total;
        }
        x = next;
        if residual < opts.tolerance {
            return Ok(x);
        }
    }
    // One last check: the lazy iterate may already satisfy the fixed point.
    if residual < opts.tolerance * 10.0 {
        return Ok(x);
    }
    Err(QueueingError::NoConvergence {
        iterations: opts.max_iterations,
        residual,
    })
}

/// Verifies that `flows` satisfies `λP = λ` within `tol` (useful in tests
/// and as a cheap post-condition).
pub fn is_stationary(p: &TransferMatrix, flows: &[f64], tol: f64) -> bool {
    if flows.len() != p.n() {
        return false;
    }
    let px = p.left_multiply(flows);
    px.iter().zip(flows).all(|(a, b)| (a - b).abs() <= tol)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring3() -> TransferMatrix {
        TransferMatrix::from_rows(vec![
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 1.0],
            vec![1.0, 0.0, 0.0],
        ])
        .expect("valid")
    }

    fn weighted4() -> TransferMatrix {
        TransferMatrix::from_rows(vec![
            vec![0.1, 0.4, 0.3, 0.2],
            vec![0.25, 0.25, 0.25, 0.25],
            vec![0.0, 0.5, 0.0, 0.5],
            vec![0.3, 0.3, 0.4, 0.0],
        ])
        .expect("valid")
    }

    #[test]
    fn direct_solves_uniform() {
        let p = TransferMatrix::uniform(5).expect("valid");
        let flows = direct_solve(&p).expect("solved");
        for &f in &flows {
            assert!((f - 0.2).abs() < 1e-12);
        }
    }

    #[test]
    fn direct_solves_periodic_ring() {
        let flows = direct_solve(&ring3()).expect("solved");
        for &f in &flows {
            assert!((f - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn power_handles_periodic_ring_via_laziness() {
        let flows = power_iteration(&ring3(), PowerOptions::default()).expect("converged");
        for &f in &flows {
            assert!((f - 1.0 / 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn direct_and_power_agree() {
        let p = weighted4();
        let d = direct_solve(&p).expect("direct");
        let w = power_iteration(&p, PowerOptions::default()).expect("power");
        for (a, b) in d.iter().zip(&w) {
            assert!((a - b).abs() < 1e-8, "direct {a} vs power {b}");
        }
        assert!(is_stationary(&p, &d, 1e-10));
        assert!(is_stationary(&p, &w, 1e-9));
    }

    #[test]
    fn two_state_chain_closed_form() {
        // p01 = 0.3, p10 = 0.6 -> stationary ∝ (p10, p01) = (2/3, 1/3).
        let p = TransferMatrix::from_rows(vec![vec![0.7, 0.3], vec![0.6, 0.4]]).expect("valid");
        let flows = stationary_flows(&p, SolveMethod::Auto).expect("solved");
        assert!((flows[0] - 2.0 / 3.0).abs() < 1e-12);
        assert!((flows[1] - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn reducible_matrix_rejected() {
        let p = TransferMatrix::from_rows(vec![vec![1.0, 0.0], vec![0.0, 1.0]]).expect("valid");
        assert!(matches!(
            stationary_flows(&p, SolveMethod::Auto),
            Err(QueueingError::Singular(_))
        ));
    }

    #[test]
    fn flows_are_positive_lemma1() {
        // Lemma 1: irreducible P ⇒ strictly positive stationary flow.
        let p = weighted4();
        let flows = stationary_flows(&p, SolveMethod::Direct).expect("solved");
        for &f in &flows {
            assert!(f > 0.0);
        }
        assert!((flows.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn power_respects_iteration_budget() {
        let p = weighted4();
        let opts = PowerOptions {
            max_iterations: 1,
            tolerance: 1e-15,
        };
        assert!(matches!(
            power_iteration(&p, opts),
            Err(QueueingError::NoConvergence { .. })
        ));
    }

    #[test]
    fn is_stationary_rejects_wrong_length() {
        let p = ring3();
        assert!(!is_stationary(&p, &[0.5, 0.5], 1e-9));
    }

    #[test]
    fn auto_uses_power_for_large_n() {
        // A large sparse-ish ring with self-loops; Auto should pick power
        // iteration and still produce the uniform flow.
        let n = AUTO_DIRECT_LIMIT + 8;
        let mut rows = vec![vec![0.0; n]; n];
        for (i, row) in rows.iter_mut().enumerate() {
            row[i] = 0.5;
            row[(i + 1) % n] = 0.5;
        }
        let p = TransferMatrix::from_rows(rows).expect("valid");
        let flows = stationary_flows(&p, SolveMethod::Auto).expect("solved");
        for &f in &flows {
            assert!((f - 1.0 / n as f64).abs() < 1e-9);
        }
    }
}
