//! Row-stochastic credit-transfer matrices.
//!
//! In the paper's model (Table I), `p_ij` is the fraction of peer *i*'s
//! credit spending that goes to neighbor *j*; each row of the matrix
//! **P** sums to 1 (a peer's spending is distributed over its neighbors,
//! with `p_ii > 0` modeling credits it reserves). The paper's Lemma 1
//! requires **P** to admit a positive stationary flow, which holds on the
//! irreducible (strongly connected) case this module can verify.

use crate::error::QueueingError;

/// Tolerance for row-sum validation.
const ROW_SUM_TOL: f64 = 1e-9;

/// A validated row-stochastic matrix of credit-transfer probabilities.
///
/// ```
/// use scrip_queueing::TransferMatrix;
///
/// # fn main() -> Result<(), scrip_queueing::QueueingError> {
/// let p = TransferMatrix::from_rows(vec![
///     vec![0.5, 0.5],
///     vec![0.25, 0.75],
/// ])?;
/// assert_eq!(p.n(), 2);
/// assert!(p.is_irreducible());
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct TransferMatrix {
    n: usize,
    /// Row-major entries.
    data: Vec<f64>,
}

impl TransferMatrix {
    /// Builds and validates a matrix from dense rows.
    ///
    /// # Errors
    /// Returns [`QueueingError::Dimension`] for empty or ragged input and
    /// [`QueueingError::NotStochastic`] if any entry is negative/non-finite
    /// or any row does not sum to 1 (within `1e-9`).
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Result<Self, QueueingError> {
        let n = rows.len();
        if n == 0 {
            return Err(QueueingError::Dimension("empty matrix".into()));
        }
        let mut data = Vec::with_capacity(n * n);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != n {
                return Err(QueueingError::Dimension(format!(
                    "row {i} has {} entries, expected {n}",
                    row.len()
                )));
            }
            data.extend_from_slice(row);
        }
        Self::from_flat(n, data)
    }

    /// Builds and validates a matrix from a row-major flat buffer.
    ///
    /// # Errors
    /// Same conditions as [`TransferMatrix::from_rows`].
    pub fn from_flat(n: usize, data: Vec<f64>) -> Result<Self, QueueingError> {
        if n == 0 || data.len() != n * n {
            return Err(QueueingError::Dimension(format!(
                "flat buffer has {} entries, expected {}",
                data.len(),
                n * n
            )));
        }
        for (idx, &v) in data.iter().enumerate() {
            if !v.is_finite() || v < 0.0 {
                return Err(QueueingError::NotStochastic(format!(
                    "entry ({}, {}) = {v}",
                    idx / n,
                    idx % n
                )));
            }
        }
        for i in 0..n {
            let sum: f64 = data[i * n..(i + 1) * n].iter().sum();
            if (sum - 1.0).abs() > ROW_SUM_TOL {
                return Err(QueueingError::NotStochastic(format!(
                    "row {i} sums to {sum}"
                )));
            }
        }
        Ok(TransferMatrix { n, data })
    }

    /// Builds a matrix by normalizing non-negative weights per row.
    ///
    /// `weights[i]` lists `(column, weight)` pairs; weights need not sum
    /// to one. Rows with zero total weight get a self-loop (`p_ii = 1`),
    /// modeling a peer that currently buys from nobody.
    ///
    /// # Errors
    /// Returns [`QueueingError::Dimension`] if a column index is out of
    /// range, or [`QueueingError::InvalidParameter`] for negative or
    /// non-finite weights.
    pub fn from_weighted_rows(
        n: usize,
        weights: &[Vec<(usize, f64)>],
    ) -> Result<Self, QueueingError> {
        if weights.len() != n || n == 0 {
            return Err(QueueingError::Dimension(format!(
                "{} weight rows for n = {n}",
                weights.len()
            )));
        }
        let mut data = vec![0.0; n * n];
        for (i, row) in weights.iter().enumerate() {
            let mut total = 0.0;
            for &(j, w) in row {
                if j >= n {
                    return Err(QueueingError::Dimension(format!(
                        "column {j} out of range in row {i}"
                    )));
                }
                if !w.is_finite() || w < 0.0 {
                    return Err(QueueingError::InvalidParameter(format!(
                        "weight ({i}, {j}) = {w}"
                    )));
                }
                total += w;
            }
            if total <= 0.0 {
                data[i * n + i] = 1.0;
            } else {
                for &(j, w) in row {
                    data[i * n + j] += w / total;
                }
            }
        }
        TransferMatrix::from_flat(n, data)
    }

    /// The uniform matrix where every peer spends equally over all `n`
    /// peers including itself (the "fully mixed" market).
    ///
    /// # Errors
    /// Returns [`QueueingError::Dimension`] if `n == 0`.
    pub fn uniform(n: usize) -> Result<Self, QueueingError> {
        if n == 0 {
            return Err(QueueingError::Dimension(
                "uniform matrix needs n > 0".into(),
            ));
        }
        TransferMatrix::from_flat(n, vec![1.0 / n as f64; n * n])
    }

    /// Matrix dimension (number of peers).
    pub fn n(&self) -> usize {
        self.n
    }

    /// The entry `p_ij`.
    ///
    /// # Panics
    /// Panics if `i` or `j` is out of range.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "index ({i}, {j}) out of range");
        self.data[i * self.n + j]
    }

    /// Row `i` as a slice.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.n, "row {i} out of range");
        &self.data[i * self.n..(i + 1) * self.n]
    }

    /// Left-multiplies: `out = x P` (the flow-update step of Eq. 1).
    ///
    /// # Panics
    /// Panics if `x.len() != n`.
    pub fn left_multiply(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n, "vector length mismatch");
        let mut out = vec![0.0; self.n];
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            let row = &self.data[i * self.n..(i + 1) * self.n];
            for (j, &p) in row.iter().enumerate() {
                out[j] += xi * p;
            }
        }
        out
    }

    /// Whether the support digraph is strongly connected (every peer's
    /// credits can eventually reach every other peer). This is the
    /// practical hypothesis under which the stationary flow of Lemma 1 is
    /// unique and strictly positive.
    pub fn is_irreducible(&self) -> bool {
        if self.n == 0 {
            return false;
        }
        self.reaches_all_forward() && self.reaches_all_backward()
    }

    fn reaches_all_forward(&self) -> bool {
        let mut seen = vec![false; self.n];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(i) = stack.pop() {
            let row = &self.data[i * self.n..(i + 1) * self.n];
            for (j, &p) in row.iter().enumerate() {
                if !seen[j] && p > 0.0 {
                    seen[j] = true;
                    count += 1;
                    stack.push(j);
                }
            }
        }
        count == self.n
    }

    fn reaches_all_backward(&self) -> bool {
        let mut seen = vec![false; self.n];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(j) = stack.pop() {
            // Column j: elements at indices j, j + n, j + 2n, …
            for (i, &p) in self.data[j..].iter().step_by(self.n).enumerate() {
                if !seen[i] && p > 0.0 {
                    seen[i] = true;
                    count += 1;
                    stack.push(i);
                }
            }
        }
        count == self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_rows_validates_shape() {
        assert!(matches!(
            TransferMatrix::from_rows(vec![]),
            Err(QueueingError::Dimension(_))
        ));
        assert!(matches!(
            TransferMatrix::from_rows(vec![vec![1.0], vec![0.5, 0.5]]),
            Err(QueueingError::Dimension(_))
        ));
    }

    #[test]
    fn from_rows_validates_stochasticity() {
        assert!(matches!(
            TransferMatrix::from_rows(vec![vec![0.5, 0.6], vec![0.5, 0.5]]),
            Err(QueueingError::NotStochastic(_))
        ));
        assert!(matches!(
            TransferMatrix::from_rows(vec![vec![1.5, -0.5], vec![0.5, 0.5]]),
            Err(QueueingError::NotStochastic(_))
        ));
        assert!(matches!(
            TransferMatrix::from_rows(vec![vec![f64::NAN, 1.0], vec![0.5, 0.5]]),
            Err(QueueingError::NotStochastic(_))
        ));
    }

    #[test]
    fn accessors() {
        let p = TransferMatrix::from_rows(vec![vec![0.25, 0.75], vec![1.0, 0.0]]).expect("valid");
        assert_eq!(p.n(), 2);
        assert_eq!(p.get(0, 1), 0.75);
        assert_eq!(p.row(1), &[1.0, 0.0]);
    }

    #[test]
    fn from_weighted_rows_normalizes() {
        let p = TransferMatrix::from_weighted_rows(
            3,
            &[
                vec![(1, 2.0), (2, 2.0)],
                vec![(0, 5.0)],
                vec![], // isolated: gets a self-loop
            ],
        )
        .expect("valid");
        assert_eq!(p.get(0, 1), 0.5);
        assert_eq!(p.get(0, 2), 0.5);
        assert_eq!(p.get(1, 0), 1.0);
        assert_eq!(p.get(2, 2), 1.0);
    }

    #[test]
    fn from_weighted_rows_accumulates_duplicate_columns() {
        let p = TransferMatrix::from_weighted_rows(2, &[vec![(1, 1.0), (1, 1.0)], vec![(0, 3.0)]])
            .expect("valid");
        assert_eq!(p.get(0, 1), 1.0);
    }

    #[test]
    fn from_weighted_rows_rejects_bad_input() {
        assert!(TransferMatrix::from_weighted_rows(2, &[vec![(5, 1.0)], vec![]]).is_err());
        assert!(TransferMatrix::from_weighted_rows(2, &[vec![(0, -1.0)], vec![]]).is_err());
        assert!(TransferMatrix::from_weighted_rows(1, &[vec![], vec![]]).is_err());
    }

    #[test]
    fn uniform_matrix() {
        let p = TransferMatrix::uniform(4).expect("valid");
        for i in 0..4 {
            for j in 0..4 {
                assert!((p.get(i, j) - 0.25).abs() < 1e-15);
            }
        }
        assert!(TransferMatrix::uniform(0).is_err());
    }

    #[test]
    fn left_multiply_preserves_mass() {
        let p = TransferMatrix::from_rows(vec![
            vec![0.0, 1.0, 0.0],
            vec![0.5, 0.0, 0.5],
            vec![0.2, 0.3, 0.5],
        ])
        .expect("valid");
        let x = [0.2, 0.3, 0.5];
        let y = p.left_multiply(&x);
        assert!((y.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // Hand-computed first coordinate: 0.3*0.5 + 0.5*0.2 = 0.25.
        assert!((y[0] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn irreducibility_detects_ring_and_split() {
        let ring = TransferMatrix::from_rows(vec![
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 1.0],
            vec![1.0, 0.0, 0.0],
        ])
        .expect("valid");
        assert!(ring.is_irreducible());
        // Two disconnected self-loops.
        let split = TransferMatrix::from_rows(vec![vec![1.0, 0.0], vec![0.0, 1.0]]).expect("valid");
        assert!(!split.is_irreducible());
        // Absorbing state: 0 -> 1 but 1 -> 1 only.
        let absorbing =
            TransferMatrix::from_rows(vec![vec![0.0, 1.0], vec![0.0, 1.0]]).expect("valid");
        assert!(!absorbing.is_irreducible());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let p = TransferMatrix::uniform(2).expect("valid");
        p.get(2, 0);
    }
}
