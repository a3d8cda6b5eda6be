use std::fmt;

/// Errors produced by shape checks and numerical validations.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LinalgError {
    /// Two operands had incompatible dimensions.
    DimensionMismatch {
        /// Human-readable name of the operation that failed.
        op: &'static str,
        /// Dimension expected by the left/receiving operand.
        expected: usize,
        /// Dimension actually provided.
        actual: usize,
    },
    /// A matrix expected to be row-stochastic failed validation.
    NotStochastic {
        /// Row whose sum deviated (or contained a negative entry).
        row: usize,
        /// The offending row sum.
        sum: f64,
    },
    /// A vector expected to be a probability distribution failed validation.
    NotDistribution {
        /// Sum of the vector entries.
        sum: f64,
    },
    /// An entry was negative where only non-negative values are meaningful.
    NegativeEntry {
        /// Flat index of the offending entry.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// An iterative routine failed to converge within its iteration budget.
    NoConvergence {
        /// Routine that failed.
        op: &'static str,
        /// Iterations consumed.
        iterations: usize,
    },
    /// An operation required a non-empty operand.
    Empty {
        /// Operation that received the empty operand.
        op: &'static str,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::DimensionMismatch {
                op,
                expected,
                actual,
            } => {
                write!(
                    f,
                    "{op}: dimension mismatch (expected {expected}, got {actual})"
                )
            }
            LinalgError::NotStochastic { row, sum } => {
                write!(f, "matrix is not row-stochastic: row {row} sums to {sum}")
            }
            LinalgError::NotDistribution { sum } => {
                write!(f, "vector is not a probability distribution: sums to {sum}")
            }
            LinalgError::NegativeEntry { index, value } => {
                write!(f, "negative entry {value} at flat index {index}")
            }
            LinalgError::NoConvergence { op, iterations } => {
                write!(f, "{op}: no convergence after {iterations} iterations")
            }
            LinalgError::Empty { op } => write!(f, "{op}: empty operand"),
        }
    }
}

impl std::error::Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = LinalgError::DimensionMismatch {
            op: "matvec",
            expected: 3,
            actual: 4,
        };
        let s = e.to_string();
        assert!(s.contains("matvec") && s.contains('3') && s.contains('4'));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_e: &dyn std::error::Error) {}
        takes_err(&LinalgError::Empty { op: "sum" });
    }
}
