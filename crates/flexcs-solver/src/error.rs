//! Error types for sparse-recovery solvers.

use std::error::Error;
use std::fmt;

/// Error produced by the recovery solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum SolverError {
    /// Measurement vector length disagreed with the operator.
    DimensionMismatch {
        /// Expected measurement count (operator rows).
        expected: usize,
        /// Provided measurement count.
        got: usize,
    },
    /// A measurement was NaN or infinite. Every solver rejects such a
    /// `b` on entry: a non-finite residual poisons each iterate, so no
    /// result could be certified.
    NonFiniteMeasurement {
        /// Position of the first non-finite value in `b`.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// A solver parameter was outside its valid domain.
    InvalidParameter(String),
    /// The iteration diverged or produced non-finite values.
    Diverged {
        /// Iteration at which divergence was detected.
        iteration: usize,
    },
    /// An inner linear-algebra operation failed.
    Linalg(flexcs_linalg::LinalgError),
}

impl fmt::Display for SolverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverError::DimensionMismatch { expected, got } => {
                write!(
                    f,
                    "measurement length {got} does not match operator rows {expected}"
                )
            }
            SolverError::NonFiniteMeasurement { index, value } => {
                write!(f, "measurement {index} is not finite ({value})")
            }
            SolverError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            SolverError::Diverged { iteration } => {
                write!(f, "solver diverged at iteration {iteration}")
            }
            SolverError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
        }
    }
}

impl Error for SolverError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SolverError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<flexcs_linalg::LinalgError> for SolverError {
    fn from(e: flexcs_linalg::LinalgError) -> Self {
        SolverError::Linalg(e)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, SolverError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = SolverError::DimensionMismatch {
            expected: 10,
            got: 5,
        };
        assert!(e.to_string().contains("10"));
        let inner = flexcs_linalg::LinalgError::Singular { pivot: 0 };
        let e = SolverError::from(inner);
        assert!(Error::source(&e).is_some());
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SolverError>();
    }
}
