//! Error type for the flexcs core pipeline.

use std::error::Error;
use std::fmt;

/// Error produced by the robust-sensing pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A configuration value was out of range.
    InvalidConfig(String),
    /// Not enough usable pixels remained to take the requested samples.
    InsufficientSamples {
        /// Samples requested.
        requested: usize,
        /// Usable pixels available.
        available: usize,
    },
    /// A measurement was NaN or infinite, so no decode can be certified.
    NonFiniteSample {
        /// Position of the first non-finite value in the measurements.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// A transform failure (shape mismatches and the like).
    Transform(flexcs_transform::TransformError),
    /// A recovery-solver failure.
    Solver(flexcs_solver::SolverError),
    /// A linear-algebra failure (RPCA internals).
    Linalg(flexcs_linalg::LinalgError),
    /// A circuit-model failure (hardware-in-the-loop encoder).
    Circuit(flexcs_circuit::CircuitError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            CoreError::InsufficientSamples {
                requested,
                available,
            } => write!(
                f,
                "requested {requested} samples but only {available} usable pixels remain"
            ),
            CoreError::NonFiniteSample { index, value } => {
                write!(f, "measurement {index} is not finite ({value})")
            }
            CoreError::Transform(e) => write!(f, "transform failure: {e}"),
            CoreError::Solver(e) => write!(f, "solver failure: {e}"),
            CoreError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
            CoreError::Circuit(e) => write!(f, "circuit failure: {e}"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Transform(e) => Some(e),
            CoreError::Solver(e) => Some(e),
            CoreError::Linalg(e) => Some(e),
            CoreError::Circuit(e) => Some(e),
            _ => None,
        }
    }
}

impl From<flexcs_transform::TransformError> for CoreError {
    fn from(e: flexcs_transform::TransformError) -> Self {
        CoreError::Transform(e)
    }
}

impl From<flexcs_solver::SolverError> for CoreError {
    /// Wraps a solver failure, except that a non-finite measurement
    /// becomes [`CoreError::NonFiniteSample`], the same error the
    /// decoder raises for it, whichever layer notices first.
    fn from(e: flexcs_solver::SolverError) -> Self {
        match e {
            flexcs_solver::SolverError::NonFiniteMeasurement { index, value } => {
                CoreError::NonFiniteSample { index, value }
            }
            e => CoreError::Solver(e),
        }
    }
}

impl From<flexcs_linalg::LinalgError> for CoreError {
    fn from(e: flexcs_linalg::LinalgError) -> Self {
        CoreError::Linalg(e)
    }
}

impl From<flexcs_circuit::CircuitError> for CoreError {
    fn from(e: flexcs_circuit::CircuitError) -> Self {
        CoreError::Circuit(e)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, CoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_sources() {
        let e = CoreError::InsufficientSamples {
            requested: 100,
            available: 10,
        };
        assert!(e.to_string().contains("100"));
        let e: CoreError = flexcs_solver::SolverError::Diverged { iteration: 3 }.into();
        assert!(Error::source(&e).is_some());
        let e: CoreError = flexcs_solver::SolverError::NonFiniteMeasurement {
            index: 4,
            value: f64::INFINITY,
        }
        .into();
        assert_eq!(
            e,
            CoreError::NonFiniteSample {
                index: 4,
                value: f64::INFINITY
            }
        );
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }
}
