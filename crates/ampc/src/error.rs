//! Error types for the AMPC runtime.

use std::fmt;

use crate::limits::LimitViolation;

/// Errors surfaced by the AMPC executor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AmpcError {
    /// A machine exceeded the enforced per-round local-space budget. The
    /// violation names the round, the side and the worst machine's count.
    LimitExceeded(LimitViolation),
    /// A loop that shrinks its input every pass ran out of passes: `phase`
    /// names the loop. The bound sits far above what the analysis allows,
    /// so reaching it means an input the pipeline cannot finish.
    NoConvergence {
        /// The loop that gave up.
        phase: &'static str,
    },
}

impl fmt::Display for AmpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AmpcError::LimitExceeded(v) => write!(
                f,
                "AMPC local-space limit exceeded in round {} ({}): a machine used {} {} of budget {}",
                v.round, v.round_name, v.used, v.kind, v.budget
            ),
            AmpcError::NoConvergence { phase } => write!(f, "{phase} failed to converge"),
        }
    }
}

impl std::error::Error for AmpcError {}

/// Result alias for executor operations.
pub type AmpcResult<T> = Result<T, AmpcError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_convergence_names_its_phase() {
        let e = AmpcError::NoConvergence { phase: "Standard-Cycle-CC" };
        assert_eq!(e.to_string(), "Standard-Cycle-CC failed to converge");
        let e = AmpcError::NoConvergence { phase: "the Theorem 4.1 loop" };
        assert_eq!(e.to_string(), "the Theorem 4.1 loop failed to converge");
    }
}
