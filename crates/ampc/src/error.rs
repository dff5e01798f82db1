//! Error types for the AMPC runtime.

use std::fmt;

use crate::limits::LimitViolation;

/// Errors surfaced by the AMPC executor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AmpcError {
    /// A machine exceeded the enforced per-round local-space budget. The
    /// violation names the round, the side and the worst machine's count.
    LimitExceeded(LimitViolation),
}

impl fmt::Display for AmpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AmpcError::LimitExceeded(v) => write!(
                f,
                "AMPC local-space limit exceeded in round {} ({}): a machine used {} {} of budget {}",
                v.round, v.round_name, v.used, v.kind, v.budget
            ),
        }
    }
}

impl std::error::Error for AmpcError {}

/// Result alias for executor operations.
pub type AmpcResult<T> = Result<T, AmpcError>;
