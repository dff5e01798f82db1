//! Local-space budgets and their breaches.
//!
//! The defining restriction of AMPC is that each machine may read and write
//! at most `S` words per round, with `S = n^δ` sublinear. [`Budget`] derives
//! `S` (and holds the total space `T`). A budget is read off the meters the
//! executor keeps anyway, each round's worst machine on each side:
//! [`crate::RunStats::over_budget`] audits any finished run against `S`,
//! and [`crate::AmpcConfig::budget`] enforces `S` on the same two maxima,
//! failing the round that breaches it with
//! [`crate::AmpcError::LimitExceeded`] — used by the test suite to certify
//! that the paper's algorithms really fit in `n^δ` local space.

use std::fmt;

/// The space budgets of one run: `S` words per machine per round and `T`
/// words in total.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// `S`: the local space of a machine, from [`Budget::local_space`].
    pub s: usize,
    /// `T`: the total space of the run.
    pub t: usize,
}

impl Budget {
    /// The local space `S = ⌈size^δ⌉` of an input of `size` words, at least
    /// 64 so toy inputs remain runnable. Every pipeline takes `S` from here.
    pub fn local_space(size: usize, delta: f64) -> usize {
        ((size as f64).powf(delta).ceil() as usize).max(64)
    }

    /// `⌊√S⌋`, at least 2: the cap on ShrinkGeneral's exploration budget
    /// `t` (Algorithm 2 line 9 and the Theorem 4.1 loop).
    pub fn sqrt_s(&self) -> usize {
        (self.s as f64).sqrt().floor().max(2.0) as usize
    }
}

/// Which budget a violation breached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LimitKind {
    /// Read-side (query) budget.
    Reads,
    /// Write-side budget.
    Writes,
}

impl fmt::Display for LimitKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LimitKind::Reads => write!(f, "read words"),
            LimitKind::Writes => write!(f, "write words"),
        }
    }
}

/// A round whose worst machine breached the budget on one side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LimitViolation {
    /// Zero-based round index.
    pub round: usize,
    /// Human-readable round label (a literal at every call site).
    pub round_name: &'static str,
    /// Words the round's worst machine used on this side.
    pub used: usize,
    /// The configured budget.
    pub budget: usize,
    /// Which side was breached.
    pub kind: LimitKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_space_matches_power() {
        assert_eq!(Budget::local_space(1 << 20, 0.5), 1 << 10);
    }

    #[test]
    fn local_space_has_floor() {
        assert_eq!(Budget::local_space(10, 0.3), 64);
    }

    #[test]
    fn sqrt_s_floors_and_has_floor() {
        let sqrt_s = |s| Budget { s, t: 0 }.sqrt_s();
        assert_eq!(sqrt_s(64), 8);
        assert_eq!(sqrt_s(2_039), 45);
        assert_eq!(sqrt_s(3), 2);
    }

    #[test]
    fn violation_display_is_informative() {
        let v = LimitViolation {
            round: 3,
            round_name: "probe",
            used: 999,
            budget: 500,
            kind: LimitKind::Reads,
        };
        let msg = crate::AmpcError::LimitExceeded(v).to_string();
        assert!(msg.contains("round 3"));
        assert!(msg.contains("probe"));
        assert!(msg.contains("999"));
        assert!(msg.contains("500"));
        assert!(msg.contains("read words"));
        assert_eq!(LimitKind::Writes.to_string(), "write words");
    }
}
