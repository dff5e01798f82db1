//! Round and run accounting.
//!
//! The paper's cost model is: number of **rounds**, number of **queries**
//! (adaptive DHT reads), and **total space** per round (live DHT words plus
//! the round's communication). [`RoundStats`] captures one round;
//! [`RunStats`] aggregates a full algorithm execution, including costs
//! *charged* for cited O(1)-round host-side primitives (`Contract`,
//! `Compose`) that run natively but must still pay their published price.
//! The per-round worst-machine maxima are the budget meter:
//! [`RunStats::over_budget`] audits a finished run against any `S`.

use crate::limits::{LimitKind, LimitViolation};

/// Metered costs of a single executed AMPC round.
#[derive(Debug, Clone)]
pub struct RoundStats {
    /// Human-readable label supplied by the algorithm (a literal at every
    /// call site).
    pub name: &'static str,
    /// Zero-based round index within the run.
    pub index: usize,
    /// Number of DHT read operations ("queries" in the paper's terminology),
    /// hit or miss; each moves one word.
    pub reads: usize,
    /// Number of write/merge/delete operations; each moves one word.
    pub writes: usize,
    /// Most reads, i.e. words read, by any single machine this round.
    pub max_machine_read_words: usize,
    /// Most write ops, i.e. words written, by any single machine this round.
    pub max_machine_write_words: usize,
    /// Entries, i.e. words, in the read-only snapshot at the start of the
    /// round.
    pub snapshot_entries: usize,
    /// Total space consumed by this round: the stored snapshot plus the
    /// round's communication, `snapshot_entries + reads + writes`. The
    /// paper: "the total space usage is determined by the maximum amount
    /// of communication that happens in any round".
    pub total_space_words: usize,
    /// Shuffle-cost model: bytes a real AMPC deployment would move over
    /// the network at this round's barrier — every write op ships its
    /// 8-byte packed key plus its one-word value to the machine owning the
    /// key, i.e. `16 · writes`. Deterministic (a pure function of the op
    /// stream, independent of backend and thread count).
    pub bytes_shuffled: usize,
}

impl RoundStats {
    /// The sides, reads first, on which this round's worst machine used
    /// more than `s` words.
    pub(crate) fn over_budget(&self, s: usize) -> impl Iterator<Item = LimitViolation> + '_ {
        [
            (LimitKind::Reads, self.max_machine_read_words),
            (LimitKind::Writes, self.max_machine_write_words),
        ]
        .into_iter()
        .filter(move |&(_, used)| used > s)
        .map(move |(kind, used)| LimitViolation {
            round: self.index,
            round_name: self.name,
            used,
            budget: s,
            kind,
        })
    }
}

/// Aggregated costs of an algorithm run.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    rounds: Vec<RoundStats>,
    charged_rounds: usize,
    charged_queries: usize,
    charged_space_peak: usize,
}

impl RunStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn push_round(&mut self, r: RoundStats) {
        self.rounds.push(r);
    }

    /// Records the published cost of a host-side primitive: `rounds` AMPC
    /// rounds, `queries` DHT reads, and a round space footprint of
    /// `space_words`. Used for cited O(1)-round building blocks that the
    /// simulator executes natively (see DESIGN.md, "Charging model").
    pub fn charge_external(&mut self, rounds: usize, queries: usize, space_words: usize) {
        self.charged_rounds += rounds;
        self.charged_queries += queries;
        self.charged_space_peak = self.charged_space_peak.max(space_words);
    }

    /// Total rounds: executed plus externally charged.
    pub fn rounds(&self) -> usize {
        self.rounds.len() + self.charged_rounds
    }

    /// Rounds actually executed through the DHT interface.
    pub fn executed_rounds(&self) -> usize {
        self.rounds.len()
    }

    /// Rounds charged on behalf of host-side primitives.
    pub fn charged_rounds(&self) -> usize {
        self.charged_rounds
    }

    /// Total queries: executed DHT reads plus externally charged reads.
    pub fn total_queries(&self) -> usize {
        self.rounds.iter().map(|r| r.reads).sum::<usize>() + self.charged_queries
    }

    /// Total words written across all executed rounds: one per write op.
    pub fn total_write_words(&self) -> usize {
        self.rounds.iter().map(|r| r.writes).sum()
    }

    /// Total modeled shuffle traffic across all executed rounds: what a
    /// real deployment would pay in network bytes to route every round's
    /// write ops to their owning machines.
    pub fn total_bytes_shuffled(&self) -> usize {
        self.rounds.iter().map(|r| r.bytes_shuffled).sum()
    }

    /// Maximum per-round total space over the run (executed and charged).
    pub fn peak_total_space(&self) -> usize {
        self.rounds
            .iter()
            .map(|r| r.total_space_words)
            .max()
            .unwrap_or(0)
            .max(self.charged_space_peak)
    }

    /// Largest single-machine read volume in any round.
    pub fn peak_machine_read_words(&self) -> usize {
        self.rounds.iter().map(|r| r.max_machine_read_words).max().unwrap_or(0)
    }

    /// Per-round detail.
    pub fn per_round(&self) -> &[RoundStats] {
        &self.rounds
    }

    /// The audit of this run against a local-space budget `s`: one
    /// violation per executed round and side whose worst machine used more
    /// than `s` words, in round order, reads before writes.
    pub fn over_budget(&self, s: usize) -> Vec<LimitViolation> {
        self.rounds.iter().flat_map(|r| r.over_budget(s)).collect()
    }

    /// Renders a per-round cost table (markdown-ish, fixed-width) for
    /// reports and debugging.
    pub fn round_table(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:>4}  {:<22} {:>12} {:>12} {:>12} {:>14} {:>14}",
            "#", "round", "reads", "writes", "snapshot", "total space", "shuffle bytes"
        );
        for r in &self.rounds {
            let _ = writeln!(
                s,
                "{:>4}  {:<22} {:>12} {:>12} {:>12} {:>14} {:>14}",
                r.index,
                r.name,
                r.reads,
                r.writes,
                r.snapshot_entries,
                r.total_space_words,
                r.bytes_shuffled
            );
        }
        if self.charged_rounds > 0 {
            let _ = writeln!(
                s,
                "   +  {:<22} {:>12} {:>12} {:>12} {:>14} {:>14}",
                format!("(charged x{})", self.charged_rounds),
                self.charged_queries,
                "-",
                "-",
                self.charged_space_peak,
                "-"
            );
        }
        s
    }

    /// Folds another run's statistics into this one (used when an algorithm
    /// invokes a sub-algorithm that ran its own [`crate::AmpcSystem`]). The
    /// absorbed rounds are renumbered to follow this run's.
    pub fn absorb(&mut self, other: &RunStats) {
        let base = self.rounds.len();
        for (i, r) in other.rounds.iter().enumerate() {
            self.rounds.push(RoundStats { index: base + i, ..r.clone() });
        }
        self.charged_rounds += other.charged_rounds;
        self.charged_queries += other.charged_queries;
        self.charged_space_peak = self.charged_space_peak.max(other.charged_space_peak);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(reads: usize, space: usize) -> RoundStats {
        RoundStats {
            name: "t",
            index: 0,
            reads,
            writes: 0,
            max_machine_read_words: reads,
            max_machine_write_words: 0,
            snapshot_entries: space,
            total_space_words: space,
            bytes_shuffled: 0,
        }
    }

    #[test]
    fn bytes_shuffled_sums_across_rounds() {
        let mut s = RunStats::new();
        let mut a = round(1, 1);
        a.bytes_shuffled = 100;
        let mut b = round(2, 2);
        b.bytes_shuffled = 250;
        s.push_round(a);
        s.push_round(b);
        assert_eq!(s.total_bytes_shuffled(), 350);
    }

    #[test]
    fn totals_accumulate() {
        let mut s = RunStats::new();
        s.push_round(round(10, 100));
        s.push_round(round(5, 300));
        assert_eq!(s.rounds(), 2);
        assert_eq!(s.total_queries(), 15);
        assert_eq!(s.peak_total_space(), 300);
    }

    #[test]
    fn external_charges_count() {
        let mut s = RunStats::new();
        s.push_round(round(10, 100));
        s.charge_external(2, 50, 500);
        assert_eq!(s.rounds(), 3);
        assert_eq!(s.executed_rounds(), 1);
        assert_eq!(s.total_queries(), 60);
        assert_eq!(s.peak_total_space(), 500);
    }

    #[test]
    fn round_table_lists_rounds_and_charges() {
        let mut s = RunStats::new();
        s.push_round(round(10, 100));
        s.charge_external(2, 50, 500);
        let table = s.round_table();
        assert!(table.contains("t")); // round name
        assert!(table.contains("(charged x2)"));
        assert!(table.contains("500"));
    }

    #[test]
    fn absorb_reindexes_rounds() {
        let mut a = RunStats::new();
        a.push_round(round(1, 1));
        let mut b = RunStats::new();
        b.push_round(round(2, 2));
        let mut breached = round(9, 9);
        breached.index = 1;
        b.push_round(breached);
        b.charge_external(1, 3, 4);
        a.absorb(&b);
        assert_eq!(a.rounds(), 4);
        assert_eq!(a.per_round()[1].index, 1);
        assert_eq!(a.per_round()[2].index, 2);
        assert_eq!(a.total_queries(), 15);
        // A violation names the round it now sits in, not its sub-run index.
        let rounds: Vec<usize> = a.over_budget(8).iter().map(|v| v.round).collect();
        assert_eq!(rounds, [2]);
    }

    #[test]
    fn over_budget_reads_each_side_off_the_worst_machine() {
        const BUDGET: usize = 4;
        let mut s = RunStats::new();
        let mut r = round(40, 0);
        r.index = 7;
        r.name = "probe";
        (r.max_machine_read_words, r.max_machine_write_words) = (BUDGET, BUDGET);
        s.push_round(r.clone());
        // `S` reads and `S` writes: each side is at the budget, not over.
        assert!(s.over_budget(BUDGET).is_empty());

        let side = |reads: usize, writes: usize| {
            let mut s = RunStats::new();
            s.push_round(RoundStats {
                max_machine_read_words: reads,
                max_machine_write_words: writes,
                ..r.clone()
            });
            s.over_budget(BUDGET).iter().map(|v| (v.kind, v.used)).collect::<Vec<_>>()
        };
        assert_eq!(side(BUDGET + 1, BUDGET), [(LimitKind::Reads, BUDGET + 1)]);
        assert_eq!(side(BUDGET, 3 * BUDGET), [(LimitKind::Writes, 3 * BUDGET)]);
        // Over on both sides: one record per side, reads first.
        assert_eq!(side(9, 6), [(LimitKind::Reads, 9), (LimitKind::Writes, 6)]);

        // A violation names its round and the budget it was held to.
        s.push_round(RoundStats { index: 8, max_machine_read_words: 31, ..r.clone() });
        let v = &s.over_budget(BUDGET)[0];
        assert_eq!((v.round, v.round_name, v.used, v.budget), (8, "probe", 31, BUDGET));
    }
}
