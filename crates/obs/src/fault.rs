//! Deterministic failpoints: named fault-injection sites threaded through
//! the risky seams of the serving stack.
//!
//! The AMPC model assumes machines and storage that fail; a serving
//! reproduction has to make every failure on its path *injectable*, or the
//! recovery code is dead code with a green test suite. This module is a
//! hand-rolled failpoint framework (no external crates — the workspace is
//! offline) compiled in unconditionally but **free when disarmed**: a
//! traversal of a disarmed site is one `Relaxed` atomic load and a
//! predictable branch, nothing else — no counter bump, no lock, no
//! allocation. Read-path code (`snapshot()`, `QueryEngine`) carries no
//! sites at all.
//!
//! # Site catalog
//!
//! [`Site`] is the catalogue: one row per site, with its stable name and
//! the seam it sits on.
//!
//! The registry lives here, in the dependency-free bottom crate, because
//! that is the one place every crate with a site can reach: the
//! `persist.*` / `snapshot.load` sites are in `ampc_query::snapshot`, the
//! `net.*` sites in `ampc-net`, the rest in `ampc-serve` (which re-exports
//! this module as `ampc_serve::fault`). It also sits beside the other
//! process-global static-site registries — counters, gauges, histograms,
//! the trace ring.
//!
//! # Semantics
//!
//! A site is armed with an action, a *skip* count and a *fire* count:
//! the first `skip` traversals pass through, the next `count` traversals
//! fire the action, then the site disarms itself. All three are packed
//! into one `AtomicU64` updated by CAS, so arming from a chaos controller
//! thread races benignly with traversals — every traversal sees exactly
//! one consistent state and the skip/fire budget is never over- or
//! under-spent.
//!
//! Actions:
//! * [`FaultAction::Error`] — the site returns [`InjectedFault`]; the
//!   caller maps it into its own typed error (`ServeError::Injected`,
//!   `SnapshotError::Io`) and takes its real failure path. This simulates
//!   a *detected* failure: an I/O error, a lost race, a failed build.
//! * [`FaultAction::Panic`] — the site panics. This simulates a *crash*:
//!   a bug in a background thread, a process kill mid-persist (the panic
//!   unwinds past cleanup code exactly like `kill -9` skips it).
//!
//! The registry is process-global (that is what lets the CLI arm a site
//! from `--fail` and have it fire deep inside a background thread), so
//! tests that arm sites must serialize among themselves — the chaos suite
//! holds one mutex across every arming test.

use std::sync::atomic::{AtomicU64, Ordering};

crate::catalog! {
    /// A named fault-injection site. The numeric value indexes the global
    /// registry; the name is the stable CLI / catalog identity, and
    /// [`Site::ALL`] in registry order is what the CLI prints as the catalog.
    pub enum Site: usize {
        RebuildPipeline => "rebuild.pipeline",
            "Pipeline build inside every explicit rebuild.",
        CompactPublish => "compact.publish", "Compaction publish: fires after the fold, before \
            anything is published or the health state is touched — the insert then publishes \
            its journal-epoch instead and the failure is recorded.",
        JournalBuild => "journal.build",
            "Journal-epoch freeze on the insert path (caller-thread code).",
        PersistPreTmp => "persist.pre-tmp", "Snapshot write, before the temp file is created.",
        PersistPreRename => "persist.pre-rename",
            "Snapshot write, after the temp file is written and fsynced, before the rename.",
        PersistPreDirSync => "persist.pre-dirsync",
            "Snapshot write, after the rename, before the parent-directory fsync.",
        SnapshotLoad => "snapshot.load", "Snapshot boot, before the file is opened.",
        NetAccept => "net.accept", "Network server accept loop, right after a connection is \
            accepted — firing drops the connection, simulating a failed accept.",
        NetRead => "net.read", "Network frame read (traversed by server workers and clients \
            alike); firing surfaces as a typed I/O error on the reader.",
        NetWrite => "net.write",
            "Network frame write; firing surfaces as a typed I/O error on the writer.",
        TestProbe => "test.probe", "Reserved for framework unit tests; no production call site, \
            so arming it can never perturb concurrently running service tests.",
    }
}

/// What an armed site does when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Return [`InjectedFault`] — a detected failure the caller converts
    /// into its typed error path.
    Error,
    /// Panic — a crash. Unwinds past cleanup code, like a killed process.
    Panic,
}

/// The typed value an [`FaultAction::Error`] site returns. Callers map it
/// into their own error enum (`ServeError::Injected`, `SnapshotError::Io`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InjectedFault {
    /// The site that fired.
    pub site: Site,
}

impl std::fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injected fault at failpoint `{}`", self.site.name())
    }
}

impl std::error::Error for InjectedFault {}

// Packed per-site arm state, one AtomicU64:
//
//   bits  0..24  skip  — traversals to pass through before firing
//   bits 24..48  count — traversals that fire, then the site disarms
//   bits 48..50  action — 0 disarmed (whole word 0), 1 Error, 2 Panic
//
// The packing keeps arm/traverse lock-free: a traversal CAS-decrements
// skip or count and acts on the value it won with, so concurrent
// traversals split the budget exactly.
const SKIP_SHIFT: u32 = 0;
const COUNT_SHIFT: u32 = 24;
const ACTION_SHIFT: u32 = 48;
const FIELD_MASK: u64 = (1 << 24) - 1;

/// Largest value accepted for `skip` and `count` (24-bit fields).
pub const MAX_ARM_FIELD: u64 = FIELD_MASK;

fn pack(action: FaultAction, skip: u64, count: u64) -> u64 {
    let a = match action {
        FaultAction::Error => 1u64,
        FaultAction::Panic => 2u64,
    };
    debug_assert!(skip <= FIELD_MASK && count <= FIELD_MASK);
    (a << ACTION_SHIFT)
        | ((count & FIELD_MASK) << COUNT_SHIFT)
        | ((skip & FIELD_MASK) << SKIP_SHIFT)
}

struct SiteState {
    armed: AtomicU64,
    /// Traversals that consulted an *armed* site (disarmed traversals are
    /// deliberately uncounted — that is the zero-cost contract).
    armed_hits: AtomicU64,
    /// Times the site actually fired (either action).
    fired: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const SITE_INIT: SiteState =
    SiteState { armed: AtomicU64::new(0), armed_hits: AtomicU64::new(0), fired: AtomicU64::new(0) };

static REGISTRY: [SiteState; Site::COUNT] = [SITE_INIT; Site::COUNT];

/// The traversal every call site runs. Disarmed cost: one `Relaxed` load.
///
/// # Panics
/// Panics iff the site is armed with [`FaultAction::Panic`] and this
/// traversal consumed one of its fires.
#[inline]
pub fn check(site: Site) -> Result<(), InjectedFault> {
    let state = &REGISTRY[site as usize];
    if state.armed.load(Ordering::Relaxed) == 0 {
        return Ok(());
    }
    check_armed(site, state)
}

#[cold]
fn check_armed(site: Site, state: &SiteState) -> Result<(), InjectedFault> {
    state.armed_hits.fetch_add(1, Ordering::Relaxed);
    let mut fire_action: Option<FaultAction> = None;
    // CAS loop: consume one unit of skip or count from whatever state the
    // site is in *now* (a controller may re-arm or disarm concurrently).
    let update = state.armed.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
        fire_action = None;
        if cur == 0 {
            return None; // disarmed under us — pass through
        }
        let skip = (cur >> SKIP_SHIFT) & FIELD_MASK;
        let count = (cur >> COUNT_SHIFT) & FIELD_MASK;
        if skip > 0 {
            return Some(cur - (1 << SKIP_SHIFT));
        }
        if count == 0 {
            return Some(0); // exhausted — self-disarm
        }
        fire_action =
            Some(if (cur >> ACTION_SHIFT) == 2 { FaultAction::Panic } else { FaultAction::Error });
        // Last fire clears the whole word (self-disarm), keeping the
        // "disarmed == 0" fast-path invariant.
        let next = cur - (1 << COUNT_SHIFT);
        Some(if (next >> COUNT_SHIFT) & FIELD_MASK == 0 { 0 } else { next })
    });
    if update.is_err() {
        return Ok(());
    }
    match fire_action {
        None => Ok(()),
        Some(action) => {
            state.fired.fetch_add(1, Ordering::Relaxed);
            match action {
                FaultAction::Error => Err(InjectedFault { site }),
                FaultAction::Panic => {
                    panic!("failpoint `{}` fired (injected panic)", site.name())
                }
            }
        }
    }
}

/// Arms `site`: the next `skip` traversals pass, the following `count`
/// traversals fire `action`, then the site disarms itself. Replaces any
/// previous arming. `skip`/`count` are clamped to [`MAX_ARM_FIELD`];
/// `count == 0` disarms.
pub fn arm(site: Site, action: FaultAction, skip: u64, count: u64) {
    let word =
        if count == 0 { 0 } else { pack(action, skip.min(FIELD_MASK), count.min(FIELD_MASK)) };
    REGISTRY[site as usize].armed.store(word, Ordering::Relaxed);
}

/// Disarms one site (its counters are kept; see [`reset_counters`]).
pub fn disarm(site: Site) {
    REGISTRY[site as usize].armed.store(0, Ordering::Relaxed);
}

/// Disarms every site.
pub fn disarm_all() {
    for s in Site::ALL {
        disarm(s);
    }
}

/// Traversals that consulted `site` while it was armed.
pub fn armed_hits(site: Site) -> u64 {
    REGISTRY[site as usize].armed_hits.load(Ordering::Relaxed)
}

/// Times `site` actually fired (either action) since the last
/// [`reset_counters`].
pub fn fired(site: Site) -> u64 {
    REGISTRY[site as usize].fired.load(Ordering::Relaxed)
}

/// Zeroes every site's counters (does not disarm).
pub fn reset_counters() {
    for s in Site::ALL {
        REGISTRY[s as usize].armed_hits.store(0, Ordering::Relaxed);
        REGISTRY[s as usize].fired.store(0, Ordering::Relaxed);
    }
}

/// Parses and arms one `--fail` spec: `SITE[:K][:panic]` — fire at the
/// `K`-th traversal (default 1), once; `panic` selects
/// [`FaultAction::Panic`] instead of the default error action. Returns
/// the armed site.
///
/// ```text
/// --fail journal.build            error on the next journal freeze
/// --fail rebuild.pipeline:3       error on the 3rd rebuild build
/// --fail persist.pre-rename:1:panic   crash mid-persist, tmp left behind
/// ```
pub fn arm_spec(spec: &str) -> Result<Site, String> {
    let mut parts = spec.split(':');
    let name = parts.next().unwrap_or("");
    let site = Site::from_name(name).ok_or_else(|| {
        format!("unknown failpoint `{name}` (sites: {})", Site::ALL.map(Site::name).join(", "))
    })?;
    let mut k = 1u64;
    let mut action = FaultAction::Error;
    for part in parts {
        if part == "panic" {
            action = FaultAction::Panic;
        } else {
            k = part
                .parse::<u64>()
                .ok()
                .filter(|k| (1..=MAX_ARM_FIELD).contains(k))
                .ok_or_else(|| format!("bad hit index `{part}` in failpoint spec `{spec}`"))?;
        }
    }
    arm(site, action, k - 1, 1);
    Ok(site)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Barrier, Mutex, MutexGuard};

    /// The registry is process-global and `cargo test` runs these tests on
    /// parallel threads: every test that arms `test.probe` holds this.
    fn probe() -> MutexGuard<'static, ()> {
        static PROBE: Mutex<()> = Mutex::new(());
        PROBE.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// All framework semantics in one sequential test: the registry is
    /// process-global, and only `test.probe` (no production call site) is
    /// armed, so concurrently running service tests are never perturbed.
    #[test]
    fn arm_skip_count_fire_and_disarm_semantics() {
        let _probe = probe();
        let s = Site::TestProbe;
        reset_counters();
        assert_eq!(check(s), Ok(()), "disarmed site must pass");
        assert_eq!(armed_hits(s), 0, "disarmed traversals are uncounted");

        // skip 2, fire 2, then self-disarm.
        arm(s, FaultAction::Error, 2, 2);
        assert_eq!(check(s), Ok(()));
        assert_eq!(check(s), Ok(()));
        assert_eq!(check(s), Err(InjectedFault { site: s }));
        assert_eq!(check(s), Err(InjectedFault { site: s }));
        assert_eq!(check(s), Ok(()), "budget spent — site must self-disarm");
        assert_eq!(fired(s), 2);
        assert_eq!(armed_hits(s), 4, "the post-disarm traversal is uncounted");

        // Re-arm replaces, disarm clears.
        arm(s, FaultAction::Error, 0, 5);
        disarm(s);
        assert_eq!(check(s), Ok(()));

        // Panic action panics and counts as fired.
        arm(s, FaultAction::Panic, 0, 1);
        let r = std::panic::catch_unwind(|| check(s));
        assert!(r.is_err(), "panic action must panic");
        assert_eq!(fired(s), 3);
        assert_eq!(check(s), Ok(()), "one-shot panic disarmed itself");

        // count == 0 means disarm.
        arm(s, FaultAction::Error, 3, 0);
        assert_eq!(check(s), Ok(()));

        reset_counters();
        assert_eq!((fired(s), armed_hits(s)), (0, 0));
    }

    #[test]
    fn concurrent_traversals_split_the_budget_exactly() {
        let _probe = probe();
        let s = Site::TestProbe;
        reset_counters();
        arm(s, FaultAction::Error, 3, 5);
        let start = Barrier::new(8);
        let errors: usize = std::thread::scope(|scope| {
            let traversers: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        (0..1_000).filter(|_| check(s).is_err()).count()
                    })
                })
                .collect();
            traversers.into_iter().map(|t| t.join().expect("traverser thread")).sum()
        });
        assert_eq!(errors, 5, "8 000 traversals of (skip 3, count 5) fire exactly 5 times");
        assert_eq!(fired(s), 5);
        // 3 skips + 5 fires spend the budget; a traversal that saw the site
        // armed but lost the race to the self-disarm is counted as well.
        let hits = armed_hits(s);
        assert!(hits >= 8, "armed_hits = {hits}");
        assert_eq!(check(s), Ok(()), "budget spent: the site disarmed itself");
        assert_eq!(armed_hits(s), hits, "a disarmed traversal is uncounted");
        reset_counters();
    }

    #[test]
    fn arm_spec_grammar() {
        let _probe = probe();
        // Valid specs arm test.probe only (then immediately disarm).
        assert_eq!(arm_spec("test.probe"), Ok(Site::TestProbe));
        disarm(Site::TestProbe);
        assert_eq!(arm_spec("test.probe:7"), Ok(Site::TestProbe));
        disarm(Site::TestProbe);
        assert_eq!(arm_spec("test.probe:2:panic"), Ok(Site::TestProbe));
        disarm(Site::TestProbe);

        assert!(arm_spec("bogus.site").unwrap_err().contains("unknown failpoint"));
        assert!(arm_spec("test.probe:0").unwrap_err().contains("bad hit index"));
        assert!(arm_spec("test.probe:x").unwrap_err().contains("bad hit index"));
    }
}
