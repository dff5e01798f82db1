//! Benchmark-side spans: recorded in memory around every call into a crate
//! during traced repetitions, written once when the run ends. Spans inside
//! the program are a later change; these see each layer from outside.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One interval. `parent` indexes the recorder's span list.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub rep: u32,
}

/// A span recorder owned by one thread; recorders of several threads are
/// merged after they are joined. Does nothing until switched on, so the same
/// code runs traced and untraced.
pub struct Spans {
    origin: Instant,
    on: bool,
    rep: u32,
    open: Vec<usize>,
    spans: Vec<Span>,
}

/// Handle of an open span; `None` while the recorder is off.
#[derive(Clone, Copy)]
pub struct Open(Option<usize>);

impl Spans {
    /// A recorder whose clock starts at `origin` (shared by the threads of a
    /// run, so their spans line up).
    pub fn new(origin: Instant) -> Self {
        Spans { origin, on: false, rep: 0, open: Vec::new(), spans: Vec::new() }
    }

    /// Switches recording on or off for repetition `rep`.
    pub fn set(&mut self, on: bool, rep: u32) {
        self.on = on;
        self.rep = rep;
    }

    /// Pauses or resumes recording within a repetition.
    pub fn switch(&mut self, on: bool) {
        self.on = on;
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// An empty recorder for another thread of the same repetition: same
    /// clock, same switch.
    pub fn fork(&self) -> Spans {
        Spans {
            origin: self.origin,
            on: self.on,
            rep: self.rep,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let now = self.now();
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start_ns: now, end_ns: now, parent, rep: self.rep });
        self.open.push(id);
        Open(Some(id))
    }

    /// Closes `span`, which must be the innermost open one; returns its
    /// duration in nanoseconds (0 while off).
    pub fn exit(&mut self, span: Open) -> u64 {
        let Some(id) = span.0 else { return 0 };
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now();
        self.spans[id].end_ns - self.spans[id].start_ns
    }

    /// Adds a child of `under` (open or closed) whose duration the program
    /// reports (`pipeline_ms`, a histogram delta) instead of the benchmark
    /// observing its ends. It is laid out from `offset_ns` after the
    /// parent's start.
    pub fn reported_under(
        &mut self,
        under: Open,
        name: &'static str,
        offset_ns: u64,
        duration_ns: u64,
    ) -> Open {
        let Some(parent) = under.0 else { return Open(None) };
        let start_ns = self.spans[parent].start_ns + offset_ns;
        let (end_ns, rep) = (start_ns + duration_ns, self.spans[parent].rep);
        self.spans.push(Span { name, start_ns, end_ns, parent: Some(parent), rep });
        Open(Some(self.spans.len() - 1))
    }

    /// Appends another thread's spans, keeping their parent links.
    pub fn merge(&mut self, other: Spans) {
        let base = self.spans.len();
        self.spans.extend(
            other.spans.into_iter().map(|s| Span { parent: s.parent.map(|p| p + base), ..s }),
        );
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Durations in nanoseconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Durations of every span called `name` directly under one called `parent`.
    pub fn child_durations(&self, parent: &str, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.parent.is_some_and(|p| self.spans[p].name == parent))
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// The repetition whose spans called `name` have the smallest median: the
    /// traced counterpart of a quiet value.
    pub fn quietest_rep(&self, name: &str) -> Option<u32> {
        let mut by_rep: std::collections::BTreeMap<u32, Vec<f64>> = Default::default();
        for s in self.spans.iter().filter(|s| s.name == name) {
            by_rep.entry(s.rep).or_default().push((s.end_ns - s.start_ns) as f64);
        }
        by_rep
            .into_iter()
            .map(|(rep, d)| (crate::stats::median(&d), rep))
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .map(|(_, rep)| rep)
    }

    /// The spans of one repetition, parents kept.
    pub fn of_rep(&self, rep: u32) -> Spans {
        let mut out = Spans::new(self.origin);
        let mut moved = vec![None; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate().filter(|(_, s)| s.rep == rep) {
            moved[i] = Some(out.spans.len());
            // A parent is recorded before its children, so it has moved already.
            out.spans.push(Span { parent: s.parent.and_then(|p| moved[p]), ..s.clone() });
        }
        out
    }

    /// Writes one JSON object per span:
    /// `{"id", "name", "start_ns", "end_ns", "self_ns", "parent", "rep"}`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, (s, own)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"self_ns\": {own}, \"parent\": {parent}, \"rep\": {}}}",
                s.name, s.start_ns, s.end_ns, s.rep
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing_and_on_nests() {
        let mut sp = Spans::new(Instant::now());
        let o = sp.enter("ignored");
        assert_eq!(sp.exit(o), 0);
        assert!(sp.spans().is_empty());

        sp.set(true, 3);
        let outer = sp.enter("build");
        let inner = sp.enter("core.pipeline");
        sp.exit(inner);
        sp.exit(outer);
        let index = sp.reported_under(outer, "query.index_build", 10, 5);
        sp.reported_under(index, "graph.validate", 0, 2);
        let names: Vec<_> = sp.spans().iter().map(|s| (s.name, s.parent, s.rep)).collect();
        assert_eq!(
            names,
            [
                ("build", None, 3),
                ("core.pipeline", Some(0), 3),
                ("query.index_build", Some(0), 3),
                ("graph.validate", Some(2), 3)
            ]
        );
        assert_eq!(sp.spans()[2].start_ns, sp.spans()[0].start_ns + 10);
    }

    #[test]
    fn self_time_is_duration_minus_children_and_merge_keeps_parents() {
        let mut a = Spans::new(Instant::now());
        a.set(true, 0);
        let root = a.enter("frame");
        a.exit(root);
        a.reported_under(root, "net.encode", 0, 30);
        a.reported_under(root, "net.on_wire", 30, 50);
        a.spans[0].end_ns = a.spans[0].start_ns + 100;
        assert_eq!(a.self_times(), [20, 30, 50]);
        assert_eq!(a.durations("net.on_wire"), [50.0]);

        let mut b = Spans::new(Instant::now());
        b.set(true, 1);
        let root = b.enter("insert");
        b.exit(root);
        b.reported_under(root, "net.on_wire", 0, 7);
        a.merge(b);
        assert_eq!(a.spans()[4].parent, Some(3));
        assert_eq!(a.spans()[3].parent, None);
    }

    #[test]
    fn quietest_rep_has_the_smallest_median_and_of_rep_keeps_its_tree() {
        let mut sp = Spans::new(Instant::now());
        for (rep, ns) in [(1, 50), (3, 20), (5, 40)] {
            sp.set(true, rep);
            let root = sp.enter("frame");
            sp.exit(root);
            let id = sp.spans.len() - 1;
            sp.spans[id].end_ns = sp.spans[id].start_ns + ns;
            sp.reported_under(root, "net.on_wire", 0, ns / 2);
        }
        assert_eq!(sp.quietest_rep("frame"), Some(3));
        assert_eq!(sp.quietest_rep("absent"), None);
        let quiet = sp.of_rep(3);
        assert_eq!(quiet.spans().len(), 2);
        assert_eq!((quiet.spans()[0].parent, quiet.spans()[1].parent), (None, Some(0)));
        assert_eq!(quiet.durations("net.on_wire"), [10.0]);
    }

    #[test]
    fn jsonl_has_one_parsable_object_per_span() {
        let mut sp = Spans::new(Instant::now());
        sp.set(true, 2);
        let root = sp.enter("build");
        sp.exit(root);
        sp.reported_under(root, "ampc.rounds", 0, 9);
        let path = crate::workloads::scratch_dir().join("ledger-spans-unit-test.jsonl");
        sp.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<_> = text.lines().map(|l| crate::json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[1].get("name").unwrap().as_str(), Some("ampc.rounds"));
        assert_eq!(lines[1].get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(lines[0].get("parent"), Some(&crate::json::Value::Null));
        assert_eq!(lines[1].get("rep").unwrap().as_f64(), Some(2.0));
    }
}
