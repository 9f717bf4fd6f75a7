//! Host-time spans around the harness's calls into the crates.
//!
//! The traced pass wraps every call into a layer's public function
//! (`PastNetwork::insert`, `PastNetwork::run`, `PastrySim::stabilize`, …)
//! in a span `{name, start_ns, end_ns, parent, op}`. Spans live in memory
//! and are written when the run ends. Per-name totals and self times
//! (duration minus the part covered by child spans) are kept for every
//! span; the spans themselves only for the first [`KEEP`], so that a run
//! of millions of operations writes a file of bounded size.

use crate::clock::Stopwatch;
use crate::json::Value;

/// Spans written out one by one; later ones are only aggregated.
const KEEP: usize = 50_000;

/// The span names, one per harness call site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Name {
    Chunk,
    Insert,
    Lookup,
    Reclaim,
    NetInsert,
    NetLookup,
    NetReclaim,
    NetRun,
    Tally,
    Route,
    SimRoute,
    SimDrain,
    Join,
    SimJoinNearby,
    Churn,
    Kill,
    SimStabilize,
}

impl Name {
    const ALL: [Name; 17] = [
        Name::Chunk,
        Name::Insert,
        Name::Lookup,
        Name::Reclaim,
        Name::NetInsert,
        Name::NetLookup,
        Name::NetReclaim,
        Name::NetRun,
        Name::Tally,
        Name::Route,
        Name::SimRoute,
        Name::SimDrain,
        Name::Join,
        Name::SimJoinNearby,
        Name::Churn,
        Name::Kill,
        Name::SimStabilize,
    ];

    /// The name written to the trace file. `step.*` and `chunk` are the
    /// harness's own frames; every other span is one call into a crate.
    pub fn label(self) -> &'static str {
        match self {
            Name::Chunk => "chunk",
            Name::Insert => "step.insert",
            Name::Lookup => "step.lookup",
            Name::Reclaim => "step.reclaim",
            Name::NetInsert => "PastNetwork::insert",
            Name::NetLookup => "PastNetwork::lookup",
            Name::NetReclaim => "PastNetwork::reclaim",
            Name::NetRun => "PastNetwork::run",
            Name::Tally => "harness.tally",
            Name::Route => "step.route",
            Name::SimRoute => "PastrySim::route",
            Name::SimDrain => "PastrySim::drain_deliveries",
            Name::Join => "step.join",
            Name::SimJoinNearby => "PastrySim::join_node_nearby",
            Name::Churn => "step.churn",
            Name::Kill => "Engine::kill",
            Name::SimStabilize => "PastrySim::stabilize",
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Rec {
    name: Name,
    start_ns: u64,
    end_ns: u64,
    /// Index of the parent span among the kept ones, or `u32::MAX`.
    parent: u32,
    /// The benchmark's operation number; spans of one operation share it.
    op: u64,
}

#[derive(Clone, Copy, Debug)]
struct Frame {
    name: Name,
    start_ns: u64,
    child_ns: u64,
    kept: u32,
}

/// Per-name totals over every span of a run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Total {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// The span recorder. Disabled (the untraced pass), `enter` and `exit` do
/// nothing and read no clock.
pub struct Spans {
    enabled: bool,
    epoch: Stopwatch,
    stack: Vec<Frame>,
    recs: Vec<Rec>,
    totals: [Total; Name::ALL.len()],
    count: u64,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            epoch: Stopwatch::start(),
            stack: Vec::with_capacity(8),
            recs: Vec::with_capacity(if enabled { KEEP } else { 0 }),
            totals: [Total::default(); Name::ALL.len()],
            count: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span under the innermost open one.
    #[inline]
    pub fn enter(&mut self, name: Name, op: u64) {
        if !self.enabled {
            return;
        }
        let start_ns = self.epoch.ns();
        let mut kept = u32::MAX;
        if self.recs.len() < KEEP {
            kept = self.recs.len() as u32;
            let parent = self.stack.last().map_or(u32::MAX, |f| f.kept);
            self.recs.push(Rec {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                op,
            });
        }
        self.stack.push(Frame {
            name,
            start_ns,
            child_ns: 0,
            kept,
        });
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.epoch.ns();
        let Some(f) = self.stack.pop() else { return };
        let dur = end_ns - f.start_ns;
        if let Some(r) = self.recs.get_mut(f.kept as usize) {
            r.end_ns = end_ns;
        }
        let t = &mut self.totals[f.name as usize];
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(f.child_ns);
        if let Some(p) = self.stack.last_mut() {
            p.child_ns += dur;
        }
        self.count += 1;
    }

    /// Spans closed so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn total(&self, name: Name) -> Total {
        self.totals[name as usize]
    }

    /// Self time of the harness's own frames (`chunk`, `step.*`,
    /// `harness.tally`): the time no call into a crate covers.
    pub fn harness_self_ns(&self) -> u64 {
        [
            Name::Chunk,
            Name::Insert,
            Name::Lookup,
            Name::Reclaim,
            Name::Tally,
            Name::Route,
            Name::Join,
            Name::Churn,
        ]
        .iter()
        .map(|&n| self.total(n).self_ns)
        .sum()
    }

    /// The trace file: one `span` line per kept span, then one `total`
    /// line per name that occurred.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, r) in self.recs.iter().enumerate() {
            let parent = if r.parent == u32::MAX {
                Value::Null
            } else {
                Value::Num(f64::from(r.parent))
            };
            let line = Value::obj([
                ("ev", Value::Str("span".into())),
                ("id", Value::Num(i as f64)),
                ("name", Value::Str(r.name.label().into())),
                ("start_ns", Value::Num(r.start_ns as f64)),
                ("end_ns", Value::Num(r.end_ns as f64)),
                ("parent", parent),
                ("op", Value::Num(r.op as f64)),
            ]);
            out.push_str(&line.to_json());
            out.push('\n');
        }
        for name in Name::ALL {
            let t = self.total(name);
            if t.count == 0 {
                continue;
            }
            let line = Value::obj([
                ("ev", Value::Str("total".into())),
                ("name", Value::Str(name.label().into())),
                ("count", Value::Num(t.count as f64)),
                ("total_ns", Value::Num(t.total_ns as f64)),
                ("self_ns", Value::Num(t.self_ns as f64)),
            ]);
            out.push_str(&line.to_json());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut s = Spans::new(false);
        s.enter(Name::Chunk, 0);
        s.exit();
        assert_eq!(s.count(), 0);
        assert!(s.to_jsonl().is_empty());
    }

    #[test]
    fn self_time_excludes_children() {
        let mut s = Spans::new(true);
        s.enter(Name::Insert, 7);
        s.enter(Name::NetInsert, 7);
        s.exit();
        s.enter(Name::NetRun, 7);
        s.exit();
        s.exit();
        assert_eq!(s.count(), 3);
        let step = s.total(Name::Insert);
        let kids = s.total(Name::NetInsert).total_ns + s.total(Name::NetRun).total_ns;
        assert_eq!(step.self_ns, step.total_ns - kids);
        assert_eq!(s.harness_self_ns(), step.self_ns);
        let text = s.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 6);
        let child = crate::json::parse(lines[1]).expect("valid line");
        assert_eq!(child.get("parent").and_then(Value::as_f64), Some(0.0));
        assert_eq!(child.get("op").and_then(Value::as_f64), Some(7.0));
        assert_eq!(
            child.get("name").and_then(Value::as_str),
            Some("PastNetwork::insert")
        );
    }
}
