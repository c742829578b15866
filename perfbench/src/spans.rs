//! Benchmark-side spans around calls into the workspace's layers.
//!
//! Each worker thread records into its own [`Tracer`]; the spans stay in
//! memory and are merged and written out when the run ends. Self time is
//! a span's duration minus the part of it its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `emulator.pack_build`.
    pub name: &'static str,
    /// The device, cell unit or request the span belongs to.
    pub id: u64,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the run's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder stamping times relative to `epoch` (shared by every
    /// thread of one run, so merged spans line up).
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`; spans opened inside `f`
    /// become its children.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Records a call that ran from `start` to `end` as a child of the
    /// innermost open span.
    pub fn record(&mut self, name: &'static str, id: u64, start: Instant, end: Instant) {
        let at = |i: Instant| {
            u64::try_from(i.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
        };
        self.spans.push(Span {
            name,
            id,
            parent: self.open.last().copied(),
            start_ns: at(start),
            end_ns: at(end),
        });
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Concatenates per-thread span lists, re-basing parent indices.
pub fn merge(lists: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out: Vec<Span> = Vec::new();
    for list in lists {
        let base = out.len();
        out.extend(list.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    out
}

/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals: call count and summed duration.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Σ duration, ns.
    pub total_ns: u64,
}

impl NameTotals {
    /// Mean duration per call, ns (`0` without calls).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// Totals for every span name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut map: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let t = map.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
    }
    map
}

/// Durations in nanoseconds of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect()
}

/// One JSON object per line: name, id, parent, start, end and self time.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
            s.name, s.id, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            id: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("device", None, 0, 100),
            span("build", Some(0), 10, 30),
            span("run", Some(0), 40, 90),
            // A grandchild counts against its parent only.
            span("step", Some(2), 50, 60),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_unioned_and_clipped() {
        let spans = vec![
            span("parent", None, 100, 200),
            span("a", Some(0), 90, 150),
            span("b", Some(0), 120, 170),
            span("c", Some(0), 190, 260),
        ];
        // Covered: [100,170) ∪ [190,200) = 80 ns of 100.
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn tracer_nests_and_merge_rebases_parents() {
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch);
        t.span("outer", 7, |t| t.span("inner", 7, |_| ()));
        let one = t.into_spans();
        assert_eq!(one[1].parent, Some(0));
        assert!(one[0].start_ns <= one[1].start_ns && one[1].end_ns <= one[0].end_ns);
        let merged = merge(vec![one.clone(), one]);
        assert_eq!(merged[3].parent, Some(2));
        let tot = totals(&merged);
        assert_eq!(tot["outer"].count, 2);
        let selfs = self_times(&merged);
        assert_eq!(
            tot["outer"].total_ns,
            selfs[0] + selfs[2] + tot["inner"].total_ns
        );
        let dump = to_jsonl(&merged);
        assert_eq!(dump.lines().count(), 4);
        assert!(dump.lines().nth(3).unwrap().contains("\"parent\":2,"));
    }
}
