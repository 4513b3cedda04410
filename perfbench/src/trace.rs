//! In-memory span recorder for the traced run.
//!
//! The benchmark opens a span around each of its own calls into a
//! layer's public functions: name, start, end and the span that caused
//! it. Spans stay in memory until the run ends, when they are written
//! out as JSON lines and reduced to per-name totals and self time (a
//! span's duration minus the part of it its children cover).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span; `0` is "no parent".
pub type SpanId = u64;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans from any thread.
pub struct Tracer {
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
    /// `false` for [`Tracer::noop`]: spans cost nothing and record nothing.
    recording: bool,
}

/// Records its span when dropped.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    id: SpanId,
    parent: SpanId,
    name: String,
    start_ns: u64,
}

impl Guard<'_> {
    /// This span's id, to pass as the parent of spans it causes.
    pub fn id(&self) -> SpanId {
        self.id
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if !self.tracer.recording {
            return;
        }
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: std::mem::take(&mut self.name),
            start_ns: self.start_ns,
            end_ns: self.tracer.now_ns(),
        };
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(span);
        }
    }
}

/// Per-name totals over every span of that name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            recording: true,
        }
    }

    /// A tracer whose spans read no clock and record nothing: the same
    /// code path as a traced one, so the difference between the two is
    /// what the spans cost.
    pub fn noop() -> Self {
        Tracer {
            recording: false,
            ..Self::new()
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name`, caused by `parent` (`0` for a root).
    pub fn span(&self, name: &str, parent: SpanId) -> Guard<'_> {
        if !self.recording {
            return Guard {
                tracer: self,
                id: 0,
                parent,
                name: String::new(),
                start_ns: 0,
            };
        }
        Guard {
            tracer: self,
            id: self.next.fetch_add(1, Ordering::Relaxed),
            parent,
            name: name.to_string(),
            start_ns: self.now_ns(),
        }
    }

    /// Every finished span, in id order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().map(|s| s.clone()).unwrap_or_default();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// Per-name count, total and self time.
    pub fn totals(&self) -> BTreeMap<String, Totals> {
        let spans = self.spans();
        let self_ns = self_times(&spans);
        let mut out: BTreeMap<String, Totals> = BTreeMap::new();
        for s in &spans {
            let t = out.entry(s.name.clone()).or_default();
            t.count += 1;
            t.total_ns += s.dur_ns();
            t.self_ns += self_ns.get(&s.id).copied().unwrap_or(0);
        }
        out
    }

    /// Writes every span as one JSON object per line, with its self time.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let self_ns = self_times(&spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &spans {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                s.id,
                s.parent,
                s.name,
                s.start_ns,
                s.end_ns,
                self_ns.get(&s.id).copied().unwrap_or(0)
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to its own. Children running in
/// parallel on other threads are counted once, not once each.
pub fn self_times(spans: &[Span]) -> BTreeMap<SpanId, u64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut iv: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|c| {
                    c.iter()
                        .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                        .filter(|(a, b)| a < b)
                        .collect()
                })
                .unwrap_or_default();
            iv.sort_unstable();
            let mut covered = 0;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in iv {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.id, s.dur_ns().saturating_sub(covered))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            // Overlaps child 2 (a parallel thread): counted once.
            span(3, 1, 30, 60),
            span(4, 1, 80, 90),
            span(5, 2, 10, 20),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 50 - 10);
        assert_eq!(st[&2], 30 - 10);
        assert_eq!(st[&3], 30);
        assert_eq!(st[&5], 10);
    }

    #[test]
    fn guards_record_nested_spans_with_parents() {
        let t = Tracer::new();
        {
            let root = t.span("root", 0);
            let _child = t.span("child", root.id());
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let root = spans.iter().find(|s| s.name == "root").expect("root");
        let child = spans.iter().find(|s| s.name == "child").expect("child");
        assert_eq!(child.parent, root.id);
        assert!(child.start_ns >= root.start_ns && child.end_ns <= root.end_ns);
        let totals = t.totals();
        assert_eq!(totals["root"].count, 1);
        assert!(totals["root"].self_ns <= totals["root"].total_ns);
    }

    #[test]
    fn a_noop_tracer_records_nothing() {
        let t = Tracer::noop();
        {
            let root = t.span("root", 0);
            let _child = t.span("child", root.id());
        }
        assert!(t.spans().is_empty());
        assert!(t.totals().is_empty());
    }
}
