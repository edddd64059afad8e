//! In-memory spans recorded around calls into each layer.
//!
//! A span has a name, start and end (nanoseconds since the trace began),
//! the span that was open when it began (its parent) and the id of the
//! request group it belongs to. Spans stay in memory while the run lasts
//! and are written out at the end. A span's *self time* is its duration
//! minus the part of it its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: u32,
    pub group: u64,
}

#[derive(Debug)]
pub struct Trace {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    group: u64,
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new()
    }
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            t0: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
            group: 0,
        }
    }

    /// Spans begun from now on belong to request group `group`.
    pub fn set_group(&mut self, group: u64) {
        self.group = group;
    }

    pub fn begin(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            group: self.group,
        });
        self.open.push(id);
        id
    }

    pub fn end(&mut self, id: u32) {
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close innermost first");
        self.spans[id as usize].end = self.t0.elapsed().as_nanos() as u64;
    }

    /// Run `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Every span's self time, nanoseconds, aligned with [`Trace::spans`].
    pub fn self_times(&self) -> Vec<f64> {
        self_times(&self.spans)
    }

    /// Write the spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_owned()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"group\":{}}}",
                s.name, s.start, s.end, s.group
            )?;
        }
        out.flush()
    }
}

/// Self time of each span: its duration minus the union of its
/// children's intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != NO_PARENT {
            children.entry(s.parent).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&(id as u32)) {
                kids.sort_unstable();
                let mut cursor = s.start;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(cursor), b.min(s.end));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
            }
            (s.end - s.start - covered) as f64
        })
        .collect()
}

/// Σ self time and count per span name.
pub fn by_name(spans: &[Span], selfs: &[f64]) -> BTreeMap<&'static str, (f64, u64)> {
    let mut out: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
    for (s, &t) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.0 += t;
        e.1 += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            group: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_children() {
        let spans = vec![
            span("root", 0, 100, NO_PARENT),
            span("a", 10, 30, 0),
            span("b", 25, 50, 0),
            span("c", 12, 20, 1),
        ];
        assert_eq!(self_times(&spans), vec![60.0, 12.0, 25.0, 8.0]);
    }
}
