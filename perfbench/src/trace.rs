//! In-memory span tracing around calls into the simulator's layers.
//!
//! A [`Tracer`] records one [`Span`] per wrapped call: its name, the op
//! it belongs to, the span that caused it, host start/end nanoseconds
//! and how many items (transfers, instructions, tiles...) it covered.
//! Spans stay in memory and are written out once, when the benchmark
//! ends. A disabled tracer runs the wrapped closure and records nothing,
//! which is how every end-to-end figure is measured.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `dma.get_wait`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The op this span belongs to (spans of one op share it).
    pub op: u64,
    /// Host nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Host nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Work items the span covered (at least 1).
    pub items: u64,
}

impl Span {
    /// Host duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder; see the module docs.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    op: u64,
    open: Vec<u32>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    /// A recording tracer.
    pub fn on() -> Tracer {
        Tracer::new(true)
    }

    fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            op: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Tags the spans that follow with op number `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` covering `items` work items.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        items: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            op: self.op,
            start_ns,
            end_ns: start_ns,
            items: items.max(1),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[id as usize].end_ns = end_ns;
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Nanoseconds per item of each span named `name`.
    pub fn ns_per_item(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / s.items as f64)
            .collect()
    }

    /// Per-name totals: `(spans, items, total ns, self ns)`, where self
    /// time is a span's duration minus the time its child spans cover.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent as usize] += span.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64, u64)> = BTreeMap::new();
        for (span, child) in self.spans.iter().zip(child_ns) {
            let entry = out.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += span.items;
            entry.2 += span.duration_ns();
            entry.3 += span.duration_ns().saturating_sub(child);
        }
        out
    }

    /// The trace as JSON: a per-name summary plus every span, each as
    /// an array in `span_fields` order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"summary\":{");
        for (i, (name, (count, items, total, self_ns))) in self.summary().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{name}\":{{\"spans\":{count},\"items\":{items},\"total_ns\":{total},\"self_ns\":{self_ns}}}"
            );
        }
        out.push_str(
            "},\"span_fields\":[\"id\",\"parent\",\"op\",\"name\",\"start_ns\",\"end_ns\",\"items\"],\"spans\":[",
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, i64::from);
            let _ = write!(
                out,
                "[{i},{parent},{},\"{}\",{},{},{}]",
                s.op, s.name, s.start_ns, s.end_ns, s.items
            );
        }
        out.push_str("]}\n");
        out
    }
}
