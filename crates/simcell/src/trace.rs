//! Trace exporters and the always-on machine counter block.
//!
//! The paper's §4.2 advice is "choose by profiling": several software
//! caches favour different behaviours, and only measurement tells you
//! which one fits an offload. This module is the measurement half of
//! the simulator:
//!
//! - [`MachineStats`] — a cheap, always-on counter block (plain integer
//!   adds, no allocation, no simulated cycles) summarising offloads,
//!   host traffic, explicit DMA traffic, and software-cache behaviour,
//! - [`Layer`] and [`Lane`] — the lane layout: one table gives every
//!   lane family (accel, dma, sched, faults, pipe, gather) its tid base
//!   and name, and every runtime layer records its slices, instants and
//!   counters on a `Lane` (see [`crate::event`]),
//! - [`chrome_trace_json`] — exports an enabled [`EventLog`] as Chrome
//!   trace-event JSON, loadable in [Perfetto](https://ui.perfetto.dev)
//!   or `chrome://tracing` (see `PROFILING.md` for the reading guide),
//! - [`parse_chrome_trace`] — a minimal parser for that JSON, used by
//!   the round-trip tests and handy as a validity check,
//! - [`ascii_timeline`] — a terminal-friendly rendering of the same
//!   timeline, used by the `sim_profile` example and `PROFILING.md`,
//! - [`Machine::utilization_report`] — a plain-text per-run report
//!   merging [`MachineStats`] with per-engine DMA statistics,
//! - [`AccessTrace`] (re-exported from `softcache::autotune`) — the
//!   access-trace capture mode: when enabled via
//!   [`Machine::access_trace_mut`], every outer/cached access an
//!   offload issues is recorded as `(span, read/write, offset, len)`
//!   alongside its compute cycles, forming the input to the
//!   cache-policy autotuner (`softcache::autotune::autotune`).
//!
//! Everything here reads state; nothing advances a clock. The
//! determinism regression test pins that tracing on/off leaves every
//! simulated cycle count bit-identical.
//!
//! # Example
//!
//! ```
//! use simcell::{Machine, MachineConfig};
//! use simcell::trace::{chrome_trace_json, parse_chrome_trace};
//!
//! # fn main() -> Result<(), simcell::SimError> {
//! let mut machine = Machine::new(MachineConfig::small())?;
//! machine.events_mut().set_enabled(true);
//! machine.offload(0).run(|ctx| ctx.compute(500))?;
//! let json = chrome_trace_json(machine.events());
//! let events = parse_chrome_trace(&json).expect("exporter emits valid JSON");
//! assert!(events.iter().any(|e| e.name == "offload"));
//! # Ok(())
//! # }
//! ```

use std::collections::BTreeSet;
use std::fmt::{self, Write as _};

use crate::event::{render_label, Args, CoreId, Event, EventKind, EventLog, Val};
use crate::machine::Machine;

pub use softcache::autotune::{AccessRecord, AccessTrace, TraceOp};

/// Always-on machine-level counters.
///
/// Updated unconditionally (the cost is a handful of integer adds per
/// operation — never an allocation, never a simulated cycle), so every
/// run has a free utilization summary even with the event log disabled.
///
/// Scope: these counters cover *machine-level* operations — host
/// accesses, offload lifecycle, explicit context-level DMA (including
/// synchronous outer accesses), and software-cache accesses routed
/// through [`crate::AccelCtx`]. Traffic a cache generates internally is
/// accounted by its own [`softcache::CacheStats`] and by the per-engine
/// [`dma::DmaStats`]; the utilization report merges all three views.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct MachineStats {
    /// Offload threads launched.
    pub offloads: u64,
    /// Offload threads joined.
    pub joins: u64,
    /// Bytes the host read from main memory (charged accesses only).
    pub host_bytes_read: u64,
    /// Bytes the host wrote to main memory (charged accesses only).
    pub host_bytes_written: u64,
    /// Explicit `dma_get` commands issued through accelerator contexts.
    pub dma_gets: u64,
    /// Explicit `dma_put` commands issued through accelerator contexts.
    pub dma_puts: u64,
    /// Bytes moved into local stores by explicit context-level DMA.
    pub dma_bytes_to_local: u64,
    /// Bytes moved out of local stores by explicit context-level DMA.
    pub dma_bytes_from_local: u64,
    /// Line-grain hits across all context-routed software-cache accesses.
    pub cache_hits: u64,
    /// Line-grain misses across all context-routed software-cache accesses.
    pub cache_misses: u64,
    /// Lines evicted across all context-routed software-cache accesses.
    pub cache_evictions: u64,
    /// Bytes software caches fetched from remote memory (context-routed).
    pub cache_bytes_fetched: u64,
    /// Bytes software caches wrote back to remote memory (context-routed).
    pub cache_bytes_written_back: u64,
    /// Total cycles offload threads occupied accelerators.
    pub accel_busy_cycles: u64,
    /// Tiles dispatched by a tile scheduler (see `offload_rt::sched`).
    pub sched_tiles: u64,
    /// Tiles a work-stealing scheduler moved between accelerator queues.
    pub sched_steals: u64,
    /// Simulated cycles charged to thieves for those steals.
    pub sched_steal_cycles: u64,
    /// Accelerator cycles a scheduler reported as idle gaps while its
    /// task was in flight.
    pub sched_idle_cycles: u64,
    /// Total faults injected by the fault plane (all kinds).
    pub faults_injected: u64,
    /// DMA transfers that landed corrupted.
    pub fault_dma_corrupt: u64,
    /// DMA transfers that were charged but dropped.
    pub fault_dma_drop: u64,
    /// Tag-group waits that timed out.
    pub fault_timeouts: u64,
    /// Launches delayed by an injected stall.
    pub fault_stalls: u64,
    /// Cycles lost to injected stalls and timeout waits.
    pub fault_stall_cycles: u64,
    /// Accelerators killed at a launch boundary.
    pub fault_deaths: u64,
    /// Local-store reads that observed poisoned data.
    pub fault_ls_poison: u64,
    /// Tile runs the recovery layer retried after a fault.
    pub recovery_retries: u64,
    /// Cycles charged as backoff before those retries.
    pub recovery_backoff_cycles: u64,
    /// Dead accelerators evicted from a scheduler mid-run.
    pub recovery_evictions: u64,
    /// Tiles degraded to host execution after exhausting retries.
    pub recovery_fallbacks: u64,
    /// Host cycles spent running those fallback tiles (penalty
    /// included).
    pub recovery_fallback_cycles: u64,
    /// Per-stage chunk executions a pipeline runtime performed (see
    /// `offload_rt::pipeline`).
    pub pipe_stage_runs: u64,
    /// Stream chunks a pipeline pushed through all of its stages.
    pub pipe_chunks: u64,
    /// Accelerator cycles pipeline stages stalled waiting for their
    /// input chunk to be produced.
    pub pipe_input_wait_cycles: u64,
    /// Accelerator cycles pipeline stages stalled on a full inter-stage
    /// queue (backpressure).
    pub pipe_backpressure_cycles: u64,
    /// Put-journal pre-image snapshots taken (one per journalled put
    /// while a fault plan with at least one non-zero rate is armed).
    pub journal_snapshots: u64,
    /// Pre-image bytes those snapshots copied.
    pub journal_bytes: u64,
    /// Journal snapshots *skipped* because the put's destination was
    /// declared [`AccessMode::Write`](memspace::AccessMode::Write) — a
    /// retry fully rewrites the range, so rollback needs no pre-image.
    pub journal_snapshots_skipped: u64,
    /// Pre-image bytes those skipped snapshots would have copied.
    pub journal_bytes_skipped: u64,
    /// Write-back DMA transfers elided because the target range was
    /// declared [`AccessMode::Read`](memspace::AccessMode::Read).
    pub dma_writebacks_elided: u64,
    /// Bytes those elided write-backs would have transferred.
    pub dma_writeback_bytes_elided: u64,
    /// Gather plans executed (each one batch of coalesced descriptors
    /// fetched into a packed local buffer; see `simcell::GatherPlan`).
    pub gathers: u64,
    /// Elements those gathers requested.
    pub gather_elems: u64,
    /// Coalesced DMA descriptors the plans compiled to (each one
    /// `dma_get`; the gap between `gather_elems` and this is the win
    /// over per-element outer accesses).
    pub gather_descriptors: u64,
    /// Bytes the gathers fetched into packed local buffers.
    pub gather_bytes: u64,
}

impl MachineStats {
    /// Total bytes that crossed a memory-space boundary via explicit
    /// DMA, in either direction.
    pub fn dma_bytes_total(&self) -> u64 {
        self.dma_bytes_to_local + self.dma_bytes_from_local
    }

    /// Line-grain cache hit rate in `[0, 1]`; zero with no accesses.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

impl fmt::Display for MachineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} offloads ({} joined), host {} B read / {} B written, \
             dma {} gets / {} puts ({} B in, {} B out), \
             cache {} hits / {} misses / {} evictions, accel busy {} cycles",
            self.offloads,
            self.joins,
            self.host_bytes_read,
            self.host_bytes_written,
            self.dma_gets,
            self.dma_puts,
            self.dma_bytes_to_local,
            self.dma_bytes_from_local,
            self.cache_hits,
            self.cache_misses,
            self.cache_evictions,
            self.accel_busy_cycles,
        )
    }
}

// ---- lane layout -------------------------------------------------------

/// A family of per-accelerator trace lanes.
///
/// One table inside `Layer` is the whole lane layout of the exported
/// trace: the host runs on tid 0, and accelerator *n*'s lane in a layer
/// sits on tid `base + n` and is named `"<name> n"` (see
/// [`Layer::tid_base`] and [`Layer::name`]). Bases are 100 apart except
/// the first, so a machine has room for at most [`Layer::MAX_ACCELS`]
/// accelerators.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Layer {
    /// Offload slices, accelerator spans, `dma_wait` stalls, cache
    /// instants and the `ls_high_water` counter.
    Accel,
    /// `dma_get` / `dma_put` transfer slices.
    Dma,
    /// Tile-scheduler runs, idle gaps, enqueues and steals (see
    /// `offload_rt::sched`).
    Sched,
    /// Injected faults and recovery actions (see [`crate::fault`]).
    Faults,
    /// Pipeline chunk runs and stalls (see `offload_rt::pipeline`).
    Pipe,
    /// Whole gather batches (see [`crate::GatherPlan`]).
    Gather,
}

impl Layer {
    /// Each layer's tid base and lane name, in declaration order.
    const TABLE: [(Layer, u64, &'static str); 6] = [
        (Layer::Accel, 1, "accel"),
        (Layer::Dma, 100, "dma"),
        (Layer::Sched, 200, "sched"),
        (Layer::Faults, 300, "faults"),
        (Layer::Pipe, 400, "pipe"),
        (Layer::Gather, 500, "gather"),
    ];

    /// Accelerators the layout has room for (99): the accelerator
    /// layer starts at tid 1, after the host, so one more accelerator
    /// would land on `dma 0`.
    pub const MAX_ACCELS: u16 = (Layer::TABLE[1].1 - Layer::TABLE[0].1) as u16;

    /// Thread id of accelerator 0's lane in this layer.
    pub fn tid_base(self) -> u64 {
        Layer::TABLE[self as usize].1
    }

    /// Lane-name prefix of this layer.
    pub fn name(self) -> &'static str {
        Layer::TABLE[self as usize].2
    }

    /// Accelerator `accel`'s lane in this layer.
    pub fn lane(self, accel: u16) -> Lane {
        Lane { layer: self, accel }
    }
}

/// One accelerator's lane in one [`Layer`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Lane {
    /// The lane family.
    pub layer: Layer,
    /// The accelerator the lane belongs to.
    pub accel: u16,
}

impl Lane {
    /// Thread id of this lane in the exported trace.
    pub fn tid(self) -> u64 {
        self.layer.tid_base() + u64::from(self.accel)
    }

    /// The lane on thread id `tid`, if any (tid 0 is the host).
    pub fn of_tid(tid: u64) -> Option<Lane> {
        let &(layer, base, _) = Layer::TABLE
            .iter()
            .rev()
            .find(|(_, base, _)| *base <= tid)?;
        let accel = u16::try_from(tid - base).ok()?;
        (accel < Layer::MAX_ACCELS).then(|| layer.lane(accel))
    }
}

impl fmt::Display for Lane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.layer.name(), self.accel)
    }
}

// ---- Chrome trace-event export ------------------------------------------

fn tid_of(core: CoreId) -> u64 {
    match core {
        CoreId::Host => 0,
        CoreId::Accel(index) => Layer::Accel.lane(index).tid(),
    }
}

fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct ChromeWriter {
    out: String,
    first: bool,
}

impl ChromeWriter {
    fn new() -> ChromeWriter {
        ChromeWriter {
            out: String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"),
            first: true,
        }
    }

    fn open(&mut self, name: &str) {
        if !self.first {
            self.out.push_str(",\n");
        }
        self.first = false;
        self.out.push_str("{\"name\":");
        push_json_string(&mut self.out, name);
    }

    /// Emits one trace event. `dur` is `Some` for complete ("X") events.
    fn event(&mut self, name: &str, ph: char, ts: u64, dur: Option<u64>, tid: u64, args: &Args) {
        self.open(name);
        let _ = write!(
            self.out,
            ",\"ph\":\"{ph}\",\"ts\":{ts},\"pid\":0,\"tid\":{tid}"
        );
        if let Some(dur) = dur {
            let _ = write!(self.out, ",\"dur\":{dur}");
        }
        if ph == 'i' {
            // Instant events need a scope; thread scope keeps them on
            // their lane.
            self.out.push_str(",\"s\":\"t\"");
        }
        if !args.is_empty() {
            self.out.push_str(",\"args\":{");
            for (i, (key, val)) in args.iter().enumerate() {
                if i > 0 {
                    self.out.push(',');
                }
                push_json_string(&mut self.out, key);
                self.out.push(':');
                match val {
                    Val::Int(n) => {
                        let _ = write!(self.out, "{n}");
                    }
                    Val::Str(s) => push_json_string(&mut self.out, s),
                }
            }
            self.out.push('}');
        }
        self.out.push('}');
    }

    fn metadata(&mut self, name: &str, tid: u64, value: &str) {
        self.open(name);
        let _ = write!(
            self.out,
            ",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"args\":{{\"name\":"
        );
        push_json_string(&mut self.out, value);
        self.out.push_str("}}");
    }

    fn finish(mut self) -> String {
        self.out.push_str("\n]}\n");
        self.out
    }
}

/// Exports an event log as Chrome trace-event JSON.
///
/// Load the result in [Perfetto](https://ui.perfetto.dev) or
/// `chrome://tracing`. Timestamps are simulated cycles reported as
/// microseconds (the units are relative; only ratios matter). The host
/// runs on tid 0 and every other lane sits where its [`Layer`] puts it;
/// each lane is named the first time an event uses it. Offload
/// intervals become complete ("X") slices on the accelerator lane and
/// host/accelerator spans become begin/end pairs; joins and notes are
/// host instants. Every runtime layer's events map by phase alone:
/// [`EventKind::Slice`] becomes an X slice spanning `at..end`,
/// [`EventKind::Instant`] a thread-scoped instant, and
/// [`EventKind::Counter`] a counter track, each on its lane, named by
/// its rendered label (`tile 3`, `s1 chunk 4`, `dma_get`, `retry`, …)
/// and carrying its args in record order.
pub fn chrome_trace_json(log: &EventLog) -> String {
    let mut w = ChromeWriter::new();
    w.metadata("process_name", 0, "offload-sim");
    w.metadata("thread_name", 0, "host");

    let events = log.sorted();
    // Name each lane the first time it appears: an event's core lane,
    // then the lane it records on.
    let mut named = BTreeSet::new();
    for e in &events {
        let core = match e.core() {
            CoreId::Accel(a) => Some(Layer::Accel.lane(a)),
            CoreId::Host => None,
        };
        for lane in core.into_iter().chain(e.lane()) {
            if named.insert(lane) {
                w.metadata("thread_name", lane.tid(), &lane.to_string());
            }
        }
    }

    let no_args = Args::new(&[], []);
    let accel_args = |accel: u16| Args::new(&["accel"], [accel.into()]);
    // Open-interval bookkeeping: offloads pair Start/End per accel.
    let mut open_offload: Vec<(u16, u64, &'static str)> = Vec::new();
    for e in &events {
        match &e.kind {
            EventKind::OffloadStart { accel, name } => {
                open_offload.push((*accel, e.at, name));
            }
            EventKind::OffloadEnd { accel } => {
                if let Some(pos) = open_offload.iter().rposition(|(a, _, _)| a == accel) {
                    let (_, start, name) = open_offload.remove(pos);
                    let tid = tid_of(CoreId::Accel(*accel));
                    w.event(
                        name,
                        'X',
                        start,
                        Some(e.at - start),
                        tid,
                        &accel_args(*accel),
                    );
                }
            }
            EventKind::Join { accel } => w.event("join", 'i', e.at, None, 0, &accel_args(*accel)),
            EventKind::Note { text } => w.event(text, 'i', e.at, None, 0, &no_args),
            EventKind::SpanStart { core, name } => {
                w.event(name, 'B', e.at, None, tid_of(*core), &no_args);
            }
            EventKind::SpanEnd { core, name } => {
                w.event(name, 'E', e.at, None, tid_of(*core), &no_args);
            }
            EventKind::Slice {
                lane,
                label,
                end,
                args,
            } => {
                let dur = Some(end.saturating_sub(e.at));
                w.event(&render_label(label, args), 'X', e.at, dur, lane.tid(), args);
            }
            EventKind::Instant { lane, label, args } => {
                w.event(
                    &render_label(label, args),
                    'i',
                    e.at,
                    None,
                    lane.tid(),
                    args,
                );
            }
            EventKind::Counter { lane, label, args } => {
                w.event(
                    &render_label(label, args),
                    'C',
                    e.at,
                    None,
                    lane.tid(),
                    args,
                );
            }
        }
    }
    // Close any offloads left open (trace captured mid-offload).
    for (accel, start, name) in open_offload {
        let tid = tid_of(CoreId::Accel(accel));
        w.event(name, 'B', start, None, tid, &accel_args(accel));
    }
    w.finish()
}

// ---- minimal Chrome trace parser ----------------------------------------

/// One event parsed back out of Chrome trace-event JSON — the fields
/// the workspace's tests and tools care about.
#[derive(Clone, PartialEq, Debug)]
pub struct ChromeEvent {
    /// Event name (slice label, instant label, or metadata kind).
    pub name: String,
    /// Phase: `X` complete, `B`/`E` begin/end, `i` instant, `C` counter,
    /// `M` metadata.
    pub ph: char,
    /// Timestamp (simulated cycles); 0 for metadata events.
    pub ts: u64,
    /// Duration for complete events.
    pub dur: Option<u64>,
    /// Thread id (lane).
    pub tid: u64,
}

impl ChromeEvent {
    /// End timestamp of a complete event (`ts` for everything else).
    pub fn end(&self) -> u64 {
        self.ts + self.dur.unwrap_or(0)
    }

    /// Whether two complete events overlap in time.
    pub fn overlaps(&self, other: &ChromeEvent) -> bool {
        self.ts < other.end() && other.ts < self.end()
    }
}

/// A hand-rolled, dependency-free parser for the subset of JSON the
/// exporter emits (objects, arrays, strings, and unsigned integers).
struct MiniJson<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> MiniJson<'a> {
    fn new(s: &'a str) -> MiniJson<'a> {
        MiniJson {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        let found = self.peek();
        if found == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {} (found {:?})",
                c as char,
                self.pos,
                found.map(|b| b as char)
            ))
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        if self.peek() == Some(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err("unterminated string".into());
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err("unterminated escape".into());
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => return Err(format!("unknown escape \\{}", other as char)),
                    }
                }
                other => {
                    // Re-borrow as chars for multi-byte UTF-8: back up and
                    // take the full char.
                    if other < 0x80 {
                        out.push(other as char);
                    } else {
                        self.pos -= 1;
                        let rest = std::str::from_utf8(&self.bytes[self.pos..])
                            .map_err(|e| e.to_string())?;
                        let c = rest.chars().next().ok_or("empty char")?;
                        out.push(c);
                        self.pos += c.len_utf8();
                    }
                }
            }
        }
    }

    fn number(&mut self) -> Result<u64, String> {
        self.skip_ws();
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(format!("expected number at byte {start}"));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|e| e.to_string())?
            .parse()
            .map_err(|e: std::num::ParseIntError| e.to_string())
    }

    /// Skips any JSON value (used for `args` bodies and unknown fields).
    fn skip_value(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(b'"') => {
                self.string()?;
                Ok(())
            }
            Some(b'{') => {
                self.expect(b'{')?;
                if self.eat(b'}') {
                    return Ok(());
                }
                loop {
                    self.string()?;
                    self.expect(b':')?;
                    self.skip_value()?;
                    if !self.eat(b',') {
                        break;
                    }
                }
                self.expect(b'}')
            }
            Some(b'[') => {
                self.expect(b'[')?;
                if self.eat(b']') {
                    return Ok(());
                }
                loop {
                    self.skip_value()?;
                    if !self.eat(b',') {
                        break;
                    }
                }
                self.expect(b']')
            }
            Some(b) if b.is_ascii_digit() => {
                self.number()?;
                Ok(())
            }
            other => Err(format!("unexpected value start {other:?}")),
        }
    }
}

/// Parses Chrome trace-event JSON produced by [`chrome_trace_json`]
/// back into its events.
///
/// Deliberately minimal — it understands the exporter's subset of the
/// format — but strict within it, so the round-trip test doubles as a
/// validity check on the exporter's output.
///
/// # Errors
///
/// Returns a description of the first malformed construct.
pub fn parse_chrome_trace(json: &str) -> Result<Vec<ChromeEvent>, String> {
    let mut p = MiniJson::new(json);
    p.expect(b'{')?;
    let mut events = Vec::new();
    loop {
        let key = p.string()?;
        p.expect(b':')?;
        if key == "traceEvents" {
            p.expect(b'[')?;
            if !p.eat(b']') {
                loop {
                    events.push(parse_event(&mut p)?);
                    if !p.eat(b',') {
                        break;
                    }
                }
                p.expect(b']')?;
            }
        } else {
            p.skip_value()?;
        }
        if !p.eat(b',') {
            break;
        }
    }
    p.expect(b'}')?;
    Ok(events)
}

fn parse_event(p: &mut MiniJson<'_>) -> Result<ChromeEvent, String> {
    p.expect(b'{')?;
    let mut event = ChromeEvent {
        name: String::new(),
        ph: '?',
        ts: 0,
        dur: None,
        tid: 0,
    };
    loop {
        let key = p.string()?;
        p.expect(b':')?;
        match key.as_str() {
            "name" => event.name = p.string()?,
            "ph" => {
                let s = p.string()?;
                event.ph = s.chars().next().ok_or("empty ph")?;
            }
            "ts" => event.ts = p.number()?,
            "dur" => event.dur = Some(p.number()?),
            "tid" => event.tid = p.number()?,
            _ => p.skip_value()?,
        }
        if !p.eat(b',') {
            break;
        }
    }
    p.expect(b'}')?;
    if event.ph == '?' {
        return Err(format!("event {:?} has no phase", event.name));
    }
    Ok(event)
}

// ---- ASCII timeline ------------------------------------------------------

/// Renders the log as a fixed-width ASCII timeline: one row for the
/// host, one per accelerator, then one per other lane an event records
/// on, in [`Layer`] order.
///
/// `width` is the number of timeline columns (clamped to at least 10).
/// Host/accel spans and offloads draw as `[====]` bars labelled where
/// room permits; slices draw as `-` runs and instants mark `x` on their
/// lane's row, in cells no bar claimed; `J` marks a join on the host
/// row. This is the "screenshots-as-ASCII" view `PROFILING.md` walks
/// through; for real analysis, load the Chrome JSON in Perfetto.
pub fn ascii_timeline(log: &EventLog, width: usize) -> String {
    let width = width.max(10);
    let events = log.sorted();
    let Some(t_end) = events.iter().map(Event::end).max() else {
        return String::from("(empty trace)\n");
    };
    let t_end = t_end.max(1);
    let col = |cycle: u64| -> usize {
        ((cycle.min(t_end) as u128 * (width as u128 - 1)) / t_end as u128) as usize
    };

    // Row set: host, then every lane seen; accelerator lanes sort first.
    let mut seen = BTreeSet::new();
    for e in &events {
        if let CoreId::Accel(a) = e.core() {
            seen.insert(Layer::Accel.lane(a));
        }
        seen.extend(e.lane());
    }
    let lanes: Vec<Lane> = seen.into_iter().collect();
    let names: Vec<String> = lanes.iter().map(Lane::to_string).collect();
    let pad = names.iter().map(String::len).max().unwrap_or(0).max(7);
    let mut rows: Vec<(String, Vec<u8>)> = vec![(format!("{:<pad$} ", "host"), vec![b' '; width])];
    for name in &names {
        rows.push((format!("{name:<pad$} "), vec![b' '; width]));
    }
    let row_of = |lane: Lane| 1 + lanes.binary_search(&lane).expect("every lane has a row");
    let core_row = |core: CoreId| match core {
        CoreId::Host => 0,
        CoreId::Accel(a) => row_of(Layer::Accel.lane(a)),
    };

    // Bars never overwrite cells another bar already claimed, so nested
    // spans drawn first stay visible inside their parents. The label
    // lands in the longest run of this bar's own fill.
    let draw_bar = |row: &mut Vec<u8>, from: u64, to: u64, label: &str| {
        let (c0, c1) = (col(from), col(to).max(col(from)));
        if row[c0] == b' ' {
            row[c0] = b'[';
        }
        if row[c1] == b' ' {
            row[c1] = b']';
        }
        let mut filled: Vec<usize> = Vec::new();
        for (i, cell) in row.iter_mut().enumerate().take(c1).skip(c0 + 1) {
            if *cell == b' ' {
                *cell = b'=';
                filled.push(i);
            }
        }
        // Longest contiguous run of cells this bar just filled.
        let (mut best_start, mut best_len) = (0usize, 0usize);
        let (mut run_start, mut run_len) = (0usize, 0usize);
        for (k, &i) in filled.iter().enumerate() {
            if k > 0 && filled[k - 1] + 1 == i {
                run_len += 1;
            } else {
                run_start = i;
                run_len = 1;
            }
            if run_len > best_len {
                best_start = run_start;
                best_len = run_len;
            }
        }
        // Write the label (truncated if need be) when at least a few
        // characters fit.
        let n = label.len().min(best_len);
        if n >= 3 {
            row[best_start..best_start + n].copy_from_slice(&label.as_bytes()[..n]);
        }
    };

    // Pair spans and offloads into bars, then draw longest first so
    // nested (shorter) spans stay visible on top of their parents.
    let mut bars: Vec<(usize, u64, u64, &'static str)> = Vec::new();
    let mut open_spans: Vec<(CoreId, &'static str, u64)> = Vec::new();
    let mut open_offloads: Vec<(u16, &'static str, u64)> = Vec::new();
    for e in &events {
        match &e.kind {
            EventKind::SpanStart { core, name } => open_spans.push((*core, name, e.at)),
            EventKind::SpanEnd { core, name } => {
                if let Some(pos) = open_spans
                    .iter()
                    .rposition(|(c, n, _)| c == core && n == name)
                {
                    let (_, _, start) = open_spans.remove(pos);
                    bars.push((core_row(*core), start, e.at, name));
                }
            }
            EventKind::OffloadStart { accel, name } => open_offloads.push((*accel, name, e.at)),
            EventKind::OffloadEnd { accel } => {
                if let Some(pos) = open_offloads.iter().rposition(|(a, _, _)| a == accel) {
                    let (_, name, start) = open_offloads.remove(pos);
                    bars.push((core_row(CoreId::Accel(*accel)), start, e.at, name));
                }
            }
            _ => {}
        }
    }
    // Shortest first: children claim their cells before parents fill
    // the gaps around them.
    bars.sort_by_key(|&(_, from, to, _)| to - from);
    for (row, from, to, name) in bars {
        draw_bar(&mut rows[row].1, from, to, name);
    }

    // Marks draw after the bars: slices, instants, joins.
    for e in &events {
        let (row, mark) = match e.kind {
            EventKind::Slice { lane, .. } => (row_of(lane), b'-'),
            EventKind::Instant { lane, .. } => (row_of(lane), b'x'),
            EventKind::Join { .. } => {
                rows[0].1[col(e.at)] = b'J';
                continue;
            }
            _ => continue,
        };
        for cell in rows[row]
            .1
            .iter_mut()
            .take(col(e.end()) + 1)
            .skip(col(e.at))
        {
            if *cell == b' ' {
                *cell = mark;
            }
        }
    }

    let mut out = format!("cycles 0 .. {t_end}\n");
    for (label, row) in &rows {
        out.push_str(label);
        out.push('|');
        out.push_str(std::str::from_utf8(row).expect("ASCII only"));
        out.push_str("|\n");
    }
    out
}

// ---- utilization report --------------------------------------------------

impl Machine {
    /// A plain-text utilization report for the run so far: per-core
    /// busy/occupancy figures, DMA traffic per accelerator (including
    /// cache-internal transfers, which the engines count), stall time,
    /// software-cache totals, and local-store high-water marks.
    ///
    /// Works with the event log disabled — everything here comes from
    /// the always-on [`MachineStats`] block and the per-engine
    /// [`dma::DmaStats`].
    pub fn utilization_report(&self) -> String {
        let stats = self.stats();
        let total = self.host_now().max(1);
        let mut out = String::new();
        out.push_str("== utilization report ==\n");
        out.push_str(&format!(
            "host: {} cycles elapsed, {} offloads launched, {} joined\n",
            self.host_now(),
            stats.offloads,
            stats.joins
        ));
        out.push_str(&format!(
            "host memory: {} B read, {} B written\n",
            stats.host_bytes_read, stats.host_bytes_written
        ));
        for accel in 0..self.accel_count() {
            let busy = self.accel_busy_cycles(accel).unwrap_or(0);
            let occupancy = 100.0 * busy as f64 / total as f64;
            let dma = self.dma_stats(accel).unwrap_or_default();
            let hw = self.ls_high_water(accel).unwrap_or(0);
            out.push_str(&format!(
                "accel {accel}: busy {busy} cycles ({occupancy:.1}% of host elapsed), \
                 dma {} gets / {} puts, {} B in / {} B out, {} stall cycles, \
                 {} misaligned, ls high water {hw} B\n",
                dma.gets, dma.puts, dma.bytes_in, dma.bytes_out, dma.stall_cycles, dma.misaligned
            ));
        }
        out.push_str(&format!(
            "explicit dma (context level): {} gets / {} puts, {} B to local / {} B from local\n",
            stats.dma_gets, stats.dma_puts, stats.dma_bytes_to_local, stats.dma_bytes_from_local
        ));
        let accesses = stats.cache_hits + stats.cache_misses;
        if accesses > 0 {
            out.push_str(&format!(
                "software caches: {} hits / {} misses ({:.1}% hit rate), {} evictions, \
                 {} B fetched, {} B written back\n",
                stats.cache_hits,
                stats.cache_misses,
                100.0 * stats.cache_hit_rate(),
                stats.cache_evictions,
                stats.cache_bytes_fetched,
                stats.cache_bytes_written_back
            ));
        }
        if stats.sched_tiles > 0 {
            // Imbalance across the accelerators the scheduler actually
            // used: max busy over mean busy (1.00 = perfectly even).
            let busy: Vec<u64> = (0..self.accel_count())
                .filter_map(|a| self.accel_busy_cycles(a).ok())
                .filter(|&b| b > 0)
                .collect();
            let max = busy.iter().copied().max().unwrap_or(0);
            let mean = if busy.is_empty() {
                0.0
            } else {
                busy.iter().sum::<u64>() as f64 / busy.len() as f64
            };
            let imbalance = if mean > 0.0 { max as f64 / mean } else { 0.0 };
            out.push_str(&format!(
                "scheduler: {} tiles across {} accels, {} steals (+{} steal cycles), \
                 {} idle cycles, imbalance {:.2} (max/mean busy)\n",
                stats.sched_tiles,
                busy.len(),
                stats.sched_steals,
                stats.sched_steal_cycles,
                stats.sched_idle_cycles,
                imbalance
            ));
        }
        if stats.pipe_stage_runs > 0 {
            out.push_str(&format!(
                "pipeline: {} stage runs over {} chunks, {} input-wait cycles, \
                 {} backpressure cycles\n",
                stats.pipe_stage_runs,
                stats.pipe_chunks,
                stats.pipe_input_wait_cycles,
                stats.pipe_backpressure_cycles
            ));
        }
        if stats.gathers > 0 {
            let per = stats.gather_elems as f64 / stats.gather_descriptors.max(1) as f64;
            out.push_str(&format!(
                "gathers: {} plans, {} elems via {} descriptors ({:.1} elems/descriptor), \
                 {} B packed\n",
                stats.gathers,
                stats.gather_elems,
                stats.gather_descriptors,
                per,
                stats.gather_bytes
            ));
        }
        if stats.journal_snapshots > 0
            || stats.journal_snapshots_skipped > 0
            || stats.dma_writebacks_elided > 0
        {
            out.push_str(&format!(
                "access modes: {} journal snapshots ({} B), {} skipped by write \
                 declarations ({} B saved), {} write-backs elided ({} B saved)\n",
                stats.journal_snapshots,
                stats.journal_bytes,
                stats.journal_snapshots_skipped,
                stats.journal_bytes_skipped,
                stats.dma_writebacks_elided,
                stats.dma_writeback_bytes_elided
            ));
        }
        if stats.faults_injected > 0 || stats.recovery_retries > 0 || stats.recovery_fallbacks > 0 {
            out.push_str(&format!(
                "faults: {} injected ({} dma corrupt, {} dma drop, {} timeouts, \
                 {} stalls, {} deaths, {} ls poison), {} cycles lost to stalls\n",
                stats.faults_injected,
                stats.fault_dma_corrupt,
                stats.fault_dma_drop,
                stats.fault_timeouts,
                stats.fault_stalls,
                stats.fault_deaths,
                stats.fault_ls_poison,
                stats.fault_stall_cycles
            ));
            out.push_str(&format!(
                "recovery: {} retries (+{} backoff cycles), {} evictions, \
                 {} host fallbacks (+{} host cycles)\n",
                stats.recovery_retries,
                stats.recovery_backoff_cycles,
                stats.recovery_evictions,
                stats.recovery_fallbacks,
                stats.recovery_fallback_cycles
            ));
        }
        if self.events().is_enabled() {
            out.push_str(&format!(
                "event log: {} events recorded\n",
                self.events().len()
            ));
        } else {
            out.push_str(
                "event log: disabled (enable with machine.events_mut().set_enabled(true))\n",
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;
    use crate::SimError;

    #[test]
    fn machine_stats_rates() {
        let mut s = MachineStats::default();
        assert_eq!(s.cache_hit_rate(), 0.0);
        s.cache_hits = 3;
        s.cache_misses = 1;
        s.dma_bytes_to_local = 100;
        s.dma_bytes_from_local = 28;
        assert!((s.cache_hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(s.dma_bytes_total(), 128);
        assert!(s.to_string().contains("3 hits"));
    }

    #[test]
    fn json_string_escaping_round_trips() {
        let mut out = String::new();
        push_json_string(&mut out, "a\"b\\c\nd\te\u{1}f");
        let mut p = MiniJson::new(&out);
        assert_eq!(p.string().unwrap(), "a\"b\\c\nd\te\u{1}f");
    }

    #[test]
    fn empty_log_exports_and_parses() {
        let log = EventLog::new();
        let json = chrome_trace_json(&log);
        let events = parse_chrome_trace(&json).unwrap();
        // Only process/thread metadata, no timeline events.
        assert!(events.iter().all(|e| e.ph == 'M'));
        assert_eq!(ascii_timeline(&log, 60), "(empty trace)\n");
    }

    #[test]
    fn offload_becomes_a_complete_slice() -> Result<(), SimError> {
        let mut m = Machine::new(MachineConfig::small())?;
        m.events_mut().set_enabled(true);
        m.offload(0).run(|ctx| ctx.compute(1000))?;
        let json = chrome_trace_json(m.events());
        let events = parse_chrome_trace(&json).unwrap();
        let slice = events
            .iter()
            .find(|e| e.ph == 'X' && e.name == "offload")
            .expect("offload slice present");
        assert_eq!(slice.tid, Layer::Accel.lane(0).tid());
        assert_eq!(slice.dur, Some(1000));
        assert!(events.iter().any(|e| e.ph == 'i' && e.name == "join"));
        Ok(())
    }

    #[test]
    fn overlap_predicate() {
        let a = ChromeEvent {
            name: "a".into(),
            ph: 'X',
            ts: 0,
            dur: Some(100),
            tid: 0,
        };
        let b = ChromeEvent {
            name: "b".into(),
            ph: 'X',
            ts: 50,
            dur: Some(100),
            tid: 1,
        };
        let c = ChromeEvent {
            name: "c".into(),
            ph: 'X',
            ts: 100,
            dur: Some(10),
            tid: 1,
        };
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c), "touching intervals do not overlap");
    }

    #[test]
    fn ascii_timeline_draws_lanes() -> Result<(), SimError> {
        let mut m = Machine::new(MachineConfig::small())?;
        m.events_mut().set_enabled(true);
        m.span_start("setup");
        m.host_compute(500);
        m.span_end("setup");
        m.offload(0).run(|ctx| ctx.compute(1000))?;
        let art = ascii_timeline(m.events(), 60);
        assert!(art.contains("host    |"));
        assert!(art.contains("accel 0 |"));
        assert!(art.contains('='), "bars are drawn:\n{art}");
        Ok(())
    }

    #[test]
    fn scheduler_lane_round_trips() -> Result<(), SimError> {
        let mut m = Machine::new(MachineConfig::small())?;
        m.events_mut().set_enabled(true);
        m.sched_note_enqueue(0, 0, 0);
        m.sched_note_run(100, 0, 0, 600, None);
        m.sched_note_idle(600, 0, 900);
        m.sched_note_run(900, 0, 1, 1400, Some(1));
        m.sched_note_steal(880, 0, 1, 1, 300);
        let json = chrome_trace_json(m.events());
        let events = parse_chrome_trace(&json).unwrap();
        let lane = Layer::Sched.lane(0).tid();
        assert!(
            events
                .iter()
                .any(|e| e.ph == 'M' && e.tid == lane && e.name == "thread_name"),
            "sched lane is named"
        );
        let tile0 = events
            .iter()
            .find(|e| e.ph == 'X' && e.name == "tile 0" && e.tid == lane)
            .expect("tile slice");
        assert_eq!((tile0.ts, tile0.dur), (100, Some(500)));
        let idle = events
            .iter()
            .find(|e| e.ph == 'X' && e.name == "idle" && e.tid == lane)
            .expect("idle slice");
        assert_eq!((idle.ts, idle.dur), (600, Some(300)));
        assert!(events
            .iter()
            .any(|e| e.ph == 'i' && e.name == "steal" && e.tid == lane));
        assert!(events
            .iter()
            .any(|e| e.ph == 'i' && e.name == "enqueue" && e.tid == lane));
        Ok(())
    }

    #[test]
    fn pipe_lane_round_trips() -> Result<(), SimError> {
        let mut m = Machine::new(MachineConfig::small())?;
        m.events_mut().set_enabled(true);
        m.pipe_note_run(1000, 0, 1, 3, 1600);
        m.pipe_note_chunk();
        let json = chrome_trace_json(m.events());
        let events = parse_chrome_trace(&json).unwrap();
        let lane = Layer::Pipe.lane(0).tid();
        assert!(
            events
                .iter()
                .any(|e| e.ph == 'M' && e.tid == lane && e.name == "thread_name"),
            "pipe lane is named"
        );
        let run = events
            .iter()
            .find(|e| e.ph == 'X' && e.name == "s1 chunk 3" && e.tid == lane)
            .expect("pipe run slice");
        assert_eq!((run.ts, run.dur), (1000, Some(600)));
        assert_eq!(m.stats().pipe_stage_runs, 1);
        assert_eq!(m.stats().pipe_chunks, 1);

        // Wait slices come from the context-side hook.
        let mut m = Machine::new(MachineConfig::small())?;
        m.events_mut().set_enabled(true);
        m.offload(0)
            .run(|ctx| {
                let t = ctx.now();
                ctx.pipe_note_wait(2, 5, 400, true);
                ctx.compute(400);
                ctx.pipe_note_wait(2, 6, 100, false);
                ctx.compute(100);
                assert_eq!(ctx.now(), t + 500);
                Ok::<(), SimError>(())
            })?
            .unwrap();
        assert_eq!(m.stats().pipe_backpressure_cycles, 400);
        assert_eq!(m.stats().pipe_input_wait_cycles, 100);
        let json = chrome_trace_json(m.events());
        let events = parse_chrome_trace(&json).unwrap();
        let bp = events
            .iter()
            .find(|e| e.ph == 'X' && e.name == "backpressure" && e.tid == lane)
            .expect("backpressure slice");
        assert_eq!(bp.dur, Some(400));
        assert!(events
            .iter()
            .any(|e| e.ph == 'X' && e.name == "input wait" && e.tid == lane));
        let report = m.utilization_report();
        assert!(!report.contains("pipeline:"), "no runs -> no pipe section");
        m.pipe_note_run(0, 0, 0, 0, 500);
        m.pipe_note_run(500, 0, 1, 0, 900);
        m.pipe_note_chunk();
        assert!(m
            .utilization_report()
            .contains("pipeline: 2 stage runs over 1 chunks"));
        Ok(())
    }

    #[test]
    fn fault_lane_round_trips() {
        use crate::fault::{note_fault, FaultKind};
        let (mut log, mut stats) = (EventLog::new(), MachineStats::default());
        log.set_enabled(true);
        note_fault(
            &mut log,
            &mut stats,
            100,
            2,
            FaultKind::DmaDrop { tag: 5, bytes: 256 },
        );
        let keys = &["accel", "kind", "tile", "attempt", "backoff"];
        let vals = [
            2u16.into(),
            "retry".into(),
            7u32.into(),
            1u32.into(),
            200u64.into(),
        ];
        log.instant(400, Layer::Faults.lane(2), "retry", Args::new(keys, vals));
        assert!(log.sorted().iter().all(|e| e.core() == CoreId::Accel(2)));
        let json = chrome_trace_json(&log);
        assert!(
            json.contains("\"args\":{\"accel\":2,\"kind\":\"dma_drop\",\"tag\":5,\"bytes\":256}"),
            "{json}"
        );
        let events = parse_chrome_trace(&json).unwrap();
        let lane = Layer::Faults.lane(2).tid();
        assert!(
            events
                .iter()
                .any(|e| e.ph == 'M' && e.tid == lane && e.name == "thread_name"),
            "fault lane is named"
        );
        let drop = events
            .iter()
            .find(|e| e.ph == 'i' && e.name == "dma_drop")
            .expect("fault instant");
        assert_eq!((drop.ts, drop.tid), (100, lane));
        let retry = events
            .iter()
            .find(|e| e.ph == 'i' && e.name == "retry")
            .expect("recovery instant");
        assert_eq!((retry.ts, retry.tid), (400, lane));
    }

    #[test]
    fn lane_table_gives_every_lane_its_own_tid() {
        assert_eq!(Lane::of_tid(0), None, "tid 0 is the host");
        let mut tids = BTreeSet::new();
        for &(layer, base, name) in &Layer::TABLE {
            assert_eq!((layer.tid_base(), layer.name()), (base, name));
            for accel in 0..Layer::MAX_ACCELS {
                let lane = layer.lane(accel);
                assert_eq!(Lane::of_tid(lane.tid()), Some(lane));
                assert!(tids.insert(lane.tid()), "{lane} shares a tid");
            }
        }
        assert_eq!(Lane::of_tid(100), Some(Layer::Dma.lane(0)));
    }

    #[test]
    fn every_emitted_lane_is_named_on_the_largest_machine() -> Result<(), SimError> {
        let mut m = Machine::new(MachineConfig {
            accel_count: Layer::MAX_ACCELS,
            local_store_size: 4096,
            staging_size: 1024,
            ..MachineConfig::small()
        })?;
        m.events_mut().set_enabled(true);
        let accels = [0, 63, 64, 70, Layer::MAX_ACCELS - 1];
        for accel in accels {
            m.offload(accel).run(|ctx| ctx.compute(10))?;
            m.sched_note_run(0, accel, 0, 10, None);
        }
        let events = parse_chrome_trace(&chrome_trace_json(m.events())).unwrap();
        let names: Vec<(u64, &str)> = events
            .iter()
            .filter(|e| e.ph == 'M' && e.name == "thread_name")
            .map(|e| (e.tid, e.name.as_str()))
            .collect();
        for e in events.iter().filter(|e| e.ph != 'M') {
            assert!(
                names.iter().any(|&(tid, _)| tid == e.tid),
                "tid {} unnamed",
                e.tid
            );
        }
        for accel in accels {
            let lane = Layer::Accel.lane(accel).tid();
            let offload = events
                .iter()
                .find(|e| e.ph == 'X' && e.name == "offload" && e.tid == lane)
                .expect("each offload sits on its own accelerator's lane");
            assert_eq!(Lane::of_tid(offload.tid), Some(Layer::Accel.lane(accel)));
        }
        let json = chrome_trace_json(m.events());
        assert!(json.contains("\"args\":{\"name\":\"accel 70\"}"));
        assert!(json.contains("\"args\":{\"name\":\"sched 98\"}"));
        Ok(())
    }

    #[test]
    fn utilization_report_mentions_faults_only_when_any_fired() -> Result<(), SimError> {
        let m = Machine::new(MachineConfig::small())?;
        assert!(!m.utilization_report().contains("faults:"));
        let mut m = Machine::new(MachineConfig::small())?;
        m.install_fault_plan(crate::fault::FaultPlan::new(9).with_accel_death(1.0));
        let _ = m.offload(0).run(|ctx| ctx.compute(1));
        let report = m.utilization_report();
        assert!(report.contains("faults: 1 injected"));
        assert!(report.contains("1 deaths"));
        assert!(report.contains("recovery: 0 retries"));
        Ok(())
    }

    #[test]
    fn utilization_report_gains_an_imbalance_section_with_sched_tiles() -> Result<(), SimError> {
        let mut m = Machine::new(MachineConfig::small())?;
        let report = m.utilization_report();
        assert!(
            !report.contains("scheduler:"),
            "no sched section by default"
        );
        m.offload(0).run(|ctx| ctx.compute(1000))?;
        m.sched_note_run(0, 0, 0, 1000, None);
        let report = m.utilization_report();
        assert!(report.contains("scheduler: 1 tiles across 1 accels"));
        assert!(report.contains("imbalance 1.00"));
        Ok(())
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_chrome_trace("not json").is_err());
        assert!(parse_chrome_trace("{\"traceEvents\":[{\"name\":\"x\"}]}").is_err());
    }
}
