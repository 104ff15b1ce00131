//! A lightweight, zero-simulated-cycle timeline of machine events.
//!
//! Every event carries the cycle at which it happened on *some* core's
//! clock, plus a structured [`EventKind`]: an offload lifecycle step, a
//! join, a note or a span, or — for every runtime layer — one of three
//! generic kinds, a slice, an instant or a counter on a [`Lane`], with
//! a static label and up to [`MAX_ARGS`] inline [`Args`]. Recording is
//! disabled by default and costs **host memory only, never simulated
//! cycles**: the determinism regression test pins that enabling the
//! log leaves every cycle count bit-identical. When the log is
//! disabled, recording is a single branch and the backing vector never
//! allocates; when it is enabled, a record is one `Vec` push.
//!
//! The raw log is in *emission* order (host and accelerator clocks
//! interleave, and DMA completions are known at issue time), so
//! consumers that need a strict timeline use [`EventLog::sorted`] or
//! the exporters in [`crate::trace`], which sort stably by cycle.

use std::borrow::Cow;
use std::fmt::{self, Write as _};

use crate::trace::Lane;

/// Which core's clock an event was stamped against.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum CoreId {
    /// The host core.
    Host,
    /// An accelerator core, by index.
    Accel(u16),
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreId::Host => write!(f, "host"),
            CoreId::Accel(index) => write!(f, "accel {index}"),
        }
    }
}

/// What happened.
///
/// Offload lifecycles, joins, notes and spans are the machine's own
/// kinds. Every runtime layer (DMA, caches, scheduler, pipeline,
/// gathers, faults) records through the three generic kinds — a
/// [`EventKind::Slice`], [`EventKind::Instant`] or
/// [`EventKind::Counter`] on a [`Lane`] from the layer table in
/// [`crate::trace`].
#[derive(Clone, PartialEq, Debug)]
pub enum EventKind {
    /// An offload thread started on an accelerator.
    OffloadStart {
        /// The accelerator index.
        accel: u16,
        /// Label of the offloaded task ("offload" when unlabeled).
        name: &'static str,
    },
    /// An offload thread finished.
    OffloadEnd {
        /// The accelerator index.
        accel: u16,
    },
    /// The host joined an offload thread.
    Join {
        /// The accelerator index.
        accel: u16,
    },
    /// A free-form annotation from user code.
    ///
    /// Static text records without allocating (see
    /// [`EventLog::note_static`]); owned text is for genuinely dynamic
    /// annotations off the hot path.
    Note {
        /// The annotation text.
        text: Cow<'static, str>,
    },
    /// A named span opened on some core (paired with [`EventKind::SpanEnd`]).
    SpanStart {
        /// The core whose clock stamps the span.
        core: CoreId,
        /// Span label, e.g. `"detectCollisions"`.
        name: &'static str,
    },
    /// A named span closed on some core.
    SpanEnd {
        /// The core whose clock stamps the span.
        core: CoreId,
        /// Span label; must match the innermost open span on this core.
        name: &'static str,
    },
    /// An interval on a lane, from `at` (the event cycle) to `end`: a
    /// DMA transfer, a `dma_wait` stall, a tile run, an idle gap, a
    /// pipeline chunk or stall, a gather batch.
    Slice {
        /// The lane the slice sits on.
        lane: Lane,
        /// Label template; `{key}` is filled from `args` at export.
        label: &'static str,
        /// Cycle at which the interval ends.
        end: u64,
        /// Arguments, in export order.
        args: Args,
    },
    /// A point on a lane: cache activity, an enqueue or steal, an
    /// injected fault or a recovery action.
    Instant {
        /// The lane the instant sits on.
        lane: Lane,
        /// Label template; `{key}` is filled from `args` at export.
        label: &'static str,
        /// Arguments, in export order.
        args: Args,
    },
    /// A counter sample on a lane (each arg is one series), e.g. the
    /// local-store high-water mark.
    Counter {
        /// The lane the counter belongs to.
        lane: Lane,
        /// Counter name.
        label: &'static str,
        /// The sampled values.
        args: Args,
    },
}

/// Most arguments one event carries (a retry: accel, kind, tile,
/// attempt, backoff).
pub const MAX_ARGS: usize = 5;

/// One argument value.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Val {
    /// An integer.
    Int(u64),
    /// A static string.
    Str(&'static str),
}

macro_rules! val_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Val {
            fn from(v: $t) -> Val {
                Val::Int(u64::from(v))
            }
        }
    )*};
}
val_from_int!(u8, u16, u32, u64);

impl From<&'static str> for Val {
    fn from(s: &'static str) -> Val {
        Val::Str(s)
    }
}

impl fmt::Display for Val {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Val::Int(n) => write!(f, "{n}"),
            Val::Str(s) => f.write_str(s),
        }
    }
}

/// An event's arguments: static keys with inline values, in export
/// order. Building one never allocates.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Args {
    keys: &'static [&'static str],
    vals: [Val; MAX_ARGS],
}

impl Args {
    /// Pairs `keys` with `vals`; the lengths match by construction.
    pub fn new<const N: usize>(keys: &'static [&'static str; N], vals: [Val; N]) -> Args {
        const { assert!(N <= MAX_ARGS, "an event carries at most MAX_ARGS args") };
        let mut all = [Val::Int(0); MAX_ARGS];
        all[..N].copy_from_slice(&vals);
        Args { keys, vals: all }
    }

    /// The `(key, value)` pairs, in export order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, Val)> + '_ {
        self.keys.iter().copied().zip(self.vals)
    }

    /// The value of `key`, if present.
    pub fn get(&self, key: &str) -> Option<Val> {
        self.iter().find(|&(k, _)| k == key).map(|(_, v)| v)
    }

    /// Whether there are no arguments.
    pub(crate) fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

/// Renders a label template against its event's args: each `{key}`
/// becomes that argument's value (`"tile {tile}"` → `"tile 7"`). Only a
/// template with a placeholder allocates, and only here, at export.
pub(crate) fn render_label(template: &'static str, args: &Args) -> Cow<'static, str> {
    if !template.contains('{') {
        return Cow::Borrowed(template);
    }
    let mut out = String::new();
    let mut rest = template;
    while let Some((head, tail)) = rest.split_once('{') {
        let (key, tail) = tail.split_once('}').unwrap_or((tail, ""));
        let _ = write!(out, "{head}{}", args.get(key).unwrap_or(Val::Str(key)));
        rest = tail;
    }
    out.push_str(rest);
    Cow::Owned(out)
}

/// One timestamped event.
#[derive(Clone, PartialEq, Debug)]
pub struct Event {
    /// Cycle at which the event happened.
    pub at: u64,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// The core whose clock stamped this event.
    ///
    /// Joins and notes are stamped by the host; every lane belongs to
    /// an accelerator.
    pub fn core(&self) -> CoreId {
        match &self.kind {
            EventKind::OffloadStart { accel, .. } | EventKind::OffloadEnd { accel } => {
                CoreId::Accel(*accel)
            }
            EventKind::Join { .. } | EventKind::Note { .. } => CoreId::Host,
            EventKind::SpanStart { core, .. } | EventKind::SpanEnd { core, .. } => *core,
            EventKind::Slice { lane, .. }
            | EventKind::Instant { lane, .. }
            | EventKind::Counter { lane, .. } => CoreId::Accel(lane.accel),
        }
    }

    /// The lane of a slice, instant or counter.
    pub fn lane(&self) -> Option<Lane> {
        match &self.kind {
            EventKind::Slice { lane, .. }
            | EventKind::Instant { lane, .. }
            | EventKind::Counter { lane, .. } => Some(*lane),
            _ => None,
        }
    }

    /// The cycle at which this event ends: a slice's `end`, else `at`.
    pub(crate) fn end(&self) -> u64 {
        match self.kind {
            EventKind::Slice { end, .. } => end.max(self.at),
            _ => self.at,
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:>10}] ", self.at)?;
        match &self.kind {
            EventKind::OffloadStart { accel, name } => {
                write!(f, "offload start on accel {accel} ({name})")
            }
            EventKind::OffloadEnd { accel } => write!(f, "offload end on accel {accel}"),
            EventKind::Join { accel } => write!(f, "join accel {accel}"),
            EventKind::Note { text } => f.write_str(text),
            EventKind::SpanStart { core, name } => write!(f, "{core}: begin {name}"),
            EventKind::SpanEnd { core, name } => write!(f, "{core}: end   {name}"),
            EventKind::Slice {
                lane,
                label,
                end,
                args,
            } => {
                write_on_lane(f, *lane, label, args)?;
                write!(f, " until {end}")
            }
            EventKind::Instant { lane, label, args } | EventKind::Counter { lane, label, args } => {
                write_on_lane(f, *lane, label, args)
            }
        }
    }
}

fn write_on_lane(
    f: &mut fmt::Formatter<'_>,
    lane: Lane,
    label: &'static str,
    args: &Args,
) -> fmt::Result {
    write!(f, "{lane}: {}", render_label(label, args))?;
    args.iter()
        .try_for_each(|(key, val)| write!(f, " {key}={val}"))
}

/// An append-only event log, disabled by default (recording costs host
/// memory, not simulated cycles).
///
/// # Example
///
/// ```
/// use simcell::{EventKind, EventLog};
///
/// let mut log = EventLog::new();
/// log.note_static(10, "ignored while disabled");
/// assert_eq!(log.len(), 0);
/// assert_eq!(log.capacity(), 0, "a disabled log never allocates");
///
/// log.set_enabled(true);
/// log.note_static(42, "frame 1 begins");
/// assert_eq!(log.len(), 1);
/// assert!(log.events()[0].to_string().contains("frame 1"));
/// ```
#[derive(Clone, Debug, Default)]
pub struct EventLog {
    enabled: bool,
    events: Vec<Event>,
}

impl EventLog {
    /// Creates a disabled log.
    pub fn new() -> EventLog {
        EventLog::default()
    }

    /// Enables or disables recording.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether recording is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records an event if enabled.
    #[inline]
    pub fn record(&mut self, at: u64, kind: EventKind) {
        if self.enabled {
            self.events.push(Event { at, kind });
        }
    }

    /// Records a [`EventKind::Slice`] over `[at, end]` on `lane`.
    #[inline]
    pub fn slice(&mut self, at: u64, lane: Lane, label: &'static str, end: u64, args: Args) {
        self.record(
            at,
            EventKind::Slice {
                lane,
                label,
                end,
                args,
            },
        );
    }

    /// Records an [`EventKind::Instant`] at `at` on `lane`.
    #[inline]
    pub fn instant(&mut self, at: u64, lane: Lane, label: &'static str, args: Args) {
        self.record(at, EventKind::Instant { lane, label, args });
    }

    /// Records an [`EventKind::Counter`] sample at `at` on `lane`.
    #[inline]
    pub fn counter(&mut self, at: u64, lane: Lane, label: &'static str, args: Args) {
        self.record(at, EventKind::Counter { lane, label, args });
    }

    /// Records a static annotation without allocating: the text is a
    /// `&'static str`, so enabled-log experiments pay one `Vec` push and
    /// nothing else. Prefer this over [`EventKind::Note`] with an owned
    /// `String` anywhere near a hot path.
    pub fn note_static(&mut self, at: u64, text: &'static str) {
        if self.enabled {
            self.events.push(Event {
                at,
                kind: EventKind::Note {
                    text: Cow::Borrowed(text),
                },
            });
        }
    }

    /// Records a dynamically built annotation (allocates; keep off hot
    /// paths).
    pub fn note(&mut self, at: u64, text: String) {
        if self.enabled {
            self.events.push(Event {
                at,
                kind: EventKind::Note {
                    text: Cow::Owned(text),
                },
            });
        }
    }

    /// The recorded events, in emission order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Capacity of the backing storage, in events. Stays 0 for a log
    /// that was never enabled — the allocation-free guarantee the test
    /// suite pins.
    pub fn capacity(&self) -> usize {
        self.events.capacity()
    }

    /// The events sorted stably by cycle (emission order breaks ties, so
    /// causally ordered same-cycle events keep their order).
    pub fn sorted(&self) -> Vec<Event> {
        let mut sorted = self.events.clone();
        sorted.sort_by_key(|e| e.at);
        sorted
    }

    /// Clears the log.
    pub fn clear(&mut self) {
        self.events.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Layer;

    #[test]
    fn disabled_log_records_nothing_and_never_allocates() {
        let mut log = EventLog::new();
        log.record(5, EventKind::Note { text: "x".into() });
        log.note_static(6, "y");
        log.note(7, String::from("z"));
        assert!(log.events().is_empty());
        assert!(log.is_empty());
        assert_eq!(log.capacity(), 0);
    }

    #[test]
    fn enabled_log_records_in_order() {
        let mut log = EventLog::new();
        log.set_enabled(true);
        log.record(
            1,
            EventKind::OffloadStart {
                accel: 0,
                name: "offload",
            },
        );
        log.record(9, EventKind::OffloadEnd { accel: 0 });
        assert_eq!(log.events().len(), 2);
        assert_eq!(log.len(), 2);
        assert_eq!(log.events()[0].at, 1);
        log.clear();
        assert!(log.events().is_empty());
        assert!(log.is_enabled());
    }

    #[test]
    fn note_static_does_not_allocate_text() {
        let mut log = EventLog::new();
        log.set_enabled(true);
        log.note_static(3, "static text");
        match &log.events()[0].kind {
            EventKind::Note { text } => {
                assert!(matches!(text, Cow::Borrowed(_)), "static note must borrow")
            }
            other => panic!("unexpected kind {other:?}"),
        }
    }

    #[test]
    fn sorted_is_stable_by_cycle() {
        let mut log = EventLog::new();
        log.set_enabled(true);
        // A DMA completion timestamped in the future, then an earlier
        // local event: sorted() restores the timeline.
        let args = Args::new(&["tag", "bytes"], [3u8.into(), 256u32.into()]);
        log.slice(100, Layer::Dma.lane(0), "dma_get", 900, args);
        log.note_static(50, "earlier");
        log.note_static(50, "same cycle, later emission");
        let sorted = log.sorted();
        assert_eq!(sorted[0].at, 50);
        assert!(sorted[0].to_string().contains("earlier"));
        assert!(sorted[1].to_string().contains("later emission"));
        assert_eq!(sorted[2].at, 100);
    }

    #[test]
    fn cores_are_attributed() {
        let start = Event {
            at: 0,
            kind: EventKind::OffloadStart {
                accel: 2,
                name: "ai",
            },
        };
        assert_eq!(start.core(), CoreId::Accel(2));
        let join = Event {
            at: 0,
            kind: EventKind::Join { accel: 2 },
        };
        assert_eq!(join.core(), CoreId::Host);
        let span = Event {
            at: 0,
            kind: EventKind::SpanStart {
                core: CoreId::Host,
                name: "render",
            },
        };
        assert_eq!(span.core(), CoreId::Host);
    }

    #[test]
    fn display_forms() {
        let e = Event {
            at: 42,
            kind: EventKind::Join { accel: 3 },
        };
        assert!(e.to_string().contains("join accel 3"));
        let e = Event {
            at: 42,
            kind: EventKind::Note {
                text: "frame 1".into(),
            },
        };
        assert!(e.to_string().contains("frame 1"));
        let e = Event {
            at: 7,
            kind: EventKind::Slice {
                lane: Layer::Dma.lane(1),
                label: "dma_put",
                end: 600,
                args: Args::new(&["tag", "bytes"], [5u8.into(), 128u32.into()]),
            },
        };
        assert_eq!(
            e.to_string(),
            "[         7] dma 1: dma_put tag=5 bytes=128 until 600"
        );
        let e = Event {
            at: 7,
            kind: EventKind::Instant {
                lane: Layer::Accel.lane(0),
                label: "cache_miss",
                args: Args::new(&["count", "bytes_fetched"], [2u32.into(), 128u64.into()]),
            },
        };
        assert_eq!(
            e.to_string(),
            "[         7] accel 0: cache_miss count=2 bytes_fetched=128"
        );
    }

    #[test]
    fn lane_events_fill_label_templates_from_their_args() {
        let e = Event {
            at: 100,
            kind: EventKind::Slice {
                lane: Layer::Pipe.lane(2),
                label: "s{stage} chunk {chunk}",
                end: 900,
                args: Args::new(
                    &["accel", "stage", "chunk"],
                    [2u16.into(), 1u16.into(), 4u32.into()],
                ),
            },
        };
        assert_eq!(e.core(), CoreId::Accel(2));
        assert_eq!(e.lane(), Some(Layer::Pipe.lane(2)));
        assert_eq!(e.end(), 900);
        let s = e.to_string();
        assert!(
            s.contains("pipe 2: s1 chunk 4 accel=2 stage=1 chunk=4 until 900"),
            "{s}"
        );

        let args = Args::new(&["kind"], ["retry".into()]);
        assert_eq!(args.get("kind"), Some(Val::Str("retry")));
        assert_eq!(args.get("tile"), None);
        assert_eq!(render_label("{kind} {tile}", &args), "retry tile");
        assert!(matches!(render_label("idle", &args), Cow::Borrowed("idle")));
    }
}
