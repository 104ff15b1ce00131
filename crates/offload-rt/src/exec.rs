//! The dispatch core shared by [`crate::sched`] and [`crate::pipeline`]:
//! one [`Recovery`] policy with its [`Recoverable`] setters, the
//! retry/backoff loop and host fallback every item runs through, and
//! the [`RunSummary`] both runtimes report.

use std::ops::Range;

use simcell::{AccelCtx, FaultPlan, Machine, MachineStats, ModeSet, SimError};

/// Simulated cycles a retried item cools down on the accelerator clock
/// before re-running (see [`Recoverable::backoff`]): roughly the cost
/// of re-staging one bulk descriptor under the Cell-like model.
pub const DEFAULT_RETRY_BACKOFF: u64 = 1_000;

/// How a runtime recovers from injected faults: the plan to arm, the
/// retries per item, the backoff between attempts, and whether
/// unrecoverable items degrade to the host. Set through [`Recoverable`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Recovery {
    pub(crate) plan: Option<FaultPlan>,
    pub(crate) retries: u32,
    pub(crate) backoff: u64,
    pub(crate) fallback: bool,
}

impl Default for Recovery {
    fn default() -> Recovery {
        Recovery {
            plan: None,
            retries: 0,
            backoff: DEFAULT_RETRY_BACKOFF,
            fallback: false,
        }
    }
}

/// The recovery setters, declared once for both runtime builders
/// ([`TileScheduler`](crate::TileScheduler) and
/// [`PipelineBuilder`](crate::PipelineBuilder)). With no plan armed, or
/// an all-zero one, recovery never draws from the fault RNG and the run
/// is bit-identical to a fault-free one.
pub trait Recoverable: Sized {
    /// The builder's recovery policy, which the setters below edit.
    fn recovery_mut(&mut self) -> &mut Recovery;

    /// Arms `plan` on the machine when the run starts, after the run
    /// validated its configuration: a run rejected before anything
    /// launches leaves the machine's plan as it was. The plan persists
    /// afterwards; clear it with [`Machine::clear_fault_plan`]. This is
    /// the only builder setter for a plan; a plain offload runs under
    /// whatever [`Machine::install_fault_plan`] armed.
    fn faults(mut self, plan: FaultPlan) -> Self {
        self.recovery_mut().plan = Some(plan);
        self
    }

    /// Retries an item up to `n` times after a *transient* fault (DMA
    /// corruption/drop, tag timeout, local-store poison), rolling back
    /// its puts first. Default 0: the first fault is final.
    fn retry(mut self, n: u32) -> Self {
        self.recovery_mut().retries = n;
        self
    }

    /// Sets the simulated cycles a retried item waits on the
    /// accelerator clock before re-running (default
    /// [`DEFAULT_RETRY_BACKOFF`]).
    fn backoff(mut self, cycles: u64) -> Self {
        self.recovery_mut().backoff = cycles;
        self
    }

    /// Degrades unrecoverable items (retries exhausted, or no live
    /// accelerator left to run them) to host execution at the cost
    /// model's `host_fallback_factor` penalty, instead of failing the
    /// run with the fault.
    fn fallback_host(mut self) -> Self {
        self.recovery_mut().fallback = true;
        self
    }
}

/// One accelerator lane of a [`RunSummary`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LaneReport {
    /// The accelerator index.
    pub accel: u16,
    /// The lane's item label: the offload label under the scheduler,
    /// the stage name in a pipeline.
    pub name: &'static str,
    /// Items the lane ran: tiles under the scheduler (host fallbacks
    /// excluded), stage/chunk items in a pipeline (fallbacks included).
    pub items: u32,
    /// Cycles spent running items.
    pub busy: u64,
    /// Cycles idle between the run start and the last item end anywhere.
    pub idle: u64,
}

/// What a scheduler or pipeline run did, in the terms both share. All
/// cycle figures are simulated cycles.
///
/// # Busy / idle / stall
///
/// | term | meaning (simulated cycles) |
/// |-------|---------------------------|
/// | busy  | a lane was executing items: compute, transfers, and any stalls charged to the item ([`busy_cycles`](RunSummary::busy_cycles), summed over [`LaneReport::busy`]) |
/// | idle  | a lane had nothing to run between the run start and the last item finishing anywhere ([`idle_cycles`](RunSummary::idle_cycles), summed over [`LaneReport::idle`]) |
/// | stall | items were blocked on coordination rather than work: steal costs under the scheduler ([`SchedReport::stall_cycles`](crate::SchedReport::stall_cycles)), input waits and backpressure in a pipeline ([`PipeReport::stall_cycles`](crate::PipeReport::stall_cycles)) |
///
/// Stall cycles are a *breakdown*, not a third bucket: they were
/// charged to some item (the thief's, the stalled stage's), so they are
/// already inside the busy and cycle totals.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunSummary {
    /// Host cycles from entering the run to the last join.
    pub cycles: u64,
    /// Cycle at which the last item finished (absolute machine time).
    pub finished_at: u64,
    /// One row per accelerator lane.
    pub lanes: Vec<LaneReport>,
    /// Faults the plane injected during the run (all kinds).
    pub faults: u64,
    /// Item retries the recovery layer performed.
    pub retries: u64,
    /// Items that degraded to host execution.
    pub fallbacks: u64,
}

impl RunSummary {
    /// Total busy cycles: [`LaneReport::busy`] summed over the lanes.
    pub fn busy_cycles(&self) -> u64 {
        self.lanes.iter().map(|l| l.busy).sum()
    }

    /// Total idle cycles: [`LaneReport::idle`] summed over the lanes.
    pub fn idle_cycles(&self) -> u64 {
        self.lanes.iter().map(|l| l.idle).sum()
    }

    /// Load imbalance: max over mean busy cycles across the lanes that
    /// ran anything (1.0 = perfectly balanced).
    pub fn imbalance(&self) -> f64 {
        let busy: Vec<u64> = self
            .lanes
            .iter()
            .map(|l| l.busy)
            .filter(|&b| b > 0)
            .collect();
        let Some(&max) = busy.iter().max() else {
            return 1.0;
        };
        max as f64 / (busy.iter().sum::<u64>() as f64 / busy.len() as f64)
    }
}

/// One item's occupancy of a lane, or an idle gap on it:
/// `(accel, from, until)`.
pub(crate) type LaneSpan = (u16, u64, u64);

/// A run in progress: its recovery policy plus the host clock and
/// counters its [`RunSummary`] is measured from.
pub(crate) struct Exec {
    pub(crate) recovery: Recovery,
    pub(crate) t0: u64,
    pub(crate) s0: MachineStats,
}

impl Exec {
    /// Arms the policy's fault plan, if any, and snapshots the host
    /// clock and counters.
    pub(crate) fn start(machine: &mut Machine, recovery: Recovery) -> Exec {
        if let Some(plan) = recovery.plan {
            machine.install_fault_plan(plan);
        }
        Exec {
            recovery,
            t0: machine.host_now(),
            s0: *machine.stats(),
        }
    }

    /// Closes the run: rebuilds each lane's occupancy from the item
    /// `runs` (sorted in place by lane and start) and takes the counter
    /// deltas. Also returns the idle gaps, lane by lane in time order,
    /// for runtimes that draw them on a trace lane.
    pub(crate) fn finish(
        self,
        machine: &Machine,
        lanes: impl ExactSizeIterator<Item = (u16, &'static str)>,
        runs: &mut [LaneSpan],
    ) -> (RunSummary, Vec<LaneSpan>) {
        let t0 = self.t0;
        let finished_at = runs.iter().map(|&(_, _, end)| end).max().unwrap_or(t0);
        runs.sort_by_key(|&(accel, start, _)| (accel, start));
        // At most one gap before each item plus one trailing per lane.
        let mut gaps = Vec::with_capacity(runs.len() + lanes.len());
        let lanes = lanes
            .map(|(accel, name)| {
                let (mut cursor, mut busy, mut items) = (t0, 0u64, 0u32);
                for &(_, start, end) in runs.iter().filter(|run| run.0 == accel) {
                    if start > cursor {
                        gaps.push((accel, cursor, start));
                    }
                    busy += end - start;
                    items += 1;
                    cursor = cursor.max(end);
                }
                if finished_at > cursor {
                    gaps.push((accel, cursor, finished_at));
                }
                let idle = finished_at.saturating_sub(t0).saturating_sub(busy);
                LaneReport {
                    accel,
                    name,
                    items,
                    busy,
                    idle,
                }
            })
            .collect();
        let (s0, s1) = (&self.s0, machine.stats());
        let summary = RunSummary {
            cycles: machine.host_now() - t0,
            finished_at,
            lanes,
            faults: s1.faults_injected - s0.faults_injected,
            retries: s1.recovery_retries - s0.recovery_retries,
            fallbacks: s1.recovery_fallbacks - s0.recovery_fallbacks,
        };
        (summary, gaps)
    }
}

/// The accelerator lanes `base..base + count`, or
/// [`SimError::BadConfig`] naming the runtime's `what` if the range is
/// empty or runs past the machine's accelerators.
pub(crate) fn lane_range(
    machine: &Machine,
    what: &str,
    base: u16,
    count: usize,
) -> Result<Range<u16>, SimError> {
    let end = usize::from(base) + count;
    match u16::try_from(end) {
        Ok(end) if count > 0 && end <= machine.accel_count() => Ok(base..end),
        _ => Err(SimError::BadConfig {
            reason: format!(
                "{what} {base}..{end} exceed the machine's {} accelerators",
                machine.accel_count()
            ),
        }),
    }
}

/// Re-runs `item`, which failed on `accel`, on the host at the cost
/// model's fallback penalty. The host never faults, so this is one
/// attempt (no retries); a failing one still drains and rolls back its
/// puts.
pub(crate) fn host_fallback<R>(
    machine: &mut Machine,
    accel: u16,
    item: u32,
    label: &'static str,
    modes: ModeSet,
    f: &mut dyn FnMut(&mut AccelCtx<'_>, u32) -> Result<R, SimError>,
) -> Result<R, SimError> {
    machine.recovery_note_fallback(machine.host_now(), accel, item);
    machine.run_host_fallback(accel, label, modes, |ctx| {
        run_with_retries(ctx, item, &Recovery::default(), f)
    })?
}

/// Runs one item with the retry/backoff recovery loop: a transient
/// fault (returned by the closure, or left sticky by a tag timeout)
/// releases the item's local-store allocations, quiesces the DMA
/// engine, charges the backoff on the accelerator clock, and re-runs —
/// up to `recovery`'s retry count before the fault becomes the item's
/// result.
pub(crate) fn run_with_retries<R>(
    ctx: &mut AccelCtx<'_>,
    item: u32,
    recovery: &Recovery,
    f: &mut dyn FnMut(&mut AccelCtx<'_>, u32) -> Result<R, SimError>,
) -> Result<R, SimError> {
    let Recovery {
        retries, backoff, ..
    } = *recovery;
    let mut attempt = 0u32;
    loop {
        let mark = ctx.local_alloc_mark();
        let puts = ctx.put_journal_mark();
        let err = match f(ctx, item) {
            Ok(r) => match ctx.take_fault() {
                // A sticky timeout the closure never checked still
                // fails the attempt: its data may be incomplete.
                Some(fault) => SimError::from(fault),
                None => {
                    ctx.put_journal_commit(puts);
                    return Ok(r);
                }
            },
            Err(e) => e,
        };
        // Either way the failed attempt's in-flight transfers must
        // land before anyone reuses this local store — the retry, the
        // next item on this lane, or the host fallback. A timeout
        // rolled during the drain belongs to the same failed attempt,
        // so it must not poison what comes next.
        ctx.dma_wait_all();
        ctx.take_fault();
        // Void the failed attempt's main-memory puts: an in-place item
        // reads the range it writes, so whoever re-runs it — the retry
        // here or the host fallback after us — must see the input the
        // failed attempt started from, not its partial (or scribbled)
        // output.
        ctx.put_journal_rollback(puts)?;
        let transient = matches!(&err, SimError::Fault(fault) if fault.is_transient());
        if !transient || attempt >= retries {
            return Err(err);
        }
        ctx.local_alloc_restore(mark);
        attempt += 1;
        ctx.recovery_note_retry(item, attempt, backoff);
        ctx.compute(backoff);
    }
}
