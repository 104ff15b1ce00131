//! Deterministic multi-accelerator tile scheduling.
//!
//! The paper's frame loop (§4.1, Figure 2) offloads one task per
//! accelerator by hand. Once a task is tiled finer than the
//! accelerator count — or the tiles stop costing the same — someone
//! has to decide *which* accelerator runs *which* tile, and that
//! decision is a scheduler. This module layers the three
//! [`SchedPolicy`] variants over [`simcell::Machine`], all deterministic
//! (the simulation stays sequential; "parallelism" is the cycle
//! accounting).
//!
//! Every enqueue, run, steal and idle gap is recorded as a
//! zero-simulated-cost structured event in the machine's [`EventLog`];
//! the Chrome exporter renders them as one scheduler lane per
//! accelerator (see `simcell::trace` and the repository's
//! `PROFILING.md`).
//!
//! # Recovery
//!
//! With a fault plan armed, every tile runs through the shared recovery
//! layer of [`crate::exec`], configured by the [`Recoverable`] setters:
//! transient faults retry with backoff, and with
//! [`Recoverable::fallback_host`] unrecoverable tiles degrade to the
//! host. The scheduler adds **eviction**: an accelerator the fault plane
//! kills leaves the live lane set mid-dispatch, and its queued tiles are
//! redistributed round-robin over the survivors (an `evict` event notes
//! the move); tiles no live lane can take fall back to the host too.
//!
//! # Example
//!
//! ```
//! use offload_rt::sched::{SchedExt, SchedPolicy};
//! use simcell::{Machine, MachineConfig, SimError};
//!
//! # fn main() -> Result<(), SimError> {
//! let mut machine = Machine::new(MachineConfig::default())?;
//! let costs = [40_000u64, 5_000, 5_000, 5_000, 5_000, 5_000, 5_000, 5_000];
//! let (ends, report) = machine
//!     .offload(0)
//!     .label("tile")
//!     .sched(SchedPolicy::WorkStealing)
//!     .accels(4)
//!     .run_tiles(8, |ctx, tile| {
//!         ctx.compute(costs[tile as usize]);
//!         Ok(ctx.now())
//!     })?;
//! assert_eq!(ends.len(), 8);
//! assert_eq!(report.tiles, 8);
//! assert_eq!(report.run.lanes.len(), 4);
//! # Ok(())
//! # }
//! ```
//!
//! [`EventLog`]: simcell::EventLog

use std::collections::VecDeque;
use std::ops::Range;

use simcell::{
    AccelCtx, FaultError, Machine, ModeSet, OffloadBuilder, OffloadHandle, OffloadParts, SimError,
};
use softcache::CacheChoice;

use crate::exec::{
    host_fallback, lane_range, run_with_retries, Exec, LaneSpan, Recoverable, Recovery, RunSummary,
};

/// How a [`TileScheduler`] maps tiles onto accelerators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Block-split tiles over accelerators up front: accelerator `a`
    /// of `A` owns tiles [`block_range(T, a, A)`](block_range). With
    /// one tile per accelerator this is bit-identical to launching one
    /// offload per accelerator by hand (the E14 shape).
    Static,
    /// Greedy: each tile, in tile order, goes to the accelerator that
    /// frees up earliest (ties to the lowest index).
    ShortestQueue,
    /// Static seeding plus stealing: an accelerator whose own deque is
    /// empty takes the back tile of the most-loaded queue, paying
    /// [`DEFAULT_STEAL_COST`]. It steals only when it would start
    /// the tile, steal cost included, strictly before the victim could,
    /// so a stolen tile never finishes later than under
    /// [`SchedPolicy::Static`] (a seeded property test in `bench` checks
    /// this over random tile costs).
    WorkStealing,
}

impl SchedPolicy {
    /// Short lower-case name for report rows ("static", "shortest-queue",
    /// "work-stealing").
    pub fn name(&self) -> &'static str {
        match self {
            SchedPolicy::Static => "static",
            SchedPolicy::ShortestQueue => "shortest-queue",
            SchedPolicy::WorkStealing => "work-stealing",
        }
    }
}

/// Simulated cycles a work-stealing thief pays to grab a tile from
/// another accelerator's queue (a cross-local-store descriptor pull:
/// two high-latency accesses' worth under the Cell-like cost model).
pub const DEFAULT_STEAL_COST: u64 = 600;

/// Part `part` of `parts` in a block split of `0..n`:
/// `[n*part/parts, n*(part+1)/parts)`. The parts partition `0..n` in
/// order and differ in length by at most one. The products are taken in
/// 64 bits, so no `n` or `parts` can wrap them.
///
/// # Panics
///
/// Panics unless `part < parts`.
pub fn block_range(n: u32, part: u32, parts: u32) -> Range<u32> {
    assert!(part < parts, "part {part} of a {parts}-way split");
    let bound = |p: u32| {
        // p <= parts, so the quotient is at most n.
        u32::try_from(u64::from(n) * u64::from(p) / u64::from(parts)).expect("at most n")
    };
    bound(part)..bound(part + 1)
}

/// Extends [`OffloadBuilder`] with the scheduler entry point, so a
/// tiled dispatch reads as one fluent chain:
/// `machine.offload(0).label("ai").cache(choice).sched(policy)`.
pub trait SchedExt<'m> {
    /// Turns the configured offload into a [`TileScheduler`] running
    /// under `policy`. The builder's accelerator index becomes the
    /// first lane; its label, cache choice and access modes apply to
    /// every tile. Recovery starts from [`Recovery::default`] (no plan
    /// armed); arm one with [`Recoverable::faults`] on the scheduler.
    /// Gather plans do not fan out over tiles: declaring one makes
    /// [`TileScheduler::run_tiles`] fail.
    fn sched(self, policy: SchedPolicy) -> TileScheduler<'m>;
}

impl<'m> SchedExt<'m> for OffloadBuilder<'m> {
    fn sched(self, policy: SchedPolicy) -> TileScheduler<'m> {
        let OffloadParts {
            machine,
            accel: base,
            label,
            cache,
            modes,
            gathers,
        } = self.into_parts();
        TileScheduler {
            machine,
            base,
            accels: None,
            label,
            cache,
            policy,
            recovery: Recovery::default(),
            modes,
            gathers: !gathers.is_empty(),
        }
    }
}

/// A configured tile dispatch over several accelerators.
///
/// Built by [`SchedExt::sched`]; consumed by
/// [`TileScheduler::run_tiles`]. Recovery is set through
/// [`Recoverable`].
#[must_use = "a tile scheduler does nothing until run_tiles"]
#[derive(Debug)]
pub struct TileScheduler<'m> {
    machine: &'m mut Machine,
    base: u16,
    accels: Option<u16>,
    label: &'static str,
    cache: CacheChoice,
    policy: SchedPolicy,
    recovery: Recovery,
    modes: ModeSet,
    /// Whether the offload builder declared gather plans (rejected at run).
    gathers: bool,
}

impl Recoverable for TileScheduler<'_> {
    fn recovery_mut(&mut self) -> &mut Recovery {
        &mut self.recovery
    }
}

/// What a [`TileScheduler::run_tiles`] dispatch did, for reports and
/// assertions: the shared [`RunSummary`] (one lane per accelerator;
/// see its busy/idle/stall table) plus the scheduler's own figures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SchedReport {
    /// The policy that produced this schedule.
    pub policy: SchedPolicy,
    /// Tiles dispatched.
    pub tiles: u32,
    /// Cycles, lanes, and fault/retry/fallback counts of the dispatch.
    pub run: RunSummary,
    /// Tiles that moved queues under work stealing.
    pub steals: u32,
    /// Total cycles thieves paid grabbing those tiles.
    pub steal_cycles: u64,
    /// Accelerators evicted mid-dispatch after the fault plane killed
    /// them, in eviction order.
    pub evicted: Vec<u16>,
}

impl SchedReport {
    /// Total coordination-stall cycles: for tile dispatch, the cycles
    /// thieves paid moving stolen tiles between queues
    /// ([`SchedReport::steal_cycles`]).
    pub fn stall_cycles(&self) -> u64 {
        self.steal_cycles
    }
}

/// One dispatched tile, pending join.
type Dispatch<R> = (u32, OffloadHandle<Result<R, SimError>>);

/// Per-lane tile queues of the static and work-stealing policies, with
/// the lanes evicted so far and the tiles stranded when none survives.
struct Queues {
    lanes: Vec<(u16, VecDeque<u32>)>,
    evicted: Vec<u16>,
    stranded: Vec<(u32, u16)>,
}

impl Queues {
    /// Seeds every lane with its static block of tiles.
    fn split(machine: &mut Machine, lanes: &[u16], tiles: u32, at: u64) -> Queues {
        let parts = u32::try_from(lanes.len()).expect("lanes come from a u16 range");
        let lanes: Vec<(u16, VecDeque<u32>)> = lanes
            .iter()
            .zip(0..)
            .map(|(&lane, part)| (lane, block_range(tiles, part, parts).collect()))
            .collect();
        for (lane, queue) in &lanes {
            for &tile in queue {
                machine.sched_note_enqueue(at, *lane, tile);
            }
        }
        Queues {
            lanes,
            evicted: Vec::new(),
            stranded: Vec::new(),
        }
    }

    /// Evicts lane `i`, whose accelerator died, and round-robins its
    /// queued tiles over the survivors. With no survivor the tiles are
    /// stranded for the host fallback — or, without one, the death is
    /// the dispatch error. Returns whether any lane survives.
    fn evict(&mut self, machine: &mut Machine, i: usize, fallback: bool) -> Result<bool, SimError> {
        let (dead, orphans) = self.lanes.remove(i);
        self.evicted.push(dead);
        let moved = u32::try_from(orphans.len()).expect("a queue holds at most u32 tiles");
        machine.recovery_note_evict(machine.host_now(), dead, moved);
        if self.lanes.is_empty() {
            if !fallback {
                return Err(FaultError::AccelDead { accel: dead }.into());
            }
            self.stranded.extend(orphans.into_iter().map(|t| (t, dead)));
            return Ok(false);
        }
        let survivors = self.lanes.len();
        for (k, tile) in orphans.into_iter().enumerate() {
            let (lane, queue) = &mut self.lanes[k % survivors];
            queue.push_back(tile);
            machine.sched_note_enqueue(machine.host_now(), *lane, tile);
        }
        Ok(true)
    }
}

/// When `lane`'s accelerator frees up; lanes are range-checked before
/// any policy runs.
fn free_at(machine: &Machine, lane: u16) -> u64 {
    machine.accel_free_at(lane).expect("lane checked above")
}

impl<'m> TileScheduler<'m> {
    /// Restricts the dispatch to the first `n` accelerator lanes
    /// (starting at the builder's accelerator). Defaults to every
    /// accelerator from there up.
    pub fn accels(mut self, n: u16) -> TileScheduler<'m> {
        self.accels = Some(n);
        self
    }

    /// Dispatches `tiles` tiles through the policy and joins them all.
    ///
    /// The closure runs once per tile (in scheduler-determined order —
    /// it must not care) against the accelerator context the tile
    /// landed on; stolen tiles are charged the steal cost *before* the
    /// closure runs. Returns the per-tile results indexed by tile,
    /// plus the [`SchedReport`]. Joins happen in tile order for every
    /// policy, so a policy changes cycle accounting, never results.
    ///
    /// With a fault plan armed, retries/evictions/fallbacks happen as
    /// described at the module level; a tile that reaches the host
    /// fallback may re-run the closure there, so the closure must
    /// tolerate re-execution from a clean local-store mark.
    ///
    /// # Errors
    ///
    /// Fails with [`SimError::BadConfig`] if the offload builder
    /// declared gather plans (gather per tile with
    /// [`AccelCtx::gather`] instead) or the lane range does not exist
    /// on the machine. Otherwise fails if the tuned cache cannot be
    /// built, or with the first tile error (by tile index) the closure
    /// returned. An injected fault the recovery layer could not absorb
    /// (retries exhausted without [`Recoverable::fallback_host`], or
    /// every lane dead) surfaces as [`SimError::Fault`].
    pub fn run_tiles<R>(
        self,
        tiles: u32,
        mut f: impl FnMut(&mut AccelCtx<'_>, u32) -> Result<R, SimError>,
    ) -> Result<(Vec<R>, SchedReport), SimError> {
        let TileScheduler {
            machine,
            base,
            accels,
            label,
            cache,
            policy,
            recovery,
            modes,
            gathers,
        } = self;
        if gathers {
            return Err(SimError::BadConfig {
                reason: "gather plans declared on the offload builder do not fan out over \
                         scheduled tiles; gather per tile with AccelCtx::gather instead"
                    .into(),
            });
        }
        // Validate before arming the plan: a rejected run leaves the
        // machine as it found it.
        let count = accels.unwrap_or_else(|| machine.accel_count().saturating_sub(base));
        let lanes: Vec<u16> =
            lane_range(machine, "scheduler lanes", base, usize::from(count))?.collect();
        let exec = Exec::start(machine, recovery);
        let (t0, fallback) = (exec.t0, exec.recovery.fallback);
        let mut dispatches: Vec<Dispatch<R>> = Vec::with_capacity(tiles as usize);
        let mut steals = 0u32;

        // One launch, shared by every policy: run the tile (stolen
        // tiles pay the grab first, retried tiles their backoff) and
        // note the run on the timeline.
        let mut launch = |machine: &mut Machine,
                          lane: u16,
                          tile: u32,
                          stolen_from: Option<u16>|
         -> Result<Dispatch<R>, SimError> {
            let handle = machine
                .offload(lane)
                .label(label)
                .cache(cache)
                .with_modes(modes.clone())
                .spawn(|ctx| {
                    if stolen_from.is_some() {
                        ctx.compute(DEFAULT_STEAL_COST);
                    }
                    run_with_retries(ctx, tile, &exec.recovery, &mut f)
                })?;
            if let Some(victim) = stolen_from {
                machine.sched_note_steal(handle.start(), lane, victim, tile, DEFAULT_STEAL_COST);
                steals += 1;
            }
            machine.sched_note_run(handle.start(), lane, tile, handle.end(), stolen_from);
            Ok((tile, handle))
        };

        let (evicted, stranded) = match policy {
            SchedPolicy::Static => {
                let mut queues = Queues::split(machine, &lanes, tiles, t0);
                // Sweep the lanes in order, popping one front tile per
                // lane per pass — position-major launch order: the
                // first tile of each lane, then the second of each, …
                // With one tile per lane this is exactly the
                // hand-rolled E14 loop.
                let mut remaining = tiles;
                'dispatch: while remaining > 0 {
                    let mut i = 0;
                    while i < queues.lanes.len() {
                        let Some(tile) = queues.lanes[i].1.pop_front() else {
                            i += 1;
                            continue;
                        };
                        match launch(machine, queues.lanes[i].0, tile, None) {
                            Ok(d) => {
                                dispatches.push(d);
                                remaining -= 1;
                                i += 1;
                            }
                            Err(SimError::Fault(FaultError::AccelDead { .. })) => {
                                // The removal slides the next lane into
                                // slot i, so the sweep continues
                                // without skipping it.
                                queues.lanes[i].1.push_front(tile);
                                if !queues.evict(machine, i, fallback)? {
                                    break 'dispatch;
                                }
                            }
                            Err(e) => return Err(e),
                        }
                    }
                }
                (queues.evicted, queues.stranded)
            }
            SchedPolicy::ShortestQueue => {
                let mut live = lanes.clone();
                let mut evicted = Vec::new();
                let mut stranded = Vec::new();
                for tile in 0..tiles {
                    loop {
                        let Some(&lane) = live.iter().min_by_key(|&&l| free_at(machine, l)) else {
                            // Every lane is dead; the last eviction is
                            // the fault that stranded this tile.
                            let dead = *evicted.last().expect("emptied by eviction");
                            if !fallback {
                                return Err(FaultError::AccelDead { accel: dead }.into());
                            }
                            stranded.push((tile, dead));
                            break;
                        };
                        machine.sched_note_enqueue(machine.host_now(), lane, tile);
                        match launch(machine, lane, tile, None) {
                            Ok(d) => {
                                dispatches.push(d);
                                break;
                            }
                            Err(SimError::Fault(FaultError::AccelDead { .. })) => {
                                live.retain(|&l| l != lane);
                                evicted.push(lane);
                                machine.recovery_note_evict(machine.host_now(), lane, 1);
                                // Greedy has no queue to drain: the
                                // bounced tile just re-picks among the
                                // survivors.
                            }
                            Err(e) => return Err(e),
                        }
                    }
                }
                (evicted, stranded)
            }
            SchedPolicy::WorkStealing => {
                let mut queues = Queues::split(machine, &lanes, tiles, t0);
                let mut pending = tiles;
                while pending > 0 {
                    let deques = &mut queues.lanes;
                    // Lanes in becomes-free order; the first that can
                    // act (own work, or a profitable steal) dispatches.
                    // The most-loaded lane can always pop its own
                    // front, so one pass always picks something.
                    let mut order: Vec<usize> = (0..deques.len()).collect();
                    order.sort_by_key(|&i| free_at(machine, deques[i].0));
                    let next_floor = machine.host_now() + machine.cost().offload_launch;
                    let mut choice: Option<(usize, u32, Option<usize>)> = None;
                    for &i in &order {
                        if let Some(tile) = deques[i].1.pop_front() {
                            choice = Some((i, tile, None));
                            break;
                        }
                        // Own deque empty: steal the back tile of the
                        // most-loaded victim, but only if the thief —
                        // launch floor and steal cost included — starts
                        // it strictly before the victim is even free.
                        // That bound keeps every stolen tile's end at
                        // or before its static end.
                        let thief_eff = free_at(machine, deques[i].0).max(next_floor);
                        let victim = order
                            .iter()
                            .rev()
                            .copied()
                            .find(|&j| j != i && !deques[j].1.is_empty());
                        if let Some(j) = victim {
                            if thief_eff + DEFAULT_STEAL_COST < free_at(machine, deques[j].0) {
                                let tile = deques[j].1.pop_back().expect("checked non-empty");
                                choice = Some((i, tile, Some(j)));
                                break;
                            }
                        }
                    }
                    let (i, tile, victim) =
                        choice.expect("some live lane always owns a runnable tile");
                    let lane = deques[i].0;
                    match launch(machine, lane, tile, victim.map(|j| deques[j].0)) {
                        Ok(d) => {
                            dispatches.push(d);
                            pending -= 1;
                        }
                        Err(SimError::Fault(FaultError::AccelDead { .. })) => {
                            // Put the tile back where it came from; the
                            // survivors' thieves rebalance the dead
                            // lane's deque from there.
                            match victim {
                                Some(j) => deques[j].1.push_back(tile),
                                None => deques[i].1.push_front(tile),
                            }
                            if !queues.evict(machine, i, fallback)? {
                                break;
                            }
                        }
                        Err(e) => return Err(e),
                    }
                }
                (queues.evicted, queues.stranded)
            }
        };

        // Join in tile order for every policy: results are
        // policy-independent, and the host-clock accounting matches
        // the hand-rolled dispatch-then-join-in-order frame loop.
        dispatches.sort_by_key(|&(tile, _)| tile);
        let mut runs: Vec<LaneSpan> = dispatches
            .iter()
            .map(|(_, h)| (h.accel(), h.start(), h.end()))
            .collect();
        let mut results: Vec<Option<R>> = (0..tiles).map(|_| None).collect();
        let mut failed: Vec<(u32, u16)> = stranded;
        let mut first_err: Option<SimError> = None;
        for (tile, handle) in dispatches {
            let accel = handle.accel();
            match machine.join(handle) {
                Ok(r) => results[tile as usize] = Some(r),
                Err(SimError::Fault(_)) if fallback => failed.push((tile, accel)),
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }

        // Last resort: re-run every unrecovered tile on the host, in
        // tile order.
        failed.sort_by_key(|&(tile, _)| tile);
        for (tile, accel) in failed {
            let r = host_fallback(machine, accel, tile, label, modes.clone(), &mut f)?;
            results[tile as usize] = Some(r);
        }
        let results: Vec<R> = results
            .into_iter()
            .map(|r| r.expect("every tile either resolved or errored out above"))
            .collect();

        // Note the idle gaps the trace's scheduler lanes render (zero
        // simulated cost).
        let (run, gaps) = exec.finish(machine, lanes.iter().map(|&l| (l, label)), &mut runs);
        for (lane, from, until) in gaps {
            machine.sched_note_idle(from, lane, until);
        }
        let report = SchedReport {
            policy,
            tiles,
            run,
            steals,
            steal_cycles: u64::from(steals) * DEFAULT_STEAL_COST,
            evicted,
        };
        Ok((results, report))
    }
}

#[cfg(test)]
#[allow(clippy::cast_possible_truncation)] // fixtures hold a few hundred elements at most
mod tests {
    use super::*;
    use simcell::{EventKind, FaultPlan, MachineConfig};

    fn machine() -> Machine {
        Machine::new(MachineConfig::default()).unwrap()
    }

    fn run_policy(policy: SchedPolicy, costs: &[u64], accels: u16) -> (u64, SchedReport) {
        let mut m = machine();
        let t0 = m.host_now();
        let (_, report) = m
            .offload(0)
            .sched(policy)
            .accels(accels)
            .run_tiles(costs.len() as u32, |ctx, tile| {
                ctx.compute(costs[tile as usize]);
                Ok(())
            })
            .unwrap();
        (m.host_now() - t0, report)
    }

    #[test]
    fn static_one_tile_per_lane_is_bit_identical_to_hand_rolled_offloads() {
        let costs = [30_000u64, 42_000, 27_000, 35_000];
        let mut by_hand = machine();
        let mut handles = Vec::new();
        for (a, &c) in costs.iter().enumerate() {
            handles.push(
                by_hand
                    .offload(a as u16)
                    .spawn(move |ctx| ctx.compute(c))
                    .unwrap(),
            );
        }
        for h in handles {
            by_hand.join(h);
        }
        let (sched_cycles, report) = run_policy(SchedPolicy::Static, &costs, 4);
        assert_eq!(sched_cycles, by_hand.host_now());
        assert_eq!(report.run.cycles, sched_cycles);
        assert_eq!(report.steals, 0);
        assert_eq!(report.run.lanes.len(), 4);
        assert!(report.run.lanes.iter().all(|l| l.items == 1));
    }

    #[test]
    fn work_stealing_recovers_most_of_a_skewed_static_schedule() {
        // Two hot tiles land on lane 0 under the static split; lanes
        // 2 and 3 finish early and steal them.
        let costs = [
            120_000u64, 120_000, 8_000, 8_000, 8_000, 8_000, 8_000, 8_000,
        ];
        let (static_cycles, _) = run_policy(SchedPolicy::Static, &costs, 4);
        let (ws_cycles, report) = run_policy(SchedPolicy::WorkStealing, &costs, 4);
        assert!(report.steals > 0, "skew this strong must trigger steals");
        assert_eq!(
            report.steal_cycles,
            u64::from(report.steals) * DEFAULT_STEAL_COST
        );
        assert!(
            ws_cycles * 5 < static_cycles * 4,
            "stealing should recover >20%: {ws_cycles} vs {static_cycles}"
        );
    }

    #[test]
    fn work_stealing_matches_static_exactly_on_uniform_tiles() {
        let costs = [25_000u64; 6];
        let (static_cycles, _) = run_policy(SchedPolicy::Static, &costs, 6);
        let (ws_cycles, report) = run_policy(SchedPolicy::WorkStealing, &costs, 6);
        assert_eq!(ws_cycles, static_cycles, "no profitable steal exists");
        assert_eq!(report.steals, 0);
    }

    #[test]
    fn shortest_queue_fills_the_least_loaded_lane() {
        // One long tile first: the greedy policy routes the rest away
        // from the busy lane, beating the block split.
        let costs = [200_000u64, 10_000, 10_000, 10_000, 10_000, 10_000];
        let (static_cycles, _) = run_policy(SchedPolicy::Static, &costs, 3);
        let (sq_cycles, report) = run_policy(SchedPolicy::ShortestQueue, &costs, 3);
        assert!(sq_cycles < static_cycles);
        assert_eq!(report.run.lanes.iter().map(|l| l.items).sum::<u32>(), 6);
    }

    #[test]
    fn results_are_indexed_by_tile_under_every_policy() {
        for policy in [
            SchedPolicy::Static,
            SchedPolicy::ShortestQueue,
            SchedPolicy::WorkStealing,
        ] {
            let mut m = machine();
            let (results, _) = m
                .offload(0)
                .sched(policy)
                .accels(3)
                .run_tiles(10, |ctx, tile| {
                    ctx.compute(u64::from(10 - tile) * 9_000);
                    Ok(tile * 7)
                })
                .unwrap();
            let expect: Vec<u32> = (0..10).map(|t| t * 7).collect();
            assert_eq!(results, expect, "{policy:?}");
        }
    }

    #[test]
    fn dispatch_records_sched_events_and_idle_gaps() {
        let mut m = machine();
        m.events_mut().set_enabled(true);
        let costs = [90_000u64, 9_000, 9_000, 9_000];
        let (_, report) = m
            .offload(0)
            .sched(SchedPolicy::Static)
            .accels(2)
            .run_tiles(4, |ctx, tile| {
                ctx.compute(costs[tile as usize]);
                Ok(())
            })
            .unwrap();
        let events = m.events().events();
        let enqueues = events
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    EventKind::Instant {
                        label: "enqueue",
                        ..
                    }
                )
            })
            .count();
        let runs = events
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    EventKind::Slice {
                        label: "tile {tile}",
                        ..
                    }
                )
            })
            .count();
        let idles = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Slice { label: "idle", .. }))
            .count();
        assert_eq!(enqueues, 4);
        assert_eq!(runs, 4);
        assert!(idles > 0, "lane 1 finishes early and must show an idle gap");
        // Lane 0 carries the hot tile; the report calls that out.
        assert!(
            report.run.imbalance() > 1.2,
            "imbalance {}",
            report.run.imbalance()
        );
        let stats = m.stats();
        assert_eq!(stats.sched_tiles, 4);
        assert!(stats.sched_idle_cycles > 0);
    }

    #[test]
    fn stolen_tiles_pay_the_steal_cost_and_results_survive() {
        let costs = [150_000u64, 150_000, 5_000, 5_000, 5_000, 5_000];
        let mut m = machine();
        let (results, report) = m
            .offload(0)
            .sched(SchedPolicy::WorkStealing)
            .accels(3)
            .run_tiles(6, |ctx, tile| {
                ctx.compute(costs[tile as usize]);
                Ok(tile)
            })
            .unwrap();
        assert_eq!(results, vec![0, 1, 2, 3, 4, 5]);
        assert!(report.steals > 0);
        assert_eq!(
            report.steal_cycles,
            u64::from(report.steals) * DEFAULT_STEAL_COST
        );
        assert_eq!(m.stats().sched_steals, u64::from(report.steals));
    }

    #[test]
    fn lane_ranges_are_validated_before_the_plan_is_armed() {
        let mut m = machine();
        let before = m.host_now();
        let err = m
            .offload(4)
            .sched(SchedPolicy::Static)
            .accels(5)
            .faults(FaultPlan::new(3).with_dma_corrupt(1.0))
            .run_tiles(4, |_, _| Ok(()))
            .unwrap_err();
        assert!(
            matches!(err, SimError::BadConfig { .. }),
            "4..9 exceeds a 6-accel machine: {err:?}"
        );
        assert!(m.fault_plan().is_none(), "the rejected run armed its plan");
        assert_eq!(m.host_now(), before, "nothing launched");
        let ok = m
            .offload(4)
            .sched(SchedPolicy::Static)
            .run_tiles(4, |ctx, _| {
                ctx.compute(1_000);
                Ok(())
            });
        assert!(ok.is_ok(), "defaulting to the remaining lanes fits");
    }

    /// A tile body with a real DMA round trip, so transfer faults have
    /// something to hit: fetch one u32, return it.
    fn fetch_tile(
        machine: &mut Machine,
        values: &[u32],
    ) -> (
        memspace::Addr,
        impl Fn(&mut AccelCtx<'_>, u32) -> Result<u32, SimError>,
    ) {
        let remote = machine
            .alloc_main_slice::<u32>(values.len() as u32)
            .unwrap();
        machine.main_mut().write_pod_slice(remote, values).unwrap();
        let base = remote;
        let body = move |ctx: &mut AccelCtx<'_>, tile: u32| -> Result<u32, SimError> {
            let local = ctx.alloc_local(4, 16)?;
            let tag = dma::Tag::new(3).unwrap();
            ctx.dma_get(local, base.offset_by(tile * 4)?, 4, tag)?;
            ctx.dma_wait_tag(tag);
            ctx.check_faults()?;
            ctx.compute(5_000);
            ctx.local_read_pod::<u32>(local)
        };
        (remote, body)
    }

    #[test]
    fn retries_absorb_transient_dma_faults() {
        let values: Vec<u32> = (0..12).map(|i| i * 11 + 7).collect();
        let mut m = machine();
        let (_, body) = fetch_tile(&mut m, &values);
        let (results, report) = m
            .offload(0)
            .sched(SchedPolicy::Static)
            .faults(FaultPlan::new(0xfab).with_dma_corrupt(0.5))
            .accels(4)
            .retry(6)
            .backoff(800)
            .run_tiles(12, body)
            .unwrap();
        assert_eq!(results, values, "retried tiles must re-fetch clean data");
        assert!(
            report.run.faults > 0,
            "a 50% corrupt rate must fire over 12 DMAs"
        );
        assert!(report.run.retries > 0);
        assert_eq!(report.run.retries, m.stats().recovery_retries);
        assert_eq!(
            m.stats().recovery_backoff_cycles,
            report.run.retries * 800,
            "every retry charges the configured backoff"
        );
        assert_eq!(report.run.fallbacks, 0);
    }

    #[test]
    fn exhausted_retries_degrade_to_host_fallback() {
        // Every transfer corrupts: no retry budget can absorb that, so
        // with fallback_host every tile completes on the host instead.
        let values: Vec<u32> = (0..6).map(|i| 1000 - i).collect();
        let mut m = machine();
        let (_, body) = fetch_tile(&mut m, &values);
        let (results, report) = m
            .offload(0)
            .sched(SchedPolicy::ShortestQueue)
            .faults(FaultPlan::new(7).with_dma_corrupt(1.0))
            .accels(3)
            .retry(2)
            .fallback_host()
            .run_tiles(6, body)
            .unwrap();
        assert_eq!(results, values, "host fallback runs fault-free");
        assert_eq!(report.run.fallbacks, 6);
        assert_eq!(
            report.run.retries, 12,
            "2 retries per tile before giving up"
        );
        assert!(m.stats().recovery_fallback_cycles > 0);
    }

    #[test]
    fn dead_lanes_are_evicted_and_survivors_absorb_their_tiles() {
        for policy in [
            SchedPolicy::Static,
            SchedPolicy::ShortestQueue,
            SchedPolicy::WorkStealing,
        ] {
            let mut m = machine();
            let (results, report) = m
                .offload(0)
                .sched(policy)
                .faults(FaultPlan::new(0xdead).with_accel_death(0.2))
                .accels(4)
                .fallback_host()
                .run_tiles(16, |ctx, tile| {
                    ctx.compute(20_000);
                    Ok(tile * 3)
                })
                .unwrap();
            let expect: Vec<u32> = (0..16).map(|t| t * 3).collect();
            assert_eq!(results, expect, "{policy:?}");
            assert!(
                !report.evicted.is_empty(),
                "{policy:?}: a 20% death rate over 16 launches must kill a lane"
            );
            assert_eq!(
                report.evicted.len() as u64,
                m.stats().recovery_evictions,
                "{policy:?}"
            );
            let ran: u32 = report.run.lanes.iter().map(|l| l.items).sum();
            assert_eq!(ran as u64 + report.run.fallbacks, 16, "{policy:?}");
        }
    }

    #[test]
    fn total_accel_loss_without_fallback_is_the_dispatch_error() {
        let mut m = machine();
        let err = m
            .offload(0)
            .sched(SchedPolicy::WorkStealing)
            .faults(FaultPlan::new(1).with_accel_death(1.0))
            .accels(3)
            .run_tiles(6, |ctx, tile| {
                ctx.compute(1_000);
                Ok(tile)
            })
            .unwrap_err();
        assert!(matches!(err, SimError::Fault(FaultError::AccelDead { .. })));
    }

    #[test]
    fn total_accel_loss_with_fallback_completes_on_the_host() {
        let mut m = machine();
        let (results, report) = m
            .offload(0)
            .sched(SchedPolicy::Static)
            .faults(FaultPlan::new(1).with_accel_death(1.0))
            .accels(3)
            .fallback_host()
            .run_tiles(6, |ctx, tile| {
                ctx.compute(1_000);
                Ok(tile + 100)
            })
            .unwrap();
        assert_eq!(results, vec![100, 101, 102, 103, 104, 105]);
        assert_eq!(report.evicted.len(), 3, "every lane died");
        assert_eq!(report.run.fallbacks, 6, "every tile degraded to the host");
        assert_eq!(report.run.lanes.iter().map(|l| l.items).sum::<u32>(), 0);
    }

    #[test]
    fn all_zero_plan_is_bit_identical_to_no_plan() {
        let costs = [40_000u64, 12_000, 9_000, 30_000, 8_000, 15_000];
        let run = |plan: Option<FaultPlan>| {
            let mut m = machine();
            if let Some(p) = plan {
                m.install_fault_plan(p);
            }
            let (_, report) = m
                .offload(0)
                .sched(SchedPolicy::WorkStealing)
                .accels(3)
                .retry(2)
                .fallback_host()
                .run_tiles(costs.len() as u32, |ctx, tile| {
                    ctx.compute(costs[tile as usize]);
                    Ok(())
                })
                .unwrap();
            (m.host_now(), report.run.cycles, report.steals)
        };
        assert_eq!(
            run(None),
            run(Some(FaultPlan::new(42))),
            "an armed all-zero plan must not perturb the schedule"
        );
    }

    #[test]
    fn same_seed_reproduces_the_same_faulty_schedule() {
        let run = || {
            let values: Vec<u32> = (0..10).map(|i| i ^ 0x5a).collect();
            let mut m = machine();
            let (_, body) = fetch_tile(&mut m, &values);
            let (results, report) = m
                .offload(0)
                .sched(SchedPolicy::WorkStealing)
                .faults(
                    FaultPlan::new(0xc0ffee)
                        .with_dma_corrupt(0.3)
                        .with_tag_timeout(0.2)
                        .with_accel_death(0.05),
                )
                .accels(4)
                .retry(4)
                .fallback_host()
                .run_tiles(10, body)
                .unwrap();
            (results, m.host_now(), *m.stats(), report.evicted.clone())
        };
        assert_eq!(run(), run(), "the fault schedule is a function of the seed");
    }

    #[test]
    fn zero_tiles_is_a_no_op() {
        let mut m = machine();
        let before = m.host_now();
        let (results, report) = m
            .offload(0)
            .sched(SchedPolicy::WorkStealing)
            .run_tiles(0, |_, _| Ok(()))
            .unwrap();
        assert!(results.is_empty());
        assert_eq!(report.run.cycles, 0);
        assert_eq!(m.host_now(), before);
        assert_eq!(report.run.imbalance(), 1.0);
    }

    #[test]
    fn builder_gathers_are_rejected_instead_of_dropped() {
        let mut m = machine();
        let base = m.alloc_main_slice::<u32>(8).unwrap();
        let before = m.host_now();
        let err = m
            .offload(0)
            .gather(base, 4, vec![3, 1])
            .sched(SchedPolicy::Static)
            .accels(2)
            .run_tiles(2, |ctx, _| Ok(ctx.gathered(0)))
            .unwrap_err();
        match err {
            SimError::BadConfig { reason } => {
                assert!(reason.contains("AccelCtx::gather"), "{reason}")
            }
            other => panic!("expected BadConfig, got {other:?}"),
        }
        assert_eq!(m.host_now(), before, "nothing launched");
    }

    #[test]
    fn block_ranges_partition_without_wrapping() {
        for (n, parts) in [(70_000u32, 70_000u32), (u32::MAX, 7), (5, 8), (0, 3)] {
            let mut next = 0u32;
            for part in 0..parts {
                let range = block_range(n, part, parts);
                assert_eq!(range.start, next, "n={n} parts={parts} part={part}");
                assert!(range.len() <= (n / parts + 1) as usize);
                next = range.end;
            }
            assert_eq!(next, n, "n={n} parts={parts}");
        }
        // In range, the split is the classic 32-bit formula.
        assert_eq!(block_range(10, 2, 3), 10 * 2 / 3..10 * 3 / 3);
    }
}
