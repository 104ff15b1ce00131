//! E16 (extension) — recovery overhead under a rising fault rate.
//!
//! The consoles the paper's teams shipped on treat a flaky DMA or a
//! wedged coprocessor as a fatal bug; a robust runtime treats them as
//! schedulable events. This experiment arms `simcell`'s deterministic
//! fault plane over the E15 AI frame and dispatches it under all three
//! `offload_rt::sched` policies with the full recovery stack on:
//! transient faults (corrupted/dropped transfers, tag timeouts) retry
//! with a cycle-accounted backoff, accelerators the plane kills are
//! evicted mid-run, and tiles nothing can run degrade to the host at
//! the cost model's honest penalty.
//!
//! Two invariants anchor the table. First, recovery is *exact*: every
//! run, at every fault rate, produces the faultless frame's world
//! bit-for-bit — retries restart tiles from a clean local-store mark,
//! and completed writes overwrite any scribble damage. Second, the
//! plane is *free when quiet*: an armed all-zero plan draws nothing
//! from the fault RNG, so its cycles equal the no-plan run exactly.
//! What the table shows is the price of the rest: overhead climbs with
//! the rate, and work stealing absorbs evictions most gracefully
//! because survivors inherit and rebalance dead lanes' queues.
//!
//! The last two columns re-measure the storm with access-mode
//! declarations (the double-buffered frame of
//! [`ai_frame_sched_recovering_buffered`]): declaring the inputs `read`
//! and the output `write` elides the conservative table flush and lets
//! the put journal skip pre-image snapshots for the fully-rewritten
//! output — recovery gets cheaper exactly where the modes prove
//! rollback unnecessary, and the world stays bit-identical at every
//! rate.

use gamekit::{
    ai_frame_sched, ai_frame_sched_recovering, ai_frame_sched_recovering_buffered, AiConfig,
    EntityArray, WorldGen,
};
use offload_rt::sched::{SchedPolicy, SchedReport};
use simcell::{FaultPlan, Machine, MachineConfig, MachineStats};

use crate::table::{cycles, speedup, Table};

/// Accelerator lanes the dispatch uses.
pub const ACCELS: u16 = 6;
/// Tiles the frame is cut into.
pub const TILES: u32 = 24;
/// Retries per transient fault before the host fallback takes the tile.
pub const RETRIES: u32 = 3;
/// Backoff cycles charged per retry.
pub const BACKOFF: u64 = 1_000;
/// Seed of every fault plan (the schedule is a pure function of it).
pub const FAULT_SEED: u64 = 0xE16;

/// The fault rates the table sweeps (0 = armed-but-quiet plan).
pub const RATES: [f32; 4] = [0.0, 0.02, 0.05, 0.10];

/// Runs one frame under `policy` with a uniform fault plan at `rate`
/// (`None` = no plan armed at all); returns the scheduler report and
/// the resulting world snapshot.
pub fn measure(
    n: u32,
    policy: SchedPolicy,
    rate: Option<f32>,
) -> (SchedReport, Vec<gamekit::GameEntity>) {
    let config = AiConfig::default();
    let mut machine = Machine::new(MachineConfig::default()).expect("config valid");
    let entities = EntityArray::alloc(&mut machine, n).expect("fits");
    let mut gen = WorldGen::new(0xE16);
    gen.populate(&mut machine, &entities, 70.0).expect("fits");
    let table = gen
        .candidate_table(&mut machine, n, config.candidates)
        .expect("fits");
    let report = match rate {
        None => ai_frame_sched(
            &mut machine,
            &entities,
            table,
            &config,
            ACCELS,
            TILES,
            policy,
            &[],
        )
        .expect("tiles fit"),
        Some(rate) => ai_frame_sched_recovering(
            &mut machine,
            &entities,
            table,
            &config,
            ACCELS,
            TILES,
            policy,
            FaultPlan::uniform(FAULT_SEED, rate),
            RETRIES,
            BACKOFF,
        )
        .expect("recovery absorbs every fault"),
    };
    assert_eq!(machine.races_detected(), 0);
    let world = entities.snapshot(&machine).expect("snapshot reads");
    (report, world)
}

/// Runs the double-buffered E16 frame (sanitize pass + conservative
/// table flush, decisions into a separate output array) at `rate`, with
/// or without access-mode declarations; returns the report, the output
/// world, and the machine counters (journal and elision columns).
pub fn measure_buffered(
    n: u32,
    policy: SchedPolicy,
    rate: f32,
    declare_modes: bool,
) -> (SchedReport, Vec<gamekit::GameEntity>, MachineStats) {
    let config = AiConfig::default();
    let mut machine = Machine::new(MachineConfig::default()).expect("config valid");
    let entities = EntityArray::alloc(&mut machine, n).expect("fits");
    let out = EntityArray::alloc(&mut machine, n).expect("fits");
    let mut gen = WorldGen::new(0xE16);
    gen.populate(&mut machine, &entities, 70.0).expect("fits");
    let table = gen
        .candidate_table(&mut machine, n, config.candidates)
        .expect("fits");
    let report = ai_frame_sched_recovering_buffered(
        &mut machine,
        &entities,
        &out,
        table,
        &config,
        ACCELS,
        TILES,
        policy,
        FaultPlan::uniform(FAULT_SEED, rate),
        RETRIES,
        BACKOFF,
        declare_modes,
    )
    .expect("recovery absorbs every fault");
    assert_eq!(machine.races_detected(), 0);
    let world = out.snapshot(&machine).expect("snapshot reads");
    (report, world, *machine.stats())
}

/// Runs E16.
pub fn run(quick: bool) -> Table {
    let n = if quick { 512 } else { 1024 };
    let mut table = Table::new(
        "E16",
        "Extension: fault injection and recovery overhead by scheduling policy",
        "a deterministic fault plane (corrupt/dropped DMA, tag timeouts, accelerator death) \
         plus retry/evict/host-fallback recovery; every run reproduces the faultless world \
         bit-for-bit, and the armed-but-quiet plan costs zero cycles",
        vec![
            "policy",
            "fault rate",
            "frame AI cycles",
            "vs faultless",
            "faults",
            "retries",
            "fallbacks",
            "evicted",
            "journal B (undecl->modes)",
            "WB elided B",
        ],
    );
    for policy in [
        SchedPolicy::Static,
        SchedPolicy::ShortestQueue,
        SchedPolicy::WorkStealing,
    ] {
        let (clean, clean_world) = measure(n, policy, None);
        for rate in RATES {
            let (report, world) = measure(n, policy, Some(rate));
            assert_eq!(
                world,
                clean_world,
                "{} @ {rate}: recovery must reproduce the faultless world exactly",
                policy.name()
            );
            if rate == 0.0 {
                assert_eq!(
                    report.run.cycles,
                    clean.run.cycles,
                    "{}: an armed all-zero plan must cost nothing",
                    policy.name()
                );
            }
            // The double-buffered frame, undeclared vs mode-annotated:
            // identical worlds, but the declarations elide the
            // conservative flush and skip the output journal.
            let (_, world_u, stats_u) = measure_buffered(n, policy, rate, false);
            let (_, world_d, stats_d) = measure_buffered(n, policy, rate, true);
            assert_eq!(
                world_u,
                clean_world,
                "{} @ {rate}: the buffered frame computes the same world",
                policy.name()
            );
            assert_eq!(
                world_d,
                clean_world,
                "{} @ {rate}: access modes must not change the world",
                policy.name()
            );
            assert!(
                stats_d.journal_bytes <= stats_u.journal_bytes,
                "{} @ {rate}: modes can only shrink the journal",
                policy.name()
            );
            table.push_row(vec![
                policy.name().to_string(),
                format!("{rate:.2}"),
                cycles(report.run.cycles),
                speedup(report.run.cycles, clean.run.cycles),
                report.run.faults.to_string(),
                report.run.retries.to_string(),
                report.run.fallbacks.to_string(),
                report.evicted.len().to_string(),
                format!("{}->{}", stats_u.journal_bytes, stats_d.journal_bytes),
                stats_d.dma_writeback_bytes_elided.to_string(),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_plan_is_cycle_identical_to_no_plan() {
        for policy in [
            SchedPolicy::Static,
            SchedPolicy::ShortestQueue,
            SchedPolicy::WorkStealing,
        ] {
            let (clean, clean_world) = measure(512, policy, None);
            let (armed, armed_world) = measure(512, policy, Some(0.0));
            assert_eq!(armed.run.cycles, clean.run.cycles, "{}", policy.name());
            assert_eq!(armed_world, clean_world, "{}", policy.name());
            assert_eq!(armed.run.faults, 0);
        }
    }

    #[test]
    fn recovery_reproduces_the_faultless_world_under_fire() {
        let (_, clean_world) = measure(512, SchedPolicy::WorkStealing, None);
        let (report, world) = measure(512, SchedPolicy::WorkStealing, Some(0.10));
        assert!(report.run.faults > 0, "a 10% rate must inject something");
        assert!(
            report.run.retries > 0 || report.run.fallbacks > 0,
            "and something must have recovered"
        );
        assert_eq!(world, clean_world);
    }

    #[test]
    fn overhead_rises_with_the_fault_rate() {
        let (clean, _) = measure(512, SchedPolicy::Static, None);
        let (low, _) = measure(512, SchedPolicy::Static, Some(0.02));
        let (high, _) = measure(512, SchedPolicy::Static, Some(0.10));
        assert!(low.run.cycles >= clean.run.cycles);
        assert!(
            high.run.cycles > clean.run.cycles,
            "10% faults cannot be free: {} vs {}",
            high.run.cycles,
            clean.run.cycles
        );
        assert!(high.run.faults > low.run.faults);
    }

    #[test]
    fn runs_are_bit_identical_across_repeats() {
        let a = measure(512, SchedPolicy::WorkStealing, Some(0.05));
        let b = measure(512, SchedPolicy::WorkStealing, Some(0.05));
        assert_eq!(a.0.run.cycles, b.0.run.cycles);
        assert_eq!(a.0.run.faults, b.0.run.faults);
        assert_eq!(a.0.evicted, b.0.evicted);
        assert_eq!(a.1, b.1);
    }

    #[test]
    fn table_has_expected_shape() {
        let t = run(true);
        assert_eq!(t.rows.len(), 12, "3 policies x 4 rates");
        assert_eq!(t.columns.len(), 10);
    }

    #[test]
    fn mode_declarations_shrink_recovery_without_changing_the_world() {
        let (undeclared, world_u, stats_u) =
            measure_buffered(512, SchedPolicy::WorkStealing, 0.05, false);
        let (declared, world_d, stats_d) =
            measure_buffered(512, SchedPolicy::WorkStealing, 0.05, true);
        assert_eq!(world_u, world_d, "modes must not change the world");
        assert!(
            stats_d.journal_bytes < stats_u.journal_bytes,
            "`write`-declared output skips snapshots: {} vs {}",
            stats_d.journal_bytes,
            stats_u.journal_bytes
        );
        assert!(stats_d.journal_bytes_skipped > 0);
        assert!(
            stats_d.dma_writeback_bytes_elided > 0,
            "the conservative flush must elide under `reads`"
        );
        assert_eq!(stats_u.dma_writeback_bytes_elided, 0);
        assert!(
            declared.run.cycles < undeclared.run.cycles,
            "elided flush puts make recovery cheaper: {} vs {}",
            declared.run.cycles,
            undeclared.run.cycles
        );
    }
}
