//! E15 (extension) — scheduling policies under skewed tile costs.
//!
//! E14's tiles are near-uniform, so the static block split is already
//! right. Real frames are not that kind: a few tiles are hot
//! (pathfinding-heavy regions, crowded cells), and a static split
//! strands every hot tile on whichever accelerators happened to own
//! that block while the rest sit idle. This experiment skews the E14
//! frame — the first quarter of the tiles carry heavy extra strategy
//! work — and dispatches it under all three `offload_rt::sched`
//! policies. Work stealing recovers most of the cycles the static
//! assignment loses (the acceptance bar is ≥ 20%), pays for it in
//! explicitly-accounted steal cycles, and produces a bit-identical
//! world: scheduling moves work, never results.

use gamekit::{ai_frame_sched, AiConfig, EntityArray, GameEntity, WorldGen};
use offload_rt::sched::{SchedPolicy, SchedReport};
use simcell::{Machine, MachineConfig};

use crate::table::{cycles, speedup, Table};

/// Accelerator lanes the dispatch uses.
pub const ACCELS: u16 = 6;
/// Tiles the frame is cut into (finer than the lanes, so queues have
/// depth and stealing has something to move).
pub const TILES: u32 = 24;
/// Extra strategy cycles charged to each hot tile.
pub const HOT_EXTRA: u64 = 150_000;

/// Per-tile extra cost vector: the first quarter of the tiles are hot.
pub fn skewed_costs() -> Vec<u64> {
    (0..TILES)
        .map(|t| if t < TILES / 4 { HOT_EXTRA } else { 0 })
        .collect()
}

/// Runs one skewed frame under `policy`; returns the scheduler report
/// and the resulting world snapshot.
pub fn measure(n: u32, policy: SchedPolicy) -> (SchedReport, Vec<GameEntity>) {
    let config = AiConfig::default();
    let mut machine = Machine::new(MachineConfig::default()).expect("config valid");
    let entities = EntityArray::alloc(&mut machine, n).expect("fits");
    let mut gen = WorldGen::new(0xE15);
    gen.populate(&mut machine, &entities, 70.0).expect("fits");
    let table = gen
        .candidate_table(&mut machine, n, config.candidates)
        .expect("fits");
    let report = ai_frame_sched(
        &mut machine,
        &entities,
        table,
        &config,
        ACCELS,
        TILES,
        policy,
        &skewed_costs(),
    )
    .expect("tiles fit");
    assert_eq!(machine.races_detected(), 0);
    let world = entities.snapshot(&machine).expect("snapshot reads");
    (report, world)
}

/// Runs E15.
pub fn run(quick: bool) -> Table {
    let n = if quick { 512 } else { 1024 };
    let mut table = Table::new(
        "E15",
        "Extension: scheduling policies under skewed tile costs",
        "a static split strands hot tiles on a few accelerators; work stealing recovers most \
         of the lost cycles for an explicitly-accounted steal cost, with a bit-identical \
         world (paper Sec. 1 context: 'it is important to partition the work well')",
        vec![
            "policy",
            "frame AI cycles",
            "vs static",
            "steals",
            "steal cycles",
            "imbalance",
        ],
    );
    let (static_report, static_world) = measure(n, SchedPolicy::Static);
    for policy in [
        SchedPolicy::Static,
        SchedPolicy::ShortestQueue,
        SchedPolicy::WorkStealing,
    ] {
        let (report, world) = measure(n, policy);
        assert_eq!(
            world,
            static_world,
            "{}: scheduling must move work, never results",
            policy.name()
        );
        table.push_row(vec![
            policy.name().to_string(),
            cycles(report.run.cycles),
            speedup(static_report.run.cycles, report.run.cycles),
            report.steals.to_string(),
            cycles(report.steal_cycles),
            format!("{:.2}", report.run.imbalance()),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_stealing_recovers_at_least_20_percent_over_static() {
        for n in [512u32, 1024] {
            let (st, st_world) = measure(n, SchedPolicy::Static);
            let (ws, ws_world) = measure(n, SchedPolicy::WorkStealing);
            assert_eq!(ws_world, st_world, "identical world state");
            assert!(ws.steals > 0, "the skew must trigger steals");
            assert!(
                ws.run.cycles * 5 <= st.run.cycles * 4,
                "n={n}: work stealing must recover >= 20%: {} vs {}",
                ws.run.cycles,
                st.run.cycles
            );
            assert!(
                ws.run.imbalance() < st.run.imbalance(),
                "stealing must flatten the lanes: {:.2} vs {:.2}",
                ws.run.imbalance(),
                st.run.imbalance()
            );
        }
    }

    #[test]
    fn shortest_queue_also_beats_static_here() {
        // Greedy placement cannot split a queue after the fact, but on
        // this skew even placing tiles one-by-one beats the block
        // split.
        let (st, _) = measure(512, SchedPolicy::Static);
        let (sq, _) = measure(512, SchedPolicy::ShortestQueue);
        assert!(
            sq.run.cycles < st.run.cycles,
            "{} vs {}",
            sq.run.cycles,
            st.run.cycles
        );
    }

    #[test]
    fn table_has_expected_shape() {
        let t = run(true);
        assert_eq!(t.rows.len(), 3);
        assert_eq!(t.columns.len(), 6);
        assert!(t.rows[2][0] == "work-stealing");
    }
}
