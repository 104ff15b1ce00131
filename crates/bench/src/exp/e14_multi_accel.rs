//! E14 (extension) — scaling one frame task across accelerators.
//!
//! The paper's machine (the PS3's Cell) exposes six usable SPEs; its
//! Figure 2 loop uses one. This ablation tiles the AI strategy task
//! across 1–6 accelerators (each tile bulk-fetches the read-only
//! entity array and writes back its own slice) and reports the scaling
//! curve, whose knee shows where the shared transfer work stops
//! amortising. Each row runs all three `offload_rt::sched` policies:
//! with one near-uniform tile per accelerator there is nothing to
//! rebalance, so shortest-queue assigns the same tiles and
//! work-stealing finds no profitable steal — all three columns are
//! bit-identical, which is exactly the "scheduling costs nothing when
//! the split is already right" baseline E15 then breaks.

use gamekit::{ai_frame_offloaded_tiled, ai_frame_sched, AiConfig, EntityArray, WorldGen};
use offload_rt::sched::SchedPolicy;
use simcell::{Machine, MachineConfig};

use crate::table::{cycles, speedup, Table};

/// Host cycles for one tiled AI frame over `n` entities on `accels`
/// accelerators (static split, one tile per accelerator).
pub fn measure(n: u32, accels: u16) -> u64 {
    let config = AiConfig::default();
    let mut machine = Machine::new(MachineConfig::default()).expect("config valid");
    let entities = EntityArray::alloc(&mut machine, n).expect("fits");
    let mut gen = WorldGen::new(0xE14);
    gen.populate(&mut machine, &entities, 70.0).expect("fits");
    let table = gen
        .candidate_table(&mut machine, n, config.candidates)
        .expect("fits");
    let cycles = ai_frame_offloaded_tiled(&mut machine, &entities, table, &config, accels)
        .expect("tiles fit");
    assert_eq!(machine.races_detected(), 0);
    cycles
}

/// Host cycles for the same frame dispatched under `policy` (still one
/// tile per accelerator).
pub fn measure_policy(n: u32, accels: u16, policy: SchedPolicy) -> u64 {
    let config = AiConfig::default();
    let mut machine = Machine::new(MachineConfig::default()).expect("config valid");
    let entities = EntityArray::alloc(&mut machine, n).expect("fits");
    let mut gen = WorldGen::new(0xE14);
    gen.populate(&mut machine, &entities, 70.0).expect("fits");
    let table = gen
        .candidate_table(&mut machine, n, config.candidates)
        .expect("fits");
    let report = ai_frame_sched(
        &mut machine,
        &entities,
        table,
        &config,
        accels,
        u32::from(accels),
        policy,
        &[],
    )
    .expect("tiles fit");
    assert_eq!(machine.races_detected(), 0);
    report.run.cycles
}

/// Runs E14.
pub fn run(quick: bool) -> Table {
    // 1024 entities: the single-tile case must fit entity array +
    // candidate slice + output copy in one 256 KiB local store.
    let n = if quick { 512 } else { 1024 };
    let mut table = Table::new(
        "E14",
        "Extension: tiling the AI task across accelerators",
        "the Cell exposes six usable accelerators; data-parallel tiling of a frame task scales \
         until the replicated bulk fetch of shared data dominates, and on near-uniform tiles \
         every scheduling policy agrees bit for bit (paper Sec. 1, 4.1 context)",
        vec![
            "accelerators",
            "frame AI cycles",
            "shortest-queue",
            "work-stealing",
            "speedup vs 1",
            "efficiency",
        ],
    );
    let base = measure(n, 1);
    for accels in 1u16..=6 {
        let t = measure(n, accels);
        let sq = measure_policy(n, accels, SchedPolicy::ShortestQueue);
        let ws = measure_policy(n, accels, SchedPolicy::WorkStealing);
        let s = base as f64 / t as f64;
        table.push_row(vec![
            accels.to_string(),
            cycles(t),
            cycles(sq),
            cycles(ws),
            speedup(base, t),
            format!("{:.0}%", 100.0 * s / f64::from(accels)),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_scaling_is_real_but_sublinear() {
        let one = measure(1024, 1);
        let two = measure(1024, 2);
        let six = measure(1024, 6);
        assert!(two < one, "2 accels beat 1: {two} vs {one}");
        assert!(six < two, "6 accels beat 2: {six} vs {two}");
        let s6 = one as f64 / six as f64;
        assert!(
            s6 < 6.0,
            "the replicated bulk fetch makes scaling sublinear: {s6:.2}x"
        );
        assert!(s6 > 1.8, "but it should still scale usefully: {s6:.2}x");
    }

    #[test]
    fn all_policies_agree_on_uniform_tiles() {
        for accels in [2u16, 6] {
            let st = measure(512, accels);
            assert_eq!(
                st,
                measure_policy(512, accels, SchedPolicy::Static),
                "the scheduler's static path must be the hand-rolled split"
            );
            assert_eq!(
                st,
                measure_policy(512, accels, SchedPolicy::WorkStealing),
                "no profitable steal exists on one uniform tile per accel"
            );
            assert_eq!(
                st,
                measure_policy(512, accels, SchedPolicy::ShortestQueue),
                "greedy assignment lands on the same one-per-accel split"
            );
        }
    }

    #[test]
    fn table_has_expected_shape() {
        let t = run(true);
        assert_eq!(t.rows.len(), 6);
        assert_eq!(t.columns.len(), 6);
    }
}
