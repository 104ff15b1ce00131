//! Scaling one frame task across all six accelerators, then letting
//! the tile scheduler fix a skewed one.
//!
//! ```text
//! cargo run --release --example multi_accel
//! ```
//!
//! The Cell in the PS3 exposes six usable SPEs; the paper's Figure 2
//! uses one. This example tiles the AI strategy task across 1–6
//! simulated accelerators (each tile bulk-fetches the shared read-only
//! entity array and writes back only its slice) and prints the scaling
//! curve. It then skews the tile costs — a few "hot" tiles, as a real
//! frame has — and dispatches the same work under all three
//! `offload_rt::sched` policies through the fluent builder chain,
//! showing work stealing recovering the cycles the static split loses.
//! Finally the same fan-out effect is shown at the language level with
//! named asynchronous offload handles.

use offload_repro::gamekit::{ai_frame_offloaded_tiled, AiConfig, EntityArray, WorldGen};
use offload_repro::offload_lang::{compile, Target, Vm};
use offload_repro::offload_rt::prelude::*;

const ENTITIES: u32 = 1024;

fn tiled(accels: u16) -> Result<u64, SimError> {
    let config = AiConfig::default();
    let mut machine = Machine::new(MachineConfig::default())?;
    let entities = EntityArray::alloc(&mut machine, ENTITIES)?;
    let mut gen = WorldGen::new(6);
    gen.populate(&mut machine, &entities, 70.0)?;
    let table = gen.candidate_table(&mut machine, ENTITIES, config.candidates)?;
    ai_frame_offloaded_tiled(&mut machine, &entities, table, &config, accels)
}

/// Dispatches one skewed synthetic frame — 24 tiles, the first 6 hot —
/// over 6 lanes under `policy`, via the fluent builder chain.
fn skewed(policy: SchedPolicy) -> Result<SchedReport, SimError> {
    const TILES: u32 = 24;
    let mut machine = Machine::new(MachineConfig::default())?;
    let (_, report) = machine
        .offload(0)
        .label("skewed tile")
        .sched(policy)
        .accels(6)
        .run_tiles(TILES, |ctx, tile| {
            ctx.compute(if tile < TILES / 4 { 180_000 } else { 30_000 });
            Ok(())
        })?;
    Ok(report)
}

fn main() -> Result<(), SimError> {
    println!("AI strategy task over {ENTITIES} entities, tiled across accelerators:\n");
    let base = tiled(1)?;
    println!("  accels   frame cycles   speedup   efficiency");
    for accels in 1..=6u16 {
        let cycles = tiled(accels)?;
        let speedup = base as f64 / cycles as f64;
        println!(
            "  {accels:>6}   {cycles:>12}   {speedup:>6.2}x   {:>8.0}%",
            100.0 * speedup / f64::from(accels)
        );
    }

    // Uniform tiles are the easy case — a static block split is already
    // right. Skew the costs and compare the scheduling policies.
    println!("\nSkewed tiles (24 tiles over 6 lanes, first quarter hot), by policy:\n");
    let st = skewed(SchedPolicy::Static)?;
    println!("  policy           cycles      vs static   steals   imbalance");
    for policy in [
        SchedPolicy::Static,
        SchedPolicy::ShortestQueue,
        SchedPolicy::WorkStealing,
    ] {
        let report = skewed(policy)?;
        println!(
            "  {:<14}   {:>9}   {:>8.2}x   {:>6}   {:>9.2}",
            policy.name(),
            report.run.cycles,
            st.run.cycles as f64 / report.run.cycles as f64,
            report.steals,
            report.run.imbalance(),
        );
    }

    // The same overlap, written in Offload/Mini with named handles: four
    // independent chunks of work fan out over four accelerators.
    let source = r#"
        var s0: int; var s1: int; var s2: int; var s3: int;
        fn main() -> int {
            offload h0 { let i: int = 0; let a: int = 0; while i < 1500 { a = a + i; i = i + 1; } s0 = a; }
            offload h1 { let i: int = 0; let a: int = 0; while i < 1500 { a = a + i; i = i + 1; } s1 = a; }
            offload h2 { let i: int = 0; let a: int = 0; while i < 1500 { a = a + i; i = i + 1; } s2 = a; }
            offload h3 { let i: int = 0; let a: int = 0; while i < 1500 { a = a + i; i = i + 1; } s3 = a; }
            join h0; join h1; join h2; join h3;
            if s0 == s1 && s1 == s2 && s2 == s3 { return 4; }
            return 0;
        }
    "#;
    let program = compile(source, &Target::cell_like()).expect("fan-out compiles");
    let mut machine = Machine::new(MachineConfig::default())?;
    let mut vm = Vm::new(&program, &mut machine)?;
    let fanout_exit = vm.run(&mut machine).expect("fan-out runs");
    let fanout_cycles = machine.host_now();

    // The synchronous version of the same program, for contrast.
    let sync = source
        .replace("offload h0", "offload")
        .replace("offload h1", "offload")
        .replace("offload h2", "offload")
        .replace("offload h3", "offload")
        .replace("join h0; join h1; join h2; join h3;", "");
    let program = compile(&sync, &Target::cell_like()).expect("sync compiles");
    let mut machine = Machine::new(MachineConfig::default())?;
    let mut vm = Vm::new(&program, &mut machine)?;
    let sync_exit = vm.run(&mut machine).expect("sync runs");
    let sync_cycles = machine.host_now();

    assert_eq!(fanout_exit, sync_exit);
    println!(
        "\nOffload/Mini named handles: 4 async offloads in {fanout_cycles} cycles vs \
         {sync_cycles} synchronous ({:.2}x from language-level fan-out)",
        sync_cycles as f64 / fanout_cycles as f64
    );
    Ok(())
}
