//! Mode-misuse and mode-identity property tests — the CI half of the
//! access-mode redesign's safety claim.
//!
//! Declaring access modes buys cheaper recovery (journal skips, elided
//! write-backs), but only because the runtime *enforces* them: a put
//! outside every declared `write`/`update` range, or a genuine
//! mutation of a `reads`-declared buffer, is an [`SimError::UndeclaredWrite`]
//! and a race note, not a silent scribble. These tests pin the
//! rejection paths, and a seeded [`xrng::Rng`] property test pins the
//! other half of the contract: under random fault seeds and rates,
//! with the full retry/evict/host-fallback recovery stack armed, the
//! mode-annotated frame produces the undeclared frame's world
//! bit-for-bit while journaling no more bytes.

use bench::exp::e16_fault_recovery::{self, measure_buffered};
use gamekit::{ai_frame_sched_recovering_buffered, AiConfig, EntityArray, WorldGen};
use memspace::AccessMode;
use offload_rt::sched::SchedPolicy;
use offload_rt::{ArrayAccessor, RemoteSlice};
use simcell::{FaultPlan, Machine, MachineConfig, SimError};
use xrng::Rng;

const LEN: u32 = 64;

/// A small machine with `LEN` seeded words in main memory.
fn seeded_machine() -> (Machine, memspace::Addr) {
    let mut machine = Machine::new(MachineConfig::small()).expect("config valid");
    let addr = machine.alloc_main_slice::<u32>(LEN).expect("fits");
    let values: Vec<u32> = (0..LEN).map(|v| v.wrapping_mul(31) ^ 7).collect();
    machine
        .main_mut()
        .write_pod_slice(addr, &values)
        .expect("fits");
    (machine, addr)
}

#[test]
fn put_outside_every_declared_range_is_rejected() {
    let (mut machine, input) = seeded_machine();
    let output = machine.alloc_main_slice::<u32>(LEN).expect("fits");
    // The offload declares its input but forgets the output entirely.
    // The moment any range is declared, the mode set is strict: the
    // output put must be rejected, not silently allowed.
    let result = machine
        .offload(0)
        .label("forgot the output")
        .reads(input, LEN * 4)
        .run(|ctx| {
            let tile = ArrayAccessor::<u32>::fetch(ctx, input, LEN)?;
            let mut out = ArrayAccessor::<u32>::for_output(ctx, output, LEN)?;
            for i in 0..LEN {
                let v = tile.get(ctx, i)?;
                out.set(ctx, i, &v.wrapping_add(1))?;
            }
            out.write_back(ctx)
        })
        .expect("accel 0 exists");
    match result {
        Err(SimError::UndeclaredWrite { declared, .. }) => {
            assert_eq!(declared, None, "the output range was never declared")
        }
        other => panic!("undeclared put must be rejected, got {other:?}"),
    }
    assert!(
        machine.races_detected() > 0,
        "the race analyzer must log the undeclared write"
    );
}

#[test]
fn mutating_a_reads_declared_buffer_is_rejected() {
    let (mut machine, addr) = seeded_machine();
    // The offload swears the buffer is read-only, then genuinely
    // mutates it. The write-back is not elidable — the bytes differ —
    // so the race analyzer rejects it instead of letting the broken
    // declaration corrupt main memory.
    let result = machine
        .offload(0)
        .label("lying reads declaration")
        .reads(addr, LEN * 4)
        .run(|ctx| {
            let mut tile = ArrayAccessor::<u32>::fetch(ctx, addr, LEN)?;
            let v = tile.get(ctx, 3)?;
            tile.set(ctx, 3, &v.wrapping_add(1))?;
            tile.write_back(ctx)
        })
        .expect("accel 0 exists");
    match result {
        Err(SimError::UndeclaredWrite { declared, .. }) => {
            assert_eq!(declared, Some(AccessMode::Read))
        }
        other => panic!("a mutated `reads` buffer must be rejected, got {other:?}"),
    }
    assert!(machine.races_detected() > 0);
    assert_eq!(
        machine.stats().dma_writebacks_elided,
        0,
        "a differing buffer must never be elided"
    );
}

#[test]
fn conservative_flush_of_untouched_reads_buffer_is_elided() {
    let (mut machine, addr) = seeded_machine();
    let before: Vec<u32> = machine.main().read_pod_slice(addr, LEN).expect("fits");
    machine
        .offload(0)
        .label("honest reads declaration")
        .reads(addr, LEN * 4)
        .run(|ctx| {
            let mut tile = ArrayAccessor::<u32>::fetch(ctx, addr, LEN)?;
            // Dirty-but-unchanged: the defensive rewrite stores the
            // value each slot already holds.
            for i in 0..LEN {
                let v = tile.get(ctx, i)?;
                tile.set(ctx, i, &v)?;
            }
            tile.write_back(ctx)
        })
        .expect("accel 0 exists")
        .expect("elided flush succeeds");
    assert_eq!(machine.stats().dma_writebacks_elided, 1);
    assert_eq!(
        machine.stats().dma_writeback_bytes_elided,
        u64::from(LEN) * 4
    );
    assert_eq!(machine.races_detected(), 0);
    let after: Vec<u32> = machine.main().read_pod_slice(addr, LEN).expect("fits");
    assert_eq!(before, after);
}

#[test]
fn reads_declaration_elides_the_flush_in_exact_cycles() {
    // A 2048-word read-only tile whose generic body rewrites eight
    // header slots with the values they hold, then flushes the buffer.
    // Undeclared, the flush is a real DMA put; `reads`-declared, the
    // runtime proves the buffer unchanged and elides it.
    const WORDS: u32 = 2048;
    let run = |declare: bool| -> (u64, u64) {
        let mut machine = Machine::new(MachineConfig::small()).expect("config valid");
        let remote = machine.alloc_main_slice::<u32>(WORDS).expect("fits");
        let values: Vec<u32> = (0..WORDS).map(|v| v.wrapping_mul(7)).collect();
        machine
            .main_mut()
            .write_pod_slice(remote, &values)
            .expect("fits");
        let mut builder = machine.offload(0).label("read-only tile");
        if declare {
            builder = builder.reads(remote, WORDS * 4);
        }
        let handle = builder
            .spawn(move |ctx| {
                let mut tile = ArrayAccessor::<u32>::fetch(ctx, remote, WORDS)?;
                for i in 0..8 {
                    let v = tile.get(ctx, i)?;
                    tile.set(ctx, i, &v)?;
                }
                tile.write_back(ctx)
            })
            .expect("accel 0 exists");
        let elapsed = handle.elapsed();
        machine.join(handle).expect("tile succeeds");
        (elapsed, machine.memory_hash())
    };
    let (undeclared, hash_undeclared) = run(false);
    let (declared, hash_declared) = run(true);
    assert_eq!(
        hash_undeclared, hash_declared,
        "eliding the flush must not change a single byte"
    );
    assert_eq!(undeclared, 2_048);
    assert_eq!(declared, 1_072);
}

/// Runs the double-buffered recovering AI frame with a caller-chosen
/// fault seed, with or without mode declarations.
fn buffered_frame(
    n: u32,
    seed: u64,
    rate: f32,
    declare_modes: bool,
) -> (Vec<gamekit::GameEntity>, u64, u64) {
    let config = AiConfig::default();
    let mut machine = Machine::new(MachineConfig::default()).expect("config valid");
    let entities = EntityArray::alloc(&mut machine, n).expect("fits");
    let out = EntityArray::alloc(&mut machine, n).expect("fits");
    let mut gen = WorldGen::new(seed);
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
        e16_fault_recovery::ACCELS,
        e16_fault_recovery::TILES,
        SchedPolicy::WorkStealing,
        FaultPlan::uniform(seed ^ 0xFA11, rate),
        e16_fault_recovery::RETRIES,
        e16_fault_recovery::BACKOFF,
        declare_modes,
    )
    .expect("recovery absorbs every fault");
    assert_eq!(machine.races_detected(), 0);
    let world = out.snapshot(&machine).expect("snapshot reads");
    (world, machine.stats().journal_bytes, report.run.cycles)
}

/// The identity property: for random worlds, fault seeds, and fault
/// rates — retries, evictions, and host fallbacks all in play — mode
/// declarations never change a byte of the world and never journal
/// more than the undeclared run.
#[test]
fn modes_replay_bit_identically_under_random_fault_storms() {
    let mut rng = Rng::new(0x40DE5);
    for round in 0..4 {
        let seed = rng.next_u64();
        let rate = rng.range_u32(0, 12) as f32 / 100.0;
        let n = 64 * rng.range_u32(2, 6);
        let (world_u, journal_u, cycles_u) = buffered_frame(n, seed, rate, false);
        let (world_d, journal_d, cycles_d) = buffered_frame(n, seed, rate, true);
        assert_eq!(
            world_u, world_d,
            "round {round} (seed {seed:#x}, rate {rate}): modes changed the world"
        );
        assert!(
            journal_d <= journal_u,
            "round {round}: modes must never journal more ({journal_d} vs {journal_u})"
        );
        // No cycle ordering is asserted: an elided transfer also skips
        // its fault-RNG draw, so the declared run sees a *different*
        // fault schedule and can retry more or less than the
        // undeclared one. What must hold is that its own replay is
        // exact.
        let _ = (cycles_u, cycles_d);
        // Replays of the declared run are themselves bit-identical.
        let (world_d2, journal_d2, cycles_d2) = buffered_frame(n, seed, rate, true);
        assert_eq!(world_d, world_d2);
        assert_eq!(journal_d, journal_d2);
        assert_eq!(cycles_d, cycles_d2);
    }
}

/// The E16 determinism diff the CI gate runs: the mode-annotated storm
/// vs the undeclared baseline at the table's middle rate — equal world
/// hashes, strictly fewer journal bytes, and real elided write-backs.
#[test]
fn e16_mode_annotated_storm_matches_undeclared_baseline() {
    let (_, world_u, stats_u) = measure_buffered(512, SchedPolicy::WorkStealing, 0.05, false);
    let (_, world_d, stats_d) = measure_buffered(512, SchedPolicy::WorkStealing, 0.05, true);
    assert_eq!(world_u, world_d, "world hashes must be equal");
    assert!(
        stats_d.journal_bytes < stats_u.journal_bytes,
        "modes must shrink the journal: {} vs {}",
        stats_d.journal_bytes,
        stats_u.journal_bytes
    );
    assert!(stats_d.journal_snapshots_skipped > 0);
    assert!(stats_d.dma_writeback_bytes_elided > 0);
    assert_eq!(stats_u.dma_writeback_bytes_elided, 0);
}
