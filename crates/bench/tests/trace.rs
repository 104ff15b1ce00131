//! Integration tests for the tracing & profiling layer.
//!
//! Pins the properties `PROFILING.md` relies on: traces are valid Chrome
//! trace-event JSON, the Figure 2 overlap is visible in the exported
//! lanes, tracing is zero simulated cost and allocation-free when
//! disabled, and the always-on counters agree with the event log.

use bench::profile::{
    traced_e2_frame, traced_e2_frame_cycles, traced_fault_frame, traced_pipe_frame,
    traced_sched_frame,
};
use simcell::{
    chrome_trace_json, parse_chrome_trace, ChromeEvent, EventKind, Lane, Layer, Machine,
    MachineConfig, Val,
};

/// Whether `tid` is a lane of exactly `layer`.
fn on(layer: Layer, tid: u64) -> bool {
    Lane::of_tid(tid).is_some_and(|lane| lane.layer == layer)
}

#[test]
fn events_sort_into_cycle_order() {
    let (machine, _) = traced_e2_frame(true);
    let sorted = machine.events().sorted();
    assert!(!sorted.is_empty());
    assert!(
        sorted.windows(2).all(|w| w[0].at <= w[1].at),
        "sorted() must be non-decreasing in cycle"
    );
}

#[test]
fn disabled_log_never_allocates_across_a_full_frame() {
    let (machine, _) = traced_e2_frame(false);
    assert_eq!(machine.events().len(), 0);
    assert_eq!(
        machine.events().capacity(),
        0,
        "a frame with tracing off must not grow the log's backing storage"
    );
}

#[test]
fn tracing_is_zero_simulated_cost() {
    let (traced_machine, traced) = traced_e2_frame(true);
    let untraced_cycles = traced_e2_frame_cycles();
    assert_eq!(
        traced.host_cycles, untraced_cycles,
        "recording must never advance a simulated clock"
    );
    assert!(!traced_machine.events().is_empty());
}

#[test]
fn chrome_json_round_trips_through_the_parser() {
    let (machine, _) = traced_e2_frame(true);
    let json = chrome_trace_json(machine.events());
    let parsed = parse_chrome_trace(&json).expect("exporter emits parseable JSON");
    // Every recorded event surfaces (lifecycle pairs collapse 2 -> 1,
    // metadata rows add a few), so the counts are the same order.
    assert!(parsed.len() >= machine.events().len() / 2);
    assert!(parsed
        .iter()
        .any(|e| e.ph == 'M' && e.name == "thread_name"));
    assert!(parsed.iter().any(|e| e.ph == 'X'));
}

/// The acceptance criterion: in `paper_tables --trace e2.json`, the
/// host's `detectCollisions` span overlaps the accelerator's
/// `calculateStrategy` offload slice — Figure 2's parallelism, visible
/// in the trace.
#[test]
fn figure2_overlap_is_visible_in_the_trace() {
    let (machine, _) = traced_e2_frame(true);
    let json = chrome_trace_json(machine.events());
    let parsed = parse_chrome_trace(&json).expect("valid JSON");

    let strategy = parsed
        .iter()
        .find(|e| {
            e.ph == 'X' && e.name == "calculateStrategy" && e.tid == Layer::Accel.lane(0).tid()
        })
        .expect("offloaded calculateStrategy becomes a complete slice on the accel lane");

    // detectCollisions is a begin/end pair on the host lane (tid 0).
    let begin = parsed
        .iter()
        .find(|e| e.ph == 'B' && e.name == "detectCollisions" && e.tid == 0)
        .expect("host detectCollisions begin");
    let end = parsed
        .iter()
        .find(|e| e.ph == 'E' && e.name == "detectCollisions" && e.tid == 0)
        .expect("host detectCollisions end");
    let detect = ChromeEvent {
        name: begin.name.clone(),
        ph: 'X',
        ts: begin.ts,
        dur: Some(end.ts - begin.ts),
        tid: begin.tid,
    };

    assert!(
        strategy.overlaps(&detect),
        "host detectCollisions [{}, {}] must overlap accel calculateStrategy [{}, {}]",
        detect.ts,
        detect.end(),
        strategy.ts,
        strategy.end(),
    );

    // The AI task's bulk fetches appear on the DMA lane.
    assert!(
        parsed
            .iter()
            .any(|e| e.ph == 'X' && e.name == "dma_get" && e.tid == Layer::Dma.lane(0).tid()),
        "accessor fetches must appear as dma_get slices on the DMA lane"
    );
}

/// The scheduler-lane half of the `--trace` smoke test: a traced
/// work-stealing E15 frame exports one `sched N` lane per accelerator,
/// its tile slices, idle gaps and steal instants survive the
/// parse_chrome_trace round trip, and the tile slices account for
/// every dispatched tile.
#[test]
fn scheduler_lanes_round_trip_through_the_chrome_parser() {
    let (machine, report) = traced_sched_frame(true);
    let json = chrome_trace_json(machine.events());
    let parsed = parse_chrome_trace(&json).expect("valid JSON");

    for lane in &report.run.lanes {
        assert!(
            parsed.iter().any(|e| e.ph == 'M'
                && e.name == "thread_name"
                && e.tid == Layer::Sched.lane(lane.accel).tid()),
            "scheduler lane {} must be named in the export",
            lane.accel
        );
    }
    let tile_slices = parsed
        .iter()
        .filter(|e| e.ph == 'X' && e.name.starts_with("tile ") && on(Layer::Sched, e.tid))
        .count();
    assert_eq!(
        tile_slices as u32, report.tiles,
        "every dispatched tile becomes one scheduler-lane slice"
    );
    assert!(
        parsed
            .iter()
            .any(|e| e.ph == 'X' && e.name == "idle" && on(Layer::Sched, e.tid)),
        "the skewed frame leaves visible idle gaps"
    );
    let steal_instants = parsed
        .iter()
        .filter(|e| e.ph == 'i' && e.name == "steal")
        .count();
    assert_eq!(steal_instants as u32, report.steals);

    // Tracing the schedule costs zero simulated cycles.
    let (_, untraced) = traced_sched_frame(false);
    assert_eq!(report.run.cycles, untraced.run.cycles);
}

/// The fault-lane half of the `--trace` smoke test: a traced E16 frame
/// under fire exports a named `faults N` lane for every accelerator the
/// plan hit, every injection and recovery instant survives the
/// parse_chrome_trace round trip, and the instant counts agree with the
/// scheduler report's always-on counters.
#[test]
fn fault_lanes_round_trip_through_the_chrome_parser() {
    let (machine, report) = traced_fault_frame(true);
    assert!(report.run.faults > 0, "the 5% plan must inject");
    let json = chrome_trace_json(machine.events());
    let parsed = parse_chrome_trace(&json).expect("valid JSON");

    assert!(
        parsed
            .iter()
            .any(|e| e.ph == 'M' && e.name == "thread_name" && on(Layer::Faults, e.tid)),
        "every accelerator the plan hit gets a named faults lane"
    );
    let injections = parsed
        .iter()
        .filter(|e| e.ph == 'i' && on(Layer::Faults, e.tid))
        .filter(|e| {
            matches!(
                e.name.as_str(),
                "dma_corrupt"
                    | "dma_drop"
                    | "tag_timeout"
                    | "accel_stall"
                    | "accel_death"
                    | "ls_poison"
            )
        })
        .count();
    assert_eq!(
        injections as u64, report.run.faults,
        "every injected fault becomes one instant on a fault lane"
    );
    let retries = parsed
        .iter()
        .filter(|e| e.ph == 'i' && e.name == "retry" && on(Layer::Faults, e.tid))
        .count();
    assert_eq!(retries as u64, report.run.retries);

    // Tracing the frame under fire costs zero simulated cycles.
    let (_, untraced) = traced_fault_frame(false);
    assert_eq!(report.run.cycles, untraced.run.cycles);
}

/// The pipeline-lane half of the `--trace` smoke test: a traced E17
/// staged frame exports one `pipe N` lane per stage accelerator, every
/// chunk run and stall slice survives the parse_chrome_trace round
/// trip, and the slice counts agree with the report's always-on
/// counters.
#[test]
fn pipeline_lanes_round_trip_through_the_chrome_parser() {
    let (machine, report) = traced_pipe_frame(true);
    let json = chrome_trace_json(machine.events());
    let parsed = parse_chrome_trace(&json).expect("valid JSON");

    for lane in &report.run.lanes {
        assert!(
            parsed.iter().any(|e| e.ph == 'M'
                && e.name == "thread_name"
                && e.tid == Layer::Pipe.lane(lane.accel).tid()),
            "pipeline lane for accel {} must be named in the export",
            lane.accel
        );
    }
    let chunk_slices = parsed
        .iter()
        .filter(|e| e.ph == 'X' && e.name.starts_with("s") && on(Layer::Pipe, e.tid))
        .filter(|e| e.name.contains(" chunk "))
        .count();
    assert_eq!(
        chunk_slices as u64,
        report.run.lanes.len() as u64 * u64::from(report.chunks),
        "every per-stage chunk run becomes one pipeline-lane slice"
    );
    assert!(
        parsed
            .iter()
            .any(|e| e.ph == 'X' && e.name == "input wait" && on(Layer::Pipe, e.tid)),
        "the staged frame's uneven stage costs leave visible input-wait stalls"
    );

    // Tracing the pipeline costs zero simulated cycles.
    let (_, untraced) = traced_pipe_frame(false);
    assert_eq!(report, untraced);
}

#[test]
fn machine_stats_agree_with_logged_dma_events() {
    let (machine, _) = traced_e2_frame(true);
    let stats = machine.stats();
    let (mut gets, mut puts, mut to_local, mut from_local) = (0u64, 0u64, 0u64, 0u64);
    for e in machine.events().events() {
        if let EventKind::Slice { label, args, .. } = &e.kind {
            let Some(Val::Int(bytes)) = args.get("bytes") else {
                continue;
            };
            match *label {
                "dma_get" => (gets, to_local) = (gets + 1, to_local + bytes),
                "dma_put" => (puts, from_local) = (puts + 1, from_local + bytes),
                _ => {}
            }
        }
    }
    assert_eq!(stats.dma_gets, gets);
    assert_eq!(stats.dma_puts, puts);
    assert_eq!(stats.dma_bytes_to_local, to_local);
    assert_eq!(stats.dma_bytes_from_local, from_local);
    assert_eq!(stats.dma_bytes_total(), to_local + from_local);
}

#[test]
fn machine_stats_agree_with_logged_cache_events() {
    // The E2 frame uses explicit DMA, not a cache — run a cached offload
    // so the cache counters and cache events have something to agree on.
    let mut machine = Machine::new(MachineConfig::small()).unwrap();
    machine.events_mut().set_enabled(true);
    let remote = machine.alloc_main_slice::<u32>(1024).unwrap();
    let values: Vec<u32> = (0..1024).collect();
    machine.main_mut().write_pod_slice(remote, &values).unwrap();
    machine
        .offload(0)
        .run(|ctx| -> Result<(), simcell::SimError> {
            let mut cache = ctx.new_cache(softcache::CacheConfig::direct_mapped_4k())?;
            let mut sum = 0u64;
            for i in 0..1024u32 {
                sum += u64::from(ctx.cached_read_pod::<u32, _>(&mut cache, remote.element(i, 4)?)?);
            }
            assert_eq!(sum, (0..1024u64).sum::<u64>());
            ctx.cache_flush(&mut cache)?;
            Ok(())
        })
        .unwrap()
        .unwrap();

    let stats = machine.stats();
    assert!(stats.cache_hits > 0, "sequential reads mostly hit");
    assert!(stats.cache_misses > 0, "cold lines miss");

    let (mut hits, mut misses, mut fetched) = (0u64, 0u64, 0u64);
    for e in machine.events().events() {
        let EventKind::Instant { label, args, .. } = &e.kind else {
            continue;
        };
        let int = |key| match args.get(key) {
            Some(Val::Int(n)) => n,
            other => panic!("{label} has no integer {key}: {other:?}"),
        };
        match *label {
            "cache_hit" => hits += int("count"),
            "cache_miss" => {
                (misses, fetched) = (misses + int("count"), fetched + int("bytes_fetched"))
            }
            _ => {}
        }
    }
    assert_eq!(stats.cache_hits, hits);
    assert_eq!(stats.cache_misses, misses);
    assert_eq!(stats.cache_bytes_fetched, fetched);
}

#[test]
fn utilization_report_reflects_the_frame() {
    let (machine, _) = traced_e2_frame(true);
    let report = machine.utilization_report();
    assert!(report.contains("utilization report"));
    assert!(report.contains("accel 0"));
    assert!(report.contains("ls high water"));
    let expected = format!("event log: {} events", machine.events().len());
    assert!(report.contains(&expected), "report: {report}");
}

/// 64-bit FNV-1a, the digest the machine's own `world_hash` uses.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// One traced 512-node E18 BFS through `GraphAccess::Gather` (the
/// PROFILING.md gather-lane capture): the only frame that exports
/// gather lanes.
fn traced_gather_bfs() -> Machine {
    use gamekit::{run_bfs, GraphAccess, InteractionGraph};
    let mut machine = Machine::new(MachineConfig::small()).unwrap();
    machine.events_mut().set_enabled(true);
    let graph = InteractionGraph::generate(&mut machine, 512, 6, 0xE18).unwrap();
    let out = machine.alloc_main_slice::<u32>(2 * graph.nodes()).unwrap();
    run_bfs(&mut machine, &graph, 0, out, &GraphAccess::Gather).unwrap();
    machine
}

/// Exact digests of the traced E2, scheduler, fault, pipeline and
/// gather frames: the Chrome JSON (and, for E2, the ASCII timeline) and
/// the full `MachineStats` block. The round-trip tests above only check
/// shape; a reordered, dropped or duplicated record in any runtime, or
/// a change to how the exporter renders a lane, changes these digests.
#[test]
fn runtime_frame_traces_and_stats_are_pinned() {
    let stats = |machine: &Machine| fnv1a(format!("{:?}", machine.stats()).as_bytes());
    let digest = |machine: &Machine| {
        (
            fnv1a(chrome_trace_json(machine.events()).as_bytes()),
            stats(machine),
        )
    };
    let e2 = traced_e2_frame(true).0;
    let got = [
        ("e2", digest(&e2)),
        (
            "e2 timeline",
            (
                fnv1a(simcell::ascii_timeline(e2.events(), 100).as_bytes()),
                stats(&e2),
            ),
        ),
        ("sched", digest(&traced_sched_frame(true).0)),
        ("fault", digest(&traced_fault_frame(true).0)),
        ("pipe", digest(&traced_pipe_frame(true).0)),
        ("gather", digest(&traced_gather_bfs())),
    ];
    let pinned = [
        ("e2", (0x8fec_381b_ed34_3d7b, 0xc0f2_24b7_e31d_04c3)),
        (
            "e2 timeline",
            (0xae2c_2e54_944a_98fe, 0xc0f2_24b7_e31d_04c3),
        ),
        ("sched", (0xdbff_9a7f_f4e4_a11a, 0x6ada_9794_f8c8_6562)),
        ("fault", (0x0d55_661a_2024_f3e3, 0x5dd0_6e62_455a_146a)),
        ("pipe", (0x7baa_bf7b_727f_bdc8, 0x78d4_5be9_4b08_4427)),
        ("gather", (0x52ff_94c9_a56a_6abf, 0x5982_4b12_1557_66b5)),
    ];
    assert_eq!(
        got, pinned,
        "runtime frame trace/stats digests moved: (trace rendering, stats)"
    );
}
