//! Every check passes on a held-out seed, the result line carries every
//! metric named in `BENCHMARK.json`, and the graph's local-store
//! ceiling is where the docs say it is.

use gamekit::graph::GraphAccess;
use perfbench::alloc::CountingAlloc;
use perfbench::run;
use perfbench::trace::Tracer;
use perfbench::workload::{graph, setup, Budget, NAMES};
use perfbench::{END_TO_END, PER_LAYER};

// `peak_heap_mib` comes from the counting allocator.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A seed no figure in the docs was measured with.
const HELD_OUT: u64 = 0x00DD_BA11;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[test]
fn every_workload_passes_its_checks_on_a_held_out_seed() {
    for name in NAMES {
        let mut w = setup(name, HELD_OUT).unwrap_or_else(|e| panic!("{name} set-up: {e}"));
        assert_eq!(w.setup_checks().1, 0, "{name} set-up checks");
        let drive = w.drive(Budget::ops(2), &mut Tracer::off());
        assert_eq!(drive.samples.len(), 2);
        assert_eq!(drive.failed(), 0, "{name}: {:?}", drive.first_failure);
        assert!(
            drive.samples.iter().all(|s| s.sim_cycles > 0),
            "{name} retires cycles"
        );
    }
}

#[test]
fn unknown_workloads_are_rejected() {
    assert!(setup("nope", 1).is_err());
}

#[test]
fn result_lines_carry_every_declared_metric() {
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(
            BENCHMARK_JSON.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name} ({unit}) is declared in BENCHMARK.json"
        );
    }
    let out = run::end_to_end("vm", HELD_OUT, 0.2).expect("untraced run");
    let names: Vec<&str> = out.metrics.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, END_TO_END.map(|(n, _)| n));
    assert!(out.metrics.iter().all(|(_, v)| v.is_finite() && *v > 0.0));
    let (out, tracer) = run::per_layer("vm", HELD_OUT, 0.2).expect("traced run");
    let names: Vec<&str> = out.metrics.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, PER_LAYER.map(|(n, _)| n));
    assert_eq!(out.failed, 0);
    let json = out.to_json();
    assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
    assert!(!tracer.spans().is_empty());
    assert!(tracer.to_json().contains("\"summary\""));
}

#[test]
fn the_graph_ceiling_is_between_8192_and_12000_nodes() {
    let mut world = graph::GraphWorld::new(12_000, HELD_OUT).expect("the graph fits main memory");
    let err = world
        .traverse(&GraphAccess::Gather, &mut Tracer::off())
        .expect_err("gather runs out of local store at 12,000 nodes");
    assert!(
        err.contains("in space ls0 exceeds"),
        "an out-of-memory error on ls0: {err}"
    );
    assert!(
        graph::GraphWorld::new(100_000, HELD_OUT).is_err(),
        "100,000 nodes overflow main memory"
    );
}
