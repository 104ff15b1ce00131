//! Exact counts repeat bit for bit across two independent runs.
//!
//! One test function, so nothing else allocates in this process while
//! allocation counts are taken.

use perfbench::alloc::{allocations, CountingAlloc};
use perfbench::lanes;
use perfbench::trace::Tracer;
use perfbench::workload::{graph, setup, tables, vm, Budget, Drive};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const SEED: u64 = 0x5EED;

/// Per-op simulated cycles, pass/fail, and allocations per op.
fn exact(drive: &Drive) -> (Vec<(u64, bool)>, f64) {
    (
        drive.samples.iter().map(|s| (s.sim_cycles, s.ok)).collect(),
        drive.allocations_per_op(),
    )
}

fn twice<T: PartialEq + std::fmt::Debug>(what: &str, mut run: impl FnMut() -> T) {
    let first = run();
    let second = run();
    assert_eq!(first, second, "{what} differs between two runs");
}

#[test]
fn exact_counts_repeat() {
    assert!(allocations() > 0, "the counting allocator is registered");
    for name in ["vm", "graph"] {
        twice(name, || {
            let mut w = setup(name, SEED).expect("set-up succeeds");
            w.drive(Budget::ops(1), &mut Tracer::off());
            exact(&w.drive(Budget::ops(3), &mut Tracer::off()))
        });
    }
    twice("vm instructions", || {
        vm::VmSet::setup(SEED)
            .expect("set-up succeeds")
            .instructions_per_op()
    });
    twice("graph reference traversals", || {
        graph::GraphTraversal::setup(SEED)
            .expect("set-up succeeds")
            .reference()
            .iter()
            .map(|t| (t.cycles, t.cache, t.gather, t.memory_hash))
            .collect::<Vec<_>>()
    });
    twice("tables digest", || {
        let before = allocations();
        let tables = tables::regenerate(false, &mut Tracer::off());
        (
            tables::render(&tables),
            tables::table_cycles(&tables),
            allocations() - before,
        )
    });
    twice("farm world hashes", || {
        let mut w = setup("farm", SEED).expect("set-up succeeds");
        exact(&w.drive(Budget::ops(64), &mut Tracer::off())).0
    });
    twice("lane counts", || {
        let metrics = lanes::run(SEED, &mut Tracer::on()).expect("lanes run");
        metrics
            .into_iter()
            .filter(|(name, _)| {
                matches!(
                    *name,
                    "softcache.hit_ratio" | "gather.descs_per_index" | "vm.instrs_per_op"
                )
            })
            .map(|(name, value)| (name, value.to_bits()))
            .collect::<Vec<_>>()
    });
}
