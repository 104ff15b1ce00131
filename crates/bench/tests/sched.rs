//! Integration tests for the tile scheduler (E14/E15).
//!
//! Pins the two guarantees the scheduler ships with: the static policy
//! is bit-identical to the hand-rolled one-offload-per-accelerator
//! split the golden E14 numbers were produced by, and work stealing
//! never loses cycles to static on *any* tile-cost vector (its steal
//! guard only takes strictly-profitable steals).

use bench::exp::{e14_multi_accel, e15_sched_policies};
use offload_rt::sched::{SchedExt, SchedPolicy};
use simcell::{Machine, MachineConfig};
use xrng::Rng;

/// The golden E14 cycle counts (static split). These are the exact
/// numbers in `tests/golden/paper_tables_quick.txt` and the published
/// full-size table; the scheduler rework must not move them.
#[test]
fn static_policy_reproduces_the_golden_e14_cycles_bit_identically() {
    const QUICK: [u64; 6] = [281_548, 144_444, 99_744, 77_724, 65_424, 57_444];
    const FULL: [u64; 6] = [560_396, 284_924, 194_324, 149_020, 122_680, 105_520];
    for (i, &want) in QUICK.iter().enumerate() {
        let got = e14_multi_accel::measure(512, i as u16 + 1);
        assert_eq!(got, want, "quick E14, {} accels", i + 1);
    }
    for (i, &want) in FULL.iter().enumerate() {
        let got = e14_multi_accel::measure(1024, i as u16 + 1);
        assert_eq!(got, want, "full E14, {} accels", i + 1);
    }
}

fn run_policy(policy: SchedPolicy, costs: &[u64], accels: u16) -> u64 {
    let mut m = Machine::new(MachineConfig::default()).unwrap();
    let t0 = m.host_now();
    m.offload(0)
        .sched(policy)
        .accels(accels)
        .run_tiles(costs.len() as u32, |ctx, tile| {
            ctx.compute(costs[tile as usize]);
            Ok(())
        })
        .unwrap();
    m.host_now() - t0
}

/// The work-stealing safety property: over random tile-cost vectors
/// (costs dominating the per-launch overheads, as real tiles do), the
/// stealing schedule never takes more cycles than the static split —
/// the steal guard only moves a tile when the thief finishes it
/// strictly earlier than the victim could have started it.
#[test]
fn work_stealing_never_exceeds_static_on_random_cost_vectors() {
    let mut rng = Rng::new(0x05EE_D15E);
    let mut stole_somewhere = false;
    for case in 0..200 {
        let tiles = rng.range_u32(1, 33);
        let accels = rng.range_u32(1, 7) as u16;
        let costs: Vec<u64> = (0..tiles)
            .map(|_| u64::from(rng.range_u32(20_000, 200_001)))
            .collect();
        let st = run_policy(SchedPolicy::Static, &costs, accels);
        let ws = run_policy(SchedPolicy::WorkStealing, &costs, accels);
        assert!(
            ws <= st,
            "case {case}: work stealing lost cycles ({ws} vs {st}) on \
             tiles={tiles} accels={accels} costs={costs:?}"
        );
        stole_somewhere |= ws < st;
    }
    assert!(
        stole_somewhere,
        "200 random skews must contain at least one profitable steal"
    );
}

/// On uniform cost vectors with a balanced split (tile count a
/// multiple of the lane count) no steal is profitable and the policies
/// are bit-identical, not merely close. (An *unbalanced* uniform split
/// — 21 tiles over 6 lanes — leaves some queues one tile deeper, and
/// stealing that surplus is exactly the right call; the safety
/// property above covers those.)
#[test]
fn work_stealing_is_bit_identical_to_static_on_balanced_uniform_tiles() {
    let mut rng = Rng::new(0x0E14_0E15);
    for _ in 0..32 {
        let accels = rng.range_u32(1, 7) as u16;
        let tiles = u32::from(accels) * rng.range_u32(1, 5);
        let cost = u64::from(rng.range_u32(20_000, 200_001));
        let costs = vec![cost; tiles as usize];
        assert_eq!(
            run_policy(SchedPolicy::Static, &costs, accels),
            run_policy(SchedPolicy::WorkStealing, &costs, accels),
            "tiles={tiles} accels={accels} cost={cost}"
        );
    }
}

/// The E15 acceptance bar, as an always-on regression: on the skewed
/// frame, work stealing beats static by at least 20% simulated cycles
/// with an identical world.
#[test]
fn e15_work_stealing_beats_static_by_twenty_percent() {
    let (st, st_world) = e15_sched_policies::measure(512, SchedPolicy::Static);
    let (ws, ws_world) = e15_sched_policies::measure(512, SchedPolicy::WorkStealing);
    assert_eq!(ws_world, st_world);
    assert!(
        ws.run.cycles * 5 <= st.run.cycles * 4,
        "{} vs {}",
        ws.run.cycles,
        st.run.cycles
    );
}
