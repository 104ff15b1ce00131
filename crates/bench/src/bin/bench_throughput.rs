//! Emits `BENCH_throughput.json`: the hot-path throughput report.
//!
//! Two kinds of numbers:
//!
//! - **End-to-end throughput** of the simulated-execution pipeline:
//!   simulated cycles retired per wall-second (a double-buffered
//!   streaming offload) and VM instructions retired per wall-second (a
//!   call-heavy Offload/Mini program with virtual dispatch). These are
//!   the headline "how fast does the simulator run" figures.
//! - **Seed-vs-current speedups** on the hot paths the allocation-free
//!   and raw-speed overhauls touched, each timed against a faithful
//!   standalone replica of the seed implementation on an identical
//!   workload (see [`bench::hotpath`]) — plus the `vm_superinstr` lane,
//!   which times the real VM on the same program with the peephole
//!   fusion pass on and off (pinned bit-identical in simulated time).
//! - **Simulated overlap** (`pipeline_overlap`): the staged frame's
//!   sequential-over-pipeline cycle ratio — deterministic simulated
//!   time rather than wall time, so the perf budget can enforce it
//!   without CI noise ever moving it.
//! - **Mode elision** (`mode_elision`): a read-only tile whose generic
//!   body conservatively flushes its buffer, timed undeclared (the
//!   flush is a real DMA put) vs `reads`-declared (the runtime proves
//!   the buffer unchanged and elides the transfer). Same deterministic
//!   simulated-cycle discipline as `pipeline_overlap`.
//! - **Gathered traversal** (`graph_frontier`): E18's irregular graph
//!   walk (BFS + connected components) with naive per-edge remote
//!   derefs vs batched frontier gathers, in deterministic simulated
//!   cycles — the perf budget's guard on the gather engine.
//!
//! Usage: `cargo run --release -p bench --bin bench_throughput
//! [output.json]`. Defaults to `BENCH_throughput.json` in the current
//! directory.
//!
//! With `--farm` the report gains the sim-farm scaling lane:
//! `worlds_per_sec` and aggregate `farm_sim_cycles_per_sec` at
//! 1/2/4/8 worker threads, measured on the worker critical path (see
//! [`bench::farmlane`] for why that, and not wall clock, is the
//! scaling signal on CI boxes), plus `farm_scaling_2t`/`_4t` entries
//! in the `"speedups"` section so the scaling joins the perf budget.
//! `--quick` shrinks the farm batch for CI.
//!
//! With `--check <baseline.json> [--max-regress <ratio>]` the run
//! additionally enforces the CI perf-regression budget: after writing
//! the fresh report, every hot-path speedup is compared against the
//! baseline's and the process exits non-zero if any fell below
//! `ratio` (default 0.85) of its committed value.

use std::time::Duration;

use bench::hotpath::{
    dma_ledger_legacy, dma_ledger_rings, vm_call_path_legacy, vm_call_path_sliced, vm_value_enum,
    vm_value_tagged, CopyRig,
};
use bench::timing::{row, time, Measurement};
use offload_lang::{compile, Target, Vm};
use offload_rt::{process_stream, ArrayAccessor, RemoteSlice, StreamConfig};
use simcell::{Machine, MachineConfig};

/// A call-heavy Offload/Mini program: virtual dispatch through a
/// domain, function calls, and outer accesses inside an offload block.
const VM_PROGRAM: &str = r#"
    class Entity {
        hp: float;
        virtual fn tick(d: float) { self.hp = self.hp - d; }
    }
    class Enemy : Entity {
        override fn tick(d: float) { self.hp = self.hp - d - d; }
    }
    var e: Entity*;
    var f: Entity*;
    var total: int;

    fn accumulate(a: int, b: int) -> int { return a + b; }

    fn main() -> int {
        e = new Enemy;
        f = new Entity;
        e.hp = 1000.0;
        f.hp = 1000.0;
        let i: int = 0;
        while i < 40 {
            offload domain(Entity.tick, Enemy.tick) {
                let j: int = 0;
                while j < 10 {
                    e.tick(1.0);
                    f.tick(1.0);
                    j = j + 1;
                }
            }
            total = accumulate(total, i);
            i = i + 1;
        }
        return total;
    }
"#;

/// One full VM run on a recycled machine; returns (simulated cycles,
/// instructions retired).
///
/// The machine is recycled with [`Machine::reset_for_seed`] — the sim
/// farm's arena-reuse path, pinned bit-identical to a fresh machine —
/// so the measurement covers the VM (compile artefacts are shared,
/// construction is a reset), not the allocator's appetite for zeroing
/// fresh regions. See PROFILING.md for the measurement conditions.
fn vm_run(program: &offload_lang::Program, machine: &mut Machine) -> (u64, u64) {
    machine.reset_for_seed(0);
    let mut vm = Vm::new(program, machine).expect("program fits");
    vm.run(machine).expect("program runs");
    (machine.host_now(), vm.instructions_executed())
}

/// One full streaming offload; returns simulated cycles retired.
fn stream_run() -> u64 {
    const LEN: u32 = 4096;
    let mut machine = Machine::new(MachineConfig::small()).expect("config valid");
    let remote = machine.alloc_main_slice::<u32>(LEN).expect("fits");
    let values: Vec<u32> = (0..LEN).collect();
    machine
        .main_mut()
        .write_pod_slice(remote, &values)
        .expect("fits");
    let handle = machine
        .offload(0)
        .spawn(|ctx| {
            process_stream::<u32, _>(
                ctx,
                remote,
                LEN,
                StreamConfig {
                    chunk_elems: 256,
                    write_back: true,
                },
                |ctx, _, chunk| {
                    for v in chunk.iter_mut() {
                        *v = v.wrapping_mul(3).wrapping_add(1);
                    }
                    ctx.compute(chunk.len() as u64);
                    Ok(())
                },
            )
        })
        .expect("accel 0 exists");
    let elapsed = handle.elapsed();
    machine.join(handle).expect("stream succeeds");
    elapsed
}

/// Simulated cycles for the staged frame (skin → collide → resolve)
/// run sequentially stage-by-stage vs overlapped through
/// `machine.pipeline()`, on identical seeded worlds (bit-identity
/// asserted). The ratio is the `pipeline_overlap` perf lane: pure
/// simulated time, so CI load cannot move it — any regression is a
/// real scheduling change.
fn pipeline_overlap_cycles() -> (u64, u64) {
    use gamekit::{staged_frame_pipeline, staged_frame_sequential, EntityArray, WorldGen};
    const N: u32 = 512;
    const CHUNK: u32 = 64;
    let world = || {
        let mut machine = Machine::new(MachineConfig::default()).expect("config valid");
        let entities = EntityArray::alloc(&mut machine, N).expect("fits");
        WorldGen::new(0xE17)
            .populate(&mut machine, &entities, 100.0)
            .expect("fits");
        (machine, entities)
    };
    let (mut seq_m, seq_e) = world();
    let sequential = staged_frame_sequential(&mut seq_m, &seq_e, CHUNK).expect("fits");
    let (mut pipe_m, pipe_e) = world();
    let report = staged_frame_pipeline(&mut pipe_m, &pipe_e, CHUNK, 2).expect("fits");
    assert_eq!(
        seq_m.memory_hash(),
        pipe_m.memory_hash(),
        "the pipeline must produce the bit-identical world"
    );
    (sequential, report.run.cycles)
}

/// Simulated cycles for a read-only tile offload whose generic body
/// defensively rewrites its buffer and conservatively flushes it, run
/// undeclared (the flush is a real DMA put) vs with a `reads`
/// declaration (the flush is elided — the buffer is byte-identical to
/// main memory, so the transfer never issues). Pure simulated time,
/// deterministic, bit-identical worlds; the ratio is the
/// `mode_elision` perf lane.
fn mode_elision_cycles() -> (u64, u64) {
    const LEN: u32 = 2048;
    let run = |declare: bool| -> (u64, u64) {
        let mut machine = Machine::new(MachineConfig::small()).expect("config valid");
        let remote = machine.alloc_main_slice::<u32>(LEN).expect("fits");
        let values: Vec<u32> = (0..LEN).map(|v| v.wrapping_mul(7)).collect();
        machine
            .main_mut()
            .write_pod_slice(remote, &values)
            .expect("fits");
        let mut builder = machine.offload(0).label("read-only tile");
        if declare {
            builder = builder.reads(remote, LEN * 4);
        }
        let handle = builder
            .spawn(move |ctx| {
                let mut tile = ArrayAccessor::<u32>::fetch(ctx, remote, LEN)?;
                // Defensive rewrite of the header slots: each is
                // stored back with the value it already holds, so the
                // whole buffer ends dirty but unchanged and the
                // generic epilogue flushes it conservatively.
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
    let (undeclared, hash_u) = run(false);
    let (declared, hash_d) = run(true);
    assert_eq!(
        hash_u, hash_d,
        "eliding the flush must not change a single byte"
    );
    (undeclared, declared)
}

/// Simulated cycles for the irregular graph traversal (E18's BFS plus
/// connected components over the seeded interaction graph) via naive
/// per-edge remote derefs vs batched frontier gathers, on identical
/// graphs (bit-identity asserted). Pure simulated time, deterministic;
/// the ratio is the `graph_frontier` perf lane.
fn graph_frontier_cycles() -> (u64, u64) {
    use bench::exp::e18_graph::measure;
    use gamekit::graph::GraphAccess;
    let (naive, naive_hash, _) = measure(true, &GraphAccess::Naive);
    let (gather, gather_hash, plans) = measure(true, &GraphAccess::Gather);
    assert_eq!(
        naive_hash, gather_hash,
        "gathered traversal must produce the bit-identical memory image"
    );
    assert!(plans > 0, "the gather variant must use the gather engine");
    (naive, gather)
}

struct Comparison {
    key: &'static str,
    label: &'static str,
    legacy: Measurement,
    current: Measurement,
}

impl Comparison {
    fn speedup(&self) -> f64 {
        self.current.speedup_over(&self.legacy)
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Parsed command line: output path plus the optional budget check.
struct Args {
    out_path: String,
    check: Option<(String, f64)>,
    farm: bool,
    quick: bool,
}

fn parse_args() -> Args {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = None;
    let mut baseline = None;
    let mut max_regress = 0.85f64;
    let mut farm = false;
    let mut quick = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--farm" => {
                farm = true;
                i += 1;
            }
            "--quick" => {
                quick = true;
                i += 1;
            }
            "--check" => {
                baseline = Some(args.get(i + 1).cloned().unwrap_or_else(|| {
                    eprintln!("--check needs a baseline file, e.g. --check BENCH_throughput.json");
                    std::process::exit(2);
                }));
                i += 2;
            }
            "--max-regress" => {
                max_regress = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| {
                        eprintln!("--max-regress needs a ratio, e.g. --max-regress 0.85");
                        std::process::exit(2);
                    });
                i += 2;
            }
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag {flag}");
                std::process::exit(2);
            }
            positional => {
                out_path = Some(positional.to_string());
                i += 1;
            }
        }
    }
    Args {
        out_path: out_path.unwrap_or_else(|| "BENCH_throughput.json".to_string()),
        check: baseline.map(|b| (b, max_regress)),
        farm,
        quick,
    }
}

/// Enforces the perf-regression budget; returns the process exit code.
fn run_check(report_json: &str, baseline_path: &str, max_regress: f64) -> i32 {
    let baseline_json = match std::fs::read_to_string(baseline_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read baseline {baseline_path}: {e}");
            return 2;
        }
    };
    let baseline = match bench::perfbudget::parse_speedups(&baseline_json) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("baseline {baseline_path} is not a throughput report: {e}");
            return 2;
        }
    };
    let current =
        bench::perfbudget::parse_speedups(report_json).expect("fresh report always parses");
    let violations = bench::perfbudget::check_speedups(&baseline, &current, max_regress);
    for (key, base) in &baseline {
        let measured = current
            .iter()
            .find(|(k, _)| k == key)
            .map(|&(_, v)| v)
            .unwrap_or(0.0);
        eprintln!(
            "  budget {key}: baseline {base:.3}x, current {measured:.3}x ({:.0}% — floor {:.0}%)",
            100.0 * measured / base,
            100.0 * max_regress
        );
    }
    if violations.is_empty() {
        eprintln!("perf budget holds: no hot path below {max_regress} of baseline");
        0
    } else {
        for v in &violations {
            eprintln!(
                "PERF REGRESSION {}: speedup {:.3}x is {:.0}% of the committed {:.3}x \
                 (budget floor {:.0}%)",
                v.key,
                v.current,
                100.0 * v.ratio(),
                v.baseline,
                100.0 * max_regress
            );
        }
        1
    }
}

fn main() {
    let args = parse_args();
    let out_path = args.out_path;
    let budget = Duration::from_millis(300);

    // --- End-to-end throughput -----------------------------------
    eprintln!("end-to-end pipeline throughput");
    let program = compile(VM_PROGRAM, &Target::cell_like()).expect("benchmark program compiles");
    let mut vm_machine = Machine::new(MachineConfig::small()).expect("config valid");
    let (vm_cycles, vm_instrs) = vm_run(&program, &mut vm_machine);
    let vm_wall = time("vm program (calls + offloads)", budget, || {
        vm_run(&program, &mut vm_machine)
    });
    eprintln!("  {}", row(&vm_wall));
    let vm_instrs_per_sec = vm_instrs as f64 * vm_wall.iters_per_sec();
    let vm_cycles_per_sec = vm_cycles as f64 * vm_wall.iters_per_sec();

    let stream_cycles = stream_run();
    let stream_wall = time("double-buffered stream offload", budget, stream_run);
    eprintln!("  {}", row(&stream_wall));
    let stream_cycles_per_sec = stream_cycles as f64 * stream_wall.iters_per_sec();

    // The headline figure pools both pipelines: total simulated cycles
    // retired per second of wall time across the measured runs.
    let sim_cycles_per_sec = stream_cycles_per_sec + vm_cycles_per_sec;

    // --- Seed-vs-current hot paths -------------------------------
    eprintln!("seed-vs-current hot paths");
    assert_eq!(dma_ledger_legacy(512), dma_ledger_rings(512));
    let mut rig = CopyRig::new(1024);
    assert_eq!(rig.step_legacy(), rig.step_new());
    assert_eq!(rig.read_slice_legacy(), rig.read_slice_new());
    assert_eq!(vm_call_path_legacy(512), vm_call_path_sliced(512));
    assert_eq!(vm_value_enum(512), vm_value_tagged(512));

    // The superinstruction lane runs the *real* VM twice on the same
    // program, fused vs unfused; fusion must be invisible to the
    // simulated machine, so the cycle/instruction pins are asserted
    // live before either side is timed.
    let plain = compile(
        VM_PROGRAM,
        &Target::cell_like().with_superinstructions(false),
    )
    .expect("benchmark program compiles unfused");
    assert_eq!(
        vm_run(&plain, &mut vm_machine),
        (vm_cycles, vm_instrs),
        "superinstruction fusion must not change simulated cycles or instruction counts"
    );

    let comparisons = [
        Comparison {
            key: "dma_issue_wait",
            label: "DMA issue/wait bookkeeping (8 live tag groups)",
            legacy: time("dma: flat Vec + retain (seed)", budget, || {
                dma_ledger_legacy(512)
            }),
            current: time("dma: per-tag rings (current)", budget, || {
                dma_ledger_rings(512)
            }),
        },
        Comparison {
            key: "accessor_bulk_transfer",
            label: "accessor bulk transfer (1 KiB copies + typed reads)",
            legacy: {
                let m1 = time("copy: read_bytes().to_vec() (seed)", budget, || {
                    rig.step_legacy()
                });
                let m2 = time("read: fresh Vec + element loop (seed)", budget, || {
                    rig.read_slice_legacy()
                });
                Measurement {
                    name: "bulk transfer (seed)".to_string(),
                    iters: m1.iters + m2.iters,
                    elapsed: m1.elapsed + m2.elapsed,
                }
            },
            current: {
                let m1 = time("copy: copy_between slices (current)", budget, || {
                    rig.step_new()
                });
                let m2 = time("read: scratch reuse + memcpy (current)", budget, || {
                    rig.read_slice_new()
                });
                Measurement {
                    name: "bulk transfer (current)".to_string(),
                    iters: m1.iters + m2.iters,
                    elapsed: m1.elapsed + m2.elapsed,
                }
            },
        },
        Comparison {
            key: "vm_dispatch",
            label: "VM call-path bookkeeping (arg slices + flat slots)",
            legacy: time("vm: pop into Vec + HashMap (seed)", budget, || {
                vm_call_path_legacy(512)
            }),
            current: time("vm: stack split + flat slots (current)", budget, || {
                vm_call_path_sliced(512)
            }),
        },
        Comparison {
            key: "vm_tagged_dispatch",
            label: "VM operand representation (tagged word vs enum)",
            legacy: time("vm: enum operand stack (seed)", budget, || {
                vm_value_enum(512)
            }),
            current: time("vm: tagged machine words (current)", budget, || {
                vm_value_tagged(512)
            }),
        },
        Comparison {
            key: "vm_superinstr",
            label: "VM superinstruction fusion (full program, fused vs unfused)",
            legacy: time("vm: superinstructions off", budget, || {
                vm_run(&plain, &mut vm_machine)
            }),
            current: time("vm: superinstructions on", budget, || {
                vm_run(&program, &mut vm_machine)
            }),
        },
    ];
    for c in &comparisons {
        eprintln!("  {}", row(&c.legacy));
        eprintln!("  {}", row(&c.current));
        eprintln!("  {}: {:.2}x", c.key, c.speedup());
    }

    // --- Pipeline overlap lane (simulated, deterministic) ---------
    eprintln!("pipeline overlap (simulated cycles, deterministic)");
    let (pipe_seq_cycles, pipe_par_cycles) = pipeline_overlap_cycles();
    let pipeline_overlap = pipe_seq_cycles as f64 / pipe_par_cycles as f64;
    eprintln!(
        "  staged frame: sequential {pipe_seq_cycles} cycles, pipeline {pipe_par_cycles} \
         cycles: {pipeline_overlap:.2}x"
    );

    // --- Mode-elision lane (simulated, deterministic) -------------
    eprintln!("mode elision (simulated cycles, deterministic)");
    let (mode_undecl_cycles, mode_decl_cycles) = mode_elision_cycles();
    let mode_elision = mode_undecl_cycles as f64 / mode_decl_cycles as f64;
    eprintln!(
        "  read-only tile: undeclared {mode_undecl_cycles} cycles, `reads`-declared \
         {mode_decl_cycles} cycles: {mode_elision:.2}x"
    );

    // --- Graph-frontier lane (simulated, deterministic) -----------
    eprintln!("graph frontier (simulated cycles, deterministic)");
    let (graph_naive_cycles, graph_gather_cycles) = graph_frontier_cycles();
    let graph_frontier = graph_naive_cycles as f64 / graph_gather_cycles as f64;
    eprintln!(
        "  irregular traversal: naive {graph_naive_cycles} cycles, gathered \
         {graph_gather_cycles} cycles: {graph_frontier:.2}x"
    );

    // --- Sim-farm scaling lane ------------------------------------
    let farm_bench = if args.farm {
        let worlds = if args.quick { 32 } else { 64 };
        let threads: &[usize] = if args.quick {
            &[1, 2, 4]
        } else {
            &[1, 2, 4, 8]
        };
        eprintln!("sim farm scaling ({worlds} worlds per lane)");
        let bench = bench::farmlane::run_farm_bench(worlds, threads);
        for lane in &bench.lanes {
            eprintln!(
                "  {} worker(s): {:.0} worlds/s critical-path ({:.0} wall), \
                 {:.2e} sim cycles/s, scaling {:.2}x",
                lane.threads,
                lane.worlds_per_sec,
                lane.wall_worlds_per_sec,
                lane.farm_sim_cycles_per_sec,
                bench.scaling(lane.threads)
            );
        }
        Some(bench)
    } else {
        None
    };

    // --- Report ---------------------------------------------------
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!(
        "  \"sim_cycles_per_sec\": {sim_cycles_per_sec:.0},\n"
    ));
    json.push_str(&format!(
        "  \"vm_instrs_per_sec\": {vm_instrs_per_sec:.0},\n"
    ));
    json.push_str("  \"pipelines\": {\n");
    json.push_str(&format!(
        "    \"vm_program\": {{ \"sim_cycles\": {vm_cycles}, \"vm_instrs\": {vm_instrs}, \"runs_per_sec\": {:.2} }},\n",
        vm_wall.iters_per_sec()
    ));
    json.push_str(&format!(
        "    \"stream_offload\": {{ \"sim_cycles\": {stream_cycles}, \"runs_per_sec\": {:.2} }}\n",
        stream_wall.iters_per_sec()
    ));
    json.push_str("  },\n");
    if let Some(farm) = &farm_bench {
        json.push_str("  \"farm\": {\n");
        json.push_str(&format!("    \"worlds\": {},\n", farm.worlds));
        json.push_str(&format!(
            "    \"batch_sim_cycles\": {},\n",
            farm.batch_sim_cycles
        ));
        json.push_str("    \"lanes\": [\n");
        for (i, lane) in farm.lanes.iter().enumerate() {
            let comma = if i + 1 < farm.lanes.len() { "," } else { "" };
            json.push_str(&format!(
                "      {{ \"threads\": {}, \"worlds_per_sec\": {:.1}, \
                 \"farm_sim_cycles_per_sec\": {:.0}, \"critical_path_ms\": {:.3}, \
                 \"wall_ms\": {:.3}, \"wall_worlds_per_sec\": {:.1} }}{comma}\n",
                lane.threads,
                lane.worlds_per_sec,
                lane.farm_sim_cycles_per_sec,
                lane.critical_path_secs * 1e3,
                lane.wall_secs * 1e3,
                lane.wall_worlds_per_sec,
            ));
        }
        json.push_str("    ]\n");
        json.push_str("  },\n");
    }
    json.push_str("  \"speedups\": {\n");
    for c in &comparisons {
        // The pipeline_overlap entry below always follows.
        json.push_str(&format!(
            "    \"{}\": {{ \"label\": \"{}\", \"legacy_ns_per_iter\": {:.1}, \"current_ns_per_iter\": {:.1}, \"speedup\": {:.3} }},\n",
            c.key,
            json_escape(c.label),
            c.legacy.nanos_per_iter(),
            c.current.nanos_per_iter(),
            c.speedup()
        ));
    }
    json.push_str(&format!(
        "    \"pipeline_overlap\": {{ \"label\": \"staged frame: pipeline vs sequential stages (simulated cycles)\", \"sequential_cycles\": {pipe_seq_cycles}, \"pipeline_cycles\": {pipe_par_cycles}, \"speedup\": {pipeline_overlap:.3} }},\n"
    ));
    json.push_str(&format!(
        "    \"graph_frontier\": {{ \"label\": \"irregular graph traversal: batched frontier gather vs naive per-edge derefs (simulated cycles)\", \"naive_cycles\": {graph_naive_cycles}, \"gather_cycles\": {graph_gather_cycles}, \"speedup\": {graph_frontier:.3} }},\n"
    ));
    {
        let comma = if farm_bench.is_some() { "," } else { "" };
        json.push_str(&format!(
            "    \"mode_elision\": {{ \"label\": \"read-only tile: `reads`-declared flush elision vs undeclared (simulated cycles)\", \"undeclared_cycles\": {mode_undecl_cycles}, \"declared_cycles\": {mode_decl_cycles}, \"speedup\": {mode_elision:.3} }}{comma}\n"
        ));
    }
    if let Some(farm) = &farm_bench {
        json.push_str(&format!(
            "    \"farm_scaling_2t\": {{ \"label\": \"sim farm critical-path scaling, 2 workers vs 1\", \"speedup\": {:.3} }},\n",
            farm.scaling(2)
        ));
        json.push_str(&format!(
            "    \"farm_scaling_4t\": {{ \"label\": \"sim farm critical-path scaling, 4 workers vs 1\", \"speedup\": {:.3} }}\n",
            farm.scaling(4)
        ));
    }
    json.push_str("  }\n");
    json.push_str("}\n");

    std::fs::write(&out_path, &json).expect("report is writable");
    println!("wrote {out_path}");
    print!("{json}");

    if let Some((baseline_path, max_regress)) = args.check {
        eprintln!("perf-regression budget vs {baseline_path}");
        let code = run_check(&json, &baseline_path, max_regress);
        if code != 0 {
            std::process::exit(code);
        }
    }
}
