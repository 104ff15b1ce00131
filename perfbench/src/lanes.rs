//! Per-layer lanes: timed calls into each layer's public functions.
//!
//! Every lane wraps its calls in [`Tracer`] spans (one span per batch,
//! or per call where a call is microseconds long) and reads its metric
//! back from the recorded spans: the median over spans of nanoseconds
//! per item. Batches are fixed-size, so every lane does the same work
//! on every run; counts (`*_per_op`, `*_per_index`, `hit_ratio`) are
//! exact. The lanes do not depend on the workload being measured.

use std::time::Instant;

use dma::{DmaEngine, Tag, TagMask};
use gamekit::ai::{ai_frame_sched, AiConfig};
use gamekit::{EntityArray, WorldGen};
use memspace::{copy_between, Addr, MemoryRegion, SpaceId, SpaceKind};
use offload_lang::{compile, Target, Vm};
use offload_rt::pipeline::MachinePipelineExt;
use offload_rt::sched::SchedExt;
use offload_rt::{process_stream, SchedPolicy, StreamConfig};
use simcell::{GatherPlan, Machine, MachineConfig, SimError};
use simfarm::{run_world_in, Farm, WorldSpec};
use softcache::CacheConfig;

use crate::stats::{derive_seed, median};
use crate::trace::Tracer;
use crate::workload::{farm, graph, tables, vm};

/// Repeats of every batch; metrics are medians over them.
const REPS: usize = 7;

/// Per-layer metrics in the order they are reported.
pub type Metrics = Vec<(&'static str, f64)>;

fn ns(tr: &Tracer, span: &str) -> f64 {
    median(&tr.ns_per_item(span))
}

/// Runs every lane with `tr` recording and returns the per-layer
/// metrics (all but `alloc.per_op` and `trace.overhead_frac`, which
/// belong to the workload run).
///
/// # Errors
///
/// Simulator failures, rendered.
pub fn run(seed: u64, tr: &mut Tracer) -> Result<Metrics, String> {
    let mut m = Metrics::new();
    memspace_lane(tr)?;
    m.push(("memspace.copy_ns_per_kib", ns(tr, "memspace.copy")));
    dma_lane(tr)?;
    m.push(("dma.get_wait_ns", ns(tr, "dma.get_wait")));
    m.push(("dma.sync_get_ns", ns(tr, "dma.sync_get")));
    m.push(("dma.batch_ns_per_desc_8", ns(tr, "dma.batch_8")));
    m.push(("dma.batch_ns_per_desc_512", ns(tr, "dma.batch_512")));
    softcache_lane(tr).map_err(|e| e.to_string())?;
    m.push(("softcache.hit_ns", ns(tr, "softcache.hit")));
    m.push(("softcache.miss_ns", ns(tr, "softcache.miss")));
    let graph = graph_lane(seed, tr)?;
    m.push(("softcache.hit_ratio", graph.hit_ratio));
    gather_lane(seed, tr).map_err(|e| e.to_string())?;
    m.push(("gather.plan_ns_per_index", ns(tr, "gather.plan")));
    m.push(("gather.exec_ns_per_desc", ns(tr, "gather.exec")));
    m.push(("gather.descs_per_index", graph.descs_per_index));
    machine_lane(seed, tr).map_err(|e| e.to_string())?;
    m.push(("machine.new_ms", ns(tr, "machine.new") / 1e6));
    m.push(("machine.reset_us", ns(tr, "machine.reset") / 1e3));
    m.push(("machine.world_hash_us", ns(tr, "machine.world_hash") / 1e3));
    m.push(("machine.offload_us", ns(tr, "machine.offload") / 1e3));
    let instrs_per_op = lang_lane(seed, tr)?;
    m.push(("lang.compile_us", ns(tr, "lang.compile") / 1e3));
    m.push(("vm.ns_per_instr", ns(tr, "vm.dispatch")));
    m.push(("vm.instrs_per_op", instrs_per_op as f64));
    runtime_lane(tr).map_err(|e| e.to_string())?;
    m.push(("sched.ns_per_tile", ns(tr, "sched.run_tiles")));
    m.push(("pipeline.ns_per_stage_chunk", ns(tr, "pipeline.run")));
    m.push(("stream.ns_per_chunk", ns(tr, "stream.process")));
    ai_lane(seed, tr).map_err(|e| e.to_string())?;
    m.push(("gamekit.ai_frame_us", ns(tr, "gamekit.ai_frame") / 1e3));
    m.push(("graph.naive_ms", ns(tr, "graph.naive") / 1e6));
    m.push(("graph.tuned_ms", ns(tr, "graph.tuned") / 1e6));
    m.push(("graph.gather_ms", ns(tr, "graph.gather") / 1e6));
    let run_world_us = ns(tr, "farm.run_world") / 1e3;
    m.push(("farm.run_world_us", run_world_us));
    let (handoff_us, busy_frac) = farm_lane(seed, run_world_us, tr)?;
    m.push(("farm.handoff_us", handoff_us));
    m.push(("farm.worker_busy_frac", busy_frac));
    tables::regenerate(false, tr);
    for (span, metric, _) in tables::EXPERIMENTS {
        m.push((metric, ns(tr, span) / 1e6));
    }
    Ok(m)
}

const KIB: u32 = 1024;

fn regions() -> (MemoryRegion, MemoryRegion) {
    let mut main = MemoryRegion::new(SpaceId::MAIN, SpaceKind::Main, 1024 * KIB);
    let ls = MemoryRegion::new(
        SpaceId::local_store(0),
        SpaceKind::LocalStore { accel: 0 },
        256 * KIB,
    );
    let payload: Vec<u8> = (0..1024 * KIB).map(|i| (i * 7 + 13) as u8).collect();
    main.write_bytes(Addr::new(SpaceId::MAIN, 0), &payload)
        .expect("payload fits main memory");
    (main, ls)
}

/// `memspace`: region-to-region copies and typed bulk slices, 16 KiB
/// at a time.
fn memspace_lane(tr: &mut Tracer) -> Result<(), String> {
    const CHUNK: u32 = 16 * KIB;
    const ROUNDS: u32 = 64;
    let (mut main, mut ls) = regions();
    let words: Vec<u32> = (0..CHUNK / 4).collect();
    let mut scratch: Vec<u32> = Vec::with_capacity(words.len());
    for _ in 0..REPS {
        tr.span("memspace.copy", u64::from(3 * ROUNDS * CHUNK / KIB), |_| {
            for r in 0..ROUNDS {
                let remote = Addr::new(SpaceId::MAIN, (r * CHUNK) % (512 * KIB));
                let local = Addr::new(SpaceId::local_store(0), (r % 4) * CHUNK);
                copy_between(&main, remote, &mut ls, local, CHUNK)?;
                main.write_pod_slice(
                    Addr::new(SpaceId::MAIN, 512 * KIB + (r % 8) * CHUNK),
                    &words,
                )?;
                scratch.clear();
                ls.read_pod_slice_into(local, CHUNK / 4, &mut scratch)?;
            }
            Ok::<(), memspace::MemError>(())
        })
        .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// `dma`: asynchronous get + wait, the synchronous fast path, and
/// batches of 8 and 512 transfers in flight before one wait.
fn dma_lane(tr: &mut Tracer) -> Result<(), String> {
    const SIZE: u32 = 128;
    const CALLS: u32 = 8192;
    let (mut main, mut ls) = regions();
    let mut engine = DmaEngine::new(SpaceId::local_store(0));
    let mut now = 0u64;
    let remote = |i: u32| Addr::new(SpaceId::MAIN, (i.wrapping_mul(2_654_435_761) % 8192) * SIZE);
    let local = |i: u32| Addr::new(SpaceId::local_store(0), (i % 512) * SIZE);
    let tag = |i: u32| Tag::new((i % 16) as u8).expect("tags below 32 are valid");
    for _ in 0..REPS {
        now = tr
            .span("dma.get_wait", u64::from(CALLS), |_| {
                for i in 0..CALLS {
                    now = engine.get(now, local(i), remote(i), SIZE, tag(i), &mut main, &mut ls)?;
                    now = engine.wait(tag(i).mask(), now);
                }
                Ok::<u64, dma::DmaError>(now)
            })
            .map_err(|e| e.to_string())?;
        now = tr
            .span("dma.sync_get", u64::from(CALLS), |_| {
                for i in 0..CALLS {
                    now = engine.sync_get(
                        now,
                        local(i),
                        remote(i),
                        SIZE,
                        tag(i),
                        &mut main,
                        &mut ls,
                    )?;
                }
                Ok::<u64, dma::DmaError>(now)
            })
            .map_err(|e| e.to_string())?;
        for (span, depth) in [("dma.batch_8", 8u32), ("dma.batch_512", 512)] {
            now = tr
                .span(span, u64::from(CALLS), |_| {
                    for round in 0..CALLS / depth {
                        for k in 0..depth {
                            let i = round * depth + k;
                            now = engine.get(
                                now,
                                local(k),
                                remote(i),
                                SIZE,
                                tag(i),
                                &mut main,
                                &mut ls,
                            )?;
                        }
                        now = engine.wait(TagMask::ALL, now);
                    }
                    Ok::<u64, dma::DmaError>(now)
                })
                .map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// `softcache`: hits on one resident line, and conflict misses on a
/// direct-mapped cache (every access maps to the same set).
fn softcache_lane(tr: &mut Tracer) -> Result<(), SimError> {
    const READS: u32 = 16_384;
    let mut machine = Machine::new(MachineConfig::small())?;
    let data = machine.alloc_main_slice::<u32>(64 * 1024)?;
    let config = CacheConfig::direct_mapped_4k();
    let stride = config.capacity_bytes();
    machine.offload(0).run(|ctx| -> Result<(), SimError> {
        let mut cache = ctx.new_cache(config)?;
        let _: u32 = ctx.cached_read_pod(&mut cache, data)?;
        for _ in 0..REPS {
            tr.span("softcache.hit", u64::from(READS), |_| {
                for _ in 0..READS {
                    let _: u32 = ctx.cached_read_pod(&mut cache, data)?;
                }
                Ok::<(), SimError>(())
            })?;
            tr.span("softcache.miss", u64::from(READS), |_| {
                for i in 0..READS {
                    let addr = data.element(i % 64, stride)?;
                    let _: u32 = ctx.cached_read_pod(&mut cache, addr)?;
                }
                Ok::<(), SimError>(())
            })?;
        }
        Ok(())
    })?
}

/// Frontier-like indices: a seeded, sorted, deduplicated subset of
/// `0..8192` (a BFS frontier of the `graph` workload's size).
fn frontier(seed: u64) -> Vec<u32> {
    let mut indices: Vec<u32> = (0..512u64)
        .map(|i| (derive_seed(seed, i) % u64::from(graph::NODES)) as u32)
        .collect();
    indices.sort_unstable();
    indices.dedup();
    indices
}

/// `simcell::gather`: plan build (index list to coalesced descriptors)
/// and plan execution on an accelerator.
fn gather_lane(seed: u64, tr: &mut Tracer) -> Result<(), SimError> {
    const PLANS: u64 = 8;
    let indices = frontier(seed);
    let mut machine = Machine::new(MachineConfig::small())?;
    let base = machine.alloc_main_slice::<u32>(graph::NODES)?;
    for _ in 0..REPS {
        tr.span("gather.plan", 64 * PLANS * indices.len() as u64, |_| {
            for _ in 0..64 * PLANS {
                let plan = GatherPlan::new(base, 4, indices.clone());
                std::hint::black_box(plan.descriptors());
            }
        });
    }
    let plan = GatherPlan::new(base, 4, indices);
    let descs = plan.descriptors().len() as u64;
    machine.offload(0).run(|ctx| -> Result<(), SimError> {
        for _ in 0..REPS {
            tr.span("gather.exec", PLANS * descs, |_| {
                for _ in 0..PLANS {
                    let mark = ctx.local_alloc_mark();
                    ctx.gather(&plan)?;
                    ctx.local_alloc_restore(mark);
                }
                Ok::<(), SimError>(())
            })?;
        }
        Ok(())
    })?
}

/// `simcell::machine` and `simfarm`: construction, and the recycle
/// cycle of a farm worker — run a world, hash it, reset, launch an
/// empty kernel.
fn machine_lane(seed: u64, tr: &mut Tracer) -> Result<(), SimError> {
    for _ in 0..REPS {
        std::hint::black_box(
            tr.span("machine.new", 1, |_| Machine::new(MachineConfig::default()))?,
        );
    }
    let specs = farm::specs(seed);
    let mut machine = Machine::new(specs[0].config)?;
    for spec in specs.iter().take(256) {
        tr.span("farm.run_world", 1, |_| run_world_in(&mut machine, spec))?;
        std::hint::black_box(tr.span("machine.world_hash", 1, |_| machine.world_hash()));
        tr.span("machine.reset", 1, |_| machine.reset_for_seed(spec.seed));
        tr.span("machine.offload", 1, |_| machine.offload(0).run(|_| ()))?;
    }
    Ok(())
}

/// `offload-lang`: compiling the `vm` program set and VM dispatch.
/// Returns the set's instructions per op.
fn lang_lane(seed: u64, tr: &mut Tracer) -> Result<u64, String> {
    let owned = vm::Params::from_seed(seed).source();
    let target = Target::cell_like();
    for _ in 0..REPS {
        tr.span("lang.compile", 1, |_| {
            for src in [vm::FRAME, owned.as_str()] {
                std::hint::black_box(
                    compile(src, &target).map_err(|e| format!("compile error: {e:?}"))?,
                );
            }
            Ok::<(), String>(())
        })?;
    }
    let programs = vm::compile_set(seed)?;
    let mut machine = Machine::new(MachineConfig::default()).map_err(|e| e.to_string())?;
    let mut instructions = Vec::new();
    for program in &programs {
        instructions.push(vm::run_program(program, &mut machine, &mut Tracer::off())?.instructions);
    }
    for _ in 0..REPS * 8 {
        for (program, &instrs) in programs.iter().zip(&instructions) {
            machine.reset_for_seed(0);
            let mut vm = Vm::new(program, &mut machine).map_err(|e| e.to_string())?;
            tr.span("vm.dispatch", instrs, |_| vm.run(&mut machine))
                .map_err(|e| format!("vm run failed: {e:?}"))?;
        }
    }
    Ok(instructions.iter().sum())
}

/// `offload-rt`: tile-scheduler overhead on trivial tiles, a two-stage
/// pipeline, and a double-buffered stream.
fn runtime_lane(tr: &mut Tracer) -> Result<(), SimError> {
    const TILES: u32 = 64;
    const LEN: u32 = 4096;
    const CHUNK: u32 = 64;
    let mut machine = Machine::new(MachineConfig::default())?;
    let remote = machine.alloc_main_slice::<u32>(LEN)?;
    let values: Vec<u32> = (0..LEN).collect();
    machine.host_write_slice(remote, &values)?;
    let bump =
        |ctx: &mut simcell::AccelCtx<'_>, _: u32, chunk: &mut [u32]| -> Result<(), SimError> {
            for v in chunk.iter_mut() {
                *v = v.wrapping_mul(3).wrapping_add(1);
            }
            ctx.compute(chunk.len() as u64);
            Ok(())
        };
    for _ in 0..REPS * 4 {
        tr.span("sched.run_tiles", u64::from(TILES), |_| {
            machine
                .offload(0)
                .sched(SchedPolicy::ShortestQueue)
                .accels(4)
                .run_tiles(TILES, |ctx, _| {
                    ctx.compute(100);
                    Ok(())
                })
        })?;
        tr.span("pipeline.run", u64::from(2 * LEN / CHUNK), |_| {
            machine
                .pipeline::<u32>()
                .stage(bump)
                .stage(bump)
                .chunk(CHUNK)
                .run(remote, LEN)
        })?;
        tr.span("stream.process", u64::from(LEN / CHUNK), |_| {
            machine.offload(0).run(|ctx| {
                process_stream::<u32, _>(
                    ctx,
                    remote,
                    LEN,
                    StreamConfig {
                        chunk_elems: CHUNK,
                        write_back: true,
                    },
                    bump,
                )
            })
        })??;
    }
    Ok(())
}

/// `gamekit`: the scheduled AI frame of a quick farm world.
fn ai_lane(seed: u64, tr: &mut Tracer) -> Result<(), SimError> {
    const ENTITIES: u32 = 64;
    let spec = WorldSpec::quick(seed);
    let mut machine = Machine::new(spec.config)?;
    let config = AiConfig::default();
    let array = EntityArray::alloc(&mut machine, ENTITIES)?;
    let mut gen = WorldGen::new(seed);
    gen.populate(&mut machine, &array, 100.0)?;
    let table = gen.candidate_table(&mut machine, ENTITIES, config.candidates)?;
    for _ in 0..REPS * 32 {
        tr.span("gamekit.ai_frame", 1, |_| {
            ai_frame_sched(
                &mut machine,
                &array,
                table,
                &config,
                2,
                8,
                SchedPolicy::ShortestQueue,
                &[],
            )
        })?;
    }
    Ok(())
}

/// Exact counts from the `graph` workload's reference traversals.
struct GraphCounts {
    hit_ratio: f64,
    descs_per_index: f64,
}

/// `gamekit::graph`: each access path over the `graph` workload's
/// graph, three times.
fn graph_lane(seed: u64, tr: &mut Tracer) -> Result<GraphCounts, String> {
    let mut world = graph::GraphWorld::new(graph::NODES, seed)?;
    let tuned = world.tune()?;
    let mut counts = None;
    for _ in 0..3 {
        let _ = world.traverse(&gamekit::graph::GraphAccess::Naive, tr)?;
        let cached = world.traverse(&tuned, tr)?;
        let gathered = world.traverse(&gamekit::graph::GraphAccess::Gather, tr)?;
        let (hits, misses) = cached.cache;
        let (elems, descs) = gathered.gather;
        counts = Some(GraphCounts {
            hit_ratio: hits as f64 / (hits + misses).max(1) as f64,
            descs_per_index: descs as f64 / elems.max(1) as f64,
        });
    }
    counts.ok_or_else(|| "graph lane ran no traversal".into())
}

/// `simfarm`: a batch of worlds through a farm of `nproc` workers.
/// Returns `(handoff µs per world, worker busy fraction)`, where the
/// handoff is the farm's wall time per world times its workers, minus a
/// solo run.
fn farm_lane(seed: u64, run_world_us: f64, tr: &mut Tracer) -> Result<(f64, f64), String> {
    const BATCH: usize = 1024;
    let specs = farm::specs(seed);
    let workers = crate::host::nproc();
    let mut farm = Farm::new(workers).map_err(|e| e.to_string())?;
    let mut handoff = Vec::new();
    let mut busy_frac = Vec::new();
    for rep in 0..=4 {
        let busy_before: u64 = farm.worker_busy_nanos().iter().sum();
        let start = Instant::now();
        tr.span("farm.batch", BATCH as u64, |_| {
            for spec in specs.iter().cycle().take(BATCH) {
                farm.submit(*spec);
            }
            farm.collect()
        })
        .into_iter()
        .try_for_each(|r| r.outcome.map(|_| ()))
        .map_err(|e| format!("farm world failed: {e}"))?;
        let wall_ns = start.elapsed().as_nanos() as f64;
        let busy_ns = (farm.worker_busy_nanos().iter().sum::<u64>() - busy_before) as f64;
        // The first batch warms the workers' machines.
        if rep > 0 {
            handoff.push(wall_ns / BATCH as f64 * workers as f64 / 1e3 - run_world_us);
            busy_frac.push(busy_ns / (wall_ns * workers as f64));
        }
    }
    Ok((median(&handoff), median(&busy_frac)))
}
