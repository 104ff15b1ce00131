//! Host-time benchmark of the Offload reproduction.
//!
//! Every figure here is **host** time: what it costs to run the
//! simulator. Simulated cycles are the model's results, so they appear
//! only as correctness checks and exact counts. See `README.md` in this
//! directory for the workloads, the metrics, and which per-layer figure
//! should move which end-to-end figure.

pub mod alloc;
pub mod calib;
pub mod host;
pub mod lanes;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("sim_mcycles_per_s", "Mcycles/s"),
    ("setup_s", "s"),
    ("peak_heap_mib", "MiB"),
];

/// Per-layer metrics (`--trace 1`): name and unit, in report order.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("memspace.copy_ns_per_kib", "ns/KiB"),
    ("dma.get_wait_ns", "ns"),
    ("dma.sync_get_ns", "ns"),
    ("dma.batch_ns_per_desc_8", "ns"),
    ("dma.batch_ns_per_desc_512", "ns"),
    ("softcache.hit_ns", "ns"),
    ("softcache.miss_ns", "ns"),
    ("softcache.hit_ratio", "ratio"),
    ("gather.plan_ns_per_index", "ns"),
    ("gather.exec_ns_per_desc", "ns"),
    ("gather.descs_per_index", "ratio"),
    ("machine.new_ms", "ms"),
    ("machine.reset_us", "us"),
    ("machine.world_hash_us", "us"),
    ("machine.offload_us", "us"),
    ("lang.compile_us", "us"),
    ("vm.ns_per_instr", "ns"),
    ("vm.instrs_per_op", "count"),
    ("sched.ns_per_tile", "ns"),
    ("pipeline.ns_per_stage_chunk", "ns"),
    ("stream.ns_per_chunk", "ns"),
    ("gamekit.ai_frame_us", "us"),
    ("graph.naive_ms", "ms"),
    ("graph.tuned_ms", "ms"),
    ("graph.gather_ms", "ms"),
    ("farm.run_world_us", "us"),
    ("farm.handoff_us", "us"),
    ("farm.worker_busy_frac", "ratio"),
    ("tables.e01_ms", "ms"),
    ("tables.e02_ms", "ms"),
    ("tables.e03_ms", "ms"),
    ("tables.e04_ms", "ms"),
    ("tables.e05_ms", "ms"),
    ("tables.e06_ms", "ms"),
    ("tables.e07_ms", "ms"),
    ("tables.e08_ms", "ms"),
    ("tables.e09_ms", "ms"),
    ("tables.e10_ms", "ms"),
    ("tables.e11_ms", "ms"),
    ("tables.e12_ms", "ms"),
    ("tables.e13_ms", "ms"),
    ("tables.e14_ms", "ms"),
    ("tables.e15_ms", "ms"),
    ("tables.e16_ms", "ms"),
    ("tables.e17_ms", "ms"),
    ("tables.e18_ms", "ms"),
    ("alloc.per_op", "count"),
    ("trace.overhead_frac", "ratio"),
];
