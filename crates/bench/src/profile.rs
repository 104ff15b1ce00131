//! Traced runs for profiling — the capture side of `PROFILING.md`.
//!
//! [`traced_e2_frame`] re-runs E2's offloaded frame (paper Figure 2)
//! with the event log enabled and hands back the machine, ready for
//! [`simcell::chrome_trace_json`], [`simcell::ascii_timeline`] or
//! [`simcell::Machine::utilization_report`]. Tracing is zero simulated
//! cost, so the cycle counts match an untraced E2 run bit for bit —
//! [`traced_e2_frame_cycles`] is the untraced twin the regression tests
//! compare against.

use gamekit::{run_frame, AiConfig, EntityArray, FrameSchedule, FrameStats, WorldGen};
use memspace::Addr;
use simcell::{Machine, MachineConfig};

/// Entity count used by the traced frame (matches E2's quick sweep).
pub const TRACE_ENTITIES: u32 = 256;

fn setup(n: u32) -> (Machine, EntityArray, Addr) {
    let mut machine = Machine::new(MachineConfig::small()).expect("config valid");
    let entities = EntityArray::alloc(&mut machine, n).expect("fits");
    let mut gen = WorldGen::new(0xE2);
    gen.populate(&mut machine, &entities, 60.0).expect("fits");
    let table = gen
        .candidate_table(&mut machine, n, AiConfig::default().candidates)
        .expect("fits");
    (machine, entities, table)
}

/// Runs one E2 offloaded frame with `trace` deciding whether the event
/// log records. The returned machine holds the log, the always-on
/// [`simcell::MachineStats`], and per-engine DMA statistics.
pub fn traced_e2_frame(trace: bool) -> (Machine, FrameStats) {
    let (mut machine, entities, table) = setup(TRACE_ENTITIES);
    machine.events_mut().set_enabled(trace);
    let stats = run_frame(
        &mut machine,
        &entities,
        table,
        &AiConfig::default(),
        FrameSchedule::Offloaded { accel: 0 },
    )
    .expect("frame runs");
    (machine, stats)
}

/// Host cycles of one untraced E2 offloaded frame — the baseline the
/// zero-cost regression tests pin traced runs against.
pub fn traced_e2_frame_cycles() -> u64 {
    traced_e2_frame(false).1.host_cycles
}

/// Runs one E15 skewed frame under the work-stealing scheduler with
/// `trace` deciding whether the event log records. The returned
/// machine's log carries the scheduler lanes (`sched N` in the Chrome
/// export): tile-assignment slices, idle gaps, enqueue and steal
/// instants — the capture side of PROFILING.md's "Reading the
/// scheduler lane".
pub fn traced_sched_frame(trace: bool) -> (Machine, offload_rt::sched::SchedReport) {
    use crate::exp::e15_sched_policies::{skewed_costs, ACCELS, TILES};
    use gamekit::ai_frame_sched;
    use offload_rt::sched::SchedPolicy;

    let n = 512;
    let config = AiConfig::default();
    let mut machine = Machine::new(MachineConfig::default()).expect("config valid");
    machine.events_mut().set_enabled(trace);
    let entities = EntityArray::alloc(&mut machine, n).expect("fits");
    let mut gen = WorldGen::new(0xE15);
    gen.populate(&mut machine, &entities, 70.0).expect("fits");
    let table = gen
        .candidate_table(&mut machine, n, config.candidates)
        .expect("fits");
    let report = ai_frame_sched(
        &mut machine,
        &entities,
        table,
        &config,
        ACCELS,
        TILES,
        SchedPolicy::WorkStealing,
        &skewed_costs(),
    )
    .expect("tiles fit");
    (machine, report)
}

/// Runs one E16 work-stealing frame under fire — a uniform fault plan
/// at E16's middle rate with the full retry/evict/fallback stack on —
/// with `trace` deciding whether the event log records. The returned
/// machine's log carries the fault lanes (`faults N` in the Chrome
/// export): injection instants and the retry / evict / host-fallback
/// responses — the capture side of PROFILING.md's "Reading the faults
/// lane".
pub fn traced_fault_frame(trace: bool) -> (Machine, offload_rt::sched::SchedReport) {
    use crate::exp::e16_fault_recovery::{ACCELS, BACKOFF, FAULT_SEED, RETRIES, TILES};
    use gamekit::ai_frame_sched_recovering;
    use offload_rt::sched::SchedPolicy;
    use simcell::FaultPlan;

    let n = 512;
    let config = AiConfig::default();
    let mut machine = Machine::new(MachineConfig::default()).expect("config valid");
    machine.events_mut().set_enabled(trace);
    let entities = EntityArray::alloc(&mut machine, n).expect("fits");
    let mut gen = WorldGen::new(0xE16);
    gen.populate(&mut machine, &entities, 70.0).expect("fits");
    let table = gen
        .candidate_table(&mut machine, n, config.candidates)
        .expect("fits");
    let report = ai_frame_sched_recovering(
        &mut machine,
        &entities,
        table,
        &config,
        ACCELS,
        TILES,
        SchedPolicy::WorkStealing,
        FaultPlan::uniform(FAULT_SEED, 0.05),
        RETRIES,
        BACKOFF,
    )
    .expect("recovery absorbs every fault");
    (machine, report)
}

/// Runs one pipelined staged frame (E17's skin → collide → resolve
/// chain through `machine.pipeline()`) with `trace` deciding whether
/// the event log records. The returned machine's log carries the
/// pipeline lanes (`pipe N` in the Chrome export): per-stage chunk
/// slices plus input-wait and backpressure stalls — the capture side
/// of PROFILING.md's "Reading the pipeline lane".
pub fn traced_pipe_frame(trace: bool) -> (Machine, offload_rt::PipeReport) {
    use gamekit::staged_frame_pipeline;

    let n = 512;
    let mut machine = Machine::new(MachineConfig::default()).expect("config valid");
    machine.events_mut().set_enabled(trace);
    let entities = EntityArray::alloc(&mut machine, n).expect("fits");
    WorldGen::new(0xE17)
        .populate(&mut machine, &entities, 100.0)
        .expect("fits");
    let report = staged_frame_pipeline(&mut machine, &entities, 64, 2).expect("three stages fit");
    (machine, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcell::{EventKind, Layer};

    #[test]
    fn traced_frame_records_the_figure2_events() {
        let (machine, stats) = traced_e2_frame(true);
        assert!(stats.schedule_was_offloaded);
        assert!(!machine.events().is_empty());
        assert!(machine.stats().offloads >= 1);
    }

    #[test]
    fn tracing_never_changes_frame_cycles() {
        let (_, traced) = traced_e2_frame(true);
        let (_, untraced) = traced_e2_frame(false);
        assert_eq!(traced.host_cycles, untraced.host_cycles);
        assert_eq!(traced.ai_cycles, untraced.ai_cycles);
        assert_eq!(traced.pairs, untraced.pairs);
    }

    #[test]
    fn traced_sched_frame_records_scheduler_events_at_zero_cost() {
        let (machine, report) = traced_sched_frame(true);
        let (_, untraced_report) = traced_sched_frame(false);
        assert_eq!(report.run.cycles, untraced_report.run.cycles);
        assert!(report.steals > 0, "the skewed frame steals");
        let stats = machine.stats();
        assert_eq!(u64::from(report.tiles), stats.sched_tiles);
        assert_eq!(u64::from(report.steals), stats.sched_steals);
        assert!(machine
            .events()
            .events()
            .iter()
            .any(|e| matches!(e.kind, EventKind::Instant { label: "steal", .. })));
    }

    #[test]
    fn traced_pipe_frame_records_pipeline_events_at_zero_cost() {
        let (machine, report) = traced_pipe_frame(true);
        let (_, untraced_report) = traced_pipe_frame(false);
        assert_eq!(report, untraced_report, "tracing is zero simulated cost");
        let stats = machine.stats();
        assert_eq!(
            stats.pipe_stage_runs,
            report.run.lanes.len() as u64 * u64::from(report.chunks)
        );
        assert_eq!(stats.pipe_chunks, u64::from(report.chunks));
        let events = machine.events().events();
        assert!(events.iter().any(|e| matches!(
            e.kind,
            EventKind::Slice {
                label: "s{stage} chunk {chunk}",
                ..
            }
        )));
        assert!(
            report.input_wait_cycles > 0,
            "the staged frame's uneven stage costs must stall somewhere: {report:?}"
        );
        assert!(events.iter().any(|e| matches!(
            e.kind,
            EventKind::Slice {
                label: "input wait",
                ..
            }
        )));
    }

    #[test]
    fn traced_fault_frame_records_fault_events_at_zero_cost() {
        let (machine, report) = traced_fault_frame(true);
        let (_, untraced_report) = traced_fault_frame(false);
        assert_eq!(report.run.cycles, untraced_report.run.cycles);
        assert!(report.run.faults > 0, "the 5% plan must inject");
        let events = machine.events().events();
        assert!(events
            .iter()
            .any(|e| e.lane().is_some_and(|l| l.layer == Layer::Faults)));
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::Instant { label: "retry", .. })));
    }
}
