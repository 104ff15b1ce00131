//! One benchmark run: set-up, measurement, and the result line.

use std::fmt::Write as _;
use std::time::Instant;

use crate::calib::Calibration;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::{self, Budget, Drive};
use crate::{lanes, END_TO_END, PER_LAYER};

/// Fewest set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Host seconds of set-ups after which an untraced run stops setting up
/// (once it has done [`SETUPS`]), so a quick set-up is repeated enough
/// for its median to outlast short slow spells.
const SETUP_SECS: f64 = 1.0;

/// Most set-ups per untraced run.
const MAX_SETUPS: usize = 100;

/// Calibration laps taken on each side of a set-up.
const SETUP_LAPS: usize = 8;

/// Ops of the fixed-count phase: the warm-up of an untraced run, and
/// the phase that yields `alloc.per_op` in a traced one.
pub fn alloc_ops(workload: &str) -> u64 {
    match workload {
        "tables" => 1,
        "graph" => 2,
        "vm" => 64,
        _ => 1024,
    }
}

/// What a run reports.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Ops attempted, set-up checks included.
    pub attempted: u64,
    /// Ops failed, set-up checks included.
    pub failed: u64,
    /// Metrics by name, in report order.
    pub metrics: Vec<(&'static str, f64)>,
    /// The first failure seen, if any.
    pub first_failure: Option<String>,
    /// Latency distribution of the measured ops, as JSON.
    pub latency: String,
}

fn latency_json(drive: &Drive) -> String {
    let (tail_pct, tail_ms) = drive.tail_ms().unwrap_or((0.0, 0.0));
    format!(
        "{{\"samples\": {}, \"p50_ms\": {}, \"tail_percentile\": {tail_pct}, \"tail_ms\": {tail_ms}, \"busy_s\": {}, \"fast_p50_ms\": {}, \"calibration_laps\": {}, \"calibration_factor\": {}, \"peak_rss_mib\": {}}}",
        drive.samples.len(),
        drive.raw_p50_ms(),
        drive.busy_secs(),
        drive.fast_p50_ms(),
        drive.calibration.laps(),
        drive.calibration.factor(),
        crate::host::peak_rss_mib()
    )
}

impl Outcome {
    fn new(checks: (u64, u64)) -> Outcome {
        Outcome {
            attempted: checks.0,
            failed: checks.1,
            metrics: Vec::new(),
            first_failure: None,
            latency: String::from("{}"),
        }
    }

    fn count(&mut self, drive: &Drive) {
        self.attempted += drive.samples.len() as u64;
        self.failed += drive.failed();
        if self.first_failure.is_none() {
            self.first_failure.clone_from(&drive.first_failure);
        }
    }

    /// The result as the benchmark's one-line JSON object.
    pub fn to_json(&self) -> String {
        let units = END_TO_END.iter().chain(PER_LAYER.iter());
        let mut metrics = String::new();
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            let unit = units
                .clone()
                .find(|(n, _)| n == name)
                .map_or("", |(_, u)| u);
            let value = if value.is_finite() { *value } else { 0.0 };
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed
        )
    }
}

/// The untraced run: set-ups until there have been [`SETUPS`] and
/// [`SETUP_SECS`] of them (at most [`MAX_SETUPS`]), a warm-up of
/// [`alloc_ops`] ops, then ops for `seconds`; the end-to-end metrics.
/// Each set-up's time is calibrated by laps taken just before and after
/// it. `peak_heap_mib` is read after the warm-up.
///
/// # Errors
///
/// Set-up failures.
pub fn end_to_end(name: &str, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut setup_secs: Vec<f64> = Vec::new();
    let mut ready: Option<Box<dyn workload::Workload>> = None;
    while setup_secs.len() < SETUPS
        || (setup_secs.iter().sum::<f64>() < SETUP_SECS && setup_secs.len() < MAX_SETUPS)
    {
        // Drop the previous state first so set-ups do not stack memory.
        drop(ready.take());
        let mut cal = Calibration::default();
        (0..SETUP_LAPS).for_each(|_| cal.lap());
        let start = Instant::now();
        ready = Some(workload::setup(name, seed)?);
        let secs = start.elapsed().as_secs_f64();
        (0..SETUP_LAPS).for_each(|_| cal.lap());
        setup_secs.push(secs * cal.factor());
    }
    let mut w = ready.expect("at least one set-up ran");
    let mut out = Outcome::new(w.setup_checks());
    // A fixed warm-up settles the program's memory before the peak is
    // read, so the timed drive's own sample log cannot move it.
    let warm = w.drive(Budget::ops(alloc_ops(name)), &mut Tracer::off());
    out.count(&warm);
    let peak_heap_mib = crate::alloc::peak_heap_mib();
    let drive = w.drive(Budget::seconds(seconds), &mut Tracer::off());
    out.count(&drive);
    out.latency = latency_json(&drive);
    out.metrics = vec![
        ("ops_per_s", drive.ops_per_s()),
        ("op_p50_ms", drive.p50_ms()),
        ("sim_mcycles_per_s", drive.sim_mcycles_per_s()),
        ("setup_s", median(&setup_secs)),
        ("peak_heap_mib", peak_heap_mib),
    ];
    Ok(out)
}

/// The traced run: a fixed-count phase for allocation counts, an
/// untraced and a traced phase of `seconds * 0.3` each for the tracing
/// overhead, then every per-layer lane. Returns the outcome and the
/// tracer holding every span.
///
/// # Errors
///
/// Set-up and lane failures.
pub fn per_layer(name: &str, seed: u64, seconds: f64) -> Result<(Outcome, Tracer), String> {
    let mut w = workload::setup(name, seed)?;
    let mut out = Outcome::new(w.setup_checks());
    let mut off = Tracer::off();
    let counted = w.drive(Budget::ops(alloc_ops(name)), &mut off);
    out.count(&counted);
    let plain = w.drive(Budget::seconds(seconds * 0.3), &mut off);
    out.count(&plain);
    let mut tr = Tracer::on();
    let traced = w.drive(Budget::seconds(seconds * 0.3), &mut tr);
    out.count(&traced);
    out.latency = latency_json(&traced);
    drop(w);
    let mut metrics = lanes::run(seed, &mut tr)?;
    metrics.push(("alloc.per_op", counted.allocations_per_op()));
    metrics.push((
        "trace.overhead_frac",
        traced.p50_ms() / plain.p50_ms() - 1.0,
    ));
    out.metrics = metrics;
    Ok((out, tr))
}
