//! The four end-to-end workloads.
//!
//! Each workload builds its inputs from the benchmark seed during
//! set-up, computes the reference results every op is checked against,
//! and then drives ops until its [`Budget`] runs out. One op is one unit
//! a user would wait for: a full table regeneration (`tables`), one run
//! of the compiled program set (`vm`), one world (`farm`), or one graph
//! traversal under every access path (`graph`).

pub mod farm;
pub mod graph;
pub mod tables;
pub mod vm;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use crate::alloc::allocations;
use crate::calib::Calibration;
use crate::stats::{median, quantile};
use crate::trace::Tracer;

/// Workload names, in the order the docs list them.
pub const NAMES: [&str; 4] = ["tables", "vm", "farm", "graph"];

/// One finished op.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    /// Host nanoseconds from start (or submission) to completion.
    pub latency_ns: u64,
    /// Host nanoseconds this op accounts for: its latency for a serial
    /// workload, the time since the previous completion for the farm.
    /// Summed over a drive, it is the drive's busy time.
    pub busy_ns: u64,
    /// Simulated cycles the op retired (0 for a failed op).
    pub sim_cycles: u64,
    /// Whether the op ran and its result matched the reference.
    pub ok: bool,
}

/// The host time of one part of a finished op: one experiment of a
/// regeneration, one program run, one traversal path, or (for the farm)
/// one world.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Lap {
    /// Host nanoseconds from start (or submission) to completion.
    pub latency_ns: u64,
    /// Host nanoseconds the part accounts for, as for
    /// [`Sample::busy_ns`].
    pub busy_ns: u64,
}

/// When a drive stops: after `max_ops` ops or at `deadline`, whichever
/// comes first.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    /// Latest start of a new op.
    pub deadline: Option<Instant>,
    /// Ops to run at most.
    pub max_ops: u64,
}

impl Budget {
    /// Runs for `seconds` of host time.
    pub fn seconds(seconds: f64) -> Budget {
        Budget {
            deadline: Some(Instant::now() + Duration::from_secs_f64(seconds)),
            max_ops: u64::MAX,
        }
    }

    /// Runs exactly `ops` ops.
    pub fn ops(ops: u64) -> Budget {
        Budget {
            deadline: None,
            max_ops: ops,
        }
    }

    /// Whether a drive that has finished `done` ops should stop.
    pub fn exhausted(&self, done: u64) -> bool {
        done >= self.max_ops || self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// Host seconds a window of consecutive laps of one part spans (at
/// least one lap).
pub const WINDOW_SECS: f64 = 0.005;

/// Where among the windows a windowed figure is read: at this quantile
/// of the windows' speeds, i.e. near the fast end. Neighbours on a
/// shared host only ever slow work down, by up to 2x in spells lasting
/// from milliseconds to seconds, so the figures are taken from short
/// windows of single parts of an op and read near the fast end, where
/// a plain median would move with every spell. Slower drifts, which
/// move the fast end too, are taken out by the host-speed calibration
/// (see [`crate::calib`]).
pub const FAST_QUANTILE: f64 = 0.98;

/// What a drive measured.
#[derive(Clone, Debug, Default)]
pub struct Drive {
    /// One sample per op, in completion order.
    pub samples: Vec<Sample>,
    /// For each part of an op, one lap per op that passed its check, in
    /// completion order.
    pub parts: Vec<Vec<Lap>>,
    /// Allocation requests made while ops ran.
    pub allocations: u64,
    /// Host-speed calibration laps taken between ops (none for the
    /// farm, whose workers occupy every CPU).
    pub calibration: Calibration,
    /// The first failure, for the error stream.
    pub first_failure: Option<String>,
}

/// `f` of each window of consecutive `laps` spanning about
/// [`WINDOW_SECS`] of busy time, read near the fast end (see
/// [`FAST_QUANTILE`]); `f` gives host nanoseconds, so the fast end is
/// its low end.
fn fast_end(laps: &[Lap], f: impl Fn(&[Lap]) -> f64) -> f64 {
    let busy_secs = laps.iter().map(|l| l.busy_ns).sum::<u64>() as f64 / 1e9;
    let per_window = laps.len() as f64 * WINDOW_SECS / busy_secs.max(1e-9);
    let per_window: Vec<f64> = laps.chunks((per_window as usize).max(1)).map(f).collect();
    quantile(&per_window, 1.0 - FAST_QUANTILE)
}

impl Drive {
    /// Ops that failed.
    pub fn failed(&self) -> u64 {
        self.samples.iter().filter(|s| !s.ok).count() as u64
    }

    /// Host seconds the ops took (result checks excluded).
    pub fn busy_secs(&self) -> f64 {
        self.samples.iter().map(|s| s.busy_ns).sum::<u64>() as f64 / 1e9
    }

    /// Median op latency in milliseconds, over every op as it ran,
    /// uncalibrated (for the latency line; the metrics use
    /// [`Drive::p50_ms`]).
    pub fn raw_p50_ms(&self) -> f64 {
        let lat: Vec<f64> = self
            .samples
            .iter()
            .map(|s| s.latency_ns as f64 / 1e6)
            .collect();
        median(&lat)
    }

    /// Median op latency in milliseconds on an uncontended host at the
    /// reference clock: for each part, the median lap latency of each window, read
    /// near the fast end; summed over the parts and calibrated.
    pub fn p50_ms(&self) -> f64 {
        self.calibration.factor() * self.fast_p50_ms()
    }

    /// [`Drive::p50_ms`] before calibration.
    pub fn fast_p50_ms(&self) -> f64 {
        self.parts
            .iter()
            .map(|laps| {
                fast_end(laps, |w| {
                    median(&w.iter().map(|l| l.latency_ns as f64).collect::<Vec<_>>())
                })
            })
            .sum::<f64>()
            / 1e6
    }

    /// The latency tail: the highest of p90/p99/p999 that has at least
    /// ten samples beyond it, as `(percentile, ms)`.
    pub fn tail_ms(&self) -> Option<(f64, f64)> {
        let lat: Vec<f64> = self
            .samples
            .iter()
            .map(|s| s.latency_ns as f64 / 1e6)
            .collect();
        let n = lat.len() as f64;
        [0.999, 0.99, 0.9]
            .into_iter()
            .find(|q| n * (1.0 - q) >= 10.0)
            .map(|q| (q * 100.0, quantile(&lat, q)))
    }

    /// Ops completed per host second on an uncontended host at the
    /// reference clock: for each part, the mean busy time per lap of each window, read
    /// near the fast end; one over their sum, calibrated.
    pub fn ops_per_s(&self) -> f64 {
        self.fast_ops_per_s() / self.calibration.factor()
    }

    /// [`Drive::ops_per_s`] before calibration.
    fn fast_ops_per_s(&self) -> f64 {
        let op_ns: f64 = self
            .parts
            .iter()
            .map(|laps| {
                fast_end(laps, |w| {
                    w.iter().map(|l| l.busy_ns).sum::<u64>() as f64 / w.len() as f64
                })
            })
            .sum();
        1e9 / op_ns
    }

    /// Simulated cycles retired per host second, in millions: the mean
    /// cycles of a passing op at [`Drive::ops_per_s`].
    pub fn sim_mcycles_per_s(&self) -> f64 {
        let ok = self.samples.iter().filter(|s| s.ok);
        let cycles: u64 = ok.clone().map(|s| s.sim_cycles).sum();
        cycles as f64 / ok.count().max(1) as f64 * self.ops_per_s() / 1e6
    }

    /// Allocation requests per op.
    pub fn allocations_per_op(&self) -> f64 {
        self.allocations as f64 / self.samples.len().max(1) as f64
    }

    fn fail(&mut self, why: String) {
        self.first_failure.get_or_insert(why);
    }
}

/// A workload ready to run: inputs built, references computed.
pub trait Workload {
    /// Result checks made during set-up, as `(attempted, failed)`
    /// (e.g. the `tables` quick transcript against its golden file).
    fn setup_checks(&self) -> (u64, u64) {
        (0, 0)
    }

    /// Runs ops until `budget` is exhausted.
    fn drive(&mut self, budget: Budget, tr: &mut Tracer) -> Drive;
}

/// Builds workload `name` from `seed`.
///
/// # Errors
///
/// Unknown names, and set-up failures (the simulator rejecting the
/// generated inputs or the reference run failing).
pub fn setup(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "tables" => Box::new(tables::Tables::setup()?),
        "vm" => Box::new(vm::VmSet::setup(seed)?),
        "farm" => Box::new(farm::FarmLoop::setup(seed, crate::host::nproc())?),
        "graph" => Box::new(graph::GraphTraversal::setup(seed)?),
        other => {
            return Err(format!(
                "unknown workload `{other}` (expected one of {NAMES:?})"
            ))
        }
    })
}

/// Drives a serial workload whose op runs `parts` parts in turn:
/// `part(i, tr)` runs part `i` and returns what must be checked;
/// `check` compares the parts' results with the reference and returns
/// the op's simulated cycles. Only the parts are timed and
/// allocation-counted, each on its own; a panic in either counts as a
/// failed op.
pub fn drive_serial<P>(
    budget: Budget,
    tr: &mut Tracer,
    parts: usize,
    mut part: impl FnMut(usize, &mut Tracer) -> Result<P, String>,
    mut check: impl FnMut(Vec<P>) -> Result<u64, String>,
) -> Drive {
    let mut drive = Drive {
        parts: vec![Vec::new(); parts],
        ..Drive::default()
    };
    let mut laps = Vec::with_capacity(parts);
    let mut index = 0u64;
    while !budget.exhausted(index) {
        tr.set_op(index);
        index += 1;
        laps.clear();
        let allocs_before = allocations();
        let out = catch_unwind(AssertUnwindSafe(|| {
            tr.span("op", 1, |tr| {
                let mut results = Vec::with_capacity(parts);
                for i in 0..parts {
                    let start = Instant::now();
                    let result = part(i, tr);
                    laps.push(start.elapsed().as_nanos() as u64);
                    results.push(result?);
                }
                Ok(results)
            })
        }));
        drive.allocations += allocations() - allocs_before;
        let latency_ns = laps.iter().sum();
        let checked = match out {
            Ok(Ok(value)) => catch_unwind(AssertUnwindSafe(|| check(value)))
                .unwrap_or_else(|_| Err("result check panicked".into())),
            Ok(Err(e)) => Err(e),
            Err(_) => Err("op panicked".into()),
        };
        let (ok, sim_cycles) = match checked {
            Ok(cycles) => {
                for (log, &ns) in drive.parts.iter_mut().zip(&laps) {
                    log.push(Lap {
                        latency_ns: ns,
                        busy_ns: ns,
                    });
                }
                (true, cycles)
            }
            Err(why) => {
                drive.fail(why);
                (false, 0)
            }
        };
        drive.samples.push(Sample {
            latency_ns,
            busy_ns: latency_ns,
            sim_cycles,
            ok,
        });
        drive.calibration.after(latency_ns);
    }
    drive
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lap(ms: u64) -> Lap {
        Lap {
            latency_ns: ms * 1_000_000,
            busy_ns: ms * 1_000_000,
        }
    }

    #[test]
    fn timings_sum_the_fast_end_of_each_part() {
        // Part 0 takes 10 ms, part 1 takes 30 ms; a slow spell doubles
        // most laps of both, at different times.
        let mut part0: Vec<Lap> = (0..100)
            .map(|i| lap(if i < 80 { 20 } else { 10 }))
            .collect();
        let mut part1: Vec<Lap> = (0..100)
            .map(|i| lap(if i >= 10 { 60 } else { 30 }))
            .collect();
        part0.push(lap(25));
        part1.push(lap(45));
        let drive = Drive {
            parts: vec![part0, part1],
            samples: vec![
                Sample {
                    latency_ns: 40_000_000,
                    busy_ns: 40_000_000,
                    sim_cycles: 1_000_000,
                    ok: true,
                };
                101
            ],
            ..Drive::default()
        };
        assert_eq!(drive.p50_ms(), 40.0);
        assert_eq!(drive.ops_per_s(), 25.0);
        assert_eq!(drive.sim_mcycles_per_s(), 25.0);
    }
}
