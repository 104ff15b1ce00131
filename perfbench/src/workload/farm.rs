//! `farm`: a closed loop over the sim farm.
//!
//! A fixed window of `WorldSpec::quick` worlds stays in flight on a
//! farm of `workers` threads (the host's CPU count): each reaped world
//! is replaced by a new submission, and each world is timed from submit
//! to reap. Machine reset, the tile scheduler, accessor fetch and
//! write-back, and the farm's handoff dominate; the VM and the gather
//! engine do nothing. Every world hash is checked against a solo
//! `run_world` of the same spec, computed during set-up.

use std::collections::VecDeque;
use std::time::Instant;

use simfarm::{run_world, Farm, WorldSpec};

use super::{Budget, Drive, Lap, Sample, Workload};
use crate::alloc::allocations;
use crate::stats::derive_seed;
use crate::trace::Tracer;

/// Distinct world specs the loop cycles through.
pub const POOL: usize = 512;
/// Worlds in flight per worker.
pub const WINDOW_PER_WORKER: usize = 8;

/// The pool of specs for `seed`.
pub fn specs(seed: u64) -> Vec<WorldSpec> {
    (0..POOL as u64)
        .map(|i| WorldSpec::quick(derive_seed(seed, i)))
        .collect()
}

/// The set-up state.
pub struct FarmLoop {
    specs: Vec<WorldSpec>,
    reference: Vec<(u64, u64)>,
    farm: Farm,
    window: usize,
    next: usize,
}

impl FarmLoop {
    /// Builds the spec pool, computes every world's solo hash and
    /// cycles, and warms a `workers`-thread farm with one pass over the
    /// pool.
    ///
    /// # Errors
    ///
    /// A world that fails solo, or a farm that cannot start.
    pub fn setup(seed: u64, workers: usize) -> Result<FarmLoop, String> {
        let specs = specs(seed);
        let reference = specs
            .iter()
            .map(|spec| {
                run_world(spec)
                    .map(|out| (out.world_hash, out.sim_cycles))
                    .map_err(|e| format!("solo world failed: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut farm = Farm::new(workers).map_err(|e| e.to_string())?;
        for spec in &specs {
            farm.submit(*spec);
        }
        for report in farm.collect() {
            report
                .outcome
                .map_err(|e| format!("farm world failed: {e}"))?;
        }
        Ok(FarmLoop {
            specs,
            reference,
            window: WINDOW_PER_WORKER * workers,
            farm,
            next: 0,
        })
    }
}

impl Workload for FarmLoop {
    fn drive(&mut self, budget: Budget, tr: &mut Tracer) -> Drive {
        let mut drive = Drive::default();
        let mut laps = Vec::new();
        let mut in_flight: VecDeque<(Instant, usize)> = VecDeque::with_capacity(self.window);
        // Room for a fixed-count phase, so its allocation count is the
        // farm's alone.
        drive.samples.reserve(1 << 16);
        laps.reserve(1 << 16);
        let allocs_before = allocations();
        let mut last_done = Instant::now();
        let mut submitted = 0u64;
        loop {
            while in_flight.len() < self.window && !budget.exhausted(submitted) {
                let index = self.next;
                self.next = (self.next + 1) % self.specs.len();
                tr.set_op(submitted);
                let spec = self.specs[index];
                let farm = &mut self.farm;
                in_flight.push_back((Instant::now(), index));
                tr.span("farm.submit", 1, |_| farm.submit(spec));
                submitted += 1;
            }
            let Some((submitted_at, index)) = in_flight.pop_front() else {
                break;
            };
            let farm = &mut self.farm;
            let report = tr.span("farm.reap", 1, |_| farm.reap());
            let done = Instant::now();
            let latency_ns = (done - submitted_at).as_nanos() as u64;
            let busy_ns = (done - last_done).as_nanos() as u64;
            last_done = done;
            let (hash, cycles) = self.reference[index];
            let checked = match report.map(|r| r.outcome) {
                Some(Ok(out)) if out.world_hash == hash && out.sim_cycles == cycles => Ok(cycles),
                Some(Ok(_)) => Err("farm world differs from its solo run".to_string()),
                Some(Err(e)) => Err(format!("farm world failed: {e}")),
                None => Err("farm lost a world".to_string()),
            };
            let (ok, sim_cycles) = match checked {
                Ok(c) => {
                    laps.push(Lap {
                        latency_ns,
                        busy_ns,
                    });
                    (true, c)
                }
                Err(why) => {
                    drive.first_failure.get_or_insert(why);
                    (false, 0)
                }
            };
            drive.samples.push(Sample {
                latency_ns,
                busy_ns,
                sim_cycles,
                ok,
            });
        }
        drive.allocations = allocations() - allocs_before;
        // A world is the farm's only part.
        drive.parts = vec![laps];
        drive
    }
}
