//! `tables`: the full `paper_tables` regeneration, repeated.
//!
//! It is what users run and the broadest mix in the repository: the
//! only workload that reaches the pipeline and streaming runtimes, the
//! DMA race checker and static analysis, and the E7/E12 software-cache
//! matrices. Its inputs are the experiments' own fixed definitions, so
//! the seed has nothing to vary here.

use bench::exp;
use bench::Table;

use super::{drive_serial, Budget, Drive, Workload};
use crate::stats::fnv1a;
use crate::trace::Tracer;

/// The committed `paper_tables --quick` transcript.
const GOLDEN_QUICK: &str = include_str!("../../../tests/golden/paper_tables_quick.txt");

type Runner = fn(bool) -> Table;

/// Every experiment with the span it is traced under and the per-layer
/// metric that reports it, in `bench::exp::run_all` order.
pub const EXPERIMENTS: [(&str, &str, Runner); 18] = [
    ("tables.e01", "tables.e01_ms", exp::e01_dma_styles::run),
    ("tables.e02", "tables.e02_ms", exp::e02_offload_overlap::run),
    ("tables.e03", "tables.e03_ms", exp::e03_domain_dispatch::run),
    (
        "tables.e04",
        "tables.e04_ms",
        exp::e04_component_restructure::run,
    ),
    ("tables.e05", "tables.e05_ms", exp::e05_ai_offload::run),
    ("tables.e06", "tables.e06_ms", exp::e06_accessor_loop::run),
    (
        "tables.e07",
        "tables.e07_ms",
        exp::e07_softcache_matrix::run,
    ),
    (
        "tables.e08",
        "tables.e08_ms",
        exp::e08_uniform_grouping::run,
    ),
    ("tables.e09", "tables.e09_ms", exp::e09_word_addressing::run),
    ("tables.e10", "tables.e10_ms", exp::e10_duplication::run),
    ("tables.e11", "tables.e11_ms", exp::e11_race_detection::run),
    ("tables.e12", "tables.e12_ms", exp::e12_cache_crossover::run),
    ("tables.e13", "tables.e13_ms", exp::e13_code_loading::run),
    ("tables.e14", "tables.e14_ms", exp::e14_multi_accel::run),
    ("tables.e15", "tables.e15_ms", exp::e15_sched_policies::run),
    ("tables.e16", "tables.e16_ms", exp::e16_fault_recovery::run),
    ("tables.e17", "tables.e17_ms", exp::e17_pipeline::run),
    ("tables.e18", "tables.e18_ms", exp::e18_graph::run),
];

/// Regenerates every table (what `bench::exp::run_all` does), one span
/// per experiment.
pub fn regenerate(quick: bool, tr: &mut Tracer) -> Vec<Table> {
    EXPERIMENTS
        .iter()
        .map(|&(span, _, run)| tr.span(span, 1, |_| run(quick)))
        .collect()
}

/// The transcript `paper_tables` prints for `tables`.
pub fn render(tables: &[Table]) -> String {
    tables.iter().map(|t| format!("{t}\n")).collect()
}

/// Sum of the integer cells of `tables`. The experiments build their
/// machines internally, so the simulated cycles a regeneration retires
/// are read from the tables themselves, whose integer cells are almost
/// all cycle counts.
pub fn table_cycles(tables: &[Table]) -> u64 {
    tables
        .iter()
        .flat_map(|t| t.rows.iter().flatten())
        .filter_map(|cell| {
            let digits: String = cell.chars().filter(|&c| c != ',').collect();
            (!digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()))
                .then(|| digits.parse::<u64>().ok())
                .flatten()
        })
        .fold(0u64, u64::wrapping_add)
}

/// The set-up state: the reference digest of a full regeneration.
pub struct Tables {
    quick_matches_golden: bool,
    digest: u64,
    cycles: u64,
}

impl Tables {
    /// Regenerates the quick tables (checked against the golden
    /// transcript) and one full set, whose digest every op must repeat.
    ///
    /// # Errors
    ///
    /// Never in practice; a failing experiment panics.
    pub fn setup() -> Result<Tables, String> {
        let mut off = Tracer::off();
        let quick = render(&regenerate(true, &mut off));
        let full = regenerate(false, &mut off);
        Ok(Tables {
            quick_matches_golden: quick == GOLDEN_QUICK,
            digest: fnv1a(render(&full).as_bytes()),
            cycles: table_cycles(&full),
        })
    }
}

impl Workload for Tables {
    fn setup_checks(&self) -> (u64, u64) {
        (1, u64::from(!self.quick_matches_golden))
    }

    fn drive(&mut self, budget: Budget, tr: &mut Tracer) -> Drive {
        let (digest, cycles) = (self.digest, self.cycles);
        let mut drive = drive_serial(
            budget,
            tr,
            EXPERIMENTS.len(),
            |i, tr| {
                let (span, _, run) = EXPERIMENTS[i];
                Ok(tr.span(span, 1, |_| run(false)))
            },
            |tables| {
                if fnv1a(render(&tables).as_bytes()) != digest {
                    return Err("full regeneration differs from the reference run".into());
                }
                Ok(cycles)
            },
        );
        if !self.quick_matches_golden {
            drive.first_failure.get_or_insert(
                "quick tables differ from tests/golden/paper_tables_quick.txt".into(),
            );
        }
        drive
    }
}
