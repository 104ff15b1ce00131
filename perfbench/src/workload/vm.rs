//! `vm`: a call-heavy Offload/Mini program set, compiled once and run
//! repeatedly on one machine recycled with `reset_for_seed`.
//!
//! The set is `examples/omini/frame.omini` (the paper's Figure 2 frame
//! loop) plus a benchmark-owned program whose constants come from the
//! seed: virtual calls through an offload domain, a duplicated helper,
//! and outer accesses inside `offload` blocks. VM dispatch and the DMA
//! synchronous fast path do nearly all the work; the farm, the gather
//! engine and the tile scheduler are idle. Loop trip counts are fixed,
//! so every seed executes the same number of instructions.

use offload_lang::{compile, Program, Target, Vm};
use simcell::{Machine, MachineConfig};

use super::{drive_serial, Budget, Drive, Workload};
use crate::stats::derive_seed;
use crate::trace::Tracer;

/// The Figure 2 frame loop shipped with the language.
pub const FRAME: &str = include_str!("../../../examples/omini/frame.omini");

/// Rounds of the owned program's outer loop (one offload each).
const ROUNDS: i32 = 24;
/// Hits per offload block.
const HITS: i32 = 8;

/// Seed-chosen constants of the owned program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Params {
    /// Starting hit points of the plain body.
    pub hp_a: i32,
    /// Starting hit points of the armoured body.
    pub hp_b: i32,
    /// Armour of the armoured body.
    pub armour: i32,
    /// Multiplier of the damage helper.
    pub salt: i32,
}

impl Params {
    /// Constants for `seed`, chosen so hit points stay positive.
    pub fn from_seed(seed: u64) -> Params {
        let pick = |i: u64, lo: i32, span: u64| lo + (derive_seed(seed, i) % span) as i32;
        Params {
            hp_a: pick(0, 2_000, 3_000),
            hp_b: pick(1, 2_000, 3_000),
            armour: pick(2, 0, 2),
            salt: pick(3, 1, 97),
        }
    }

    /// The owned program's source.
    pub fn source(&self) -> String {
        format!(
            r#"
class Body {{
    hp: int;
    virtual fn hit(d: int) {{ self.hp = self.hp - d; }}
}}
class Armoured : Body {{
    armour: int;
    override fn hit(d: int) {{ self.hp = self.hp - (d - self.armour); }}
}}

var a: Body*;
var b: Armoured*;
var total: int;

fn damage(step: int, salt: int) -> int {{
    return (step * salt) % 7 + 1;
}}

fn main() -> int {{
    a = new Body;
    a.hp = {hp_a};
    b = new Armoured;
    b.hp = {hp_b};
    b.armour = {armour};
    let round: int = 0;
    while round < {ROUNDS} {{
        offload use(round) domain(Body.hit, Armoured.hit) {{
            let j: int = 0;
            while j < {HITS} {{
                a.hit(damage(round + j, {salt}));
                b.hit(damage(round * j, {salt}));
                j = j + 1;
            }}
        }}
        total = total + a.hp % 97;
        round = round + 1;
    }}
    return a.hp + b.hp + total;
}}
"#,
            hp_a = self.hp_a,
            hp_b = self.hp_b,
            armour = self.armour,
            salt = self.salt,
        )
    }

    /// The exit value the owned program must return, computed on the
    /// host.
    pub fn expected_exit(&self) -> i32 {
        let damage = |step: i32| (step * self.salt) % 7 + 1;
        let (mut a, mut b, mut total) = (self.hp_a, self.hp_b, 0);
        for round in 0..ROUNDS {
            for j in 0..HITS {
                a -= damage(round + j);
                b -= damage(round * j) - self.armour;
            }
            total += a % 97;
        }
        a + b + total
    }
}

/// What one program run produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunResult {
    /// `main`'s return value.
    pub exit: i32,
    /// Simulated host cycles the run took.
    pub cycles: u64,
    /// VM instructions retired.
    pub instructions: u64,
    /// Lines the program printed.
    pub output: Vec<String>,
}

/// Compiles the program set for `seed`.
///
/// # Errors
///
/// Compile errors, rendered.
pub fn compile_set(seed: u64) -> Result<Vec<Program>, String> {
    let target = Target::cell_like();
    let owned = Params::from_seed(seed).source();
    [FRAME, owned.as_str()]
        .iter()
        .map(|src| compile(src, &target).map_err(|e| format!("compile error: {e:?}")))
        .collect()
}

/// Runs `program` once on `machine` after resetting it.
///
/// # Errors
///
/// VM and machine errors, rendered.
pub fn run_program(
    program: &Program,
    machine: &mut Machine,
    tr: &mut Tracer,
) -> Result<RunResult, String> {
    tr.span("vm.reset", 1, |_| machine.reset_for_seed(0));
    let mut vm = tr
        .span("vm.new", 1, |_| Vm::new(program, machine))
        .map_err(|e| format!("vm set-up failed: {e}"))?;
    let exit = tr
        .span("vm.run", 1, |_| vm.run(machine))
        .map_err(|e| format!("vm run failed: {e:?}"))?;
    Ok(RunResult {
        exit,
        cycles: machine.host_now(),
        instructions: vm.instructions_executed(),
        output: vm.output().to_vec(),
    })
}

/// The set-up state.
pub struct VmSet {
    programs: Vec<Program>,
    machine: Machine,
    reference: Vec<RunResult>,
}

impl VmSet {
    /// Compiles the set, builds the machine, and takes the reference
    /// results from a run on a freshly constructed machine.
    ///
    /// # Errors
    ///
    /// Compile or run failures, or an owned-program exit value that
    /// differs from the host computation.
    pub fn setup(seed: u64) -> Result<VmSet, String> {
        let programs = compile_set(seed)?;
        let config = MachineConfig::default();
        let mut off = Tracer::off();
        let mut reference = Vec::new();
        for program in &programs {
            let mut fresh = Machine::new(config).map_err(|e| e.to_string())?;
            reference.push(run_program(program, &mut fresh, &mut off)?);
        }
        let expected = Params::from_seed(seed).expected_exit();
        if reference[1].exit != expected {
            return Err(format!(
                "owned program returned {} where the host computes {expected}",
                reference[1].exit
            ));
        }
        let machine = Machine::new(config).map_err(|e| e.to_string())?;
        Ok(VmSet {
            programs,
            machine,
            reference,
        })
    }

    /// Instructions one op retires.
    pub fn instructions_per_op(&self) -> u64 {
        self.reference.iter().map(|r| r.instructions).sum()
    }
}

impl Workload for VmSet {
    fn drive(&mut self, budget: Budget, tr: &mut Tracer) -> Drive {
        let VmSet {
            programs,
            machine,
            reference,
        } = self;
        drive_serial(
            budget,
            tr,
            programs.len(),
            |i, tr| run_program(&programs[i], machine, tr),
            |runs| {
                if runs != *reference {
                    return Err(
                        "a recycled-machine run differs from the fresh-machine reference".into(),
                    );
                }
                Ok(runs.iter().map(|r| r.cycles).sum())
            },
        )
    }
}
