//! Differential test: superinstruction fusion must be invisible.
//!
//! For a corpus of seeded random (well-typed by construction)
//! Offload/Mini programs, each source is compiled twice — peephole
//! fusion on and off — and both binaries run on fresh machines. Every
//! observable of the simulated execution must be bit-identical:
//!
//! - exit value and printed output,
//! - simulated host cycles ([`Machine::host_now`]),
//! - retired instruction count (fused handlers bump the counter by
//!   their full run width),
//! - the Chrome-trace JSON of the event timeline, on a second pair of
//!   runs with the [`simcell::EventLog`] enabled. Enabling events also
//!   disables the DMA synchronous fast path, so the corpus exercises
//!   both the fast and the fully-journalled outer-access paths.
//!
//! The test also asserts that fusion actually fires across the corpus
//! — a peephole pass that silently stopped matching would otherwise
//! pass every identity check. A fixed call-heavy program runs through
//! the same comparison with its simulated cycles and retired
//! instructions pinned exactly.

use offload_lang::{compile, Program, Target, Vm};
use simcell::{chrome_trace_json, Machine, MachineConfig};
use xrng::Rng;

/// One full run; returns every scalar observable plus the trace JSON
/// when `events` is on.
fn run(program: &Program, events: bool) -> (i32, Vec<String>, u64, u64, String) {
    let mut machine = Machine::new(MachineConfig::small()).unwrap();
    machine.events_mut().set_enabled(events);
    let mut vm = Vm::new(program, &mut machine).unwrap();
    let exit = vm.run(&mut machine).unwrap();
    let trace = if events {
        chrome_trace_json(machine.events())
    } else {
        String::new()
    };
    (
        exit,
        vm.output().to_vec(),
        machine.host_now(),
        vm.instructions_executed(),
        trace,
    )
}

fn int_op(rng: &mut Rng) -> &'static str {
    ["+", "-", "*"][rng.below_u32(3) as usize]
}

fn float_op(rng: &mut Rng) -> &'static str {
    ["+", "-", "*", "/"][rng.below_u32(4) as usize]
}

/// A short straight-line block over in-scope locals `a`/`b` (int) and
/// `x` (float): counter bumps, load/op pairs, safe constant divides,
/// calls — the exact shapes the peephole pass hunts for.
fn gen_block(rng: &mut Rng, with_call: bool) -> String {
    let mut out = String::new();
    for _ in 0..rng.range_u32(3, 8) {
        match rng.below_u32(if with_call { 5 } else { 4 }) {
            0 => out.push_str(&format!(
                "            a = a {} {};\n",
                int_op(rng),
                rng.range_u32(1, 9)
            )),
            1 => out.push_str(&format!("            b = b {} a;\n", int_op(rng))),
            2 => out.push_str(&format!(
                "            x = x {} {}.5;\n",
                float_op(rng),
                rng.range_u32(1, 7)
            )),
            3 => out.push_str(&format!(
                "            a = (a + b) / {};\n",
                rng.range_u32(2, 5)
            )),
            _ => out.push_str("            b = helper(b, a);\n"),
        }
    }
    out
}

/// Builds one random program: virtual dispatch through a domain, an
/// offload block with outer-pointer field traffic, a helper with its
/// own loop, and randomized straight-line arithmetic around it all.
fn gen_program(rng: &mut Rng) -> String {
    let outer_n = rng.range_u32(2, 5);
    let inner_m = rng.range_u32(2, 6);
    let hp0 = rng.range_u32(100, 900);
    let dmg = rng.range_u32(1, 4);
    let helper_body = gen_block(rng, false);
    let main_tail = gen_block(rng, true);
    let enemy_scale = rng.range_u32(2, 4);
    format!(
        r#"
        class Entity {{
            hp: float;
            virtual fn tick(d: float) {{ self.hp = self.hp - d; }}
        }}
        class Enemy : Entity {{
            override fn tick(d: float) {{ self.hp = self.hp - d * {enemy_scale}.0; }}
        }}
        var e: Entity*;
        var f: Entity*;
        var total: int;

        fn helper(a: int, b: int) -> int {{
            let x: float = 1.5;
            let i: int = 0;
            while i < 3 {{
{helper_body}                i = i + 1;
            }}
            return a + b + float_to_int(x);
        }}

        fn main() -> int {{
            e = new Enemy;
            f = new Entity;
            e.hp = {hp0}.0;
            f.hp = {hp0}.0;
            let a: int = {dmg};
            let b: int = 1;
            let x: float = 0.5;
            let i: int = 0;
            while i < {outer_n} {{
                offload domain(Entity.tick, Enemy.tick) {{
                    let j: int = 0;
                    while j < {inner_m} {{
                        e.tick({dmg}.0);
                        f.tick({dmg}.0);
                        j = j + 1;
                    }}
                }}
                total = helper(total, i);
                i = i + 1;
            }}
{main_tail}            print_int(a);
            print_int(b);
            print_float(x);
            print_float(e.hp);
            print_float(f.hp);
            return total + a + b;
        }}
        "#
    )
}

/// Compiles `source` fused and unfused, runs both with events off and
/// on, and asserts every observable matches. Returns the fused binary's
/// superinstruction count and the (simulated cycles, instructions
/// retired) of the run.
fn assert_fusion_invisible(case: &str, source: &str) -> (usize, u64, u64) {
    let fused = compile(source, &Target::cell_like())
        .map_err(|e| panic!("{case}: compile (fused): {}", e.render(source)))
        .unwrap();
    let plain = compile(source, &Target::cell_like().with_superinstructions(false))
        .map_err(|e| panic!("{case}: compile (plain): {}", e.render(source)))
        .unwrap();
    assert_eq!(
        plain.stats.superinstructions, 0,
        "{case}: fusion disabled means zero superinstructions"
    );

    // Fast path (events off): exit, output, cycles, instructions.
    let (exit_f, out_f, now_f, instrs_f, _) = run(&fused, false);
    let (exit_p, out_p, now_p, instrs_p, _) = run(&plain, false);
    assert_eq!(exit_f, exit_p, "{case}: exit value diverged");
    assert_eq!(out_f, out_p, "{case}: printed output diverged");
    assert_eq!(now_f, now_p, "{case}: simulated cycles diverged");
    assert_eq!(instrs_f, instrs_p, "{case}: instruction count diverged");

    // Journalled path (events on): all of the above plus the
    // Chrome-trace JSON of the full event timeline.
    let (exit_e, out_e, now_e, instrs_e, trace_f) = run(&fused, true);
    let (exit_q, out_q, now_q, instrs_q, trace_p) = run(&plain, true);
    assert_eq!(exit_e, exit_q, "{case}: exit value diverged (events)");
    assert_eq!(out_e, out_q, "{case}: output diverged (events)");
    assert_eq!(now_e, now_q, "{case}: cycles diverged (events)");
    assert_eq!(instrs_e, instrs_q, "{case}: instructions diverged (events)");
    assert_eq!(trace_f, trace_p, "{case}: chrome trace diverged");

    (fused.stats.superinstructions, now_f, instrs_f)
}

#[test]
fn fusion_is_invisible_across_random_corpus() {
    let mut rng = Rng::new(0x0ff1_0ad2_2026);
    let mut fused_total = 0usize;
    for case in 0..24u64 {
        let source = gen_program(&mut rng);
        let (fused, _, _) = assert_fusion_invisible(&format!("case {case}"), &source);
        fused_total += fused;
    }
    assert!(
        fused_total > 100,
        "fusion barely fired across the corpus ({fused_total} superinstructions) — \
         the peephole pass or the generator regressed"
    );
}

/// A call-heavy program: virtual dispatch through a domain, function
/// calls, and outer accesses inside an offload block, 40 offloads of
/// 20 virtual calls each.
const CALL_HEAVY: &str = r#"
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

#[test]
fn call_heavy_program_keeps_its_exact_cycles_fused_and_unfused() {
    let (fused, cycles, instrs) = assert_fusion_invisible("call-heavy", CALL_HEAVY);
    assert!(fused > 0, "the call-heavy program must fuse something");
    assert_eq!(cycles, 1_922_519, "simulated cycles moved");
    assert_eq!(instrs, 15_905, "instructions retired moved");
}
