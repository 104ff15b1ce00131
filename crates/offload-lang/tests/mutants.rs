//! Error, never panic: seeded mutants of the shipped Offload/Mini
//! samples (`examples/omini/*.omini`).
//!
//! Each mutant applies one to three edits to a sample — a byte delete,
//! a token insert (a token drawn from the sample itself) or a swap of
//! two tokens — and goes through `compile` with superinstruction fusion
//! on and off. Every mutant that compiles runs on the VM under a fuel
//! cap. Compiling and running may each fail with an error; neither may
//! panic. A panicking mutant is a compiler or VM bug: fix the code, do
//! not re-seed the corpus.

use std::panic::{catch_unwind, AssertUnwindSafe};

use offload_lang::{compile, Target, Vm};
use simcell::{Machine, MachineConfig};
use xrng::Rng;

/// Mutants generated per sample.
const MUTANTS_PER_SAMPLE: u32 = 3_000;
/// Instruction budget per run: a mutant can turn a loop bound into an
/// endless loop, which must end as `OutOfFuel`.
const FUEL: u64 = 2_000_000;
const SEED: u64 = 0x0a11_5eed;

/// The sample's tokens as byte ranges: identifier/number runs and
/// single punctuation bytes; whitespace separates and is not a token.
fn tokens(src: &[u8]) -> Vec<(usize, usize)> {
    let word = |b: u8| b.is_ascii_alphanumeric() || b == b'_' || b == b'.';
    let mut out = Vec::new();
    let mut i = 0;
    while i < src.len() {
        if src[i].is_ascii_whitespace() {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if word(src[i]) {
            while j < src.len() && word(src[j]) {
                j += 1;
            }
        }
        out.push((i, j));
        i = j;
    }
    out
}

fn mutate(rng: &mut Rng, src: &[u8]) -> Vec<u8> {
    let mut out = src.to_vec();
    for _ in 0..rng.range_u32(1, 4) {
        let toks = tokens(&out);
        if toks.len() < 2 {
            break;
        }
        let pick = |rng: &mut Rng| toks[rng.below_u32(toks.len() as u32) as usize];
        match rng.below_u32(3) {
            0 => {
                let at = rng.below_u32(out.len() as u32) as usize;
                out.remove(at);
            }
            1 => {
                let (s, e) = pick(rng);
                let token = out[s..e].to_vec();
                let (at, _) = pick(rng);
                let mut insert = vec![b' '];
                insert.extend_from_slice(&token);
                insert.push(b' ');
                out.splice(at..at, insert);
            }
            _ => {
                let (a, b) = (pick(rng), pick(rng));
                let (first, second) = if a.0 <= b.0 { (a, b) } else { (b, a) };
                if first == second {
                    continue;
                }
                let mut swapped = out[..first.0].to_vec();
                swapped.extend_from_slice(&out[second.0..second.1]);
                swapped.extend_from_slice(&out[first.1..second.0]);
                swapped.extend_from_slice(&out[first.0..first.1]);
                swapped.extend_from_slice(&out[second.1..]);
                out = swapped;
            }
        }
    }
    out
}

/// Compiles (fused and unfused) and runs one source. Returns how many
/// of the two compiles succeeded, or the panic message.
fn exercise(machine: &mut Machine, source: &str) -> Result<u32, String> {
    let mut compiled = 0;
    for fused in [true, false] {
        let target = Target::cell_like().with_superinstructions(fused);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let Ok(program) = compile(source, &target) else {
                return false;
            };
            machine.reset_for_seed(0);
            if let Ok(mut vm) = Vm::new(&program, machine) {
                vm.set_fuel(FUEL);
                let _ = vm.run(machine);
            }
            true
        }));
        match outcome {
            Ok(ok) => compiled += u32::from(ok),
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default();
                return Err(format!("fused={fused}: {msg}"));
            }
        }
    }
    Ok(compiled)
}

#[test]
fn mutated_samples_error_but_never_panic() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/omini");
    let mut samples: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "omini"))
        .collect();
    samples.sort();
    assert!(samples.len() >= 2, "the shipped samples moved: {samples:?}");

    let mut machine = Machine::new(MachineConfig::default()).unwrap();
    let mut rng = Rng::new(SEED);
    let mut panics = Vec::new();
    let mut compiled = 0u32;
    for path in &samples {
        let src = std::fs::read(path).unwrap();
        let text = std::str::from_utf8(&src).unwrap();
        assert_eq!(
            exercise(&mut machine, text),
            Ok(2),
            "{} must compile both ways unmutated",
            path.display()
        );
        for n in 0..MUTANTS_PER_SAMPLE {
            let mutant = mutate(&mut rng, &src);
            // The samples are ASCII and edits move whole bytes of it.
            let mutant = String::from_utf8(mutant).expect("ASCII stays UTF-8");
            match exercise(&mut machine, &mutant) {
                Ok(c) => compiled += c,
                Err(msg) => panics.push(format!(
                    "{} mutant {n}: {msg}\n---\n{mutant}\n---",
                    path.display()
                )),
            }
        }
    }
    assert!(panics.is_empty(), "{}", panics.join("\n"));
    // Some mutants must get past the front end, or the VM half of the
    // property is never exercised.
    assert!(compiled > 0, "no mutant compiled");
}
