//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--trace-file <path>]`
//!
//! Prints a host/run description line, then, as the last line, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`
//! (end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`). With `--trace 1` the recorded spans are written to
//! `--trace-file` when one is given.

use std::process::ExitCode;

use perfbench::alloc::CountingAlloc;
use perfbench::host::HostInfo;
use perfbench::run;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_file: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut trace_file = None;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => trace = value()? == "1",
            "--trace-file" => trace_file = Some(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
        trace_file,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let host = HostInfo::collect(std::path::Path::new("."));
    println!(
        "{{\"host\": {}, \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}}}",
        host.to_json(),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let result = if args.trace {
        run::per_layer(&args.workload, args.seed, args.seconds).and_then(|(out, tr)| {
            if let Some(path) = &args.trace_file {
                std::fs::write(path, tr.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
            }
            Ok(out)
        })
    } else {
        run::end_to_end(&args.workload, args.seed, args.seconds)
    };
    match result {
        Ok(out) => {
            if let Some(why) = &out.first_failure {
                eprintln!(
                    "perfbench: {} of {} ops failed; first: {why}",
                    out.failed, out.attempted
                );
            }
            println!("{{\"latency\": {}}}", out.latency);
            println!("{}", out.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
