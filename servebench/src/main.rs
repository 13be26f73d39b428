//! `servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints every metric with its unit and sample count, then, as the last
//! line, one JSON record with the `BENCHMARK.json` metrics of the run's
//! kind (end-to-end with `--trace 0`, per-layer with `--trace 1`). Exits
//! non-zero when an output check fails.

use std::path::PathBuf;
use std::process::ExitCode;

use servebench::workloads::{run, RunConfig, Size, Workload};
use servebench::{END_TO_END, PER_LAYER};

fn parse() -> Result<RunConfig, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == name)
            .ok_or_else(|| format!("missing {name}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{name} needs a value"))
    };
    let workload = flag("--workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let seed = flag("--seed")?
        .parse()
        .map_err(|e| format!("bad --seed: {e}"))?;
    let seconds: f64 = flag("--seconds")?
        .parse()
        .map_err(|e| format!("bad --seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let trace = match flag("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(RunConfig {
        workload,
        seed,
        seconds,
        trace,
        size: Size::full(),
        work_dir: PathBuf::from(".servebench").join(format!("run-{}", std::process::id())),
    })
}

fn main() -> ExitCode {
    let config = match parse() {
        Ok(config) => config,
        Err(e) => {
            eprintln!("servebench: {e}");
            eprintln!("usage: servebench --workload <hot-read|scan-read|churn|ingest> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&config);
    print!("{}", outcome.table());
    let names: &[&str] = if config.trace {
        &PER_LAYER
    } else {
        &END_TO_END
    };
    println!("{}", outcome.json(names));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
