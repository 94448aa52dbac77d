//! `hpcnet-perfbench --workload <kernels|conform|serve> --seed <n>
//! --seconds <s> --trace <0|1>`: run one workload and print its metrics,
//! the result object last. See `perfbench/README.md`.

use hpcnet_perfbench::{run_traced, run_untraced, Opts};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: hpcnet-perfbench --workload <kernels|conform|serve> --seed <n> --seconds <s> --trace <0|1>";

fn parse() -> Result<(String, Opts, bool), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10u64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((
        workload,
        Opts {
            seed,
            budget: Duration::from_secs(seconds),
            tiny: false,
        },
        trace,
    ))
}

fn main() -> ExitCode {
    let (workload, opts, trace) = match parse() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if trace {
        run_traced(&workload, &opts)
    } else {
        run_untraced(&workload, &opts)
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "cpus: {}",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    for m in &report.metrics {
        println!("{:<56} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for p in &report.problems {
        println!("FAILED: {p}");
    }
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
