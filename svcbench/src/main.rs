//! The decision-service benchmark.
//!
//! ```text
//! cargo run --release --manifest-path svcbench/Cargo.toml -- \
//!     --workload ladder_n5 --seed 1 --seconds 35 --trace 0
//! ```
//!
//! Drives `rfd_net::service::ServiceRunner::over` on the in-memory
//! network under the virtual clock, on one thread. A run repeats the
//! workload's passes while the next one still fits in `--seconds` of
//! wall time; every pass must reproduce the first one's virtual-time
//! results exactly. `DESIGN.md` documents the workloads and metrics.
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics from wrapped transports and estimators (see `probe`), and
//! writes the traced spans under `.bench_out/`. The last line of
//! standard output is the JSON result; a failed correctness gate exits
//! non-zero without printing it.

mod alloc;
mod measure;
mod metrics;
mod probe;
mod reference;
mod workload;

use std::process::ExitCode;
use std::time::Instant;
use workload::Workload;

#[global_allocator]
static ALLOCATOR: alloc::CountingAllocator = alloc::CountingAllocator;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("svcbench: {e}");
            eprintln!("usage: svcbench --workload <ladder_n5|fleet_n16|faults_n5> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("svcbench: {}: run failed: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let started = Instant::now();
    let budget_ns = args.seconds.saturating_mul(1_000_000_000);
    let elapsed = || probe::nanos_between(started, Instant::now());
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    // Passes run while the next one (as long as the last) still fits in
    // the budget; at least three run whatever the budget.
    loop {
        let pass_start = elapsed();
        untraced.push(metrics::run_pass(
            args.workload,
            args.seed,
            false,
            untraced.is_empty(),
        )?);
        if args.trace {
            traced.push(metrics::run_pass(
                args.workload,
                args.seed,
                true,
                traced.is_empty(),
            )?);
        }
        for pass in untraced.last().into_iter().chain(traced.last()) {
            metrics::check_deterministic(&untraced[0], pass)?;
        }
        let now = elapsed();
        if untraced.len() >= 3 && now + (now - pass_start) > budget_ns {
            break;
        }
    }
    let provenance =
        metrics::Provenance::collect(args.workload, args.seed, args.seconds, untraced.len());
    let table = if args.trace {
        let path = metrics::write_spans(args.workload, args.seed, &traced, &provenance)?;
        println!("spans: {path}");
        metrics::per_layer(&untraced, &traced)
    } else {
        metrics::end_to_end(args.workload, &untraced)
    };
    provenance.print();
    for m in table.info.iter().chain(&table.metrics) {
        println!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", table.json());
    Ok(())
}
