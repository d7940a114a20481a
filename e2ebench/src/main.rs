//! End-to-end benchmark of the ammBoost pipeline.
//!
//! ```sh
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload paper_default --seed 1 --seconds 15 --trace 0
//! ```
//!
//! One workload per process. With `--trace 0` the last line of standard
//! output is the end-to-end result; with `--trace 1` it is the per-layer
//! split of a traced run. See `README.md` in this directory.

mod checks;
mod node;
mod pipeline;
mod report;
mod system_wl;
mod trace;

use report::{print_result, Tally};
use system_wl::SystemWorkload;

const USAGE: &str = "usage: e2ebench --workload <paper_default|fleet_routed|crowd_20k|node_1e5> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Environment overrides the program honours at run start; a benchmark
/// run measures the configured defaults, so it refuses to start under
/// either.
const REFUSED_ENV: &[&str] = &["AMMBOOST_EXEC_MODE", "AMMBOOST_CHECKPOINT_MODE"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    for var in REFUSED_ENV {
        if std::env::var_os(var).is_some() {
            eprintln!(
                "refusing to run with {var} set: the benchmark measures the program's defaults"
            );
            std::process::exit(2);
        }
    }
    let mut tally = Tally::default();
    let (seed, secs) = (args.seed, args.seconds);
    let system = match args.workload.as_str() {
        "paper_default" => Some(SystemWorkload::PaperDefault),
        "fleet_routed" => Some(SystemWorkload::FleetRouted),
        "crowd_20k" => Some(SystemWorkload::Crowd20k),
        "node_1e5" => None,
        other => {
            eprintln!("unknown workload {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let metrics = match (system, args.trace) {
        (Some(w), false) => system_wl::run(w, seed, secs, &mut tally),
        (Some(w), true) => system_wl::run_traced(w, seed, secs, &mut tally),
        (None, false) => node::run(seed, secs, &mut tally),
        (None, true) => node::run_traced(seed, secs, &mut tally),
    };
    print_result(&tally, &metrics);
}
