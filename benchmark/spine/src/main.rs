//! `spine`: the repository's benchmark. Every workload is served through
//! `dmpc_service::run_service_chaos`, closed loop, one client, one process
//! per repetition; see `benchmark/README.md`.
//!
//! `spine --workload W --seed N --seconds S --trace 0|1` runs one workload
//! and prints one JSON result object as its last line. Without
//! `--workload` it runs every workload, untraced and traced, and writes
//! `benchmark/out/results.json`. `--rep W [--traced]` is what those two
//! spawn: one repetition, reported to the parent on standard output.

mod bench;
mod driver;
mod json;
mod probes;
mod spanned;
mod spec;
#[cfg(test)]
mod tests;
mod verify;

use dmpc_connectivity::{DmpcConnectivity, DmpcMst};
use dmpc_matching::DmpcMaximalMatching;
use dmpc_service::{UnweightedService, WeightedEdgeService};
use driver::{metrics_json, Args, Outcome};
use json::Json;
use spec::{Alg, Spec, Subject, WORKLOADS};
use std::path::Path;
use std::process::{Command, ExitCode};

type Conn = UnweightedService<DmpcConnectivity>;
type Mst = WeightedEdgeService<DmpcMst>;
type Matching = UnweightedService<DmpcMaximalMatching>;

const OUT_DIR: &str = "benchmark/out";
const DEFAULT_SEED: u64 = 42;
const DEFAULT_SECONDS: f64 = 10.0;

fn usage() -> ! {
    eprintln!(
        "usage: spine [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n\
         workloads: {}",
        WORKLOADS.map(|w| w.name).join(", ")
    );
    std::process::exit(2)
}

/// What to do: every workload, one workload, or (spawned by the latter)
/// one repetition of one workload.
enum Mode {
    All,
    Workload(String),
    Repetition { workload: String, traced: bool },
}

fn parse_cli() -> (Mode, Args) {
    let (mut workload, mut rep, mut traced) = (None, None, false);
    let mut args = Args {
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value()),
            "--rep" => rep = Some(value()),
            "--traced" => traced = true,
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--smoke" => args.smoke = true,
            _ => usage(),
        }
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        usage();
    }
    let mode = match (rep, workload) {
        (Some(workload), _) => Mode::Repetition { workload, traced },
        (None, Some(workload)) => Mode::Workload(workload),
        (None, None) => Mode::All,
    };
    (mode, args)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

fn find_spec(name: &str, smoke: bool) -> Spec {
    let Some(spec) = WORKLOADS.iter().find(|w| w.name == name) else {
        usage()
    };
    if smoke {
        spec.smoke()
    } else {
        *spec
    }
}

fn mode_name(trace: bool) -> &'static str {
    if trace {
        "per_layer"
    } else {
        "end_to_end"
    }
}

fn write_out(file: &str, text: &str) {
    std::fs::create_dir_all(OUT_DIR).expect("create benchmark/out");
    let path = Path::new(OUT_DIR).join(file);
    std::fs::write(&path, text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

/// One repetition in this process; its record goes to the parent on
/// standard output, a traced one's Chrome trace to `benchmark/out`.
fn repetition<A: Subject>(spec: &Spec, seed: u64, traced: bool) {
    let record = if traced {
        let (record, trace) = bench::traced_repetition::<A>(spec, seed);
        write_out(&format!("{}.trace.json", spec.name), &format!("{trace}\n"));
        record
    } else {
        bench::untraced_repetition::<A>(spec, seed)
    };
    print!("{}", record.to_lines());
}

/// One workload, a child process per repetition. Prints every metric by
/// name with its unit; the last line printed is the result object.
fn workload(name: &str, args: &Args) -> Outcome {
    let spec = find_spec(name, args.smoke);
    if spec.pool && nproc() < 2 {
        eprintln!("warning: {name} on a 1-core host: pool wall-clock is not meaningful");
    }
    let out = driver::workload(&spec, args);
    for m in &out.metrics {
        println!("{name} {} = {} {}", m.name, m.value, m.unit);
    }
    for why in &out.verdict.fatal {
        eprintln!("{name} FAILED {why}");
    }
    let result = Json::obj([
        ("correct", Json::Bool(out.verdict.ok())),
        ("attempted", Json::Int(out.attempted as u64)),
        (
            "failed",
            Json::Int(out.verdict.failed_of(out.attempted) as u64),
        ),
        ("metrics", metrics_json(&out.metrics)),
    ]);
    println!("{result}");
    out
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// Where and how the numbers were taken.
fn provenance(args: &Args) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Json::obj([
        ("nproc", Json::Int(nproc() as u64)),
        ("cpu_model", Json::str(cpu)),
        ("rustc", Json::str(command_line("rustc", &["--version"]))),
        (
            "git_rev",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        (
            "release_profile",
            Json::str("opt-level=3 lto=true codegen-units=1 (benchmark/spine/Cargo.toml)"),
        ),
        ("seed", Json::Int(args.seed)),
        ("seconds", Json::Num(args.seconds)),
        ("smoke", Json::Bool(args.smoke)),
    ])
}

/// Every workload, untraced then traced, into `results.json`.
fn all(args: &Args) -> ExitCode {
    let mut workloads = Vec::new();
    let mut skipped = Vec::new();
    let mut ok = true;
    for spec in &WORKLOADS {
        if spec.pool && nproc() < 2 {
            let reason = "1-core host: pool wall-clock is not reported";
            println!("{} skipped: {reason}", spec.name);
            skipped.push(Json::obj([
                ("workload", Json::str(spec.name)),
                ("reason", Json::str(reason)),
            ]));
            continue;
        }
        let modes = [false, true].map(|trace| {
            let out = workload(spec.name, &Args { trace, ..*args });
            ok &= out.verdict.ok();
            (mode_name(trace), out.detail)
        });
        workloads.push((spec.name, Json::obj(modes)));
    }
    let results = Json::obj([
        ("provenance", provenance(args)),
        ("skipped", Json::Arr(skipped)),
        ("workloads", Json::obj(workloads)),
    ]);
    write_out("results.json", &format!("{results}\n"));
    println!("wrote {OUT_DIR}/results.json");
    if !ok {
        eprintln!("FAILED: at least one workload failed its checks");
    }
    exit_code(ok)
}

fn main() -> ExitCode {
    let (mode, args) = parse_cli();
    match mode {
        Mode::All => all(&args),
        Mode::Workload(name) => {
            let out = workload(&name, &args);
            write_out(
                &format!("{name}.{}.json", mode_name(args.trace)),
                &format!("{}\n", out.detail),
            );
            exit_code(out.verdict.ok())
        }
        Mode::Repetition { workload, traced } => {
            let spec = find_spec(&workload, args.smoke);
            match spec.alg {
                Alg::Conn => repetition::<Conn>(&spec, args.seed, traced),
                Alg::Mst => repetition::<Mst>(&spec, args.seed, traced),
                Alg::Matching => repetition::<Matching>(&spec, args.seed, traced),
            }
            ExitCode::SUCCESS
        }
    }
}
