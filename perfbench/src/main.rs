//! GraphTrek's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload deep_cold --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Run from the repository root. The last line of standard output is the
//! result: `{"correct", "attempted", "failed", "metrics"}`, carrying the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics of a traced
//! run (`--trace 1`). The line before it records where the numbers came
//! from. See `perfbench/README.md` for the workloads and metrics.

mod deep_cold;
mod door_mixed;
mod inputs;
mod layers;
mod report;
mod run;
mod stats;
mod trace;

use layers::LayerTotals;
use run::{e2e_metrics, peak_rss_mb, Phase, Samples};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::{self_times, Tracer};

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 2] = ["deep_cold", "door_mixed"];

/// Where a traced run writes its spans.
const SPAN_DIR: &str = ".perfbench_spans";

/// An untraced phase during which the hypervisor stole more than this
/// share of the CPU time is measured once more. On a shared host, steal
/// of a few percent shifts medians by 5 to 10 % and doubles the p99s,
/// and those are the host's numbers, not the program's.
const STEAL_LIMIT: f64 = 0.02;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

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
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(30.0),
        trace: trace.unwrap_or(false),
    })
}

/// A workload's cluster and client, however they are built.
enum Bench {
    DeepCold(deep_cold::DeepCold),
    DoorMixed(door_mixed::DoorMixed),
}

impl Bench {
    fn setup(name: &str, seed: u64, dir: &Path) -> Bench {
        match name {
            "deep_cold" => Bench::DeepCold(deep_cold::DeepCold::setup(seed, dir)),
            "door_mixed" => Bench::DoorMixed(door_mixed::DoorMixed::setup(seed, dir)),
            _ => unreachable!("workload names are checked when parsed"),
        }
    }

    fn measure(&mut self, phase: Phase, t: &mut Tracer, acc: &mut LayerTotals) -> Samples {
        match self {
            Bench::DeepCold(b) => b.measure(phase, t, acc),
            Bench::DoorMixed(b) => b.measure(phase, t, acc),
        }
    }

    fn check(&self, s: &mut Samples) {
        match self {
            Bench::DeepCold(b) => b.check(s),
            Bench::DoorMixed(b) => b.check(s),
        }
    }

    fn teardown(self) {
        match self {
            Bench::DeepCold(b) => b.teardown(),
            Bench::DoorMixed(b) => b.teardown(),
        }
    }
}

/// Where these numbers came from, so results from different hosts or
/// builds are never compared by mistake.
fn provenance(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|m| m.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| format!("tree-{:016x}", tree_hash(Path::new("crates"))));
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    format!(
        "{{\"provenance\": {{\"nproc\": {nproc}, \"cpu\": \"{}\", \"commit\": \"{}\", \"rustc\": \"{}\", \"profile\": \"{profile}\", \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}}}}}",
        esc(&cpu),
        esc(&commit),
        esc(env!("PERFBENCH_RUSTC")),
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
    )
}

/// FNV-1a over every file under `dir` (paths and contents, in sorted
/// order): identifies the source tree when there is no git checkout.
fn tree_hash(dir: &Path) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(dir, &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn run(args: &Args, work: &Path) -> Result<(bool, String), String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut bench = None;
    for i in 0..SETUPS {
        let start = Instant::now();
        let b = Bench::setup(
            &args.workload,
            args.seed,
            &work.join(format!("cluster-{i}")),
        );
        setups.push(start.elapsed().as_secs_f64());
        if let Some(prev) = bench.replace(b) {
            Bench::teardown(prev);
        }
    }
    let mut bench = bench.expect("at least one set-up");
    let setup_s = stats::median(&setups);
    eprintln!("perfbench: {} set-ups took {setups:?} s", args.workload);

    let epoch = Instant::now();
    let mut tracer = Tracer::new(false, epoch);
    let mut acc = LayerTotals::default();
    let mut phases = Vec::new();
    // Every operation of every attempt counts towards `attempted` and
    // `failed`, including those of an attempt measured again.
    let mut total = Samples::default();
    for phase in Phase::plan(args.seconds, args.trace) {
        let mut t = Tracer::new(phase.traced, epoch);
        let mut attempt = 0;
        let s = loop {
            let before = cpu_times();
            let s = bench.measure(phase, &mut t, &mut acc);
            total.attempted += s.attempted;
            total.failed += s.failed;
            let steal = steal_share(&before, &cpu_times());
            eprintln!(
                "perfbench: host CPU steal during the phase: {:.1} %",
                steal * 100.0
            );
            attempt += 1;
            if phase.traced || steal <= STEAL_LIMIT || attempt == 2 {
                break s;
            }
            eprintln!("perfbench: measuring the phase again: the host took too much CPU time");
        };
        if phase.traced {
            tracer = t;
        }
        phases.push(s);
    }
    bench.check(&mut total);
    bench.teardown();
    let rss = peak_rss_mb();
    let correct = total.failed == 0;
    let (attempted, failed) = (total.attempted, total.failed);

    let line = if args.trace {
        let (untraced, traced) = (&phases[0], &phases[1]);
        acc.failed = failed;
        acc.attempted = attempted;
        let median = |xs: &[f64]| stats::percentile(xs, 500).unwrap_or(f64::NAN);
        acc.trace_overhead_ms = median(&traced.travel) - median(&untraced.travel);
        let metrics = acc.metrics();
        print_spans(&tracer);
        let out = Path::new(SPAN_DIR).join(format!("{}-seed{}.tsv", args.workload, args.seed));
        std::fs::create_dir_all(SPAN_DIR)
            .and_then(|_| trace::write_spans(tracer.spans(), &out))
            .map_err(|e| format!("writing {}: {e}", out.display()))?;
        eprintln!(
            "perfbench: {} spans written to {}",
            tracer.spans().len(),
            out.display()
        );
        report::print_table(
            &format!("per-layer metrics, {}:", args.workload),
            report::PER_LAYER,
            &metrics,
        );
        report::result_line(report::PER_LAYER, &metrics, correct, attempted, failed)?
    } else {
        let s = &phases[0];
        let metrics = e2e_metrics(setup_s, rss, s);
        eprintln!(
            "perfbench: {} reads in {:.2} s; latency deciles (ms):",
            s.reads, s.elapsed_s
        );
        for (name, xs) in [
            ("travel", &s.travel),
            ("point", &s.point),
            ("hop", &s.hop),
            ("write", &s.write),
        ] {
            let deciles: Vec<String> = (1..10)
                .map(|d| stats::percentile(xs, d * 100).map_or("-".into(), |v| format!("{v:.3}")))
                .collect();
            eprintln!("  {name:<7} n={:<6} {}", xs.len(), deciles.join(" "));
        }
        report::print_table(
            &format!("end-to-end metrics, {}:", args.workload),
            report::END_TO_END,
            &metrics,
        );
        report::result_line(report::END_TO_END, &metrics, correct, attempted, failed)?
    };
    Ok((correct, line))
}

/// The system-wide CPU time counters of `/proc/stat` (empty if absent).
fn cpu_times() -> Vec<u64> {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next().map(str::to_string))
        .map(|l| {
            l.split_whitespace()
                .skip(1)
                .filter_map(|v| v.parse().ok())
                .collect()
        })
        .unwrap_or_default()
}

/// The share of CPU time stolen by the hypervisor between two readings:
/// the eighth counter is `steal`.
fn steal_share(before: &[u64], after: &[u64]) -> f64 {
    let delta: Vec<u64> = before.iter().zip(after).map(|(b, a)| a - b).collect();
    let total: u64 = delta.iter().sum();
    match delta.get(7) {
        Some(&steal) if total > 0 => steal as f64 / total as f64,
        _ => 0.0,
    }
}

fn print_spans(t: &Tracer) {
    eprintln!("span self time (traced phase):");
    eprintln!(
        "  {:<22} {:>8} {:>12} {:>12}",
        "span", "count", "mean us", "total ms"
    );
    for (name, (n, ns)) in self_times(t.spans()) {
        eprintln!(
            "  {name:<22} {n:>8} {:>12.1} {:>12.1}",
            ns as f64 / n as f64 / 1e3,
            ns as f64 / 1e6
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    // Everything the run writes (stores, sockets) stays under the
    // working directory; a relative path keeps socket paths short.
    let work = PathBuf::from(".perfbench_tmp").join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    // Whatever the libraries place in the temporary directory (socket
    // meshes put their sockets there) stays under it too.
    std::env::set_var("TMPDIR", &work);
    let prov = provenance(&args);
    eprintln!("{prov}");
    let outcome = run(&args, &work);
    std::fs::remove_dir_all(&work).ok();
    std::fs::remove_dir(".perfbench_tmp").ok();
    match outcome {
        Ok((correct, line)) => {
            println!("{prov}");
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: output checks failed");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::steal_share;

    #[test]
    fn steal_share_is_the_eighth_counter_over_all_time() {
        let before = [100, 0, 50, 800, 0, 0, 0, 10];
        let after = [140, 0, 60, 840, 0, 0, 0, 20];
        assert_eq!(steal_share(&before, &after), 0.1);
        assert_eq!(steal_share(&before, &before), 0.0);
        assert_eq!(steal_share(&[], &[]), 0.0, "no /proc/stat: no steal");
    }
}
