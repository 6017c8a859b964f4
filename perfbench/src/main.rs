//! The performance ledger of the BFT protocol suite.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One invocation measures one workload (`all` runs each in turn, each in
//! its own process). It warms the workload's protocols up, then repeats
//! passes for `--seconds`; a pass sets the workload up and runs each of
//! its protocols once. Every protocol run is checked by the workload
//! suite's semantic checkers and the safety auditor, and on the sim engine
//! every pass must reproduce the first one exactly. The last line of standard output is one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics of a traced
//! run (`--trace 1`); a human-readable report goes to standard error. The
//! exit code is 0 only when every check passed.
//!
//! The traced run records spans around every call the benchmark makes into
//! a layer and writes them to `.bench_out/` when it ends.

mod layers;
mod measure;
mod probes;
mod stats;
mod trace;
mod workloads;

use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use bft_protocols::registry::ProtocolId;
use bft_protocols::Scenario;
use measure::{at_reference_speed, run_checked, RunStats, REF_NOMINAL_NS};
use stats::{gmean, median, tail};
use trace::Tracer;
use workloads::Workload;

/// The seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// How long past `--seconds` a run may take before it is abandoned as hung.
const WATCHDOG_SLACK_S: f64 = 150.0;
/// Times the workload is set up before each pass, so that set-ups spread
/// over the whole run; the median of them is reported.
const SETUPS_PER_PASS: usize = 3;

const USAGE: &str = "usage: perfbench --workload <sim-longrun|sim-batch-txn|sim-leader-crash|all> \
[--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds: {value}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err(format!("--seconds out of range: {value}"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    match workload.as_deref() {
        None => return Err("--workload is required".into()),
        Some("all") => {}
        Some(name) => {
            args.workload = Some(Workload::parse(name).ok_or(format!("unknown workload {name}"))?)
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = args.workload else {
        return run_all(&args);
    };
    // A protocol that livelocks must fail the run, not hang it. The thread
    // is left unjoined on purpose: returning from `main` ends it.
    let deadline = Duration::from_secs_f64(args.seconds + WATCHDOG_SLACK_S);
    std::thread::spawn(move || {
        std::thread::sleep(deadline);
        eprintln!("perfbench: no result after {deadline:?}; giving up");
        std::process::exit(1);
    });
    let report = run_workload(workload, &args);
    report.print_human();
    println!("{}", report.to_json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run every workload, each in a child process of its own so that its
/// peak memory is its own.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate the benchmark executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in Workload::GATED {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        ok &= matches!(status, Ok(s) if s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One pass: the workload set up, then every protocol of it run once.
pub struct Pass {
    pub traced: bool,
    /// Wall seconds of each set-up before the pass, at reference host
    /// speed.
    pub setup_s: Vec<f64>,
    pub wall_ns: u64,
    pub runs: Vec<RunStats>,
}

/// Everything a timed phase produced.
pub struct Timed {
    pub passes: Vec<Pass>,
    /// Problems found: check violations and sim-repeat mismatches.
    pub problems: Vec<String>,
}

/// The outcome of one invocation.
pub struct Report {
    workload: Workload,
    correct: bool,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    notes: Vec<String>,
    metrics: Vec<(String, &'static str, f64)>,
}

impl Report {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    fn print_human(&self) {
        eprintln!("== {}", self.workload.name());
        for n in &self.notes {
            eprintln!("   {n}");
        }
        for (name, unit, value) in &self.metrics {
            eprintln!("   {name:<44} {value:>14.4} {unit}");
        }
        for p in &self.problems {
            eprintln!("   FAIL: {p}");
        }
        eprintln!(
            "   {}: {} of {} requests failed",
            if self.correct { "correct" } else { "INCORRECT" },
            self.failed,
            self.attempted
        );
    }
}

/// JSON has no NaN or infinity; a metric that is not finite is written as
/// `null`, which no reader takes for a measurement.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Set the workload up: build every protocol's scenario from the seed,
/// with the request table and key store its inputs come from.
fn setup(w: Workload, seed: u64) -> Vec<(ProtocolId, Scenario)> {
    let runs = w.runs(w.protocols(), seed, w.requests_per_client());
    for (_, s) in &runs {
        black_box(probes::request_table(s));
        black_box(s.key_store());
    }
    runs
}

/// Warm every protocol up with a short checked run, so that lazy
/// initialisation and cold caches are paid before timing.
fn warm_up(w: Workload, seed: u64, tracer: &mut Tracer, problems: &mut Vec<String>) {
    for (p, s) in w.runs(w.protocols(), seed, w.requests_per_client() / 5) {
        if !run_checked(w, p, &s, tracer).clean() {
            problems.push(format!("{}: warm-up run failed its checks", p.name()));
        }
    }
}

/// Repeat passes over the runs `build` sets up until `seconds` have gone
/// by, and at least `min_passes` ran. With `alternate`, every second pass
/// is traced.
pub fn run_passes(
    w: Workload,
    build: &dyn Fn() -> Vec<(ProtocolId, Scenario)>,
    seconds: f64,
    min_passes: usize,
    alternate: bool,
    tracer: &mut Tracer,
) -> Timed {
    let base = tracer.enabled();
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < min_passes || started.elapsed() < budget {
        let traced = if alternate {
            passes.len() % 2 == 1
        } else {
            base
        };
        tracer.set_enabled(traced);
        let span = tracer.enter("pass", w.name(), "");
        let mut setup_s = Vec::new();
        let mut runs = Vec::new();
        for _ in 0..SETUPS_PER_PASS {
            let ref_ns = probes::reference_ns();
            let span = tracer.enter("setup", w.name(), "");
            let t = Instant::now();
            runs = build();
            setup_s.push(at_reference_speed(t.elapsed().as_secs_f64(), ref_ns));
            tracer.exit(span);
        }
        let t = Instant::now();
        let runs = runs
            .iter()
            .map(|(p, s)| run_checked(w, *p, s, tracer))
            .collect();
        let pass = Pass {
            traced,
            setup_s,
            wall_ns: t.elapsed().as_nanos() as u64,
            runs,
        };
        tracer.exit(span);
        passes.push(pass);
    }
    tracer.set_enabled(base);

    let mut problems = Vec::new();
    for (i, pass) in passes.iter().enumerate() {
        for r in &pass.runs {
            if !r.clean() {
                problems.push(format!(
                    "{} pass {i}: {} check violation(s)",
                    r.protocol.name(),
                    r.violations
                ));
            }
        }
    }
    // The sim engine is deterministic: every pass repeats the first.
    if w.is_sim() {
        for (i, pass) in passes.iter().enumerate().skip(1) {
            for (a, b) in passes[0].runs.iter().zip(&pass.runs) {
                if a.exact != b.exact {
                    problems.push(format!(
                        "{} pass {i}: sim counts differ from pass 0 ({:?} vs {:?})",
                        a.protocol.name(),
                        brief(&a.exact),
                        brief(&b.exact)
                    ));
                }
            }
        }
    }
    Timed { passes, problems }
}

fn brief(e: &measure::Exact) -> (u64, u64, u64, u64, u64, f64) {
    (
        e.accepted,
        e.events,
        e.msgs,
        e.bytes,
        e.obs_entries,
        e.outage_ms,
    )
}

fn run_workload(w: Workload, args: &Args) -> Report {
    let mut tracer = Tracer::new(false);
    let mut problems = Vec::new();

    let build = || setup(w, args.seed);
    warm_up(w, args.seed, &mut tracer, &mut problems);

    let (timed, metrics) = if args.trace {
        tracer.set_enabled(true);
        let timed = run_passes(w, &build, args.seconds, 2, true, &mut tracer);
        let metrics = layers::per_layer(w, args.seed, &timed, &mut tracer, &mut problems);
        (timed, metrics)
    } else {
        let timed = run_passes(w, &build, args.seconds, 2, false, &mut tracer);
        let metrics = end_to_end(w, &timed);
        (timed, metrics)
    };
    problems.extend(timed.problems.iter().cloned());

    let runs = timed.passes.iter().flat_map(|p| &p.runs);
    let attempted: u64 = runs.clone().map(|r| r.issued).sum();
    let failed: u64 = runs.clone().map(|r| r.issued - r.served).sum();
    let mut ref_ns: Vec<f64> = runs.map(|r| r.ref_ns as f64).collect();
    let mut notes = vec![
        format!(
            "seed {}, {} pass(es) in {:.1} s, {} thread(s) available",
            args.seed,
            timed.passes.len(),
            timed.passes.iter().map(|p| p.wall_ns).sum::<u64>() as f64 / 1e9,
            nproc()
        ),
        format!(
            "reference kernel: median {:.0} ns, {REF_NOMINAL_NS:.0} ns at reference speed",
            median(&mut ref_ns)
        ),
    ];
    notes.extend(latency_notes(w, &timed));
    if args.trace {
        let path = format!(".bench_out/trace-{}-seed{}.json", w.name(), args.seed);
        let written = std::fs::create_dir_all(".bench_out")
            .and_then(|_| std::fs::write(&path, tracer.to_json()));
        match written {
            Ok(()) => notes.push(format!("{} spans written to {path}", tracer.len())),
            Err(e) => problems.push(format!("cannot write {path}: {e}")),
        }
    }
    for (name, _, value) in &metrics {
        if !value.is_finite() {
            problems.push(format!("metric {name} is not a finite number"));
        }
    }
    Report {
        workload: w,
        correct: problems.is_empty(),
        attempted,
        failed,
        problems,
        notes,
        metrics,
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn latency_notes(w: Workload, timed: &Timed) -> Vec<String> {
    let passes: Vec<&Pass> = timed.passes.iter().collect();
    w.protocols()
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let lat = &passes[0].runs[i].exact.latencies_ms;
            let (p50, p99) = (tail(lat, 0.5), tail(lat, 0.99));
            let r = &passes[0].runs[i];
            let mut us: Vec<f64> = passes.iter().map(|p| p.runs[i].us_per_req()).collect();
            let mid = median(&mut us);
            format!(
                "{:<14} served {:>5}/{:<5} p50 {:>8.3} ms  p{:.1} {:>8.3} ms  ({} samples)  \
                 outage {:>8.3} ms  us/req {:>7.2} [{:.2}, {:.2}]",
                p.name(),
                r.served,
                r.issued,
                p50.value,
                p99.q * 100.0,
                p99.value,
                p99.samples,
                r.exact.outage_ms,
                mid,
                us[0],
                us[us.len() - 1],
            )
        })
        .collect()
}

/// The end-to-end metrics of the untraced passes.
fn end_to_end(w: Workload, timed: &Timed) -> Vec<(String, &'static str, f64)> {
    let passes: Vec<&Pass> = timed.passes.iter().filter(|p| !p.traced).collect();
    let runs = || passes.iter().flat_map(|p| &p.runs);
    let issued: u64 = runs().map(|r| r.issued).sum();
    let served: u64 = runs().map(|r| r.served).sum();
    // Wall-clock figures, each stated at reference host speed (see
    // `probes::reference_ns`), then the median over set-ups or passes.
    let mut setup_s: Vec<f64> = passes.iter().flat_map(|p| p.setup_s.clone()).collect();
    let run_ns: Vec<f64> = (0..w.protocols().len())
        .map(|i| {
            median(
                &mut passes
                    .iter()
                    .map(|p| p.runs[i].ref_run_ns())
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    // Every pass of a sim workload repeats the first: the same requests
    // issued and served, the same latencies.
    let first = &passes[0].runs;
    let pass_served: u64 = first.iter().map(|r| r.served).sum();
    // Requests served per wall second inside `ProtocolId::run`.
    let req_per_s = pass_served as f64 / (run_ns.iter().sum::<f64>() / 1e9);
    let us_per_req = gmean(
        first
            .iter()
            .zip(&run_ns)
            .map(|(r, ns)| ns / 1e3 / r.issued as f64),
    );
    let percentile = |q: f64| gmean(first.iter().map(|r| tail(&r.exact.latencies_ms, q).value));
    vec![
        ("served_frac".into(), "frac", served as f64 / issued as f64),
        ("setup_s".into(), "s", median(&mut setup_s)),
        ("peak_rss_mb".into(), "MiB", probes::peak_rss_mb()),
        ("req_per_s".into(), "1/s", req_per_s),
        ("us_per_req_gmean".into(), "us", us_per_req),
        ("p50_ms".into(), "ms", percentile(0.5)),
        ("p99_ms".into(), "ms", percentile(0.99)),
        (
            "outage_ms".into(),
            "ms",
            gmean(first.iter().map(|r| r.exact.outage_ms)),
        ),
    ]
}
