//! The per-layer metrics of the traced run.
//!
//! Two groups, both emitted by every traced invocation:
//!
//! - Layers of the named workload, from its traced passes and from
//!   replays of its own request table: `sim.*`, `obs.*`, `checker.*`,
//!   `crypto.*`, `state.*` and the tracing overhead.
//! - The ledger rows, each measured on the workload it belongs to whatever
//!   workload is named: the per-protocol rows of `sim-longrun` (µs per
//!   request, growth with run length, views) and of `sim-leader-crash`
//!   (outage, accepted share), each
//!   over the workload's protocols plus its ungated probes (see
//!   `Workload::ledger_protocols`), the `recovery.*` counters of
//!   `sim-leader-crash`, and the `threaded.*` figures of `threaded-n4`
//!   (throughput, wall-clock latency, CPU) with the ungated threaded
//!   liveness probe of HotStuff and Fair. `threaded-n4` is measured and
//!   checked here only: its wall-clock figures are too unsteady between
//!   runs to gate.

use bft_protocols::registry::ProtocolId;
use bft_sim::SimDuration;

use crate::measure::{run_checked, RunStats};
use crate::stats::{gmean, median, tail};
use crate::trace::Tracer;
use crate::workloads::Workload;
use crate::{nproc, probes, run_passes, Pass, Timed};

type Metrics = Vec<(String, &'static str, f64)>;

/// `sim-longrun`'s growth row compares µs per request at this multiple of
/// the workload's run length with µs per request at its run length.
const GROWTH_FACTOR: u64 = 4;
/// Wall budget of each threaded liveness-probe run.
const PROBE_BUDGET: SimDuration = SimDuration::from_secs(5);
/// Wall time of the threaded-n4 passes behind the `threaded.*` figures.
const THREADED_SECONDS: f64 = 3.0;

pub fn per_layer(
    w: Workload,
    seed: u64,
    timed: &Timed,
    tracer: &mut Tracer,
    problems: &mut Vec<String>,
) -> Metrics {
    let mut m: Metrics = Vec::new();
    let traced: Vec<&Pass> = timed.passes.iter().filter(|p| p.traced).collect();
    let untraced: Vec<&Pass> = timed.passes.iter().filter(|p| !p.traced).collect();

    // Layers of the named workload.
    let stats = || traced.iter().flat_map(|p| &p.runs);
    let issued: f64 = stats().map(|r| r.issued as f64).sum();
    let sum = |f: &dyn Fn(&RunStats) -> u64| stats().map(f).sum::<u64>() as f64;
    let events = sum(&|r| r.exact.events);
    m.push(("sim.events_per_req".into(), "1/req", events / issued));
    m.push((
        "sim.msgs_per_req".into(),
        "1/req",
        sum(&|r| r.exact.msgs) / issued,
    ));
    m.push((
        "sim.bytes_per_req".into(),
        "B/req",
        sum(&|r| r.exact.bytes) / issued,
    ));
    m.push(("sim.ns_per_event".into(), "ns", sum(&|r| r.run_ns) / events));
    m.push((
        "sim.pingpong_ns_per_event".into(),
        "ns",
        probes::pingpong(tracer, w.name()),
    ));
    m.push((
        "obs.entries_per_req".into(),
        "1/req",
        sum(&|r| r.exact.obs_entries) / issued,
    ));
    m.push((
        "checker.semantic_us_per_req".into(),
        "us",
        sum(&|r| r.semantic_ns) / 1e3 / issued,
    ));
    m.push((
        "checker.safety_us_per_req".into(),
        "us",
        sum(&|r| r.safety_ns) / 1e3 / issued,
    ));

    eprintln!("   traced run: replaying {}'s request table", w.name());
    let scenario = &w.scenario(w.protocols()[0], seed, w.requests_per_client());
    let table = probes::request_table(scenario);
    let (sign, verify, digest) =
        probes::crypto(scenario, &table, scenario.batch_size, tracer, w.name());
    m.push(("crypto.sign_ns".into(), "ns", sign));
    m.push(("crypto.verify_ns".into(), "ns", verify));
    m.push(("crypto.batch_digest_ns".into(), "ns", digest));
    let (exec, digest, snap) =
        probes::state(&table, scenario.checkpoint_interval, tracer, w.name());
    m.push(("state.execute_ns".into(), "ns", exec));
    m.push(("state.digest_ns".into(), "ns", digest));
    m.push(("state.snapshot_ns".into(), "ns", snap));

    let pass_ns =
        |ps: &[&Pass]| median(&mut ps.iter().map(|p| p.wall_ns as f64).collect::<Vec<_>>());
    m.push((
        "trace.overhead_ratio".into(),
        "x",
        pass_ns(&traced) / pass_ns(&untraced),
    ));

    // The ledger rows.
    m.extend(longrun_rows(seed, tracer, problems));
    m.extend(crash_rows(seed, tracer, problems));
    m.extend(threaded_rows(seed, tracer, problems));
    m
}

/// One pass of `w`'s ledger protocols at `per_client` requests per client.
/// Check violations of the protocols `w` gates become problems; those of
/// its probes are only reported.
fn ledger_pass(
    w: Workload,
    seed: u64,
    per_client: u64,
    tracer: &mut Tracer,
    problems: &mut Vec<String>,
) -> Vec<RunStats> {
    let build = || w.runs(w.ledger_protocols(), seed, per_client);
    let runs = run_passes(w, &build, 0.0, 1, false, tracer)
        .passes
        .swap_remove(0)
        .runs;
    for r in runs.iter().filter(|r| !r.clean()) {
        let line = format!(
            "{} {}: {} check violation(s)",
            w.name(),
            r.protocol.name(),
            r.violations
        );
        if w.protocols().contains(&r.protocol) {
            problems.push(line);
        } else {
            eprintln!("   ungated probe: {line}");
        }
    }
    runs
}

fn longrun_rows(seed: u64, tracer: &mut Tracer, problems: &mut Vec<String>) -> Metrics {
    let lw = Workload::SimLongrun;
    eprintln!("   traced run: {} rows", lw.name());
    let per_client = lw.requests_per_client();
    let short = ledger_pass(lw, seed, per_client, tracer, problems);
    let long = ledger_pass(lw, seed, per_client * GROWTH_FACTOR, tracer, problems);

    let mut m = Metrics::new();
    for (s, l) in short.iter().zip(&long) {
        let name = s.protocol.name();
        let us = s.us_per_req();
        m.push((format!("protocols.{name}.us_per_req"), "us", us));
        m.push((format!("protocols.{name}.growth"), "x", l.us_per_req() / us));
        // Views entered, the initial one included, so never 0.
        m.push((
            format!("protocols.{name}.views"),
            "count",
            (l.exact.views + 1) as f64,
        ));
    }
    m
}

fn crash_rows(seed: u64, tracer: &mut Tracer, problems: &mut Vec<String>) -> Metrics {
    let cw = Workload::SimLeaderCrash;
    eprintln!("   traced run: {} rows", cw.name());
    let runs = ledger_pass(cw, seed, cw.requests_per_client(), tracer, problems);

    let mut m = Metrics::new();
    for r in &runs {
        let name = r.protocol.name();
        m.push((
            format!("protocols.{name}.outage_ms"),
            "ms",
            r.exact.outage_ms,
        ));
        // Accepted whether or not the run was clean: a gated protocol's
        // violations already fail the run, a probe's are printed.
        m.push((
            format!("protocols.{name}.accepted_frac"),
            "frac",
            r.exact.accepted as f64 / r.issued as f64,
        ));
    }
    let gated = || runs.iter().filter(|r| cw.protocols().contains(&r.protocol));
    let total = |f: fn(&RunStats) -> u64| gated().map(f).sum::<u64>() as f64;
    m.push((
        "recovery.state_transfers".into(),
        "count",
        total(|r| r.rec_state_transfers),
    ));
    m.push(("recovery.retries".into(), "count", total(|r| r.rec_retries)));
    m
}

fn threaded_rows(seed: u64, tracer: &mut Tracer, problems: &mut Vec<String>) -> Metrics {
    let tw = Workload::ThreadedN4;
    eprintln!("   traced run: {} rows", tw.name());
    let build = || tw.runs(tw.protocols(), seed, tw.requests_per_client());
    let timed = run_passes(tw, &build, THREADED_SECONDS, 2, false, tracer);
    problems.extend(timed.problems.iter().map(|p| format!("threaded-n4: {p}")));
    let passes = &timed.passes;
    let runs = || passes.iter().flat_map(|p| &p.runs);
    // The replicas' own figures: CPU and wall time inside `ProtocolId::run`
    // only, without the checkers that run after it on one thread.
    let cpu_s: f64 = runs().map(|r| r.run_cpu_s).sum();
    let run_s: f64 = runs().map(|r| r.run_ns as f64 / 1e9).sum();
    let served = runs().map(|r| r.served).sum::<u64>() as f64;
    // Wall-clock latencies, pooled over passes per protocol.
    let percentile = |q: f64| {
        gmean((0..tw.protocols().len()).map(|i| {
            let mut lat: Vec<f64> = passes
                .iter()
                .flat_map(|p| p.runs[i].exact.latencies_ms.iter().copied())
                .collect();
            lat.sort_by(f64::total_cmp);
            tail(&lat, q).value
        }))
    };
    let mut m = vec![
        ("threaded.req_per_s".to_string(), "1/s", served / run_s),
        ("threaded.wall_p50_ms".to_string(), "ms", percentile(0.5)),
        ("threaded.wall_p99_ms".to_string(), "ms", percentile(0.99)),
        (
            "threaded.cpu_util".to_string(),
            "frac",
            cpu_s / (run_s * nproc() as f64),
        ),
        (
            "threaded.cpu_us_per_req".to_string(),
            "us",
            cpu_s * 1e6 / served,
        ),
    ];

    // HotStuff and Fair swing between fast runs and collapses on real
    // threads; bounded and ungated, so the collapse stays visible.
    for p in [ProtocolId::HotStuff, ProtocolId::Fair] {
        eprintln!("   traced run: threaded probe of {}", p.name());
        let mut s = tw.scenario(p, seed, tw.requests_per_client());
        s.max_time = PROBE_BUDGET;
        let r = run_checked(tw, p, &s, tracer);
        let name = p.name();
        if !r.clean() {
            eprintln!(
                "   ungated probe: threaded {name}: {} check violation(s)",
                r.violations
            );
        }
        m.push((
            format!("threaded.probe.{name}.us_per_req"),
            "us",
            r.us_per_req(),
        ));
        m.push((
            format!("threaded.probe.{name}.accepted_frac"),
            "frac",
            r.exact.accepted as f64 / r.issued as f64,
        ));
    }
    m
}
