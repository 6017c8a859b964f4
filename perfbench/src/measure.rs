//! Running one protocol under one workload, checking its output, and
//! reducing the run to the numbers the benchmark reports.

use std::time::Instant;

use bft_protocols::registry::ProtocolId;
use bft_protocols::suite::check_run;
use bft_protocols::Scenario;
use bft_sim::{NodeId, Observation, RunOutcome, SafetyAuditor, SimTime};

use crate::probes;
use crate::trace::Tracer;
use crate::workloads::{Workload, CRASH_AT};

/// One protocol run, reduced.
#[derive(Debug, Clone)]
pub struct RunStats {
    pub protocol: ProtocolId,
    pub issued: u64,
    /// Requests accepted by clients, or 0 when the run failed a check: a
    /// dirty run counts as fully failed.
    pub served: u64,
    /// Semantic-checker plus safety-audit violations.
    pub violations: usize,
    /// Wall time inside `ProtocolId::run`.
    pub run_ns: u64,
    /// Process CPU time inside `ProtocolId::run`, all threads.
    pub run_cpu_s: f64,
    /// The reference kernel's time right before the run
    /// (see [`probes::reference_ns`]).
    pub ref_ns: u64,
    pub semantic_ns: u64,
    pub safety_ns: u64,
    /// The behaviour of the run: exact on the sim engine, so two runs of
    /// one scenario must agree on all of it.
    pub exact: Exact,
    pub rec_state_transfers: u64,
    pub rec_retries: u64,
}

/// Counts and virtual times a deterministic run must repeat exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct Exact {
    pub accepted: u64,
    pub events: u64,
    pub msgs: u64,
    pub bytes: u64,
    pub obs_entries: u64,
    pub views: u64,
    /// Client latencies in ms, sorted ascending.
    pub latencies_ms: Vec<f64>,
    /// Longest interval without a completed request (see [`outage_ms`]).
    pub outage_ms: f64,
}

impl RunStats {
    pub fn clean(&self) -> bool {
        self.violations == 0
    }

    pub fn us_per_req(&self) -> f64 {
        self.run_ns as f64 / 1e3 / self.issued as f64
    }

    /// Wall nanoseconds inside `ProtocolId::run`, at reference host speed.
    pub fn ref_run_ns(&self) -> f64 {
        at_reference_speed(self.run_ns as f64, self.ref_ns)
    }
}

/// The reference kernel's time on the host the benchmark was built on
/// (a 2-vCPU KVM guest) when that host was at its fastest.
pub const REF_NOMINAL_NS: f64 = 600_000.0;

/// `ns` of wall time measured when the reference kernel took `ref_ns`,
/// stated at the speed at which it takes [`REF_NOMINAL_NS`].
pub fn at_reference_speed(ns: f64, ref_ns: u64) -> f64 {
    ns * REF_NOMINAL_NS / ref_ns as f64
}

/// Run `protocol` on `scenario`, then check its output with the workload
/// suite's semantic checkers and the safety auditor. Spans: the run under
/// `protocols.run`, the checks under `checker.semantic` and
/// `checker.safety`.
pub fn run_checked(
    workload: Workload,
    protocol: ProtocolId,
    scenario: &Scenario,
    tracer: &mut Tracer,
) -> RunStats {
    let (wname, pname) = (workload.name(), protocol.name());

    let ref_ns = probes::reference_ns();
    let span = tracer.enter("protocols.run", wname, pname);
    let cpu = probes::cpu_seconds();
    let started = Instant::now();
    let out = protocol.run(scenario);
    let run_ns = started.elapsed().as_nanos() as u64;
    let run_cpu_s = probes::cpu_seconds() - cpu;
    tracer.exit(span);

    let span = tracer.enter("checker.semantic", wname, pname);
    let started = Instant::now();
    let semantic = check_run(protocol, scenario, &out);
    let semantic_ns = started.elapsed().as_nanos() as u64;
    tracer.exit(span);

    // A crashed replica is a faulty one: BFT guarantees bind the others.
    let auditor = if workload == Workload::SimLeaderCrash {
        SafetyAuditor::excluding(vec![NodeId::replica(0)])
    } else {
        SafetyAuditor::all_correct()
    };
    let span = tracer.enter("checker.safety", wname, pname);
    let started = Instant::now();
    let unsafe_ = auditor.check(&out.log);
    let safety_ns = started.elapsed().as_nanos() as u64;
    tracer.exit(span);

    let exact = exact_of(workload, scenario, &out);
    let violations = semantic.len() + unsafe_.len();
    RunStats {
        protocol,
        issued: scenario.total_requests(),
        served: if violations == 0 { exact.accepted } else { 0 },
        violations,
        run_ns,
        run_cpu_s,
        ref_ns,
        semantic_ns,
        safety_ns,
        exact,
        rec_state_transfers: out.metrics.rec_state_transfers,
        rec_retries: out.metrics.rec_retries,
    }
}

fn exact_of(workload: Workload, scenario: &Scenario, out: &RunOutcome) -> Exact {
    let mut latencies_ms: Vec<f64> = out
        .log
        .client_latencies()
        .iter()
        .map(|(_, d)| d.as_millis_f64())
        .collect();
    latencies_ms.sort_by(f64::total_cmp);
    let (msgs, bytes) = out
        .metrics
        .nodes()
        .fold((0, 0), |(m, b), (_, c)| (m + c.msgs_sent, b + c.bytes_sent));
    let from = if workload == Workload::SimLeaderCrash {
        SimTime(CRASH_AT.0)
    } else {
        SimTime::ZERO
    };
    Exact {
        accepted: latencies_ms.len() as u64,
        events: out.events_processed,
        msgs,
        bytes,
        obs_entries: out.log.entries.len() as u64,
        views: out.log.max_view().0,
        outage_ms: outage_ms(out, from, scenario.total_requests()),
        latencies_ms,
    }
}

/// The longest interval after `from` in which no client accepted a
/// request. When some requests were never accepted, the last interval runs
/// to the end of the run.
pub fn outage_ms(out: &RunOutcome, from: SimTime, issued: u64) -> f64 {
    // The threaded engine merges per-thread logs, so sort the times.
    let mut accepts: Vec<u64> = out
        .log
        .entries
        .iter()
        .filter(|e| matches!(e.obs, Observation::ClientAccept { .. }))
        .map(|e| e.at.0)
        .collect();
    accepts.sort_unstable();
    let unserved = (accepts.len() as u64) < issued;
    let mut last = from.0;
    let mut longest = 0u64;
    for at in accepts
        .iter()
        .copied()
        .chain(unserved.then_some(out.end_time.0))
    {
        if at > last {
            longest = longest.max(at - last);
            last = at;
        }
    }
    longest as f64 / 1e6
}
