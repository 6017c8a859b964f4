//! Recovery-churn regression tests: determinism and semantic consistency.
//!
//! Restart handling (crash → recover with durable or amnesia semantics,
//! checkpoint reload, state-transfer catch-up) runs through the same
//! deterministic event loop as everything else, so a churny run must be a
//! pure function of (scenario, seed) — byte-identical across scheduler
//! backends and OS thread counts — and the accepted history must satisfy
//! every workload family's semantic checker even when a replica rejoins
//! with only its last stable checkpoint.

use bft_core::workload::WorkloadConfig;
use bft_protocols::pbft::PbftOptions;
use bft_protocols::suite::semantic_config;
use bft_protocols::{Protocol, ProtocolId, Scenario};
use bft_sim::campaign::check_outcome_with_semantics;
use bft_sim::{FaultPlan, NodeId, RestartMode, SchedulerKind, SimTime};

/// Repeated churn of two replicas, mixing both restart modes; 40 requests
/// so the run crosses checkpoint intervals and the amnesia rejoin actually
/// exercises snapshot state transfer.
fn churn_plan() -> FaultPlan {
    FaultPlan::none()
        .crash_recover_mode(
            NodeId::replica(1),
            SimTime(1_000_000),
            SimTime(4_000_000),
            RestartMode::Amnesia,
        )
        .crash_recover_mode(
            NodeId::replica(2),
            SimTime(6_000_000),
            SimTime(9_000_000),
            RestartMode::Durable,
        )
        .crash_recover_mode(
            NodeId::replica(1),
            SimTime(12_000_000),
            SimTime(15_000_000),
            RestartMode::Amnesia,
        )
}

fn churn_scenario(scheduler: SchedulerKind, workload: WorkloadConfig) -> Scenario {
    Scenario::small(1)
        .with_load(1, 40)
        .with_scheduler(scheduler)
        .with_workload(workload)
        .with_faults(churn_plan())
}

#[test]
fn recovery_churn_is_deterministic_across_schedulers_and_threads() {
    let run = |scheduler: SchedulerKind| {
        let s = churn_scenario(scheduler, WorkloadConfig::uniform());
        let out = Protocol::Pbft(PbftOptions::default()).run(&s);
        let log = serde_json::to_string(&out.log).expect("log serializes");
        let metrics = serde_json::to_string(&out.metrics).expect("metrics serialize");
        (log, metrics, out.events_processed, out.end_time)
    };

    let reference = run(SchedulerKind::Calendar);
    // non-vacuity: the plan's three restarts all fired, and at least one
    // amnesia rejoin completed a snapshot state transfer
    assert!(
        reference.1.contains("\"rec_restarts\":3"),
        "expected 3 restarts in metrics: {}",
        reference.1
    );
    assert!(
        reference.1.contains("rec_state_transfers"),
        "amnesia rejoin never exercised state transfer"
    );

    assert_eq!(
        reference,
        run(SchedulerKind::Heap),
        "calendar and heap schedulers diverged on the churny run"
    );

    for threads in [2usize, 4] {
        let results: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| scope.spawn(|| run(SchedulerKind::Calendar)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for r in results {
            assert_eq!(
                reference, r,
                "churny run diverged on a {threads}-thread execution"
            );
        }
    }
}

/// Amnesia rejoin must not corrupt any workload family's semantics: the
/// rejoining replica reloads only its stable checkpoint, catches up via
/// state transfer, and the accepted history still passes replay
/// faithfulness, lost-write, linearizability and the log/counter
/// invariants.
#[test]
fn amnesia_churn_preserves_semantics_for_every_workload_family() {
    let families: [(&str, WorkloadConfig); 4] = [
        ("uniform", WorkloadConfig::uniform()),
        ("read-heavy", WorkloadConfig::read_heavy()),
        ("log-append", WorkloadConfig::log_append()),
        ("counter-inc", WorkloadConfig::counter_inc()),
    ];
    for (name, workload) in families {
        let s = churn_scenario(SchedulerKind::default(), workload);
        let out = Protocol::Pbft(PbftOptions::default()).run(&s);
        let semantic = semantic_config(ProtocolId::Pbft, &s);
        let violation = check_outcome_with_semantics(&out.log, vec![], 40, &semantic);
        assert_eq!(
            violation, None,
            "{name}: amnesia churn violated the semantic checker"
        );
        assert!(
            out.metrics.rec_restarts == 3,
            "{name}: expected all 3 scheduled restarts (got {})",
            out.metrics.rec_restarts
        );
    }
}
