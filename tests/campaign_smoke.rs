//! The CI smoke chaos campaign.
//!
//! Three gates:
//!
//! 1. the fixed-seed smoke campaign is clean for every registry entry
//!    (safety always, liveness within each protocol's tolerance envelope);
//! 2. its report is byte-identical across repeated runs and thread counts;
//! 3. a deliberately broken protocol (PBFT with its view change disabled —
//!    the test-only sabotage hook) is caught, ddmin-shrunk to a minimal
//!    reproducing fault plan, and reported with its replay seed.

use bft_bench::campaign::{
    profile_for, run_campaign, run_case_with, CampaignConfig, CampaignReport,
};
use bft_protocols::pbft::{PbftOptions, PbftSabotage};
use bft_protocols::registry::{Protocol, ProtocolId};

#[test]
fn smoke_campaign_is_clean() {
    let report = run_campaign(&CampaignConfig::smoke(), 1);
    assert_eq!(
        report.results.len(),
        ProtocolId::ALL.len() * CampaignConfig::smoke().seeds.len()
    );
    assert!(
        report.failures().is_empty(),
        "smoke campaign found violations:\n{}",
        report.render()
    );
}

#[test]
fn smoke_campaign_is_deterministic_across_threads() {
    let cfg = CampaignConfig::smoke();
    let sequential = run_campaign(&cfg, 1).render();
    for threads in [2, 4] {
        assert_eq!(
            sequential,
            run_campaign(&cfg, threads).render(),
            "report differs at {threads} worker threads"
        );
    }
    // and across repeated runs
    assert_eq!(sequential, run_campaign(&cfg, 1).render());
}

/// The Byzantine smoke campaign: every registry entry survives the attack
/// gallery its measured envelope claims (safety always; liveness within
/// the per-protocol [`ByzantineTolerance`] scope), and the report is
/// byte-identical whatever the worker-thread count.
///
/// [`ByzantineTolerance`]: bft_protocols::registry::ByzantineTolerance
#[test]
fn byzantine_smoke_campaign_is_clean_and_deterministic() {
    let cfg = CampaignConfig::byzantine(5);
    let report = run_campaign(&cfg, 1);
    assert_eq!(
        report.results.len(),
        ProtocolId::ALL.len() * cfg.seeds.len()
    );
    assert!(
        report.failures().is_empty(),
        "byzantine smoke campaign found violations:\n{}",
        report.render()
    );
    let sequential = report.render();
    for threads in [2, 4] {
        assert_eq!(
            sequential,
            run_campaign(&cfg, threads).render(),
            "byzantine report differs at {threads} worker threads"
        );
    }
}

#[test]
fn sabotaged_pbft_is_caught_and_shrunk() {
    let cfg = CampaignConfig::smoke();
    let profile = profile_for(ProtocolId::Pbft, cfg.f, cfg.clients as u64);
    let broken = |s: &bft_protocols::Scenario| {
        Protocol::Pbft(PbftOptions {
            sabotage: PbftSabotage::DisableViewChange,
            ..Default::default()
        })
        .run(s)
    };

    // Scan for a seed where the sabotage bites *because of the fault
    // schedule* (a GST drop storm alone can also strand view-change-less
    // PBFT, but then there is no plan to shrink).
    let mut caught = None;
    for seed in 0..50 {
        let r = run_case_with(broken, ProtocolId::Pbft, &cfg, &profile, seed);
        if r.violation.is_some()
            && r.minimal_plan
                .as_ref()
                .is_some_and(|p| !p.events.is_empty())
        {
            // The same case must be clean for stock PBFT: the campaign is
            // detecting the planted bug, not an out-of-envelope schedule.
            let stock = run_case_with(
                |s| ProtocolId::Pbft.run(s),
                ProtocolId::Pbft,
                &cfg,
                &profile,
                seed,
            );
            assert!(
                stock.violation.is_none(),
                "seed {seed} fails even without sabotage: {:?}",
                stock.violation
            );
            caught = Some(r);
            break;
        }
    }
    let r = caught.expect("no seed within 0..50 exercised the sabotaged view-change path");

    // ddmin shrank the schedule to a minimal reproducing plan: disabling
    // the view change only bites once the schedule makes a view change
    // necessary, so the minimal plan is the crash (or crash + recover) of
    // the leader and nothing else.
    let min = r
        .minimal_plan
        .clone()
        .expect("violation must come with a minimized plan");
    assert!(
        !min.events.is_empty() && min.events.len() <= 2,
        "expected a 1-2 event minimal plan, got {:?}",
        min.events
    );

    // ...and the report names the replay seed.
    let report = CampaignReport { results: vec![r] };
    let rendered = report.render();
    assert!(
        rendered.contains("replay: campaign seed"),
        "report must print the replay seed:\n{rendered}"
    );
}

/// The checker mutation test: a sabotaged PBFT that silently skips
/// executing one request — while fabricating a plausible reply and keeping
/// replica digests unanimous — passes every safety/liveness gate and is
/// caught only by the semantic layer (lost-write / replay faithfulness /
/// log invariants) on the append-only log workload. ddmin then confirms
/// the minimal reproducer needs *no* fault events at all: the planted bug
/// alone is the failure.
#[test]
fn execution_drop_is_caught_by_log_checker() {
    let cfg = CampaignConfig {
        workload: untrusted_txn::prelude::WorkloadConfig::log_append(),
        ..CampaignConfig::smoke()
    };
    let profile = profile_for(ProtocolId::Pbft, cfg.f, cfg.clients as u64);
    let broken = |s: &bft_protocols::Scenario| {
        Protocol::Pbft(PbftOptions {
            sabotage: PbftSabotage::DropExecution(2),
            ..Default::default()
        })
        .run(s)
    };

    let mut caught = None;
    for seed in 0..50 {
        let r = run_case_with(broken, ProtocolId::Pbft, &cfg, &profile, seed);
        let semantic = matches!(
            r.violation,
            Some(bft_sim::campaign::CampaignViolation::Semantic(_))
        );
        if semantic {
            // Stock PBFT must be clean on the same case: the campaign is
            // detecting the planted bug, not an out-of-envelope schedule.
            let stock = run_case_with(
                |s| ProtocolId::Pbft.run(s),
                ProtocolId::Pbft,
                &cfg,
                &profile,
                seed,
            );
            assert!(
                stock.violation.is_none(),
                "seed {seed} fails even without sabotage: {:?}",
                stock.violation
            );
            caught = Some(r);
            break;
        }
    }
    let r = caught.expect("no seed within 0..50 tripped the semantic checker on the dropped write");

    // The sabotage fires unconditionally, so ddmin strips every fault
    // event: the minimal reproducing schedule is empty.
    let min = r
        .minimal_plan
        .clone()
        .expect("violation must come with a minimized plan");
    assert!(
        min.events.is_empty(),
        "expected an empty minimal plan (the bug needs no faults), got {:?}",
        min.events
    );
}
