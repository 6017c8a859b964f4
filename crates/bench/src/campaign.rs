//! Chaos campaigns over the unified protocol registry.
//!
//! This is the protocol-running half of `bft_sim::campaign`: for each
//! campaign seed it generates a [`ChaosCase`] tailored to each registry
//! entry's tolerance envelope, runs the protocol under that adversarial
//! schedule, and checks safety (via the audit module) and liveness (every
//! request accepted within the virtual-time budget). On a violation it
//! re-runs the protocol under ddmin-shrunk schedules — dropping fault
//! events, then individual Byzantine attacks — until the reproducer is
//! minimal, and reports the replay seed.
//!
//! Three campaign modes share this machinery: the *chaos* mode (crash /
//! partition / network-knob schedules, scoped by
//! [`ChaosTolerance`](bft_protocols::registry::ChaosTolerance)), the
//! *Byzantine* mode (`--byzantine`: a clean network with up to `f`
//! compromised replicas mounting wire-level attacks, scoped by
//! [`ByzantineTolerance`](bft_protocols::registry::ByzantineTolerance)),
//! and the *recovery* mode (`--recovery`: a clean network with up to `f`
//! replicas cycling through repeated crash → recover churn in mixed
//! restart modes — durable and amnesia — scoped by
//! [`RecoveryTolerance`](bft_protocols::registry::RecoveryTolerance)).
//!
//! Everything is deterministic: a campaign over a fixed seed list renders
//! byte-identical reports across repeated runs and across
//! `BFT_BENCH_THREADS` settings (jobs fan out over the same scoped worker
//! pool the experiment harness uses, then re-sort into input order).

use std::sync::atomic::{AtomicUsize, Ordering};

use bft_core::workload::WorkloadConfig;
use bft_protocols::registry::ProtocolId;
use bft_protocols::suite::semantic_config;
use bft_protocols::Scenario;
use bft_sim::campaign::{check_outcome_with_semantics, generate_case, shrink_case, suspects_with};
use bft_sim::campaign::{CampaignViolation, ChaosCase, ChaosProfile, RecoveryBudget};
use bft_sim::runner::RunOutcome;
use bft_sim::{AdversarySpec, AttackKind, FaultPlan, NetworkConfig};

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// The seeds to draw cases from (each seed is one case per protocol).
    pub seeds: Vec<u64>,
    /// Fault budget per protocol (replica counts follow each entry's
    /// formula).
    pub f: usize,
    /// Clients per run.
    pub clients: usize,
    /// Requests per client per run.
    pub requests_per_client: u64,
    /// Protocols to hammer (default: the whole registry).
    pub protocols: Vec<ProtocolId>,
    /// Run the Byzantine mode: clean network, up to `f` compromised
    /// replicas mounting wire-level attacks.
    pub byzantine: bool,
    /// Run the recovery mode: clean network, up to `f` replicas cycling
    /// through repeated crash → recover churn in mixed restart modes
    /// (takes precedence over `byzantine` when both are set).
    pub recovery: bool,
    /// Restrict the Byzantine generator to these attack classes (`None` =
    /// everything the protocol's envelope allows).
    pub attack_filter: Option<Vec<AttackKind>>,
    /// The transaction mix each client drives (default: the uniform
    /// key-value mix; any workload-suite family can be hammered instead).
    pub workload: WorkloadConfig,
}

impl CampaignConfig {
    /// A chaos campaign over seeds `0..seeds` with a small per-case
    /// workload.
    pub fn new(seeds: u64) -> CampaignConfig {
        CampaignConfig {
            seeds: (0..seeds).collect(),
            f: 1,
            clients: 1,
            requests_per_client: 8,
            protocols: ProtocolId::ALL.to_vec(),
            byzantine: false,
            recovery: false,
            attack_filter: None,
            workload: WorkloadConfig::uniform(),
        }
    }

    /// A Byzantine campaign over seeds `0..seeds`.
    pub fn byzantine(seeds: u64) -> CampaignConfig {
        CampaignConfig {
            byzantine: true,
            ..CampaignConfig::new(seeds)
        }
    }

    /// A recovery-churn campaign over seeds `0..seeds`.
    ///
    /// The workload is longer than the chaos default: amnesia restarts
    /// only exercise the checkpoint-reload and state-transfer paths once
    /// the run has crossed a checkpoint interval (16 requests), so an
    /// 8-request case would never hand a rejoining replica a snapshot.
    pub fn recovery(seeds: u64) -> CampaignConfig {
        CampaignConfig {
            recovery: true,
            requests_per_client: 40,
            ..CampaignConfig::new(seeds)
        }
    }

    /// The CI smoke configuration: a fixed handful of seeds, all
    /// protocols, a few seconds of wall-clock.
    pub fn smoke() -> CampaignConfig {
        CampaignConfig::new(5)
    }
}

/// The outcome of one (protocol, seed) case.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// The protocol hammered.
    pub protocol: ProtocolId,
    /// The case (plan + network knobs), reproducible from its seed.
    pub case: ChaosCase,
    /// `None` when the run was clean.
    pub violation: Option<CampaignViolation>,
    /// The ddmin-minimized fault plan, when a violation was found.
    pub minimal_plan: Option<FaultPlan>,
    /// The ddmin-minimized adversary placements, when a violation was
    /// found (empty when the failure reproduces without any adversary).
    pub minimal_adversaries: Option<Vec<AdversarySpec>>,
}

/// A finished campaign: every case result in (protocol, seed) order.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// All case results, protocols in registry order, seeds ascending.
    pub results: Vec<CaseResult>,
}

impl CampaignReport {
    /// The failing cases only.
    pub fn failures(&self) -> Vec<&CaseResult> {
        self.results
            .iter()
            .filter(|r| r.violation.is_some())
            .collect()
    }

    /// Deterministic plain-text rendering (the campaign CLI's output).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut by_protocol: Vec<(ProtocolId, usize, usize)> = Vec::new();
        for r in &self.results {
            match by_protocol.iter_mut().find(|(p, _, _)| *p == r.protocol) {
                Some((_, total, failed)) => {
                    *total += 1;
                    if r.violation.is_some() {
                        *failed += 1;
                    }
                }
                None => by_protocol.push((r.protocol, 1, usize::from(r.violation.is_some()))),
            }
        }
        out.push_str("protocol        cases  violations\n");
        for (p, total, failed) in &by_protocol {
            out.push_str(&format!("{:<15} {:>5}  {:>10}\n", p.name(), total, failed));
        }
        for r in self.failures() {
            let v = r.violation.as_ref().unwrap();
            out.push_str(&format!(
                "\nFAIL {} seed={} — {v}\n  case: {}\n",
                r.protocol.name(),
                r.case.seed,
                r.case.describe()
            ));
            if let Some(min) = &r.minimal_plan {
                out.push_str(&format!(
                    "  minimal plan ({} event(s)): {:?}\n",
                    min.events.len(),
                    min.events
                ));
            }
            if let Some(advs) = &r.minimal_adversaries {
                if !advs.is_empty() {
                    let descs: Vec<String> = advs.iter().map(|a| a.describe()).collect();
                    out.push_str(&format!(
                        "  minimal adversaries ({}): {}\n",
                        advs.len(),
                        descs.join(" ")
                    ));
                }
            }
            out.push_str(&format!(
                "  replay: campaign seed {} on {}\n",
                r.case.seed,
                r.protocol.name()
            ));
        }
        out.push_str(&format!(
            "\n{} case(s), {} violation(s)\n",
            self.results.len(),
            self.failures().len()
        ));
        out
    }
}

/// The chaos envelope for one protocol: the standard profile scoped
/// down to what the protocol claims to tolerate.
pub fn profile_for(id: ProtocolId, f: usize, clients: u64) -> ChaosProfile {
    let n = id.min_n(f);
    let mut p = ChaosProfile::standard(n, f, clients);
    let tol = id.tolerance();
    if !tol.crashes {
        p.crash_victims.clear();
        p.max_victims = 0;
    }
    if !tol.leader_crash {
        p.crash_victims.retain(|v| *v != 0);
    }
    if !tol.partitions {
        p.partitions = false;
        p.isolation = false;
    }
    if !tol.slow_links {
        p.slow_links = false;
    }
    if !tol.reordering {
        p.max_reorder_prob = 0.0;
    }
    if !tol.gst_storm {
        p.gst_storm = false;
    }
    p
}

/// The Byzantine envelope for one protocol: a clean network with the
/// adversary budget scoped to what the protocol's measured envelope
/// tolerates, further narrowed by an optional CLI attack filter.
pub fn byz_profile_for(
    id: ProtocolId,
    f: usize,
    clients: u64,
    attack_filter: Option<&[AttackKind]>,
) -> ChaosProfile {
    let n = id.min_n(f);
    let mut p = ChaosProfile::byzantine(n, f, clients);
    // `BFT_BYZ_UNSCOPED=1` skips the per-protocol envelope so every
    // protocol faces the full attack gallery — the measurement mode that
    // produced the envelopes in the registry (per-attack sweeps under this
    // flag; see EXPERIMENTS.md "Byzantine tolerance envelopes").
    if std::env::var_os("BFT_BYZ_UNSCOPED").is_none() {
        p.adversary = p.adversary.restrict(&id.byzantine_tolerance().kinds());
    }
    if let Some(kinds) = attack_filter {
        p.adversary = p.adversary.restrict(kinds);
    }
    p
}

/// The recovery envelope for one protocol: a clean network with the
/// churn budget scoped to what the protocol's measured envelope tolerates.
pub fn recovery_profile_for(id: ProtocolId, f: usize, clients: u64) -> ChaosProfile {
    let n = id.min_n(f);
    let mut p = ChaosProfile::recovery_churn(n, f, clients);
    // `BFT_REC_UNSCOPED=1` skips the per-protocol envelope so every
    // protocol faces the full churn gallery — the measurement mode that
    // produced the envelopes in the registry (see EXPERIMENTS.md,
    // "Recovery campaign").
    if std::env::var_os("BFT_REC_UNSCOPED").is_some() {
        return p;
    }
    let rec = id.recovery_tolerance();
    if !rec.durable {
        p.recovery = RecoveryBudget::none();
    }
    if !rec.amnesia {
        p.recovery.amnesia = false;
    }
    // Churning the fixed leader of a leader-pinned protocol is the chaos
    // campaign's leader-crash axis, not a recovery finding — spare it
    // here exactly as `profile_for` does.
    if !id.tolerance().leader_crash {
        p.recovery.pool.retain(|v| *v != 0);
    }
    p
}

/// The scenario for one case: the case's fault plan and network knobs on
/// top of the campaign's workload, seeded by the case seed.
pub fn scenario_for(cfg: &CampaignConfig, case: &ChaosCase) -> Scenario {
    let network = NetworkConfig::lan()
        .with_gst(case.gst)
        .with_pre_gst_drop(case.pre_gst_drop)
        .with_duplication(case.dup_prob)
        .with_reordering(case.reorder_prob);
    Scenario::small(cfg.f)
        .with_load(cfg.clients, cfg.requests_per_client)
        .with_seed(case.seed)
        .with_network(network)
        .with_workload(cfg.workload)
        .with_faults(case.plan.clone())
        .with_adversaries(case.adversaries.clone())
}

/// Run one case against an arbitrary runner (the sabotage tests inject
/// deliberately broken protocols here; [`run_case`] passes a registry
/// entry's default runner).
pub fn run_case_with(
    run: impl Fn(&Scenario) -> RunOutcome,
    protocol: ProtocolId,
    cfg: &CampaignConfig,
    profile: &ChaosProfile,
    seed: u64,
) -> CaseResult {
    let case = generate_case(profile, seed);
    let scenario = scenario_for(cfg, &case);
    let expected = scenario.total_requests();
    let out = run(&scenario);
    // Safety and liveness first, then the per-workload semantic checkers
    // (replay faithfulness, lost-write, linearizability, log/counter
    // invariants) — sabotage that keeps digests unanimous is only visible
    // to the semantic layer.
    let semantic = semantic_config(protocol, &scenario);
    let violation = check_outcome_with_semantics(&out.log, case.suspects(), expected, &semantic);
    let minimal = violation.as_ref().map(|_| {
        shrink_case(&case, |plan, advs| {
            let mut s = scenario.clone();
            s.faults = plan.clone();
            s.adversaries = advs.to_vec();
            let out = run(&s);
            check_outcome_with_semantics(&out.log, suspects_with(plan, advs), expected, &semantic)
                .is_some()
        })
    });
    let (minimal_plan, minimal_adversaries) = match minimal {
        Some((plan, advs)) => (Some(plan), Some(advs)),
        None => (None, None),
    };
    CaseResult {
        protocol,
        case,
        violation,
        minimal_plan,
        minimal_adversaries,
    }
}

/// Run one (protocol, seed) case with the protocol's default options.
pub fn run_case(id: ProtocolId, cfg: &CampaignConfig, seed: u64) -> CaseResult {
    let profile = if cfg.recovery {
        recovery_profile_for(id, cfg.f, cfg.clients as u64)
    } else if cfg.byzantine {
        byz_profile_for(id, cfg.f, cfg.clients as u64, cfg.attack_filter.as_deref())
    } else {
        profile_for(id, cfg.f, cfg.clients as u64)
    };
    run_case_with(|s| id.run(s), id, cfg, &profile, seed)
}

/// Run the full campaign on `threads` workers (the `BFT_BENCH_THREADS`
/// convention of [`crate::parallel`]); results come back in (protocol,
/// seed) order whatever the thread count.
pub fn run_campaign(cfg: &CampaignConfig, threads: usize) -> CampaignReport {
    let jobs: Vec<(ProtocolId, u64)> = ProtocolId::ALL
        .into_iter()
        .filter(|id| cfg.protocols.contains(id))
        .flat_map(|id| cfg.seeds.iter().map(move |&s| (id, s)))
        .collect();

    let threads = threads.clamp(1, jobs.len().max(1));
    let results = if threads <= 1 {
        jobs.iter()
            .map(|&(id, seed)| run_case(id, cfg, seed))
            .collect()
    } else {
        let next = AtomicUsize::new(0);
        let mut indexed: Vec<(usize, CaseResult)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    s.spawn(|| {
                        let mut local = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(&(id, seed)) = jobs.get(i) else {
                                break;
                            };
                            local.push((i, run_case(id, cfg, seed)));
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("campaign worker panicked"))
                .collect()
        });
        indexed.sort_by_key(|(i, _)| *i);
        indexed.into_iter().map(|(_, r)| r).collect()
    };
    CampaignReport { results }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tolerance_scoping_shapes_the_profile() {
        let p = profile_for(ProtocolId::Cheap, 1, 1);
        assert!(!p.crash_victims.contains(&0), "cheap leader must be spared");
        let p = profile_for(ProtocolId::Chain, 1, 1);
        assert!(!p.partitions && !p.isolation);
    }

    #[test]
    fn recovery_scoping_shapes_the_profile() {
        let p = recovery_profile_for(ProtocolId::Pbft, 1, 1);
        assert!(p.recovery.enabled() && p.recovery.amnesia);
        let p = recovery_profile_for(ProtocolId::HotStuff, 1, 1);
        assert!(
            p.recovery.enabled() && !p.recovery.amnesia,
            "amnesia restarts are pbft-family only (no on_recover hook elsewhere)"
        );
        let p = recovery_profile_for(ProtocolId::Cheap, 1, 1);
        assert!(
            !p.recovery.pool.contains(&0),
            "cheap's fixed leader must be spared from churn"
        );
    }

    #[test]
    fn single_case_is_deterministic() {
        let cfg = CampaignConfig::new(1);
        let a = run_case(ProtocolId::ALL[0], &cfg, 3);
        let b = run_case(ProtocolId::ALL[0], &cfg, 3);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}
