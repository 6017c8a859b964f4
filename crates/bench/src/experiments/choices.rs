//! Experiments DC1–DC14: one ablation per design choice, pairing the input
//! protocol of the transformation with its output and measuring the claimed
//! trade-off.

use bft_core::catalogue;
use bft_core::choices as dc;
use bft_core::workload::WorkloadConfig;
use bft_crypto::CryptoCostModel;
use bft_protocols::pbft::{Behavior, PbftAuth, PbftOptions};
use bft_protocols::poe::PoeBehavior;
use bft_protocols::prime::PrimeBehavior;

use bft_protocols::{fair, Protocol, ProtocolId, Scenario};
use bft_sim::{FaultPlan, NodeId, Observation, SimDuration, SimTime};
use bft_types::{QuorumRules, ReplicaId};

use crate::table::{fmt, ExperimentResult};

use super::util::*;

/// **DC1 — linearization**: quadratic phases become pairs of linear phases
/// with threshold certificates; messages drop, phases rise.
pub fn dc1_linearization(quick: bool) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "exp_dc1",
        "DC1: linearization",
        "splitting each all-to-all phase into two collector rounds drops \
         message complexity from O(n²) to O(n) at the cost of extra phases \
         (latency at small n)",
        vec!["n", "PBFT msgs/req", "SBFT msgs/req", "PBFT ms", "SBFT ms"],
    );
    // the transformation itself, checked in the design space
    let linearized = dc::linearization(&catalogue::pbft_signed()).expect("applies");
    result.note(format!(
        "design space: PBFT {} phases / {} msgs at n=13  →  {} {} phases / {} msgs",
        catalogue::pbft().good_case_phases(),
        catalogue::pbft().good_case_messages(13),
        linearized.name,
        linearized.good_case_phases(),
        linearized.good_case_messages(13),
    ));
    let reqs = load(quick, 20);
    let mut crossover_seen = false;
    for f in [1usize, 2, 4] {
        let n = 3 * f + 1;
        let s = Scenario::small(f).with_load(1, reqs);
        let pb = ProtocolId::Pbft.run(&s);
        audit(&pb, &[]);
        let sb = ProtocolId::Sbft.run(&s);
        audit(&sb, &[]);
        if msgs_per_req(&sb) < msgs_per_req(&pb) {
            crossover_seen = true;
        }
        result.row(
            format!("f={f}"),
            vec![
                n.to_string(),
                fmt::f1(msgs_per_req(&pb)),
                fmt::f1(msgs_per_req(&sb)),
                fmt::ms(mean_latency_ns(&pb)),
                fmt::ms(mean_latency_ns(&sb)),
            ],
        );
    }
    result.check(
        crossover_seen,
        "the linear protocol wins on messages as n grows",
    );
    result
}

/// **DC2 — phase reduction through redundancy**: 3f+1/3 phases → 5f+1/2
/// phases.
pub fn dc2_phase_reduction(quick: bool) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "exp_dc2",
        "DC2: phase reduction through redundancy",
        "FaB's 2f extra replicas buy one ordering phase: lower latency, more \
         replicas (and messages)",
        vec!["n", "phases", "latency ms", "msgs/req"],
    );
    let fast = dc::phase_reduction(&catalogue::pbft_signed()).expect("applies");
    result.note(format!(
        "design space: {} → {}",
        catalogue::pbft().summary(),
        fast.summary()
    ));
    let reqs = load(quick, 25);
    let s = Scenario::small(1).with_load(1, reqs);
    let pb = ProtocolId::Pbft.run(&s);
    audit(&pb, &[]);
    let fb = ProtocolId::Fab.run(&s);
    audit(&fb, &[]);
    result.row(
        "PBFT (3f+1)",
        vec![
            "4".into(),
            "3".into(),
            fmt::ms(mean_latency_ns(&pb)),
            fmt::f1(msgs_per_req(&pb)),
        ],
    );
    result.row(
        "FaB (5f+1)",
        vec![
            "6".into(),
            "2".into(),
            fmt::ms(mean_latency_ns(&fb)),
            fmt::f1(msgs_per_req(&fb)),
        ],
    );
    result.check(
        mean_latency_ns(&fb) < mean_latency_ns(&pb),
        "FaB is faster in the good case",
    );
    result.check(
        msgs_per_req(&fb) > msgs_per_req(&pb),
        "the price: more replicas and a bigger quadratic round",
    );
    result
}

/// **DC3 — leader rotation**: the view-change stage disappears; ordering
/// grows; leader faults cost one skipped view instead of a view-change
/// protocol run.
pub fn dc3_rotation(quick: bool) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "exp_dc3",
        "DC3: leader rotation",
        "rotating the leader eliminates the view-change stage at the cost of \
         a longer ordering pipeline; repeated leader faults hurt the stable \
         leader more",
        vec!["fault-free ms", "crash stall ms", "views used"],
    );
    let rotated = dc::leader_rotation(&dc::linearization(&catalogue::pbft_signed()).unwrap())
        .expect("applies");
    result.note(format!(
        "design space: linearized PBFT + rotation = {} phases, no view-change stage \
         (HotStuff has {})",
        rotated.good_case_phases(),
        catalogue::hotstuff().good_case_phases()
    ));
    let reqs = load(quick, 25);
    let free = Scenario::small(1).with_load(1, reqs);
    let crash = free
        .clone()
        .with_faults(FaultPlan::none().crash(NodeId::replica(0), SimTime(4_000_000)));
    let stall = |out: &bft_sim::runner::RunOutcome| {
        let mut times: Vec<u64> = out
            .log
            .entries
            .iter()
            .filter(|e| matches!(e.obs, Observation::ClientAccept { .. }))
            .map(|e| e.at.0)
            .collect();
        times.sort_unstable();
        times.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0) as f64
    };
    let pb_free = ProtocolId::Pbft.run(&free);
    let pb_crash = ProtocolId::Pbft.run(&crash);
    audit(&pb_crash, &[0]);
    let hs_free = ProtocolId::HotStuff.run(&free);
    let hs_crash = ProtocolId::HotStuff.run(&crash);
    audit(&hs_crash, &[0]);
    result.row(
        "PBFT (stable)",
        vec![
            fmt::ms(mean_latency_ns(&pb_free)),
            fmt::ms(stall(&pb_crash)),
            pb_crash.log.max_view().0.to_string(),
        ],
    );
    result.row(
        "HotStuff (rotating)",
        vec![
            fmt::ms(mean_latency_ns(&hs_free)),
            fmt::ms(stall(&hs_crash)),
            hs_crash.log.max_view().0.to_string(),
        ],
    );
    result.check(
        mean_latency_ns(&pb_free) < mean_latency_ns(&hs_free),
        "rotation's longer pipeline costs good-case latency",
    );
    result.check(
        hs_crash.log.max_view().0 > pb_crash.log.max_view().0,
        "rotation treats leader replacement as routine view progression",
    );
    result.note("the load-balance effect is measured at n = 13 by exp_q2");
    result
}

/// **DC4 — non-responsive rotation**: no extra phase, but a Δ-wait per
/// rotation.
pub fn dc4_nonresponsive(quick: bool) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "exp_dc4",
        "DC4: non-responsive leader rotation",
        "Tendermint rotates without HotStuff's extra phases by having the \
         new proposer wait Δ; latency is then governed by Δ, not δ — unless \
         the informed-leader optimization applies",
        vec!["latency ms", "Δ-waits", "informed skips"],
    );
    let tm_point = dc::non_responsive_rotation(&catalogue::pbft_signed()).expect("applies");
    result.note(format!(
        "design space: rotation without added phases costs responsiveness: {}",
        tm_point.summary()
    ));
    let reqs = load(quick, 15);
    let s = Scenario::small(1).with_load(1, reqs);
    let hs = ProtocolId::HotStuff.run(&s);
    audit(&hs, &[]);
    let tm = ProtocolId::Tendermint.run(&s);
    audit(&tm, &[]);
    let tmi = ProtocolId::TendermintInformed.run(&s);
    audit(&tmi, &[]);
    for (name, out) in [
        ("HotStuff (responsive)", &hs),
        ("Tendermint (Δ-wait)", &tm),
        ("Tendermint + informed", &tmi),
    ] {
        result.row(
            name,
            vec![
                fmt::ms(mean_latency_ns(out)),
                out.log.marker_count("delta-wait").to_string(),
                out.log.marker_count("informed-skip-delta").to_string(),
            ],
        );
    }
    result.check(
        mean_latency_ns(&tm) > 3.0 * mean_latency_ns(&tmi),
        "the Δ-wait dominates latency; the informed leader skips it",
    );
    result
}

/// **DC5 — optimistic replica reduction**: 2f+1 actives, f passives.
pub fn dc5_replica_reduction(quick: bool) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "exp_dc5",
        "DC5: optimistic replica reduction",
        "CheapBFT runs consensus among 2f+1 active replicas; f passives idle \
         until a fault forces the transition to the pessimistic fallback",
        vec!["msgs/req", "passive msgs", "transitions", "accepted"],
    );
    result.note(format!(
        "design space: {}",
        dc::optimistic_replica_reduction(&catalogue::pbft())
            .unwrap()
            .summary()
    ));
    let reqs = load(quick, 40).max(12);
    let free = Scenario::small(1).with_load(1, reqs);
    let crash = free
        .clone()
        .with_faults(FaultPlan::none().crash(NodeId::replica(1), SimTime(1_500_000)));
    let cb_free = ProtocolId::Cheap.run(&free);
    audit(&cb_free, &[]);
    let cb_crash = ProtocolId::Cheap.run(&crash);
    audit(&cb_crash, &[1]);
    let pb_free = ProtocolId::Pbft.run(&free);
    audit(&pb_free, &[]);
    for (name, out) in [
        ("CheapBFT fault-free", &cb_free),
        ("CheapBFT + active crash", &cb_crash),
    ] {
        result.row(
            name,
            vec![
                fmt::f1(msgs_per_req(out)),
                out.metrics.node(NodeId::replica(3)).msgs_sent.to_string(),
                out.log.marker_count("transition-to-fallback").to_string(),
                accepted(out).to_string(),
            ],
        );
    }
    result.row(
        "PBFT reference",
        vec![
            fmt::f1(msgs_per_req(&pb_free)),
            "—".into(),
            "—".into(),
            accepted(&pb_free).to_string(),
        ],
    );
    result.check(
        msgs_per_req(&cb_free) < msgs_per_req(&pb_free),
        "the active subset moves fewer messages than full PBFT",
    );
    result.check(
        cb_crash.log.marker_count("transition-to-fallback") >= 1,
        "an active fault triggers the transition protocol",
    );
    result
}

/// **DC6 — optimistic phase reduction**: SBFT's fast path skips the second
/// agreement round when all n sign before τ3.
pub fn dc6_optimistic_phase(quick: bool) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "exp_dc6",
        "DC6: optimistic phase reduction",
        "when all 3f+1 replicas sign in time, SBFT skips the second round; a \
         single crashed backup forces the slow path (τ3 + two more phases)",
        vec!["fast paths", "slow paths", "latency ms"],
    );
    let reqs = load(quick, 20);
    let free = Scenario::small(1).with_load(1, reqs);
    let crash = free
        .clone()
        .with_faults(FaultPlan::none().crash(NodeId::replica(2), SimTime::ZERO));
    let fast = ProtocolId::Sbft.run(&free);
    audit(&fast, &[]);
    let slow = ProtocolId::Sbft.run(&crash);
    audit(&slow, &[2]);
    for (name, out) in [("fault-free", &fast), ("one backup crashed", &slow)] {
        result.row(
            name,
            vec![
                out.log.marker_count("fast-path").to_string(),
                out.log.marker_count("slow-path").to_string(),
                fmt::ms(mean_latency_ns(out)),
            ],
        );
    }
    result.check(
        fast.log.marker_count("slow-path") == 0 && slow.log.marker_count("fast-path") == 0,
        "the path taken flips exactly with the optimistic assumption",
    );
    result.check(
        mean_latency_ns(&slow) > mean_latency_ns(&fast),
        "the slow path costs the τ3 wait plus two extra phases",
    );
    result
}

/// **DC7 — speculative phase reduction**: PoE certifies with 2f+1 and
/// executes speculatively; a withheld certificate causes rollbacks.
pub fn dc7_speculative_phase(quick: bool) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "exp_dc7",
        "DC7: speculative phase reduction",
        "PoE's 2f+1 certificate beats SBFT's wait-for-all on latency; when \
         fewer than f+1 correct replicas see a certificate, speculative \
         executions roll back during view change",
        vec!["latency ms", "rollbacks", "accepted"],
    );
    let reqs = load(quick, 20);
    let free = Scenario::small(1).with_load(1, reqs);
    let poe_free = ProtocolId::Poe.run(&free);
    audit(&poe_free, &[]);
    let sbft_free = ProtocolId::Sbft.run(&free);
    audit(&sbft_free, &[]);
    // the rollback scenario: n = 7, certificate withheld from all but one
    // replica, that replica briefly partitioned during the view change
    let peers: Vec<NodeId> = [0u32, 2, 3, 4, 5, 6]
        .iter()
        .map(|i| NodeId::replica(*i))
        .collect();
    let attack = Scenario::small(2)
        .with_load(2, load(quick, 10))
        .with_faults(FaultPlan::none().isolate(
            NodeId::replica(1),
            peers,
            SimTime(1_000_000),
            SimTime(120_000_000),
        ));
    let attacked = Protocol::Poe(vec![(
        ReplicaId(0),
        PoeBehavior::WithholdCertify {
            seq: 3,
            sole_recipient: ReplicaId(1),
        },
    )])
    .run(&attack);
    audit(&attacked, &[0]);
    let rollbacks = attacked
        .log
        .count(|e| matches!(e.obs, Observation::Rollback { .. }));
    result.row(
        "PoE fault-free",
        vec![
            fmt::ms(mean_latency_ns(&poe_free)),
            "0".into(),
            accepted(&poe_free).to_string(),
        ],
    );
    result.row(
        "SBFT fault-free (reference)",
        vec![
            fmt::ms(mean_latency_ns(&sbft_free)),
            "—".into(),
            accepted(&sbft_free).to_string(),
        ],
    );
    result.row(
        "PoE + withheld certificate",
        vec![
            fmt::ms(mean_latency_ns(&attacked)),
            rollbacks.to_string(),
            accepted(&attacked).to_string(),
        ],
    );
    result.check(
        mean_latency_ns(&poe_free) <= mean_latency_ns(&sbft_free),
        "the 2f+1 certificate is at least as fast as wait-for-all",
    );
    result.check(
        accepted(&attacked) as u64 == attack.total_requests(),
        "liveness survives the attack",
    );
    result.note(format!("rollbacks observed under attack: {rollbacks}"));
    result
}

/// **DC8 — speculative execution**: Zyzzyva commits in one phase when all
/// replicas answer; one crash triggers the latency cliff.
pub fn dc8_speculative_exec(quick: bool) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "exp_dc8",
        "DC8: speculative execution",
        "Zyzzyva's single-phase fast path beats PBFT by ~2 phases; with one \
         crashed backup every request takes the τ1 wait + commit-certificate \
         detour, and PBFT wins",
        vec!["fault-free ms", "crash ms", "fast-path rate"],
    );
    let spec = dc::speculative_execution(&catalogue::pbft()).expect("applies");
    result.note(format!("design space: {}", spec.summary()));
    let reqs = load(quick, 20);
    let free = Scenario::small(1).with_load(1, reqs);
    let crash = free
        .clone()
        .with_faults(FaultPlan::none().crash(NodeId::replica(2), SimTime::ZERO));
    let z_free = ProtocolId::Zyzzyva.run(&free);
    audit(&z_free, &[]);
    let z_crash = ProtocolId::Zyzzyva.run(&crash);
    audit(&z_crash, &[2]);
    let p_free = ProtocolId::Pbft.run(&free);
    let p_crash = ProtocolId::Pbft.run(&crash);
    audit(&p_crash, &[2]);
    let fast_rate = |out: &bft_sim::runner::RunOutcome| {
        let fast = out.log.count(|e| {
            matches!(
                e.obs,
                Observation::ClientAccept {
                    fast_path: true,
                    ..
                }
            )
        });
        fast as f64 / accepted(out).max(1) as f64
    };
    result.row(
        "Zyzzyva",
        vec![
            fmt::ms(mean_latency_ns(&z_free)),
            fmt::ms(mean_latency_ns(&z_crash)),
            fmt::f2(fast_rate(&z_free)),
        ],
    );
    result.row(
        "PBFT",
        vec![
            fmt::ms(mean_latency_ns(&p_free)),
            fmt::ms(mean_latency_ns(&p_crash)),
            "—".into(),
        ],
    );
    result.check(
        mean_latency_ns(&z_free) < mean_latency_ns(&p_free),
        "speculation wins when all replicas are correct",
    );
    result.check(
        mean_latency_ns(&z_crash) > mean_latency_ns(&p_crash),
        "one crash flips the ranking (the latency cliff)",
    );
    result
}

/// **DC9 — optimistic conflict-free**: Q/U needs no ordering at all until
/// requests contend.
pub fn dc9_conflict_free(quick: bool) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "exp_dc9",
        "DC9: optimistic conflict-free",
        "with disjoint data, Q/U clients complete in one round trip with \
         zero replica-to-replica messages; contention costs retries and \
         throughput",
        vec!["req/s", "retries", "latency ms"],
    );
    result.note(format!(
        "design space: {}",
        dc::optimistic_conflict_free(&catalogue::pbft_signed())
            .unwrap()
            .summary()
    ));
    let reqs = load(quick, 15);
    let mut last_tp = f64::INFINITY;
    let mut tp_declines = true;
    let mut retries_grow = true;
    let mut last_retries = 0usize;
    for hot in [0.0f64, 0.3, 0.7] {
        let s = Scenario::small(1)
            .with_load(4, reqs)
            .with_workload(WorkloadConfig::contended(hot));
        let out = ProtocolId::Qu.run(&s);
        let retries = out.log.marker_count("qu-retry");
        let tp = throughput(&out);
        if hot > 0.0 {
            tp_declines &= tp <= last_tp;
            retries_grow &= retries >= last_retries;
        }
        last_tp = tp;
        last_retries = retries;
        result.row(
            format!("hot fraction {hot:.1}"),
            vec![
                fmt::f1(tp),
                retries.to_string(),
                fmt::ms(mean_latency_ns(&out)),
            ],
        );
    }
    result.check(tp_declines, "throughput falls as contention rises");
    result.check(retries_grow, "retries rise with contention");
    result.note("replicas never exchange messages — the defining property of DC9");
    result
}

/// **DC10 — resilience**: Zyzzyva5's 2f extra replicas keep the fast path
/// alive under f faults.
pub fn dc10_resilience(quick: bool) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "exp_dc10",
        "DC10: resilience (+2f replicas)",
        "Zyzzyva needs all 3f+1 replies for its fast path — one crash kills \
         it; Zyzzyva5 (5f+1, fast quorum 4f+1) keeps the fast path under f \
         crashes",
        vec!["n", "fast-path rate", "latency ms"],
    );
    result.note(format!(
        "design space: {} → {}",
        catalogue::zyzzyva().summary(),
        dc::resilience(&catalogue::zyzzyva()).unwrap().summary()
    ));
    let reqs = load(quick, 20);
    let fast_rate = |out: &bft_sim::runner::RunOutcome| {
        let fast = out.log.count(|e| {
            matches!(
                e.obs,
                Observation::ClientAccept {
                    fast_path: true,
                    ..
                }
            )
        });
        fast as f64 / accepted(out).max(1) as f64
    };
    // one crashed backup in both deployments
    let crash3 = Scenario::small(1)
        .with_load(1, reqs)
        .with_faults(FaultPlan::none().crash(NodeId::replica(2), SimTime::ZERO));
    let z = ProtocolId::Zyzzyva.run(&crash3);
    audit(&z, &[2]);
    let crash5 = Scenario::small(1)
        .with_load(1, reqs)
        .with_faults(FaultPlan::none().crash(NodeId::replica(3), SimTime::ZERO));
    let z5 = ProtocolId::Zyzzyva5.run(&crash5);
    audit(&z5, &[3]);
    result.row(
        "Zyzzyva + 1 crash",
        vec![
            "4".into(),
            fmt::f2(fast_rate(&z)),
            fmt::ms(mean_latency_ns(&z)),
        ],
    );
    result.row(
        "Zyzzyva5 + 1 crash",
        vec![
            "6".into(),
            fmt::f2(fast_rate(&z5)),
            fmt::ms(mean_latency_ns(&z5)),
        ],
    );
    result.check(
        fast_rate(&z) == 0.0,
        "classic Zyzzyva's fast path dies with one crash",
    );
    result.check(
        fast_rate(&z5) > 0.95,
        "Zyzzyva5's fast path survives f crashes",
    );
    result.check(
        mean_latency_ns(&z5) < mean_latency_ns(&z) / 2.0,
        "staying on the fast path is the whole point",
    );
    result
}

/// **DC11 — authentication swap**: MACs → signatures → threshold.
pub fn dc11_authentication(quick: bool) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "exp_dc11",
        "DC11: authentication swap",
        "signatures add non-repudiation (no view-change acks) but cost CPU; \
         threshold signatures shrink quorum certificates to constant size",
        vec!["latency ms", "CPU ms/replica", "vc-acks"],
    );
    let signed = dc::authentication(&catalogue::pbft()).expect("applies");
    result.note(format!("design space: PBFT → {}", signed.summary()));
    let reqs = load(quick, 20);
    // force view changes so the MAC-mode ack traffic shows up
    let s = Scenario::small(1)
        .with_load(1, reqs)
        .with_cost_model(CryptoCostModel::realistic())
        .with_faults(FaultPlan::none().crash(NodeId::replica(0), SimTime(4_000_000)));
    let mac = Protocol::Pbft(PbftOptions {
        auth: PbftAuth::Mac,
        ..Default::default()
    })
    .run(&s);
    audit(&mac, &[0]);
    let sig = Protocol::Pbft(PbftOptions {
        auth: PbftAuth::Signature,
        ..Default::default()
    })
    .run(&s);
    audit(&sig, &[0]);
    // count ack messages by wire bytes is fiddly; the MAC run's extra
    // messages during view change are the acks — report max view instead
    result.row(
        "PBFT + MACs",
        vec![
            fmt::ms(mean_latency_ns(&mac)),
            fmt::ms(replica_cpu_ns(&mac, 4) / 4.0),
            "required".into(),
        ],
    );
    result.row(
        "PBFT + signatures",
        vec![
            fmt::ms(mean_latency_ns(&sig)),
            fmt::ms(replica_cpu_ns(&sig, 4) / 4.0),
            "none".into(),
        ],
    );
    result.check(
        replica_cpu_ns(&sig, 4) > replica_cpu_ns(&mac, 4),
        "signatures cost CPU",
    );
    result.check(
        accepted(&mac) as u64 == s.total_requests() && accepted(&sig) as u64 == s.total_requests(),
        "both modes survive a view change (MAC mode via view-change acks)",
    );
    let k = QuorumRules::classic(1).quorum();
    result.note(format!(
        "certificate sizes: {} signatures = {} B vs one threshold signature = {} B",
        k,
        k * 72,
        bft_crypto::ThresholdSig::WIRE_SIZE
    ));
    result
}

/// **DC12 — robust**: preordering + leader monitoring bound the delay
/// attack.
pub fn dc12_robust(quick: bool) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "exp_dc12",
        "DC12: robustness (preordering)",
        "a leader delaying proposals just below the view-change timeout \
         throttles PBFT to ~1/delay; Prime's preorder monitor detects the \
         underperformance and swaps the leader",
        vec!["PBFT req/s", "Prime req/s", "Prime detections"],
    );
    result.note(format!(
        "design space: {}",
        dc::robust(&catalogue::pbft_signed()).unwrap().summary()
    ));
    let reqs = load(quick, 20);
    let s = Scenario::small(1).with_load(1, reqs);
    let mut prime_dominates = true;
    for delay_ms in [25u64, 35] {
        let d = SimDuration::from_millis(delay_ms);
        let pb = Protocol::Pbft(PbftOptions {
            behaviors: vec![(ReplicaId(0), Behavior::DelayLeader(d))],
            ..Default::default()
        })
        .run(&s);
        let pr = Protocol::Prime(vec![(ReplicaId(0), PrimeBehavior::DelayLeader(d))]).run(&s);
        audit(&pr, &[0]);
        prime_dominates &= throughput(&pr) > 2.0 * throughput(&pb);
        result.row(
            format!("delay {delay_ms} ms"),
            vec![
                fmt::f1(throughput(&pb)),
                fmt::f1(throughput(&pr)),
                pr.log.marker_count("leader-underperforming").to_string(),
            ],
        );
    }
    result.check(
        prime_dominates,
        "Prime's throughput under attack dwarfs PBFT's",
    );
    result
}

/// **DC13 — fair**: γ-fair preordering and its replica bound.
pub fn dc13_fair(quick: bool) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "exp_dc13",
        "DC13: order-fair preordering",
        "fair ordering requires n > 4f/(2γ−1) replicas; the derived merge \
         order resists a front-running leader",
        vec!["value"],
    );
    // the replica bound, straight from the formula
    for (gamma, label) in [(1.0f64, "γ=1.00"), (0.75, "γ=0.75"), (0.6, "γ=0.60")] {
        let n = QuorumRules::fairness_min_n(1, gamma).unwrap();
        result.row(format!("min n at f=1, {label}"), vec![n.to_string()]);
    }
    result.check(
        QuorumRules::fairness_min_n(1, 1.0).unwrap() == 5,
        "γ=1 needs 4f+1 replicas (paper: 'at least 4f+1')",
    );
    // the behavioural half: displacement vs the front-runner
    let reqs = load(quick, 15);
    let s = Scenario::small(1)
        .with_load(8, reqs)
        .with_batch(4)
        .with_workload(WorkloadConfig::uniform().with_work(300));
    let fr = Protocol::Pbft(PbftOptions {
        behaviors: vec![(ReplicaId(0), Behavior::Favor(bft_types::ClientId(3)))],
        ..Default::default()
    })
    .run(&s);
    audit(&fr, &[0]);
    let fair_out = ProtocolId::Fair.run(&s);
    audit(&fair_out, &[]);
    let d_fr = fair::mean_displacement(&fr, NodeId::replica(1));
    let d_fair = fair::mean_displacement(&fair_out, NodeId::replica(1));
    result.row("PBFT+front-runner displacement", vec![fmt::f2(d_fr)]);
    result.row("Fair protocol displacement", vec![fmt::f2(d_fair)]);
    result.check(
        d_fair < d_fr,
        "the derived merge order resists front-running",
    );
    result
}

/// **DC14 — tree-based load balancer**: linear phases become h tree hops
/// with uniform load.
pub fn dc14_tree(quick: bool) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "exp_dc14",
        "DC14: tree-based load balancing",
        "the tree bounds every replica's traffic by its fan-out (uniform \
         load) at the cost of h sequential hops; an internal-node fault \
         forces reconfiguration",
        vec!["root msgs", "imbalance", "latency ms", "reconfigs"],
    );
    result.note(format!(
        "design space: {}",
        dc::tree_load_balancer(&catalogue::hotstuff(), 2)
            .unwrap()
            .summary()
    ));
    let reqs = load(quick, 15);
    let s = Scenario::small(4).with_load(1, reqs); // n = 13
    let sb = ProtocolId::Sbft.run(&s);
    audit(&sb, &[]);
    let rows: Vec<(&str, bft_sim::runner::RunOutcome, Vec<u32>)> = vec![
        ("SBFT (star reference)", sb, vec![]),
        ("Kauri fan-out 2", ProtocolId::Kauri.run(&s), vec![]),
        (
            "Kauri fan-out 3",
            Protocol::Kauri { fanout: 3 }.run(&s),
            vec![],
        ),
        (
            "Kauri, internal crash",
            ProtocolId::Kauri.run(
                &Scenario::small(4)
                    .with_load(1, reqs)
                    .with_faults(FaultPlan::none().crash(NodeId::replica(1), SimTime(2_000_000))),
            ),
            vec![1],
        ),
    ];
    let mut stats: Vec<(f64, f64)> = Vec::new();
    for (name, out, faulty) in &rows {
        audit(out, faulty);
        let root = out.metrics.node(NodeId::replica(0));
        stats.push((
            out.metrics.load_imbalance(),
            (root.msgs_sent + root.msgs_received) as f64,
        ));
        result.row(
            *name,
            vec![
                (root.msgs_sent + root.msgs_received).to_string(),
                fmt::f2(out.metrics.load_imbalance()),
                fmt::ms(mean_latency_ns(out)),
                out.log.marker_count("tree-reconfiguration").to_string(),
            ],
        );
    }
    result.check(
        stats[1].0 < stats[0].0,
        "the tree beats the star on load balance",
    );
    result.check(
        stats[1].1 < stats[0].1 / 2.0,
        "the root's traffic shrinks dramatically",
    );
    result.check(
        rows[3].1.log.marker_count("tree-reconfiguration") > 0,
        "an internal-node fault forces reconfiguration (assumption a3)",
    );
    result
}
