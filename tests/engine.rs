//! Engine-API tests: the sim engine's byte-identity guarantee across the
//! Context/engine refactor, the default-engine contract, and the threaded
//! engine's cross-protocol semantic smoke matrix.

use untrusted_txn::prelude::*;
use untrusted_txn::protocols::suite::{check_run, workload_suite};
use untrusted_txn::sim::SimDuration;

/// Serialize a run exactly the way the bench/report paths do (log JSON,
/// NUL, metrics JSON) and hash it, so any byte-level drift in either
/// stream is caught.
fn run_digest(id: ProtocolId) -> String {
    let scenario = Scenario::small(1).with_load(2, 10);
    let out = id.run(&scenario);
    let log = serde_json::to_string(&out.log).expect("log serializes");
    let metrics = serde_json::to_string(&out.metrics).expect("metrics serialize");
    let mut buf = Vec::with_capacity(log.len() + 1 + metrics.len());
    buf.extend_from_slice(log.as_bytes());
    buf.push(0);
    buf.extend_from_slice(metrics.as_bytes());
    untrusted_txn::crypto::sha256(&buf)
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

/// Golden digests captured on the pre-refactor tree (commit `014daa2`,
/// before the Context/engine split existed). The zero-knob sim path must
/// keep producing these exact bytes: same RNG draw order, same event
/// interleaving, same serialized log and metrics.
const GOLDEN: [(&str, &str); 17] = [
    (
        "pbft",
        "9f8d4d90aff314c120ecffe4439f49d0d849968fce88f1c36401d17dad99e5d5",
    ),
    (
        "pbft-ro",
        "5c86128bdf7d4e7d3e32feafbf3d4ea462cc0219b7d0237127fe27e906d60ab6",
    ),
    (
        "zyzzyva",
        "41c569602a77d70c0d98537978ce31b1ef8e50ea8b396dafc60545acfdfb2de4",
    ),
    (
        "zyzzyva5",
        "66f976bbb5a80c08f13981173e090575676a03fa10dcd98828eccf704b21814d",
    ),
    (
        "sbft",
        "6f82bd9289d2d20564963cc4f09520e5e13bda2605958eaf9213b39f4d505c4c",
    ),
    (
        "hotstuff",
        "954240626d1c1da144fd3e4986a342251f87e8b5bd9b54adcec8bd62dd10d4ef",
    ),
    (
        "tendermint",
        "d998d22e08e544ed30fae3bc026b96b683f8920230436e5c8b3e687525e86031",
    ),
    (
        "tendermint-il",
        "a01ff054cc7257b04df9753625882c20e59fa6bb8fa887a8b67ecb2e97092f98",
    ),
    (
        "poe",
        "77e74487d46a44f129a8fa3d8c37b925265df21e1c6f38e259ba77c43b621be5",
    ),
    (
        "cheapbft",
        "6750d91181aaeb0b8928fd117820ed2d4da4e0f806289a812ee2cc75cbaeed45",
    ),
    (
        "fab",
        "df90a936224149b24c6815f5bdd4cabe4c997349e00754bff39874a8f9a65463",
    ),
    (
        "prime",
        "d91c3370c8a9d71669bb6aed30b87903c0693698ce8b7aaa6005db354351dfb9",
    ),
    (
        "fair",
        "457f55cba818e0e3ef919c51b5d04dda92f3c5458cdbafeadde7c70e16ae8dfc",
    ),
    (
        "kauri",
        "9a63ce0898e6c6abbc1c12e49d8e7a849527b4c26fa4fa0ad4f8c6bcd4baf7b1",
    ),
    (
        "qu",
        "ade64d170bc1233cd17ad6dbfd6b49aa84cb8fa30f01d2762a3c054ee84e0c74",
    ),
    (
        "minbft",
        "8004b81840da740bcc0b21415db38fda612ec55ea33f06913b746e87df674676",
    ),
    (
        "chain",
        "3544bf7884bc7fc3d05046b479f6417752598d5a5c548a0652ac2eb467977288",
    ),
];

#[test]
fn zero_knob_sim_output_is_byte_identical_to_pre_refactor_tree() {
    let by_name: std::collections::BTreeMap<&str, ProtocolId> =
        ProtocolId::ALL.iter().map(|&id| (id.name(), id)).collect();
    assert_eq!(by_name.len(), GOLDEN.len(), "registry size drifted");
    for (name, want) in GOLDEN {
        let id = by_name[name];
        let got = run_digest(id);
        assert_eq!(
            got, want,
            "{name}: zero-knob sim output drifted from commit 014daa2"
        );
    }
}

#[test]
fn default_engine_is_sim_and_kind_round_trips() {
    let scenario = Scenario::small(1);
    assert_eq!(scenario.engine, EngineKind::Sim);
    assert_eq!(EngineKind::default(), EngineKind::Sim);
    assert_eq!(
        "threaded".parse::<EngineKind>().unwrap(),
        EngineKind::Threaded
    );
    assert_eq!("sim".parse::<EngineKind>().unwrap(), EngineKind::Sim);
    assert_eq!(EngineKind::Threaded.to_string(), "threaded");
}

/// A threaded-engine scenario for one workload family. The synchrony bound
/// Δ is enlarged to wall-clock scale: on the threaded engine Δ drives the
/// client retransmit (4Δ) and every protocol's view timers, and with all
/// node threads timesharing a small CPU budget a microsecond-scale Δ would
/// trigger spurious retransmits and view changes. 200ms keeps timers far
/// above scheduling noise while real deliveries stay sub-millisecond.
fn threaded_scenario(entry: &untrusted_txn::protocols::suite::SuiteEntry) -> Scenario {
    let mut network = entry.network.clone();
    network.delta = SimDuration::from_millis(200);
    entry
        .scenario(1, 1, 4, 11)
        .with_network(network)
        .with_engine(EngineKind::Threaded)
}

#[test]
fn threaded_engine_semantic_smoke_matrix() {
    // All 17 protocols × all 4 workload families on real OS threads; every
    // run must complete and pass the same consistency checkers the sim
    // engine is held to. Ordering across nodes is wall-clock here, so this
    // checks semantics, not byte-level determinism.
    for id in ProtocolId::ALL {
        for family in workload_suite() {
            let scenario = threaded_scenario(&family);
            let out = id.run(&scenario);
            assert_eq!(
                out.log.client_latencies().len(),
                scenario.total_requests() as usize,
                "{}/{}: threaded run incomplete",
                id.name(),
                family.name
            );
            assert!(
                out.metrics.wall_threads > 0,
                "{}/{}: threaded run did not record thread count",
                id.name(),
                family.name
            );
            let violations = check_run(id, &scenario, &out);
            assert!(
                violations.is_empty(),
                "{}/{}: {violations:?}",
                id.name(),
                family.name
            );
            SafetyAuditor::all_correct().assert_safe(&out.log);
        }
    }
}

#[test]
fn sim_metrics_json_has_no_wall_fields() {
    // The wall-clock counters are threaded-engine-only; on the sim engine
    // they are zero and the serializer must skip them so sim metrics stay
    // byte-compatible with the pre-engine format.
    let out = ProtocolId::Pbft.run(&Scenario::small(1).with_load(1, 3));
    let json = serde_json::to_string(&out.metrics).unwrap();
    assert!(!json.contains("wall_elapsed_ns"), "{json}");
    assert!(!json.contains("wall_threads"), "{json}");

    let scenario = Scenario::small(1)
        .with_load(1, 3)
        .with_network({
            let mut n = NetworkConfig::lan();
            n.delta = SimDuration::from_millis(200);
            n
        })
        .with_engine(EngineKind::Threaded);
    let out = ProtocolId::Pbft.run(&scenario);
    let json = serde_json::to_string(&out.metrics).unwrap();
    assert!(json.contains("wall_elapsed_ns"), "{json}");
    assert!(json.contains("wall_threads"), "{json}");
}
