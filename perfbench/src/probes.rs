//! Layer probes for the traced run: the workload's own request table
//! replayed through the public functions of one layer at a time, the bare
//! event loop, and process counters read from `/proc/self`. Also the
//! reference kernel that states wall times at a reference host speed.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

use bft_crypto::digest_of;
use bft_protocols::{Scenario, SignedRequest};
use bft_state::StateMachine;
use bft_types::{Request, SeqNum};

use crate::stats::median;
use crate::trace::Tracer;

/// Replays of each probe; the median is reported.
const REPEATS: usize = 3;

/// The scenario's requests in the order a replica would execute them:
/// round-robin over clients, each client's requests in timestamp order.
pub fn request_table(scenario: &Scenario) -> Vec<Request> {
    let mut reqs: Vec<Request> = scenario
        .request_txns()
        .into_iter()
        .map(|(id, txn)| Request { id, txn })
        .collect();
    reqs.sort_by_key(|r| (r.id.timestamp, r.id.client));
    reqs
}

/// Nanoseconds per request of `SignedRequest::new`, `SignedRequest::verify`
/// and `digest_of` over one batch of `batch` requests.
pub fn crypto(
    scenario: &Scenario,
    reqs: &[Request],
    batch: usize,
    tracer: &mut Tracer,
    wname: &'static str,
) -> (f64, f64, f64) {
    let store = scenario.key_store();
    let n = reqs.len() as f64;
    let (mut sign, mut verify, mut digest) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPEATS {
        let span = tracer.enter("crypto.sign", wname, "");
        let t = Instant::now();
        let signed: Vec<SignedRequest> = reqs
            .iter()
            .map(|r| SignedRequest::new(&store, black_box(r.clone())))
            .collect();
        sign.push(t.elapsed().as_nanos() as f64 / n);
        tracer.exit(span);

        let span = tracer.enter("crypto.verify", wname, "");
        let t = Instant::now();
        let ok = signed.iter().all(|s| s.verify(&store));
        verify.push(t.elapsed().as_nanos() as f64 / n);
        tracer.exit(span);
        assert!(ok, "a freshly signed request failed verification");

        let span = tracer.enter("crypto.batch_digest", wname, "");
        let t = Instant::now();
        for chunk in reqs.chunks(batch) {
            black_box(digest_of(&chunk));
        }
        digest.push(t.elapsed().as_nanos() as f64 / n);
        tracer.exit(span);
    }
    (median(&mut sign), median(&mut verify), median(&mut digest))
}

/// Nanoseconds per call of `StateMachine::execute` (in sequence order),
/// `StateMachine::digest` (once per request), and `StateMachine::snapshot`
/// (once per checkpoint interval, followed by the log truncation a stable
/// checkpoint allows).
pub fn state(
    reqs: &[Request],
    interval: u64,
    tracer: &mut Tracer,
    wname: &'static str,
) -> (f64, f64, f64) {
    let (mut exec, mut digest, mut snap) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPEATS {
        let span = tracer.enter("state.replay", wname, "");
        let mut sm = StateMachine::new();
        let (mut exec_ns, mut digest_ns, mut snap_ns, mut snaps) = (0u128, 0u128, 0u128, 0u64);
        for (i, req) in reqs.iter().enumerate() {
            let seq = SeqNum(i as u64 + 1);
            let t = Instant::now();
            black_box(sm.execute(seq, req));
            exec_ns += t.elapsed().as_nanos();
            let t = Instant::now();
            black_box(sm.digest());
            digest_ns += t.elapsed().as_nanos();
            if interval > 0 && seq.0.is_multiple_of(interval) {
                let t = Instant::now();
                black_box(sm.snapshot());
                sm.truncate_below(seq);
                snap_ns += t.elapsed().as_nanos();
                snaps += 1;
            }
        }
        tracer.exit(span);
        let n = reqs.len() as f64;
        exec.push(exec_ns as f64 / n);
        digest.push(digest_ns as f64 / n);
        snap.push(snap_ns as f64 / snaps.max(1) as f64);
    }
    (median(&mut exec), median(&mut digest), median(&mut snap))
}

/// Nanoseconds per event of the bare event loop: two nodes bouncing one
/// message, no protocol (`bft_bench::simload::ping_pong`).
pub fn pingpong(tracer: &mut Tracer, wname: &'static str) -> f64 {
    const EVENTS: u64 = 200_000;
    let mut per_event = Vec::new();
    for _ in 0..REPEATS {
        let span = tracer.enter("sim.pingpong", wname, "");
        let t = Instant::now();
        let out = bft_bench::simload::drain(bft_bench::simload::ping_pong(EVENTS));
        per_event.push(t.elapsed().as_nanos() as f64 / out.events_processed.max(1) as f64);
        tracer.exit(span);
    }
    median(&mut per_event)
}

/// Wall nanoseconds of the reference kernel: hash-map and B-tree inserts
/// with small allocations, work of the kind the simulator does, in the
/// standard library only, so no change to the repository's crates moves
/// it. The fastest of three tries is returned.
///
/// Other load on a shared host slows all code alike, in phases of seconds
/// to minutes. Timed right before each timed call, the kernel measures the
/// host's speed at that moment.
pub fn reference_ns() -> u64 {
    (0..3)
        .map(|_| {
            let t = Instant::now();
            let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
            let mut map = HashMap::new();
            let mut tree = BTreeMap::new();
            for i in 0..4000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                map.insert(x % 10_000, vec![i as u8; 32]);
                tree.insert(x, i);
            }
            let below: u64 = tree.range(..x).map(|(_, v)| *v).sum();
            black_box((map.len(), below));
            t.elapsed().as_nanos() as u64
        })
        .min()
        .unwrap_or(1)
        .max(1)
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// CPU seconds this process has used, all threads, user plus system.
pub fn cpu_seconds() -> f64 {
    // Fields after the parenthesised command name; utime and stime are
    // the 12th and 13th, in clock ticks of 1/100 s on Linux.
    const TICKS_PER_SEC: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) / TICKS_PER_SEC,
        _ => f64::NAN,
    }
}
