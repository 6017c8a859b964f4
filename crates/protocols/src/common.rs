//! Infrastructure shared by every protocol implementation.
//!
//! * [`Scenario`] — the experiment description (cluster size, workload,
//!   network, faults, seeds) under which protocols are compared.
//! * [`SignedRequest`] — a client request carrying the client's signature.
//! * The replica lifecycle stages every protocol shares:
//!   [`execute_request`] (the execution step), [`QuorumTracker`] (a keyed
//!   vote tally that reports duplicates), [`FutureBuffer`] (ahead-of-view
//!   messages held for replay on view entry) and [`Catchup`] (state-transfer
//!   retries for rejoining replicas).
//! * [`GenericClient`] — the requester client (dimension P6) shared by most
//!   protocols: closed-loop submission, reply collection against a
//!   protocol-specific quorum, retransmission.

use std::collections::BTreeMap;
use std::sync::Arc;

use bft_core::workload::{Workload, WorkloadConfig};
use bft_crypto::sign::PartyId;
use bft_crypto::{digest_of, CryptoCostModel, KeyStore, Signature};
use bft_sim::{
    Actor, AdversarySpec, Context, Engine, EngineKind, FaultPlan, NetworkConfig, NetworkModel,
    NodeId, Observation, SimDuration, SimTime, Simulation, ThreadedEngine, TimerId,
};
use bft_state::StateMachine;
use bft_types::{
    ClientId, Digest, Op, QuorumRules, ReplicaId, Reply, Request, RequestId, SeqNum, TimerKind,
    Transaction, View, WireSize,
};

/// A client request plus the client's signature over it.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct SignedRequest {
    /// The request.
    pub request: Request,
    /// Client signature over the request.
    pub sig: Signature,
}

impl SignedRequest {
    /// Sign a request on behalf of a client.
    pub fn new(store: &KeyStore, request: Request) -> SignedRequest {
        let signer = store.signer_for(PartyId::client(request.id.client.0));
        let sig = signer.sign_value(&request);
        SignedRequest { request, sig }
    }

    /// Verify the client signature.
    pub fn verify(&self, store: &KeyStore) -> bool {
        bft_crypto::sign::verify_value(store, &self.request, &self.sig)
    }

    /// Digest identifying the request.
    pub fn digest(&self) -> Digest {
        digest_of(&self.request)
    }
}

impl WireSize for SignedRequest {
    fn wire_size(&self) -> usize {
        self.request.wire_size() + Signature::WIRE_SIZE
    }
}

/// A keyed vote tally: distinct voters per key (typically a `(view, seq,
/// digest)` tuple or a target view). Keys are kept in order, so garbage
/// collection by view or height is one [`QuorumTracker::retain`].
#[derive(Debug, Clone)]
pub struct QuorumTracker<K: Ord> {
    votes: BTreeMap<K, Vec<ReplicaId>>,
}

impl<K: Ord> Default for QuorumTracker<K> {
    fn default() -> Self {
        QuorumTracker {
            votes: BTreeMap::new(),
        }
    }
}

impl<K: Ord> QuorumTracker<K> {
    /// New empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `from`'s vote for `key`. Returns the number of distinct
    /// voters for the key after insertion, or `None` when `from` had
    /// already voted for it (the duplicate is not counted).
    pub fn vote(&mut self, key: K, from: ReplicaId) -> Option<usize> {
        let voters = self.votes.entry(key).or_default();
        if voters.contains(&from) {
            return None;
        }
        voters.push(from);
        Some(voters.len())
    }

    /// Current count for a key.
    pub fn count(&self, key: &K) -> usize {
        self.votes.get(key).map_or(0, |v| v.len())
    }

    /// The largest key holding a vote.
    pub fn max_key(&self) -> Option<&K> {
        self.votes.keys().next_back()
    }

    /// Drop all keys for which `pred` is false (garbage collection).
    pub fn retain(&mut self, mut pred: impl FnMut(&K) -> bool) {
        self.votes.retain(|k, _| pred(k));
    }

    /// Drop every vote.
    pub fn clear(&mut self) {
        self.votes.clear();
    }
}

/// Messages that arrived for a view (or another monotone key) the replica
/// has not entered yet, held until it does. The key is taken when a message
/// is pushed; on entry, [`FutureBuffer::take`] hands back the entered key's
/// messages in arrival order, drops older keys and keeps later ones.
/// Bounded: once [`FutureBuffer::CAP`] messages are held, further pushes
/// are refused.
#[derive(Debug)]
pub struct FutureBuffer<K, M> {
    msgs: Vec<(K, NodeId, M)>,
}

impl<K, M> Default for FutureBuffer<K, M> {
    fn default() -> Self {
        FutureBuffer { msgs: Vec::new() }
    }
}

impl<K: Ord + Copy, M> FutureBuffer<K, M> {
    /// The most messages held at once.
    pub const CAP: usize = 10_000;

    /// Hold `msg` from `from` for `key`. Returns `false` (dropping the
    /// message) when the buffer is full.
    pub fn push(&mut self, key: K, from: NodeId, msg: M) -> bool {
        if self.msgs.len() >= Self::CAP {
            return false;
        }
        self.msgs.push((key, from, msg));
        true
    }

    /// The view gate shared by view-stamped ordering messages: a message
    /// for a later view, or for the current one while a view change is in
    /// progress, is held for replay and refused; otherwise it is admitted
    /// exactly when it belongs to the current view.
    pub fn admit(&mut self, cur: K, in_view_change: bool, from: NodeId, key: K, msg: M) -> bool {
        if key > cur || (in_view_change && key == cur) {
            self.push(key, from, msg);
            false
        } else {
            key == cur && !in_view_change
        }
    }

    /// Enter `cur`: return its messages in arrival order for replay, drop
    /// those for older keys, keep those for later ones.
    pub fn take(&mut self, cur: K) -> Vec<(NodeId, M)> {
        let mut now = Vec::new();
        let held = std::mem::take(&mut self.msgs);
        for (key, from, msg) in held {
            match key.cmp(&cur) {
                std::cmp::Ordering::Equal => now.push((from, msg)),
                std::cmp::Ordering::Greater => self.msgs.push((key, from, msg)),
                std::cmp::Ordering::Less => {}
            }
        }
        now
    }

    /// Drop every held message.
    pub fn clear(&mut self) {
        self.msgs.clear();
    }
}

/// The execution step every replicated state machine runs per ordered
/// request: charge the request's `Op::Work` units (1 µs of virtual time
/// each), apply it at the state machine's next sequence number (as a
/// rollback-able speculative entry when `speculative`), record
/// [`Observation::Execute`], and return that sequence number with the
/// client [`Reply`] stamped `view`.
///
/// What differs per protocol stays with the caller: the crypto charge for
/// the reply (signature, MAC or threshold share), whether and where it is
/// sent, and the protocol's own bookkeeping.
pub fn execute_request<M: WireSize + serde::Serialize>(
    sm: &mut StateMachine,
    request: &Request,
    view: View,
    speculative: bool,
    ctx: &mut Context<'_, M>,
) -> (SeqNum, Reply) {
    let seq = sm.last_executed().next();
    let work: u32 = request
        .txn
        .ops
        .iter()
        .map(|op| if let Op::Work(w) = op { *w } else { 0 })
        .sum();
    if work > 0 {
        ctx.charge(SimDuration(work as u64 * 1_000));
    }
    let (result, state_digest) = if speculative {
        sm.execute_speculative(seq, request)
    } else {
        sm.execute(seq, request)
    };
    ctx.observe(Observation::Execute {
        seq,
        request: request.id,
        state_digest,
    });
    let reply = Reply {
        request: request.id,
        view,
        result,
        state_digest,
        speculative,
    };
    (seq, reply)
}

/// The experiment scenario: everything about a run except the protocol.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Fault threshold.
    pub f: usize,
    /// Override the replica count (defaults to the protocol's formula).
    pub n_override: Option<usize>,
    /// Number of clients.
    pub clients: usize,
    /// Requests each client issues (closed loop).
    pub requests_per_client: u64,
    /// Network configuration.
    pub network: NetworkConfig,
    /// Crash/partition schedule.
    pub faults: FaultPlan,
    /// Byzantine adversary placements: compromised replicas whose wire
    /// traffic the simulator intercepts (equivocation, censorship, delay,
    /// replay, corruption) — protocol-agnostic, see [`bft_sim::adversary`].
    pub adversaries: Vec<AdversarySpec>,
    /// Transaction mix.
    pub workload: WorkloadConfig,
    /// Master seed (drives network delays, workload, crypto keys).
    pub seed: u64,
    /// Crypto cost model charged to virtual time.
    pub cost_model: CryptoCostModel,
    /// Checkpoint interval in sequence numbers (0 = disabled).
    pub checkpoint_interval: u64,
    /// Requests per batch.
    pub batch_size: usize,
    /// Virtual-time budget for the run.
    pub max_time: SimDuration,
    /// Event-queue scheduler backing the simulation. Both options pop in
    /// the identical order, so this never changes a run's output — only
    /// wall-clock cost at scale.
    pub scheduler: bft_sim::SchedulerKind,
    /// Which execution backend runs the scenario. Defaults to
    /// [`EngineKind::Sim`] (deterministic, virtual time); the threaded
    /// engine trades determinism, fault plans and adversaries for real
    /// wall-clock measurement.
    pub engine: EngineKind,
}

impl Scenario {
    /// A small fault-free LAN scenario: one client, 50 requests. The
    /// `with_*` setters adjust it:
    ///
    /// ```
    /// use bft_protocols::common::Scenario;
    /// use bft_sim::NetworkConfig;
    ///
    /// let s = Scenario::small(1)
    ///     .with_load(1, 120)
    ///     .with_network(NetworkConfig::lan());
    /// assert_eq!(s.f, 1);
    /// assert_eq!(s.requests_per_client, 120);
    /// ```
    pub fn small(f: usize) -> Scenario {
        Scenario {
            f,
            n_override: None,
            clients: 1,
            requests_per_client: 50,
            network: NetworkConfig::lan(),
            faults: FaultPlan::none(),
            adversaries: Vec::new(),
            workload: WorkloadConfig::uniform(),
            seed: 42,
            cost_model: CryptoCostModel::free(),
            checkpoint_interval: 16,
            batch_size: 1,
            max_time: SimDuration::from_secs(60),
            scheduler: bft_sim::SchedulerKind::default(),
            engine: EngineKind::default(),
        }
    }

    /// Builder-style: set clients and per-client request count.
    pub fn with_load(mut self, clients: usize, requests_per_client: u64) -> Scenario {
        self.clients = clients;
        self.requests_per_client = requests_per_client;
        self
    }

    /// Builder-style: override the replica count (clamped up to each
    /// protocol's formula minimum, see [`Scenario::n`]).
    pub fn with_n(mut self, n: usize) -> Scenario {
        self.n_override = Some(n);
        self
    }

    /// Builder-style: set the fault plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Scenario {
        self.faults = faults;
        self
    }

    /// Builder-style: set the Byzantine adversary placements.
    pub fn with_adversaries(mut self, adversaries: Vec<AdversarySpec>) -> Scenario {
        self.adversaries = adversaries;
        self
    }

    /// Builder-style: set the network.
    pub fn with_network(mut self, network: NetworkConfig) -> Scenario {
        self.network = network;
        self
    }

    /// Builder-style: set the workload.
    pub fn with_workload(mut self, workload: WorkloadConfig) -> Scenario {
        self.workload = workload;
        self
    }

    /// Builder-style: set the seed.
    pub fn with_seed(mut self, seed: u64) -> Scenario {
        self.seed = seed;
        self
    }

    /// Builder-style: set the crypto cost model.
    pub fn with_cost_model(mut self, cost_model: CryptoCostModel) -> Scenario {
        self.cost_model = cost_model;
        self
    }

    /// Builder-style: set the batch size.
    pub fn with_batch(mut self, batch_size: usize) -> Scenario {
        self.batch_size = batch_size;
        self
    }

    /// Builder-style: set the event-queue scheduler.
    pub fn with_scheduler(mut self, scheduler: bft_sim::SchedulerKind) -> Scenario {
        self.scheduler = scheduler;
        self
    }

    /// Builder-style: set the execution engine.
    pub fn with_engine(mut self, engine: EngineKind) -> Scenario {
        self.engine = engine;
        self
    }

    /// The replica count for a protocol whose formula minimum is `min_n`.
    pub fn n(&self, min_n: usize) -> usize {
        self.n_override.map_or(min_n, |n| n.max(min_n))
    }

    /// The key store all parties in this scenario share.
    pub fn key_store(&self) -> Arc<KeyStore> {
        let mut master = [0u8; 32];
        master[..8].copy_from_slice(&self.seed.to_le_bytes());
        KeyStore::shared(master)
    }

    /// Build the execution engine the scenario selects ([`Scenario::engine`]):
    /// the deterministic simulation shell (network, seed, cost model, fault
    /// plan) or the real-time threaded engine.
    ///
    /// `n` is the replica count the protocol is about to install; the fault
    /// plan is validated against it (and the client count) so a plan naming
    /// nonexistent nodes fails loudly instead of silently never firing.
    ///
    /// # Panics
    ///
    /// Panics if the scenario's fault plan or an adversary placement is
    /// invalid — see [`FaultPlan::validate`](bft_sim::faults::FaultPlan::validate)
    /// and [`AdversarySpec::validate`] — or if a threaded scenario carries
    /// a fault plan or adversaries (sim-only features: the threaded engine
    /// has no deterministic event stream to inject them into).
    pub fn build_engine<M: WireSize + serde::Serialize + Send + Sync + 'static>(
        &self,
        n: usize,
    ) -> Engine<M> {
        match self.engine {
            EngineKind::Sim => {
                let mut sim = Simulation::with_scheduler(
                    NetworkModel::new(self.network.clone()),
                    self.seed,
                    self.scheduler,
                );
                sim.set_cost_model(self.cost_model);
                if let Err(e) = self.faults.apply(&mut sim, n, self.clients as u64) {
                    panic!("scenario has an invalid fault plan: {e}");
                }
                for spec in &self.adversaries {
                    if let Err(e) = spec.validate(n, self.clients as u64) {
                        panic!("scenario has an invalid adversary placement: {e}");
                    }
                    sim.install_adversary(spec.clone());
                }
                Engine::Sim(Box::new(sim))
            }
            EngineKind::Threaded => {
                assert!(
                    self.faults.events.is_empty(),
                    "fault plans are a sim-engine feature; the threaded engine cannot run them"
                );
                assert!(
                    self.adversaries.is_empty(),
                    "wire adversaries are a sim-engine feature; the threaded engine cannot run them"
                );
                let mut eng = ThreadedEngine::new(self.network.delta, self.seed);
                eng.set_cost_model(self.cost_model);
                Engine::Threaded(eng)
            }
        }
    }

    /// Total requests across all clients.
    pub fn total_requests(&self) -> u64 {
        self.clients as u64 * self.requests_per_client
    }

    /// Workload generator for one client (each client gets a distinct
    /// stream).
    pub fn workload_for(&self, client: u64) -> Workload {
        Workload::for_stream(
            self.workload,
            self.seed.wrapping_mul(31).wrapping_add(client),
            client,
        )
    }

    /// The full request table the scenario's clients will generate:
    /// client ids are `0..clients`, timestamps `1..=requests_per_client`,
    /// transactions drawn deterministically from [`Scenario::workload_for`].
    /// Feeds the semantic checkers (phantom resolution and replay).
    pub fn request_txns(&self) -> std::collections::BTreeMap<RequestId, Transaction> {
        let mut txns = std::collections::BTreeMap::new();
        for c in 0..self.clients as u64 {
            let mut w = self.workload_for(c);
            for ts in 1..=self.requests_per_client {
                txns.insert(
                    RequestId {
                        client: ClientId(c),
                        timestamp: ts,
                    },
                    w.next_txn(),
                );
            }
        }
        txns
    }
}

/// Where a generic client sends its requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitPolicy {
    /// Send to the believed leader; on retransmit, broadcast (PBFT rule).
    LeaderThenBroadcast,
    /// Always broadcast to all replicas (rotating-leader and fair
    /// protocols).
    Broadcast,
}

/// Hooks a protocol provides to use [`GenericClient`].
pub trait ClientProtocol: 'static {
    /// The protocol's message type.
    type Msg: WireSize + Clone + serde::Serialize + 'static;

    /// Wrap a signed request for submission.
    fn wrap_request(req: SignedRequest) -> Self::Msg;

    /// Extract a reply, if this message is one.
    fn unwrap_reply(msg: &Self::Msg) -> Option<&Reply>;

    /// Submission policy.
    fn submit_policy() -> SubmitPolicy;

    /// The reply quorum for the given rules.
    fn reply_quorum(q: &QuorumRules) -> usize;
}

/// One open-loop request in flight: its payload, submission time, reply
/// collector and retransmission state.
struct OpenRequest {
    signed: SignedRequest,
    sent_at: SimTime,
    collector: bft_core::client::ReplyCollector,
    timer: TimerId,
    retransmitted: bool,
}

/// The requester client shared by most protocols: collects matching
/// replies, retransmits on timeout (broadcasting if the policy says so),
/// records `ClientAccept` observations for latency accounting.
///
/// Pacing follows the scenario workload's [`Arrival`](bft_core::Arrival)
/// knob: closed-loop (one request in flight, the default) or open-loop
/// (submissions on a fixed virtual-time schedule with arbitrarily many in
/// flight — the million-request throughput mode).
pub struct GenericClient<P: ClientProtocol> {
    id: ClientId,
    q: QuorumRules,
    store: Arc<KeyStore>,
    workload: Workload,
    total: u64,
    sent: u64,
    in_flight: Option<(RequestId, SignedRequest, SimTime)>,
    collector: bft_core::client::ReplyCollector,
    leader_hint: ReplicaId,
    retransmit: SimDuration,
    timer: Option<TimerId>,
    retransmitted: bool,
    /// `Some(interarrival)` in open-loop mode.
    arrival: Option<SimDuration>,
    /// Open-loop requests awaiting a reply quorum, keyed by request id.
    outstanding: BTreeMap<RequestId, OpenRequest>,
    /// Open-loop retransmission timers → the request they guard.
    retransmit_ids: BTreeMap<TimerId, RequestId>,
    /// Open-loop completions.
    done: u64,
    _marker: std::marker::PhantomData<P>,
}

impl<P: ClientProtocol> GenericClient<P> {
    /// Create a client for `scenario` with identity `id`.
    pub fn new(scenario: &Scenario, q: QuorumRules, id: u64) -> Self {
        let arrival = match scenario.workload.arrival {
            bft_core::Arrival::ClosedLoop => None,
            bft_core::Arrival::OpenLoop { interarrival_ns } => {
                Some(SimDuration(interarrival_ns.max(1)))
            }
        };
        GenericClient {
            id: ClientId(id),
            q,
            store: scenario.key_store(),
            workload: scenario.workload_for(id),
            total: scenario.requests_per_client,
            sent: 0,
            in_flight: None,
            collector: bft_core::client::ReplyCollector::new(),
            leader_hint: ReplicaId(0),
            retransmit: SimDuration(scenario.network.delta.0 * 4),
            timer: None,
            retransmitted: false,
            arrival,
            outstanding: BTreeMap::new(),
            retransmit_ids: BTreeMap::new(),
            done: 0,
            _marker: std::marker::PhantomData,
        }
    }

    fn submit_next(&mut self, ctx: &mut Context<'_, P::Msg>) {
        if self.sent >= self.total {
            return;
        }
        self.sent += 1;
        let request = Request::new(self.id, self.sent, self.workload.next_txn());
        let signed = SignedRequest::new(&self.store, request.clone());
        ctx.charge_crypto(bft_crypto::CryptoOp::Sign);
        self.in_flight = Some((request.id, signed.clone(), ctx.now()));
        self.collector.clear();
        self.retransmitted = false;
        self.dispatch(signed, false, ctx);
        let t = ctx.set_timer(TimerKind::T1WaitReplies, self.retransmit);
        self.timer = Some(t);
    }

    fn dispatch(&mut self, signed: SignedRequest, retransmit: bool, ctx: &mut Context<'_, P::Msg>) {
        match P::submit_policy() {
            SubmitPolicy::LeaderThenBroadcast if !retransmit => {
                ctx.send(NodeId::Replica(self.leader_hint), P::wrap_request(signed));
            }
            _ => {
                let n = self.q.n;
                ctx.multicast((0..n as u32).map(NodeId::replica), P::wrap_request(signed));
            }
        }
    }

    /// Open-loop: sign and submit the next request on the arrival schedule,
    /// tracking it among the (arbitrarily many) outstanding requests.
    fn submit_open(&mut self, ctx: &mut Context<'_, P::Msg>) {
        if self.sent >= self.total {
            return;
        }
        self.sent += 1;
        let request = Request::new(self.id, self.sent, self.workload.next_txn());
        let signed = SignedRequest::new(&self.store, request.clone());
        ctx.charge_crypto(bft_crypto::CryptoOp::Sign);
        let timer = ctx.set_timer(TimerKind::T1WaitReplies, self.retransmit);
        self.retransmit_ids.insert(timer, request.id);
        self.outstanding.insert(
            request.id,
            OpenRequest {
                signed: signed.clone(),
                sent_at: ctx.now(),
                collector: bft_core::client::ReplyCollector::new(),
                timer,
                retransmitted: false,
            },
        );
        self.dispatch(signed, false, ctx);
    }

    /// Open-loop reply handling: route the reply to its outstanding
    /// request's collector; completion never triggers a submission (the
    /// arrival timer owns pacing).
    fn on_open_reply(&mut self, from: NodeId, reply: &Reply, ctx: &mut Context<'_, P::Msg>) {
        let NodeId::Replica(replica) = from else {
            return;
        };
        let Some(pending) = self.outstanding.get_mut(&reply.request) else {
            return;
        };
        ctx.charge_crypto(bft_crypto::CryptoOp::Verify);
        self.leader_hint = reply.view.leader_of(self.q.n);
        let quorum = P::reply_quorum(&self.q);
        if let bft_core::client::CollectStatus::Complete { reply: agreed, .. } =
            pending.collector.offer(replica, reply.clone(), quorum)
        {
            let pending = self.outstanding.remove(&reply.request).expect("present");
            ctx.cancel_timer(pending.timer);
            self.retransmit_ids.remove(&pending.timer);
            self.done += 1;
            ctx.observe(Observation::ClientAccept {
                request: reply.request,
                sent_at: pending.sent_at,
                fast_path: !pending.retransmitted && agreed.speculative,
                txn: Box::new(pending.signed.request.txn),
                result: Box::new(agreed.result.clone()),
            });
        }
    }

    /// Completed request count.
    pub fn completed(&self) -> u64 {
        if self.arrival.is_some() {
            self.done
        } else {
            self.sent.saturating_sub(self.in_flight.is_some() as u64)
        }
    }
}

impl<P: ClientProtocol> Actor<P::Msg> for GenericClient<P> {
    fn on_start(&mut self, ctx: &mut Context<'_, P::Msg>) {
        match self.arrival {
            None => self.submit_next(ctx),
            Some(interarrival) => {
                // first request at t=0, then one per interarrival tick
                self.submit_open(ctx);
                if self.sent < self.total {
                    ctx.set_timer(TimerKind::T7Heartbeat, interarrival);
                }
            }
        }
    }

    fn on_message(&mut self, from: NodeId, msg: &P::Msg, ctx: &mut Context<'_, P::Msg>) {
        let Some(reply) = P::unwrap_reply(msg) else {
            return;
        };
        if self.arrival.is_some() {
            self.on_open_reply(from, reply, ctx);
            return;
        }
        let Some((current, _, sent_at)) = self.in_flight else {
            return;
        };
        if reply.request != current {
            return;
        }
        let NodeId::Replica(replica) = from else {
            return;
        };
        ctx.charge_crypto(bft_crypto::CryptoOp::Verify);
        self.leader_hint = reply.view.leader_of(self.q.n);
        let quorum = P::reply_quorum(&self.q);
        if let bft_core::client::CollectStatus::Complete { reply: agreed, .. } =
            self.collector.offer(replica, reply.clone(), quorum)
        {
            if let Some(t) = self.timer.take() {
                ctx.cancel_timer(t);
            }
            let txn = self
                .in_flight
                .take()
                .map(|(_, signed, _)| signed.request.txn)
                .unwrap_or_default();
            ctx.observe(Observation::ClientAccept {
                request: current,
                sent_at,
                fast_path: !self.retransmitted && agreed.speculative,
                txn: Box::new(txn),
                result: Box::new(agreed.result.clone()),
            });
            self.submit_next(ctx);
        }
    }

    fn on_timer(&mut self, id: TimerId, kind: TimerKind, ctx: &mut Context<'_, P::Msg>) {
        if let Some(interarrival) = self.arrival {
            match kind {
                // the arrival schedule: submit and re-arm until the stream
                // is exhausted
                TimerKind::T7Heartbeat => {
                    self.submit_open(ctx);
                    if self.sent < self.total {
                        ctx.set_timer(TimerKind::T7Heartbeat, interarrival);
                    }
                }
                // a per-request retransmission backstop fired
                _ => {
                    let Some(rid) = self.retransmit_ids.remove(&id) else {
                        return;
                    };
                    let Some(pending) = self.outstanding.get_mut(&rid) else {
                        return;
                    };
                    pending.retransmitted = true;
                    let signed = pending.signed.clone();
                    let timer = ctx.set_timer(TimerKind::T1WaitReplies, self.retransmit);
                    pending.timer = timer;
                    self.retransmit_ids.insert(timer, rid);
                    self.dispatch(signed, true, ctx);
                }
            }
            return;
        }
        if Some(id) != self.timer {
            return;
        }
        let Some((_, signed, _)) = self.in_flight.clone() else {
            return;
        };
        // retransmit, broadcasting (PBFT rule: a retransmission goes to all
        // replicas so a faulty leader cannot suppress the request forever)
        self.retransmitted = true;
        self.dispatch(signed, true, ctx);
        let t = ctx.set_timer(TimerKind::T1WaitReplies, self.retransmit);
        self.timer = Some(t);
    }
}

/// Drive an engine until every expected client acceptance has been
/// observed, the workload drains, or the time budget runs out (virtual
/// time on the sim engine, wall clock on the threaded engine). Returns the
/// finished outcome.
pub fn run_to_completion<M: WireSize + serde::Serialize + Send + Sync + 'static>(
    engine: Engine<M>,
    total_requests: u64,
    max_time: SimDuration,
) -> bft_sim::RunOutcome {
    run_to_completion_with_drain(engine, total_requests, max_time, SimDuration::ZERO)
}

/// Like [`run_to_completion`], but keeps the run going for `drain` extra
/// time after the last client acceptance, letting in-flight messages settle
/// (used by protocols whose convergence outlasts the last reply, e.g. Q/U's
/// trailing fast-forwards).
pub fn run_to_completion_with_drain<M: WireSize + serde::Serialize + Send + Sync + 'static>(
    engine: Engine<M>,
    total_requests: u64,
    max_time: SimDuration,
    drain: SimDuration,
) -> bft_sim::RunOutcome {
    let mut sim = match engine {
        Engine::Threaded(eng) => {
            // `max_time` doubles as the wall-clock budget: the deadlock
            // backstop on real threads.
            return eng.run_with_drain(total_requests, max_time, drain);
        }
        Engine::Sim(sim) => sim,
    };
    // Pre-size the event queue: each request fans out to O(n²) protocol
    // messages, so reserving up front avoids repeated heap regrowth in
    // the hot loop. Capped so large request counts don't over-allocate.
    let n = sim.n_replicas().max(1);
    sim.reserve_events(
        (total_requests as usize)
            .saturating_mul(n * n)
            .clamp(64, 1 << 16),
    );
    let step = SimDuration::from_millis(50);
    let mut t = SimTime::ZERO;
    loop {
        t = t + step;
        sim.run(t);
        let accepted = sim
            .log()
            .count(|e| matches!(e.obs, Observation::ClientAccept { .. }));
        if accepted as u64 >= total_requests {
            if drain.0 > 0 {
                sim.run(t + drain);
            }
            break;
        }
        if t.0 >= max_time.0 {
            // the virtual-time budget is the deadlock backstop
            break;
        }
    }
    sim.finish()
}

/// Protocol-agnostic state-transfer/catch-up driver — the generalization of
/// PBFT's `StateRequest` retry loop for rejoining replicas.
///
/// A replica that restarts (durable or amnesia) or wakes from proactive
/// rejuvenation is behind the quorum and must close the gap from its peers.
/// This service owns the mechanics every protocol shares:
///
/// * **bounded in-flight window** — at most `window` peers are asked per
///   round, rotating round-robin so one unresponsive peer cannot wedge the
///   rejoin;
/// * **retry with exponential backoff** — while no progress arrives the
///   request is re-issued, each round waiting twice as long (capped), and
///   after [`Catchup::MAX_ATTEMPTS`] rounds the service gives up and lets
///   the ordinary protocol flow (checkpoint attestations revealing the gap)
///   take over;
/// * **recovery metrics** — catch-up rounds and retries are counted into
///   [`bft_sim::Metrics`] (`rec_catchup_events`, `rec_retries`).
///
/// The protocol owns message construction: `begin`/`on_timer` call back
/// with each peer to solicit, and the protocol sends its own state-request
/// message. Completion is reported by the protocol (snapshot installed, or
/// normal execution resumed) via [`Catchup::complete`].
#[derive(Debug)]
pub struct Catchup {
    me: ReplicaId,
    n: usize,
    window: usize,
    base: SimDuration,
    next_peer: u32,
    attempt: u32,
    timer: Option<TimerId>,
    kind: TimerKind,
    active: bool,
}

impl Catchup {
    /// Retry rounds before the service gives up (the protocol's ordinary
    /// checkpoint/in-dark machinery remains as the fallback).
    pub const MAX_ATTEMPTS: u32 = 6;

    /// A catch-up service for replica `me` of `n`, retrying on `kind`
    /// timers with initial backoff `base` (doubled per retry, capped at
    /// `8 × base`).
    pub fn new(me: ReplicaId, n: usize, kind: TimerKind, base: SimDuration) -> Catchup {
        Catchup {
            me,
            n,
            window: 2,
            base,
            next_peer: 0,
            attempt: 0,
            timer: None,
            kind,
            active: false,
        }
    }

    /// Override the in-flight window (peers solicited per round).
    pub fn with_window(mut self, window: usize) -> Catchup {
        self.window = window.max(1);
        self
    }

    /// Whether a catch-up round is in flight.
    pub fn active(&self) -> bool {
        self.active
    }

    /// Current backoff: `base × 2^attempt`, capped at `8 × base`.
    fn backoff(&self) -> SimDuration {
        let factor = 1u64 << self.attempt.min(3);
        SimDuration(self.base.0.saturating_mul(factor))
    }

    /// The next `window` peers in round-robin order, skipping `me`.
    fn targets(&mut self) -> Vec<ReplicaId> {
        let mut peers = Vec::new();
        if self.n <= 1 {
            return peers;
        }
        let want = self.window.min(self.n - 1);
        while peers.len() < want {
            let candidate = ReplicaId(self.next_peer % self.n as u32);
            self.next_peer = self.next_peer.wrapping_add(1);
            if candidate != self.me {
                peers.push(candidate);
            }
        }
        peers
    }

    /// Start (or restart) a catch-up: solicit the next `window` peers and
    /// arm the retry timer. Counts one `rec_catchup_events`.
    pub fn begin<M: WireSize + serde::Serialize + 'static>(
        &mut self,
        ctx: &mut Context<'_, M>,
        mut solicit: impl FnMut(ReplicaId, &mut Context<'_, M>),
    ) {
        if let Some(t) = self.timer.take() {
            ctx.cancel_timer(t);
        }
        self.active = true;
        self.attempt = 0;
        ctx.count_catchup_event();
        for peer in self.targets() {
            solicit(peer, ctx);
        }
        self.timer = Some(ctx.set_timer(self.kind, self.backoff()));
    }

    /// Handle a timer pop. Returns `true` when the timer was this
    /// service's retry timer (consumed here); `false` means it belongs to
    /// the protocol. On retry, the next peers are solicited and the timer
    /// re-arms with doubled backoff; after [`Self::MAX_ATTEMPTS`] rounds
    /// the service deactivates instead.
    pub fn on_timer<M: WireSize + serde::Serialize + 'static>(
        &mut self,
        id: TimerId,
        ctx: &mut Context<'_, M>,
        mut solicit: impl FnMut(ReplicaId, &mut Context<'_, M>),
    ) -> bool {
        if Some(id) != self.timer {
            return false;
        }
        self.timer = None;
        if !self.active {
            return true;
        }
        self.attempt += 1;
        if self.attempt >= Self::MAX_ATTEMPTS {
            self.active = false;
            return true;
        }
        ctx.count_catchup_retry();
        for peer in self.targets() {
            solicit(peer, ctx);
        }
        self.timer = Some(ctx.set_timer(self.kind, self.backoff()));
        true
    }

    /// The gap is closed (snapshot installed or ordinary execution
    /// resumed): cancel the retry timer and deactivate.
    pub fn complete<M: WireSize + serde::Serialize + 'static>(&mut self, ctx: &mut Context<'_, M>) {
        if let Some(t) = self.timer.take() {
            ctx.cancel_timer(t);
        }
        self.active = false;
        self.attempt = 0;
    }
}

/// A re-proposable consensus entry: `(slot, batch digest, batch)` — the
/// unit view-change messages carry.
pub type BatchEntry = (bft_types::SeqNum, Digest, Vec<SignedRequest>);

/// View-change votes collected per target view: sender plus the entries it
/// reported.
pub type VcVotes = BTreeMap<bft_types::View, Vec<(ReplicaId, Vec<BatchEntry>)>>;

/// Helper: the set of replica ids `0..n` as `NodeId`s.
pub fn replica_nodes(n: usize) -> impl Iterator<Item = NodeId> + Clone {
    (0..n as u32).map(NodeId::replica)
}

/// Helper: pretty digest for markers.
pub fn short(d: &Digest) -> String {
    d.short_hex()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quorum_tracker_counts_distinct() {
        let mut t: QuorumTracker<(u64, u8)> = QuorumTracker::new();
        assert_eq!(t.vote((1, 0), ReplicaId(0)), Some(1));
        assert_eq!(t.vote((1, 0), ReplicaId(0)), None, "duplicate reported");
        assert_eq!(t.count(&(1, 0)), 1, "duplicate not counted");
        assert_eq!(t.vote((1, 0), ReplicaId(1)), Some(2));
        assert_eq!(t.vote((2, 0), ReplicaId(1)), Some(1), "separate key");
        assert_eq!(t.count(&(1, 0)), 2);
        assert_eq!(t.max_key(), Some(&(2, 0)));
        t.retain(|k| k.0 > 1);
        assert_eq!(t.count(&(1, 0)), 0);
        assert_eq!(t.count(&(2, 0)), 1);
        t.clear();
        assert_eq!(t.max_key(), None);
    }

    #[test]
    fn future_buffer_replays_current_view_in_arrival_order() {
        let mut b: FutureBuffer<View, u32> = FutureBuffer::default();
        let r = NodeId::replica;
        assert!(b.push(View(2), r(0), 20));
        assert!(b.push(View(1), r(1), 10));
        assert!(b.push(View(3), r(2), 30));
        assert!(b.push(View(2), r(3), 21));
        // entering view 2: view-2 messages in arrival order, view 1 dropped
        assert_eq!(b.take(View(2)), vec![(r(0), 20), (r(3), 21)]);
        assert_eq!(b.take(View(2)), vec![], "replayed messages are gone");
        // the later view survived
        assert_eq!(b.take(View(3)), vec![(r(2), 30)]);
        // the bound: full at CAP, room again once a view entry drains it
        for i in 0..FutureBuffer::<View, u32>::CAP {
            assert!(b.push(View(5), r(0), i as u32));
        }
        assert!(!b.push(View(6), r(1), 0), "past the bound");
        assert_eq!(b.take(View(5)).len(), FutureBuffer::<View, u32>::CAP);
        assert!(b.push(View(6), r(1), 1));
        assert_eq!(b.take(View(6)), vec![(r(1), 1)]);
    }

    #[test]
    fn future_buffer_admits_only_the_settled_current_view() {
        let mut b: FutureBuffer<View, u32> = FutureBuffer::default();
        let r = NodeId::replica(0);
        assert!(b.admit(View(2), false, r, View(2), 1));
        assert!(!b.admit(View(2), false, r, View(1), 2), "stale: dropped");
        assert!(!b.admit(View(2), false, r, View(3), 3), "ahead: held");
        assert!(!b.admit(View(2), true, r, View(2), 4), "view change: held");
        assert_eq!(b.take(View(2)), vec![(r, 4)]);
        assert_eq!(b.take(View(3)), vec![(r, 3)]);
    }

    /// A replica that runs [`execute_request`] over a fixed batch on start.
    struct Executor {
        batch: Vec<Request>,
    }

    impl Actor<u64> for Executor {
        fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
            let mut sm = StateMachine::new();
            for (i, request) in self.batch.iter().enumerate() {
                let (seq, reply) = execute_request(&mut sm, request, View(7), i == 1, ctx);
                assert_eq!(seq, SeqNum(i as u64 + 1), "the state machine's next seq");
                assert_eq!(reply.request, request.id);
                assert_eq!(reply.view, View(7));
                assert_eq!(reply.speculative, i == 1);
                assert_eq!(reply.state_digest, sm.digest());
            }
        }

        fn on_message(&mut self, _: NodeId, _: &u64, _: &mut Context<'_, u64>) {}
    }

    #[test]
    fn execution_step_charges_work_and_observes_execute() {
        let txn = |ops: Vec<Op>| Transaction { ops };
        let batch = vec![
            Request::new(
                ClientId(0),
                1,
                txn(vec![Op::Work(5), Op::Put(1, 1), Op::Work(2)]),
            ),
            Request::new(ClientId(0), 2, txn(vec![Op::Get(1)])),
            Request::new(ClientId(1), 1, txn(vec![Op::Work(3)])),
        ];
        let mut sim: Simulation<u64> = Simulation::new(NetworkModel::new(NetworkConfig::lan()), 1);
        sim.add_replica(
            0,
            Box::new(Executor {
                batch: batch.clone(),
            }),
        );
        sim.run(SimTime(1_000_000));
        let executes: Vec<_> = sim
            .log()
            .entries
            .iter()
            .filter_map(|e| match e.obs {
                Observation::Execute { seq, request, .. } => Some((e.at, seq, request)),
                _ => None,
            })
            .collect();
        // 1 µs of virtual time per Work unit, charged before the request
        // executes: 7 µs, then nothing, then 3 µs more
        assert_eq!(
            executes,
            vec![
                (SimTime(7_000), SeqNum(1), batch[0].id),
                (SimTime(7_000), SeqNum(2), batch[1].id),
                (SimTime(10_000), SeqNum(3), batch[2].id),
            ]
        );
    }

    #[test]
    fn signed_request_verifies() {
        let s = Scenario::small(1);
        let store = s.key_store();
        let req = Request::new(ClientId(1), 1, bft_types::Transaction::default());
        let signed = SignedRequest::new(&store, req);
        assert!(signed.verify(&store));
        // tampering breaks it
        let mut bad = signed.clone();
        bad.request.id.timestamp = 99;
        assert!(!bad.verify(&store));
    }

    #[test]
    fn catchup_targets_rotate_and_skip_self() {
        let mut c = Catchup::new(ReplicaId(1), 4, TimerKind::T1WaitReplies, SimDuration(1000));
        assert_eq!(c.targets(), vec![ReplicaId(0), ReplicaId(2)]);
        assert_eq!(c.targets(), vec![ReplicaId(3), ReplicaId(0)]);
        assert_eq!(c.targets(), vec![ReplicaId(2), ReplicaId(3)]);
        // backoff doubles per retry and caps at 8× base
        assert_eq!(c.backoff(), SimDuration(1000));
        c.attempt = 1;
        assert_eq!(c.backoff(), SimDuration(2000));
        c.attempt = 5;
        assert_eq!(c.backoff(), SimDuration(8000));
    }

    #[test]
    fn scenario_n_override_respects_minimum() {
        let mut s = Scenario::small(1);
        assert_eq!(s.n(4), 4);
        s.n_override = Some(7);
        assert_eq!(s.n(4), 7);
        s.n_override = Some(2);
        assert_eq!(s.n(4), 4, "cannot go below the protocol minimum");
    }
}
