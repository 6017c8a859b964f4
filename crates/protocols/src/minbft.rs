//! MinBFT-style consensus with trusted hardware (Veronese et al. '13).
//!
//! Dimension **E1**'s trusted-hardware point: with a tamper-proof *unique
//! sequential identifier generator* (USIG) on every replica, Byzantine
//! behavior is restricted — a replica can no longer *equivocate*, because
//! the hardware will never attest two different messages with the same
//! counter value. That restriction lowers the replica bound from `3f+1` to
//! **`2f+1`** and the commit quorum to a simple majority (`f+1`).
//!
//! ## The hardware substitution (see DESIGN.md)
//!
//! [`Usig`] simulates the trusted component: it hands out strictly
//! increasing counters bound to message digests, and by construction can
//! never attest two different digests under one counter — the exact
//! contract real attested hardware enforces. Verifiers check that each
//! peer's counters advance strictly monotonically, so replayed or forked
//! attestations (the equivocation vectors) are rejected.
//!
//! Structure: `prepare` (leader, with UI) → `commit` (all-to-all, each with
//! its own UI) → execute on `f+1` matching commits.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use bft_crypto::{digest_of, CryptoOp, KeyStore};
use bft_sim::runner::RunOutcome;
use bft_sim::{Actor, Context, NodeId, Observation, SimDuration, Stage, TimerId};
use bft_state::StateMachine;
use bft_types::{
    Digest, QuorumRules, ReplicaId, Reply, RequestId, SeqNum, TimerKind, View, WireSize,
};

use crate::common::{
    execute_request, run_to_completion, ClientProtocol, FutureBuffer, GenericClient, QuorumTracker,
    Scenario, SignedRequest, SubmitPolicy,
};
use crate::registry::ProtocolId;

/// A unique identifier produced by the trusted component: an attested
/// (counter, digest) binding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub struct Ui {
    /// The attesting replica.
    pub replica: ReplicaId,
    /// Strictly increasing counter value.
    pub counter: u64,
    /// The digest bound to the counter.
    pub digest: Digest,
}

impl Ui {
    /// Wire size: counter + digest + attestation signature.
    pub const WIRE_SIZE: usize = 8 + 32 + 64;
}

/// The simulated USIG trusted component. Owned by one replica; enforces the
/// hardware contract that counters are strictly increasing and uniquely
/// bound to digests — even a Byzantine replica implementation cannot violate
/// it (the simulation would panic, which models "the hardware refuses").
#[derive(Debug)]
pub struct Usig {
    replica: ReplicaId,
    next: u64,
}

impl Usig {
    /// Initialize the component for a replica.
    pub fn new(replica: ReplicaId) -> Usig {
        Usig { replica, next: 1 }
    }

    /// Attest a digest: consumes the next counter value. The counter can
    /// never be reused — this is the anti-equivocation guarantee.
    pub fn create_ui(&mut self, digest: Digest) -> Ui {
        let counter = self.next;
        self.next += 1;
        Ui {
            replica: self.replica,
            counter,
            digest,
        }
    }
}

/// Receiver-side uniqueness checking of another replica's UIs.
///
/// The equivocation vectors are *replays* (the same attested counter
/// presented twice) and *forks* (two different digests claiming one
/// counter) — both are rejected. Counters arriving out of order are fine:
/// the network does not provide FIFO channels, a replica interleaves
/// attestations for different message types (its prepares and its commits
/// draw from the same counter), and every unseen counter value is a
/// genuine hardware attestation regardless of arrival order. (The MinBFT
/// paper gets to insist on gap-free counters only because it assumes
/// reliable FIFO point-to-point links; rejecting a late lower counter
/// here would silently drop a valid prepare and wedge the slot.)
#[derive(Debug, Clone, Default)]
pub struct UiVerifier {
    seen: BTreeMap<ReplicaId, BTreeMap<u64, Digest>>,
}

impl UiVerifier {
    /// Accept `ui` iff this counter value has never been presented by that
    /// replica before — replays and forked attestations are rejected.
    pub fn accept(&mut self, ui: &Ui) -> bool {
        let seen = self.seen.entry(ui.replica).or_default();
        match seen.get(&ui.counter) {
            Some(_) => false, // replay, or a fork the hardware cannot emit
            None => {
                seen.insert(ui.counter, ui.digest);
                true
            }
        }
    }
}

/// MinBFT messages.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub enum MinBftMsg {
    /// Client → leader.
    Request(SignedRequest),
    /// Replica → client.
    Reply(Reply),
    /// Leader → all: attested proposal.
    Prepare {
        /// View.
        view: View,
        /// Slot (the leader's UI counter doubles as the sequence number).
        seq: SeqNum,
        /// Leader's UI over the batch digest.
        ui: Ui,
        /// The batch.
        batch: Vec<SignedRequest>,
    },
    /// All → all: attested commit vote.
    Commit {
        /// View.
        view: View,
        /// Slot.
        seq: SeqNum,
        /// Batch digest being committed.
        digest: Digest,
        /// The voter's own UI (binds the vote into its attested history).
        ui: Ui,
        /// Voter.
        from: ReplicaId,
    },
    /// Replica → all: request a view change.
    ReqViewChange {
        /// Target view.
        new_view: View,
        /// Sender.
        from: ReplicaId,
    },
    /// New leader → all: install view, re-proposing undecided slots.
    NewView {
        /// Installed view.
        view: View,
        /// Re-proposals.
        proposals: Vec<(SeqNum, Digest, Vec<SignedRequest>)>,
    },
}

impl WireSize for MinBftMsg {
    fn wire_size(&self) -> usize {
        match self {
            MinBftMsg::Request(r) => 1 + r.wire_size(),
            MinBftMsg::Reply(r) => 1 + r.wire_size(),
            MinBftMsg::Prepare { batch, .. } => 1 + 16 + Ui::WIRE_SIZE + batch.wire_size(),
            MinBftMsg::Commit { .. } => 1 + 16 + 32 + Ui::WIRE_SIZE + 4,
            MinBftMsg::ReqViewChange { .. } => 1 + 8 + 4 + 64,
            MinBftMsg::NewView { proposals, .. } => {
                1 + 8
                    + proposals
                        .iter()
                        .map(|(_, _, b)| 40 + b.wire_size())
                        .sum::<usize>()
                    + 64
            }
        }
    }
}

#[derive(Debug, Clone, Default)]
struct MinSlot {
    digest: Option<Digest>,
    batch: Vec<SignedRequest>,
    commits: Vec<ReplicaId>,
    committed: bool,
    executed: bool,
    sent_commit: bool,
}

/// A MinBFT replica with its trusted component.
pub struct MinBftReplica {
    me: ReplicaId,
    q: QuorumRules,
    store: Arc<KeyStore>,
    usig: Usig,
    verifier: UiVerifier,
    view: View,
    next_seq: SeqNum,
    slots: BTreeMap<SeqNum, MinSlot>,
    mempool: VecDeque<SignedRequest>,
    executed_reqs: BTreeMap<RequestId, ()>,
    sm: StateMachine,
    exec_cursor: SeqNum,
    in_view_change: bool,
    vc_votes: QuorumTracker<View>,
    vc_timer: Option<TimerId>,
    pending_reqs: Vec<RequestId>,
    ahead: FutureBuffer<View, MinBftMsg>,
    view_timeout: SimDuration,
    batch_size: usize,
}

impl MinBftReplica {
    /// Create a replica (provisions its trusted component).
    pub fn new(
        me: ReplicaId,
        q: QuorumRules,
        store: Arc<KeyStore>,
        view_timeout: SimDuration,
        batch_size: usize,
    ) -> Self {
        MinBftReplica {
            me,
            q,
            store,
            usig: Usig::new(me),
            verifier: UiVerifier::default(),
            view: View(0),
            next_seq: SeqNum(1),
            slots: BTreeMap::new(),
            mempool: VecDeque::new(),
            executed_reqs: BTreeMap::new(),
            sm: StateMachine::new(),
            exec_cursor: SeqNum(0),
            in_view_change: false,
            vc_votes: QuorumTracker::new(),
            vc_timer: None,
            pending_reqs: Vec::new(),
            ahead: FutureBuffer::default(),
            view_timeout,
            batch_size,
        }
    }

    fn leader(&self) -> ReplicaId {
        self.view.leader_of(self.q.n)
    }

    fn is_leader(&self) -> bool {
        self.leader() == self.me
    }

    /// Commit quorum: a simple majority (`f+1` of `2f+1`) — trusted
    /// hardware removes equivocation, so single-correct-replica
    /// intersection suffices.
    fn commit_quorum(&self) -> usize {
        self.q.trusted_quorum()
    }

    fn propose(&mut self, ctx: &mut Context<'_, MinBftMsg>) {
        if !self.is_leader() || self.in_view_change {
            return;
        }
        let in_slots: Vec<RequestId> = self
            .slots
            .values()
            .filter(|s| !s.executed)
            .flat_map(|s| s.batch.iter().map(|r| r.request.id))
            .collect();
        let executed = &self.executed_reqs;
        self.mempool
            .retain(|r| !executed.contains_key(&r.request.id) && !in_slots.contains(&r.request.id));
        while !self.mempool.is_empty() {
            let take = self.batch_size.min(self.mempool.len());
            let batch: Vec<SignedRequest> = self.mempool.drain(..take).collect();
            let seq = self.next_seq;
            self.next_seq = self.next_seq.next();
            let digest = digest_of(&batch);
            ctx.charge_crypto(CryptoOp::Hash);
            // USIG attestation (modeled at signature cost)
            ctx.charge_crypto(CryptoOp::Sign);
            let ui = self.usig.create_ui(digest);
            let view = self.view;
            {
                let slot = self.slots.entry(seq).or_default();
                slot.digest = Some(digest);
                slot.batch = batch.clone();
            }
            ctx.broadcast_replicas(MinBftMsg::Prepare {
                view,
                seq,
                ui,
                batch,
            });
            self.send_commit(seq, digest, ctx);
        }
    }

    fn send_commit(&mut self, seq: SeqNum, digest: Digest, ctx: &mut Context<'_, MinBftMsg>) {
        let view = self.view;
        let me = self.me;
        {
            let slot = self.slots.entry(seq).or_default();
            if slot.sent_commit {
                return;
            }
            slot.sent_commit = true;
        }
        ctx.charge_crypto(CryptoOp::Sign);
        let ui = self.usig.create_ui(digest);
        ctx.broadcast_replicas(MinBftMsg::Commit {
            view,
            seq,
            digest,
            ui,
            from: me,
        });
        self.record_commit(me, seq, digest, ctx);
    }

    fn record_commit(
        &mut self,
        from: ReplicaId,
        seq: SeqNum,
        digest: Digest,
        ctx: &mut Context<'_, MinBftMsg>,
    ) {
        let quorum = self.commit_quorum();
        let view = self.view;
        let slot = self.slots.entry(seq).or_default();
        if slot.digest.is_some() && slot.digest != Some(digest) {
            return;
        }
        if !slot.commits.contains(&from) {
            slot.commits.push(from);
        }
        if !slot.committed && slot.commits.len() >= quorum && slot.digest == Some(digest) {
            slot.committed = true;
            ctx.observe(Observation::Commit {
                seq,
                view,
                digest,
                speculative: false,
            });
            self.try_execute(ctx);
        }
    }

    fn try_execute(&mut self, ctx: &mut Context<'_, MinBftMsg>) {
        loop {
            let next = self.exec_cursor.next();
            let Some(slot) = self.slots.get(&next) else {
                break;
            };
            if !slot.committed || slot.executed {
                break;
            }
            let batch = slot.batch.clone();
            let view = self.view;
            ctx.observe(Observation::StageEnter {
                stage: Stage::Execution,
            });
            for signed in &batch {
                let (_, reply) = execute_request(&mut self.sm, &signed.request, view, false, ctx);
                self.executed_reqs.insert(signed.request.id, ());
                self.pending_reqs.retain(|r| *r != signed.request.id);
                ctx.charge_crypto(CryptoOp::Sign);
                ctx.send(
                    NodeId::Client(signed.request.id.client),
                    MinBftMsg::Reply(reply),
                );
            }
            let slot = self.slots.get_mut(&next).expect("slot exists");
            slot.executed = true;
            self.exec_cursor = next;
            ctx.observe(Observation::StageEnter {
                stage: Stage::Ordering,
            });
            if self.pending_reqs.is_empty() {
                if let Some(t) = self.vc_timer.take() {
                    ctx.cancel_timer(t);
                }
            }
        }
    }

    fn start_view_change(&mut self, target: View, ctx: &mut Context<'_, MinBftMsg>) {
        if target <= self.view {
            return;
        }
        if self.in_view_change && self.vc_votes.max_key().is_some_and(|v| *v >= target) {
            return;
        }
        self.in_view_change = true;
        ctx.observe(Observation::StageEnter {
            stage: Stage::ViewChange,
        });
        ctx.charge_crypto(CryptoOp::Sign);
        let me = self.me;
        ctx.broadcast_replicas(MinBftMsg::ReqViewChange {
            new_view: target,
            from: me,
        });
        self.record_vc(me, target, ctx);
        self.vc_timer = Some(ctx.set_timer(TimerKind::T2ViewChange, self.view_timeout));
    }

    fn record_vc(&mut self, from: ReplicaId, target: View, ctx: &mut Context<'_, MinBftMsg>) {
        let Some(have) = self.vc_votes.vote(target, from) else {
            return;
        };
        // join on a single foreign request (f+1 would need f ≥ 1 peers in a
        // 2f+1 cluster; one attested request from another replica suffices
        // to at least consider the view suspect — we join at f+1 as usual)
        if target > self.view && !self.in_view_change && have > self.q.f {
            self.start_view_change(target, ctx);
            return;
        }
        if target.leader_of(self.q.n) == self.me
            && self.in_view_change
            && have >= self.commit_quorum()
        {
            // re-propose undecided slots
            let proposals: Vec<(SeqNum, Digest, Vec<SignedRequest>)> = self
                .slots
                .iter()
                .filter(|(seq, s)| !s.executed && **seq > self.exec_cursor && s.digest.is_some())
                .map(|(seq, s)| (*seq, s.digest.unwrap(), s.batch.clone()))
                .collect();
            ctx.charge_crypto(CryptoOp::Sign);
            ctx.broadcast_replicas(MinBftMsg::NewView {
                view: target,
                proposals: proposals.clone(),
            });
            self.install_view(target, proposals, ctx);
        }
    }

    fn install_view(
        &mut self,
        view: View,
        proposals: Vec<(SeqNum, Digest, Vec<SignedRequest>)>,
        ctx: &mut Context<'_, MinBftMsg>,
    ) {
        self.view = view;
        self.in_view_change = false;
        self.vc_votes.retain(|v| *v > view);
        if let Some(t) = self.vc_timer.take() {
            ctx.cancel_timer(t);
        }
        ctx.observe(Observation::NewView { view });
        ctx.observe(Observation::StageEnter {
            stage: Stage::Ordering,
        });
        let exec_cursor = self.exec_cursor;
        let re_proposed: Vec<SeqNum> = proposals.iter().map(|(s, _, _)| *s).collect();
        let mut stranded: Vec<SignedRequest> = Vec::new();
        self.slots.retain(|seq, slot| {
            if *seq > exec_cursor && !slot.executed && !re_proposed.contains(seq) {
                stranded.append(&mut slot.batch);
                false
            } else {
                true
            }
        });
        for r in stranded {
            if !self.executed_reqs.contains_key(&r.request.id)
                && !self.mempool.iter().any(|m| m.request.id == r.request.id)
            {
                self.mempool.push_back(r);
            }
        }
        let max_seq = proposals
            .iter()
            .map(|(s, _, _)| *s)
            .max()
            .unwrap_or(exec_cursor);
        for (seq, digest, batch) in proposals {
            if seq <= exec_cursor {
                continue;
            }
            {
                let slot = self.slots.entry(seq).or_default();
                if slot.executed {
                    continue;
                }
                slot.digest = Some(digest);
                slot.batch = batch;
                slot.committed = false;
                slot.sent_commit = false;
                slot.commits.clear();
            }
            self.send_commit(seq, digest, ctx);
        }
        if self.is_leader() {
            self.next_seq = self
                .next_seq
                .max(max_seq.next())
                .max(self.exec_cursor.next());
            self.propose(ctx);
        }
        for (from, msg) in self.ahead.take(self.view) {
            self.on_message(from, &msg, ctx);
        }
    }
}

impl Actor<MinBftMsg> for MinBftReplica {
    fn on_start(&mut self, ctx: &mut Context<'_, MinBftMsg>) {
        ctx.observe(Observation::StageEnter {
            stage: Stage::Ordering,
        });
    }

    fn on_message(&mut self, from: NodeId, msg: &MinBftMsg, ctx: &mut Context<'_, MinBftMsg>) {
        match msg {
            MinBftMsg::Request(signed) => {
                ctx.charge_crypto(CryptoOp::Verify);
                if !signed.verify(&self.store) {
                    return;
                }
                if self.executed_reqs.contains_key(&signed.request.id) {
                    if let Some((id, result)) = self.sm.cached_reply(signed.request.id.client) {
                        if *id == signed.request.id {
                            let reply = Reply {
                                request: *id,
                                view: self.view,
                                result: result.clone(),
                                state_digest: self.sm.digest(),
                                speculative: false,
                            };
                            ctx.send(NodeId::Client(id.client), MinBftMsg::Reply(reply));
                        }
                    }
                    return;
                }
                if !self
                    .mempool
                    .iter()
                    .any(|r| r.request.id == signed.request.id)
                {
                    self.mempool.push_back(signed.clone());
                }
                if self.is_leader() {
                    self.propose(ctx);
                } else {
                    let leader = self.leader();
                    ctx.send(NodeId::Replica(leader), MinBftMsg::Request(signed.clone()));
                    if !self.pending_reqs.contains(&signed.request.id) {
                        self.pending_reqs.push(signed.request.id);
                    }
                    if self.vc_timer.is_none() && !self.in_view_change {
                        self.vc_timer =
                            Some(ctx.set_timer(TimerKind::T2ViewChange, self.view_timeout));
                    }
                }
            }
            MinBftMsg::Prepare {
                view,
                seq,
                ui,
                batch,
            } => {
                let (view, seq, ui) = (*view, *seq, *ui);
                let m = MinBftMsg::Prepare {
                    view,
                    seq,
                    ui,
                    batch: batch.clone(),
                };
                if !self
                    .ahead
                    .admit(self.view, self.in_view_change, from, view, m)
                {
                    return;
                }
                if from != NodeId::Replica(self.leader()) || ui.replica != self.leader() {
                    return;
                }
                ctx.charge_crypto(CryptoOp::Verify); // UI attestation check
                ctx.charge_crypto(CryptoOp::Hash);
                let digest = digest_of(batch);
                if ui.digest != digest {
                    return; // attestation does not match the payload
                }
                // continuity: the trusted counter must advance one by one —
                // gaps reveal suppressed messages, replays reveal forks
                if !self.verifier.accept(&ui) {
                    return; // replayed or rolled-back counter: attack
                }
                let ids: Vec<RequestId> = batch.iter().map(|r| r.request.id).collect();
                self.mempool.retain(|r| !ids.contains(&r.request.id));
                {
                    let slot = self.slots.entry(seq).or_default();
                    if slot.digest.is_some() && slot.digest != Some(digest) {
                        return;
                    }
                    slot.digest = Some(digest);
                    slot.batch = batch.clone();
                }
                self.send_commit(seq, digest, ctx);
            }
            MinBftMsg::Commit {
                view,
                seq,
                digest,
                ui,
                from: r,
            } => {
                let (view, seq, digest, ui, r) = (*view, *seq, *digest, *ui, *r);
                let m = MinBftMsg::Commit {
                    view,
                    seq,
                    digest,
                    ui,
                    from: r,
                };
                if !self
                    .ahead
                    .admit(self.view, self.in_view_change, from, view, m)
                {
                    return;
                }
                if ui.replica != r || ui.digest != digest {
                    return;
                }
                ctx.charge_crypto(CryptoOp::Verify);
                self.record_commit(r, seq, digest, ctx);
            }
            MinBftMsg::ReqViewChange { new_view, from: r } => {
                ctx.charge_crypto(CryptoOp::Verify);
                self.record_vc(*r, *new_view, ctx);
            }
            MinBftMsg::NewView { view, proposals } => {
                if *view >= self.view && from == NodeId::Replica(view.leader_of(self.q.n)) {
                    ctx.charge_crypto(CryptoOp::Verify);
                    self.install_view(*view, proposals.clone(), ctx);
                }
            }
            MinBftMsg::Reply(_) => {}
        }
    }

    fn on_timer(&mut self, id: TimerId, kind: TimerKind, ctx: &mut Context<'_, MinBftMsg>) {
        if kind == TimerKind::T2ViewChange && Some(id) == self.vc_timer {
            self.vc_timer = None;
            if self.in_view_change {
                let target = self.vc_votes.max_key().copied().unwrap_or(self.view).next();
                self.start_view_change(target, ctx);
            } else if !self.pending_reqs.is_empty() {
                let target = self.view.next();
                self.start_view_change(target, ctx);
            }
        }
    }
}

/// MinBFT client hooks: f+1 matching replies.
pub struct MinBftClientProto;

impl ClientProtocol for MinBftClientProto {
    type Msg = MinBftMsg;

    fn wrap_request(req: SignedRequest) -> MinBftMsg {
        MinBftMsg::Request(req)
    }

    fn unwrap_reply(msg: &MinBftMsg) -> Option<&Reply> {
        match msg {
            MinBftMsg::Reply(r) => Some(r),
            _ => None,
        }
    }

    fn submit_policy() -> SubmitPolicy {
        SubmitPolicy::LeaderThenBroadcast
    }

    fn reply_quorum(q: &QuorumRules) -> usize {
        q.weak()
    }
}

/// Run MinBFT under a scenario (n = 2f+1).
pub fn run(scenario: &Scenario) -> RunOutcome {
    let n = scenario.n(ProtocolId::MinBft.min_n(scenario.f));
    let q = QuorumRules { n, f: scenario.f };
    let store = scenario.key_store();
    let view_timeout = SimDuration(scenario.network.delta.0 * 4);

    let mut sim = scenario.build_engine::<MinBftMsg>(n);
    for i in 0..n as u32 {
        sim.add_replica(
            i,
            Box::new(MinBftReplica::new(
                ReplicaId(i),
                q,
                store.clone(),
                view_timeout,
                scenario.batch_size,
            )),
        );
    }
    for c in 0..scenario.clients as u64 {
        sim.add_client(
            c,
            Box::new(GenericClient::<MinBftClientProto>::new(scenario, q, c)),
        );
    }
    run_to_completion(sim, scenario.total_requests(), scenario.max_time)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bft_sim::SafetyAuditor;

    fn accepted(out: &RunOutcome) -> usize {
        out.log.client_latencies().len()
    }

    #[test]
    fn three_replicas_tolerate_one_fault_budget() {
        // n = 2f+1 = 3: the headline property of trusted hardware
        let s = Scenario::small(1).with_load(1, 30);
        let out = run(&s);
        SafetyAuditor::all_correct().assert_safe(&out.log);
        assert_eq!(accepted(&out), 30);
        assert_eq!(
            out.metrics.nodes().filter(|(n, _)| n.is_replica()).count(),
            3
        );
    }

    #[test]
    fn usig_counters_are_sequential() {
        let mut usig = Usig::new(ReplicaId(0));
        let a = usig.create_ui(Digest([1; 32]));
        let b = usig.create_ui(Digest([2; 32]));
        assert_eq!(a.counter, 1);
        assert_eq!(b.counter, 2);
        let mut v = UiVerifier::default();
        assert!(v.accept(&a));
        assert!(v.accept(&b));
        // replays rejected — the anti-equivocation core
        assert!(!v.accept(&a));
        assert!(!v.accept(&b));
        // out-of-order arrival of a fresh attestation is accepted (the
        // network is not FIFO), but replaying it afterwards is not
        let mut v2 = UiVerifier::default();
        assert!(v2.accept(&b));
        assert!(
            v2.accept(&a),
            "late lower counter is still a valid attestation"
        );
        assert!(!v2.accept(&a), "…but only once");
    }

    #[test]
    fn leader_crash_view_change() {
        use bft_sim::{FaultPlan, SimTime};
        let s = Scenario::small(1)
            .with_load(1, 15)
            .with_faults(FaultPlan::none().crash(NodeId::replica(0), SimTime(3_000_000)));
        let out = run(&s);
        SafetyAuditor::excluding(vec![NodeId::replica(0)]).assert_safe(&out.log);
        assert!(out.log.max_view() >= View(1));
        assert_eq!(accepted(&out), 15, "f+1 = 2 of 3 replicas continue");
    }

    #[test]
    fn deterministic() {
        let s = Scenario::small(1).with_load(1, 10);
        let a = run(&s);
        let b = run(&s);
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.end_time, b.end_time);
    }
}
