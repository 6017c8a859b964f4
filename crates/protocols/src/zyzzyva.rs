//! Zyzzyva — speculative Byzantine fault tolerance (Kotla et al. '07).
//!
//! Design choice 8 (*speculative execution*) applied to PBFT: the prepare
//! and commit phases are gone. The leader assigns an order and replicas
//! **execute immediately**, replying speculatively. Correctness moves to the
//! client (dimension P6: the *repairer* role):
//!
//! * **Fast path** — all `n` replicas reply with matching results: the
//!   request is complete in 3 one-way hops (client → leader → replicas →
//!   client). Requires every replica to be correct and timely (assumptions
//!   a1 + a2).
//! * **Commit-certificate path** — after timer τ1 with only `2f+1`
//!   matching replies, the client assembles a *commit certificate* and
//!   sends it to the replicas; on receipt they mark the history committed
//!   and acknowledge; `2f+1` acks complete the request.
//! * **View change** — fewer than `2f+1` matching replies means the leader
//!   equivocated or stalled; the client broadcasts the request to all
//!   replicas (confirm-request), replicas forward to the leader and start
//!   τ2, and a PBFT-style view change replaces the leader. Speculative
//!   executions above the last commit certificate roll back.
//!
//! **Zyzzyva5** (design choice 10, *resilience*) runs the same code with
//! `n = 5f+1` and a fast quorum of `4f+1`: the fast path then survives `f`
//! actual faults instead of zero.

use std::collections::BTreeMap;
use std::sync::Arc;

use bft_crypto::{digest_of, CryptoOp, KeyStore};
use bft_sim::runner::RunOutcome;
use bft_sim::{Actor, Context, NodeId, Observation, SimDuration, SimTime, Stage, TimerId};
use bft_state::StateMachine;
use bft_types::{
    ClientId, Digest, QuorumRules, ReplicaId, Reply, Request, RequestId, SeqNum, TimerKind,
    TxnResult, View, WireSize,
};

use crate::common::{execute_request, run_to_completion, QuorumTracker, Scenario, SignedRequest};
use crate::registry::ProtocolId;
use bft_core::client::ReplyCollector;
use bft_core::workload::Workload;

/// Zyzzyva protocol messages.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub enum ZyzzyvaMsg {
    /// Client → leader: a signed request.
    Request(SignedRequest),
    /// Client → all replicas: the request again, after a failed fast path
    /// (confirm-request: forces the leader's hand and arms τ2 at backups).
    ConfirmRequest(SignedRequest),
    /// Leader → replicas: speculative order assignment.
    OrderReq {
        /// View.
        view: View,
        /// Sequence number.
        seq: SeqNum,
        /// Request digest.
        digest: Digest,
        /// The ordered request.
        request: SignedRequest,
    },
    /// Replica → client: speculative execution result plus its history
    /// position (needed to aim the commit certificate).
    SpecReply {
        /// The reply.
        reply: Reply,
        /// Position in the speculative history.
        seq: SeqNum,
    },
    /// Client → replicas: commit certificate (2f+1 matching speculative
    /// replies for everything up to `seq`).
    CommitCert {
        /// Request this certifies.
        request: RequestId,
        /// View.
        view: View,
        /// History position.
        seq: SeqNum,
        /// Matching state digest.
        state_digest: Digest,
        /// The 2f+1 replicas whose replies matched.
        replicas: Vec<ReplicaId>,
    },
    /// Replica → client: local-commit acknowledgment of a certificate.
    LocalCommit {
        /// The certified request.
        request: RequestId,
        /// View.
        view: View,
        /// Acknowledging replica.
        from: ReplicaId,
        /// Its state digest at the certified position.
        state_digest: Digest,
    },
    /// Replica → all: abandon the current view.
    ViewChange {
        /// Proposed view.
        new_view: View,
        /// The replica's highest commit certificate position.
        max_cc: SeqNum,
        /// Sender.
        from: ReplicaId,
    },
    /// New leader → all: install the view; history is truncated to the
    /// highest commit certificate among 2f+1 view-change messages.
    NewView {
        /// Installed view.
        view: View,
        /// History position everyone restarts from.
        from_seq: SeqNum,
    },
}

impl WireSize for ZyzzyvaMsg {
    fn wire_size(&self) -> usize {
        match self {
            ZyzzyvaMsg::Request(r) | ZyzzyvaMsg::ConfirmRequest(r) => 1 + r.wire_size(),
            ZyzzyvaMsg::OrderReq { request, .. } => 1 + 8 + 8 + 32 + request.wire_size() + 32,
            ZyzzyvaMsg::SpecReply { reply, .. } => 1 + reply.wire_size() + 8,
            ZyzzyvaMsg::CommitCert { replicas, .. } => 1 + 16 + 8 + 8 + 32 + replicas.len() * 36,
            ZyzzyvaMsg::LocalCommit { .. } => 1 + 16 + 8 + 4 + 32 + 32,
            ZyzzyvaMsg::ViewChange { .. } => 1 + 8 + 8 + 4 + 64,
            ZyzzyvaMsg::NewView { .. } => 1 + 8 + 8 + 64,
        }
    }
}

/// A Zyzzyva replica.
pub struct ZyzzyvaReplica {
    me: ReplicaId,
    q: QuorumRules,
    store: Arc<KeyStore>,
    view: View,
    next_seq: SeqNum,
    /// Ordered-but-not-yet-executed assignments (gap buffer).
    pending: BTreeMap<SeqNum, SignedRequest>,
    /// All requests this replica has seen, for re-proposal after view
    /// change.
    known: BTreeMap<RequestId, SignedRequest>,
    executed: BTreeMap<RequestId, SeqNum>,
    sm: StateMachine,
    /// Highest history position covered by a commit certificate.
    max_cc: SeqNum,
    /// τ2 timers per outstanding confirm-request.
    vc_timer: Option<TimerId>,
    pending_confirm: Vec<RequestId>,
    in_view_change: bool,
    vc_votes: BTreeMap<View, Vec<(ReplicaId, SeqNum)>>,
    view_timeout: SimDuration,
    /// Order assignments that raced ahead of the new-view message.
    future_orders: Vec<(NodeId, ZyzzyvaMsg)>,
}

impl ZyzzyvaReplica {
    /// Create a replica.
    pub fn new(
        me: ReplicaId,
        q: QuorumRules,
        store: Arc<KeyStore>,
        view_timeout: SimDuration,
    ) -> Self {
        ZyzzyvaReplica {
            me,
            q,
            store,
            view: View(0),
            next_seq: SeqNum(1),
            pending: BTreeMap::new(),
            known: BTreeMap::new(),
            executed: BTreeMap::new(),
            sm: StateMachine::new(),
            max_cc: SeqNum(0),
            vc_timer: None,
            pending_confirm: Vec::new(),
            in_view_change: false,
            vc_votes: BTreeMap::new(),
            view_timeout,
            future_orders: Vec::new(),
        }
    }

    fn leader(&self) -> ReplicaId {
        self.view.leader_of(self.q.n)
    }

    fn is_leader(&self) -> bool {
        self.leader() == self.me
    }

    fn order(&mut self, signed: SignedRequest, ctx: &mut Context<'_, ZyzzyvaMsg>) {
        if !self.is_leader() || self.in_view_change {
            return;
        }
        if self.executed.contains_key(&signed.request.id) {
            return;
        }
        // already ordered and in flight?
        if self
            .pending
            .values()
            .any(|r| r.request.id == signed.request.id)
        {
            return;
        }
        let seq = self.next_seq;
        self.next_seq = self.next_seq.next();
        let digest = signed.digest();
        ctx.charge_crypto(CryptoOp::Hash);
        ctx.charge_crypto(CryptoOp::Sign); // order requests are signed
        let view = self.view;
        ctx.broadcast_replicas(ZyzzyvaMsg::OrderReq {
            view,
            seq,
            digest,
            request: signed.clone(),
        });
        self.accept_order(seq, signed, ctx);
    }

    fn accept_order(
        &mut self,
        seq: SeqNum,
        signed: SignedRequest,
        ctx: &mut Context<'_, ZyzzyvaMsg>,
    ) {
        self.known.insert(signed.request.id, signed.clone());
        self.pending.insert(seq, signed);
        self.execute_ready(ctx);
    }

    fn execute_ready(&mut self, ctx: &mut Context<'_, ZyzzyvaMsg>) {
        while let Some(signed) = self.pending.remove(&self.sm.last_executed().next()) {
            let (seq, reply) = execute_request(&mut self.sm, &signed.request, self.view, true, ctx);
            ctx.observe(Observation::Commit {
                seq,
                view: self.view,
                digest: signed.digest(),
                speculative: true,
            });
            self.executed.insert(signed.request.id, seq);
            self.pending_confirm.retain(|r| *r != signed.request.id);
            ctx.charge_crypto(CryptoOp::MacGen);
            ctx.send(
                NodeId::Client(signed.request.id.client),
                ZyzzyvaMsg::SpecReply { reply, seq },
            );
        }
        if self.pending_confirm.is_empty() {
            if let Some(t) = self.vc_timer.take() {
                ctx.cancel_timer(t);
            }
        }
    }

    fn on_commit_cert(
        &mut self,
        request: RequestId,
        seq: SeqNum,
        state_digest: Digest,
        ctx: &mut Context<'_, ZyzzyvaMsg>,
    ) {
        ctx.charge_crypto_n(CryptoOp::MacVerify, self.q.quorum());
        // adopt: everything up to seq is now committed (final). The final
        // commit is observed with the *state* digest at the certified
        // position — matching certificates imply matching histories.
        if seq > self.max_cc && seq <= self.sm.last_executed() {
            ctx.observe(Observation::Commit {
                seq,
                view: self.view,
                digest: state_digest,
                speculative: false,
            });
            self.max_cc = seq;
            self.sm.confirm_up_to(seq);
        }
        let me = self.me;
        let view = self.view;
        ctx.charge_crypto(CryptoOp::MacGen);
        ctx.send(
            NodeId::Client(request.client),
            ZyzzyvaMsg::LocalCommit {
                request,
                view,
                from: me,
                state_digest,
            },
        );
    }

    fn on_confirm_request(&mut self, signed: SignedRequest, ctx: &mut Context<'_, ZyzzyvaMsg>) {
        ctx.charge_crypto(CryptoOp::Verify);
        if !signed.verify(&self.store) {
            return;
        }
        // answer from cache if already executed
        if self.executed.contains_key(&signed.request.id) {
            if let Some((id, result)) = self.sm.cached_reply(signed.request.id.client) {
                if *id == signed.request.id {
                    let reply = Reply {
                        request: *id,
                        view: self.view,
                        result: result.clone(),
                        state_digest: self.sm.digest(),
                        speculative: true,
                    };
                    let seq = self.sm.last_executed();
                    ctx.send(
                        NodeId::Client(id.client),
                        ZyzzyvaMsg::SpecReply { reply, seq },
                    );
                    return;
                }
            }
        }
        self.known.insert(signed.request.id, signed.clone());
        if self.is_leader() {
            self.order(signed, ctx);
        } else {
            // forward to the leader and hold it accountable (τ2)
            let leader = self.leader();
            ctx.send(NodeId::Replica(leader), ZyzzyvaMsg::Request(signed.clone()));
            if !self.pending_confirm.contains(&signed.request.id) {
                self.pending_confirm.push(signed.request.id);
            }
            if self.vc_timer.is_none() && !self.in_view_change {
                self.vc_timer = Some(ctx.set_timer(TimerKind::T2ViewChange, self.view_timeout));
            }
        }
    }

    fn start_view_change(&mut self, target: View, ctx: &mut Context<'_, ZyzzyvaMsg>) {
        if target <= self.view || self.in_view_change {
            return;
        }
        self.in_view_change = true;
        ctx.observe(Observation::StageEnter {
            stage: Stage::ViewChange,
        });
        ctx.charge_crypto(CryptoOp::Sign);
        let me = self.me;
        let max_cc = self.max_cc;
        ctx.broadcast_replicas(ZyzzyvaMsg::ViewChange {
            new_view: target,
            max_cc,
            from: me,
        });
        self.record_vc(me, target, max_cc, ctx);
    }

    fn record_vc(
        &mut self,
        from: ReplicaId,
        target: View,
        max_cc: SeqNum,
        ctx: &mut Context<'_, ZyzzyvaMsg>,
    ) {
        let votes = self.vc_votes.entry(target).or_default();
        if votes.iter().any(|(r, _)| *r == from) {
            return;
        }
        votes.push((from, max_cc));
        let have = votes.len();
        // join rule
        if target > self.view && !self.in_view_change && have > self.q.f {
            self.start_view_change(target, ctx);
            return;
        }
        if target.leader_of(self.q.n) == self.me && self.in_view_change && have >= self.q.quorum() {
            let from_seq = votes.iter().map(|(_, cc)| *cc).max().unwrap_or(SeqNum(0));
            ctx.charge_crypto(CryptoOp::Sign);
            ctx.broadcast_replicas(ZyzzyvaMsg::NewView {
                view: target,
                from_seq,
            });
            self.install_view(target, from_seq, ctx);
        }
    }

    fn install_view(&mut self, view: View, from_seq: SeqNum, ctx: &mut Context<'_, ZyzzyvaMsg>) {
        self.view = view;
        self.in_view_change = false;
        self.vc_votes.retain(|v, _| *v > view);
        if let Some(t) = self.vc_timer.take() {
            ctx.cancel_timer(t);
        }
        self.pending_confirm.clear();
        ctx.observe(Observation::NewView { view });
        ctx.observe(Observation::StageEnter {
            stage: Stage::Ordering,
        });
        // roll back speculation above the agreed commit point
        let restart_from = from_seq.max(self.max_cc);
        if self.sm.last_executed() > restart_from {
            let undone = self.sm.rollback_to(restart_from.next());
            if undone > 0 {
                ctx.observe(Observation::Rollback {
                    from_seq: restart_from.next(),
                });
                // rolled-back requests become re-orderable
                let rolled: Vec<RequestId> = self
                    .executed
                    .iter()
                    .filter(|(_, s)| **s > restart_from)
                    .map(|(id, _)| *id)
                    .collect();
                for id in rolled {
                    self.executed.remove(&id);
                }
            }
        }
        self.pending.retain(|s, _| *s > restart_from);
        self.next_seq = restart_from.next();
        if self.is_leader() {
            // re-order everything we know that is not yet executed
            let todo: Vec<SignedRequest> = self
                .known
                .values()
                .filter(|r| !self.executed.contains_key(&r.request.id))
                .cloned()
                .collect();
            for r in todo {
                self.order(r, ctx);
            }
        }
        // replay order assignments that raced ahead of the new-view
        let cur = self.view;
        let (now, later): (Vec<_>, Vec<_>) = std::mem::take(&mut self.future_orders)
            .into_iter()
            .partition(|(_, m)| matches!(m, ZyzzyvaMsg::OrderReq { view, .. } if *view == cur));
        self.future_orders = later
            .into_iter()
            .filter(|(_, m)| matches!(m, ZyzzyvaMsg::OrderReq { view, .. } if *view > cur))
            .collect();
        for (from, msg) in now {
            self.on_message(from, &msg, ctx);
        }
    }
}

impl Actor<ZyzzyvaMsg> for ZyzzyvaReplica {
    fn on_start(&mut self, ctx: &mut Context<'_, ZyzzyvaMsg>) {
        ctx.observe(Observation::StageEnter {
            stage: Stage::Ordering,
        });
    }

    fn on_message(&mut self, from: NodeId, msg: &ZyzzyvaMsg, ctx: &mut Context<'_, ZyzzyvaMsg>) {
        match msg {
            ZyzzyvaMsg::Request(signed) => {
                ctx.charge_crypto(CryptoOp::Verify);
                if signed.verify(&self.store) {
                    self.known.insert(signed.request.id, signed.clone());
                    self.order(signed.clone(), ctx);
                }
            }
            ZyzzyvaMsg::ConfirmRequest(signed) => self.on_confirm_request(signed.clone(), ctx),
            ZyzzyvaMsg::OrderReq {
                view,
                seq,
                digest,
                request,
            } => {
                let (view, seq, digest) = (*view, *seq, *digest);
                if view > self.view || (self.in_view_change && view == self.view) {
                    if self.future_orders.len() < 10_000 {
                        self.future_orders.push((
                            from,
                            ZyzzyvaMsg::OrderReq {
                                view,
                                seq,
                                digest,
                                request: request.clone(),
                            },
                        ));
                    }
                    return;
                }
                if view != self.view || self.in_view_change {
                    return;
                }
                if from != NodeId::Replica(self.leader()) {
                    return;
                }
                ctx.charge_crypto(CryptoOp::Verify);
                if digest_of(&request.request) != digest {
                    return;
                }
                if seq <= self.sm.last_executed() {
                    return; // old or conflicting assignment
                }
                self.accept_order(seq, request.clone(), ctx);
            }
            ZyzzyvaMsg::CommitCert {
                request,
                view,
                seq,
                state_digest,
                replicas,
            } => {
                if replicas.len() >= self.q.quorum() && *view <= self.view {
                    self.on_commit_cert(*request, *seq, *state_digest, ctx);
                }
            }
            ZyzzyvaMsg::ViewChange {
                new_view,
                max_cc,
                from: r,
            } => {
                ctx.charge_crypto(CryptoOp::Verify);
                self.record_vc(*r, *new_view, *max_cc, ctx);
            }
            ZyzzyvaMsg::NewView { view, from_seq } => {
                if *view >= self.view && from == NodeId::Replica(view.leader_of(self.q.n)) {
                    ctx.charge_crypto(CryptoOp::Verify);
                    self.install_view(*view, *from_seq, ctx);
                }
            }
            ZyzzyvaMsg::SpecReply { .. } | ZyzzyvaMsg::LocalCommit { .. } => {}
        }
    }

    fn on_timer(&mut self, id: TimerId, kind: TimerKind, ctx: &mut Context<'_, ZyzzyvaMsg>) {
        if kind == TimerKind::T2ViewChange && Some(id) == self.vc_timer {
            self.vc_timer = None;
            if !self.pending_confirm.is_empty() {
                let target = self.view.next();
                self.start_view_change(target, ctx);
            }
        }
    }
}

/// The Zyzzyva client: the *repairer* of dimension P6. Drives the fast
/// path, assembles commit certificates, and escalates to confirm-requests.
pub struct ZyzzyvaClient {
    id: ClientId,
    q: QuorumRules,
    /// Matching replies needed for single-round completion (n for Zyzzyva,
    /// 4f+1 for Zyzzyva5).
    fast_quorum: usize,
    store: Arc<KeyStore>,
    workload: Workload,
    total: u64,
    sent: u64,
    in_flight: Option<(RequestId, SignedRequest, SimTime)>,
    collector: ReplyCollector,
    /// Local-commit acks per (request, state digest).
    lc_acks: QuorumTracker<Digest>,
    /// History position reported alongside each state digest.
    seq_of_digest: BTreeMap<Digest, SeqNum>,
    phase: ClientPhase,
    leader_hint: ReplicaId,
    t1: SimDuration,
    timer: Option<TimerId>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ClientPhase {
    /// Waiting for the fast quorum (τ1 running).
    Fast,
    /// Commit certificate sent; waiting for 2f+1 local commits.
    Certify,
    /// Confirm-request broadcast; waiting for speculative replies again.
    Confirm,
}

impl ZyzzyvaClient {
    /// Create a client. `fast_quorum` is `n` for Zyzzyva, `4f+1` for
    /// Zyzzyva5.
    pub fn new(scenario: &Scenario, q: QuorumRules, fast_quorum: usize, id: u64) -> Self {
        ZyzzyvaClient {
            id: ClientId(id),
            q,
            fast_quorum,
            store: scenario.key_store(),
            workload: scenario.workload_for(id),
            total: scenario.requests_per_client,
            sent: 0,
            in_flight: None,
            collector: ReplyCollector::new(),
            lc_acks: QuorumTracker::new(),
            seq_of_digest: BTreeMap::new(),
            phase: ClientPhase::Fast,
            leader_hint: ReplicaId(0),
            t1: SimDuration(scenario.network.delta.0 * 2),
            timer: None,
        }
    }

    fn submit_next(&mut self, ctx: &mut Context<'_, ZyzzyvaMsg>) {
        if self.sent >= self.total {
            return;
        }
        self.sent += 1;
        let request = Request::new(self.id, self.sent, self.workload.next_txn());
        let signed = SignedRequest::new(&self.store, request.clone());
        ctx.charge_crypto(CryptoOp::Sign);
        self.in_flight = Some((request.id, signed.clone(), ctx.now()));
        self.collector.clear();
        self.lc_acks.clear();
        self.seq_of_digest.clear();
        self.phase = ClientPhase::Fast;
        ctx.send(
            NodeId::Replica(self.leader_hint),
            ZyzzyvaMsg::Request(signed),
        );
        self.timer = Some(ctx.set_timer(TimerKind::T1WaitReplies, self.t1));
    }

    fn send_commit_cert(
        &mut self,
        current: RequestId,
        view: View,
        state_digest: Digest,
        ctx: &mut Context<'_, ZyzzyvaMsg>,
    ) {
        let seq = self
            .seq_of_digest
            .get(&state_digest)
            .copied()
            .unwrap_or(SeqNum(0));
        ctx.charge_crypto_n(CryptoOp::MacGen, self.q.n);
        let replicas: Vec<ReplicaId> = (0..self.q.n as u32).map(ReplicaId).collect();
        ctx.multicast(
            (0..self.q.n as u32).map(NodeId::replica),
            ZyzzyvaMsg::CommitCert {
                request: current,
                view,
                seq,
                state_digest,
                replicas: replicas[..self.q.quorum()].to_vec(),
            },
        );
    }

    fn complete(&mut self, fast: bool, ctx: &mut Context<'_, ZyzzyvaMsg>) {
        let Some((id, signed, sent_at)) = self.in_flight.take() else {
            return;
        };
        if let Some(t) = self.timer.take() {
            ctx.cancel_timer(t);
        }
        // the agreed result is whatever quorum of matching spec replies the
        // collector converged on (a quorum exists on both completion paths)
        let result = self
            .collector
            .best_matching_reply()
            .map(|r| r.result.clone())
            .unwrap_or(TxnResult { reads: vec![] });
        ctx.observe(Observation::ClientAccept {
            request: id,
            sent_at,
            fast_path: fast,
            txn: Box::new(signed.request.txn),
            result: Box::new(result),
        });
        self.submit_next(ctx);
    }
}

impl Actor<ZyzzyvaMsg> for ZyzzyvaClient {
    fn on_start(&mut self, ctx: &mut Context<'_, ZyzzyvaMsg>) {
        self.submit_next(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: &ZyzzyvaMsg, ctx: &mut Context<'_, ZyzzyvaMsg>) {
        let NodeId::Replica(replica) = from else {
            return;
        };
        let Some((current, _, _)) = self.in_flight else {
            return;
        };
        match msg {
            ZyzzyvaMsg::SpecReply { reply, seq } => {
                if reply.request != current {
                    return;
                }
                ctx.charge_crypto(CryptoOp::MacVerify);
                self.leader_hint = reply.view.leader_of(self.q.n);
                let view = reply.view;
                let state_digest = reply.state_digest;
                self.seq_of_digest.insert(state_digest, *seq);
                self.collector.offer(replica, reply.clone(), usize::MAX);
                let matched = self.collector.best_matching();
                if matched >= self.fast_quorum {
                    self.complete(true, ctx);
                } else if self.phase != ClientPhase::Fast && matched >= self.q.quorum() {
                    // slow path: enough matching speculative replies for a
                    // commit certificate
                    self.phase = ClientPhase::Certify;
                    self.send_commit_cert(current, view, state_digest, ctx);
                }
            }
            ZyzzyvaMsg::LocalCommit {
                request,
                state_digest,
                from: r,
                ..
            } => {
                if *request != current {
                    return;
                }
                ctx.charge_crypto(CryptoOp::MacVerify);
                self.lc_acks.vote(*state_digest, *r);
                if self.lc_acks.count(state_digest) >= self.q.quorum() {
                    self.complete(false, ctx);
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, id: TimerId, _kind: TimerKind, ctx: &mut Context<'_, ZyzzyvaMsg>) {
        if Some(id) != self.timer {
            return;
        }
        self.timer = None;
        let Some((current, signed, _)) = self.in_flight.clone() else {
            return;
        };
        let matched = self.collector.best_matching();
        if matched >= self.q.quorum() {
            // assemble the commit certificate from what we have
            self.phase = ClientPhase::Certify;
            // find the matching group's state digest
            if let bft_core::client::CollectStatus::Complete { reply, .. } =
                self.collector.status(self.q.quorum())
            {
                self.send_commit_cert(current, reply.view, reply.state_digest, ctx);
            }
        } else {
            // too few matching replies: escalate via confirm-request
            self.phase = ClientPhase::Confirm;
            ctx.multicast(
                (0..self.q.n as u32).map(NodeId::replica),
                ZyzzyvaMsg::ConfirmRequest(signed),
            );
        }
        self.timer = Some(ctx.set_timer(TimerKind::T1WaitReplies, self.t1));
    }
}

/// Zyzzyva deployment variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ZyzzyvaVariant {
    /// Classic: n = 3f+1, fast quorum = n.
    Classic,
    /// Zyzzyva5 (design choice 10): n = 5f+1, fast quorum = 4f+1 — the
    /// fast path survives f faults.
    Five,
}

/// Run Zyzzyva (or Zyzzyva5) under a scenario.
pub fn run(scenario: &Scenario, variant: ZyzzyvaVariant) -> RunOutcome {
    let (n, fast_quorum) = match variant {
        ZyzzyvaVariant::Classic => {
            let n = scenario.n(ProtocolId::Zyzzyva.min_n(scenario.f));
            (n, n)
        }
        ZyzzyvaVariant::Five => {
            let n = scenario.n(ProtocolId::Zyzzyva5.min_n(scenario.f));
            (n, 4 * scenario.f + 1)
        }
    };
    let q = QuorumRules { n, f: scenario.f };
    let store = scenario.key_store();
    let view_timeout = SimDuration(scenario.network.delta.0 * 4);

    let mut sim = scenario.build_engine::<ZyzzyvaMsg>(n);
    for i in 0..n as u32 {
        sim.add_replica(
            i,
            Box::new(ZyzzyvaReplica::new(
                ReplicaId(i),
                q,
                store.clone(),
                view_timeout,
            )),
        );
    }
    for c in 0..scenario.clients as u64 {
        sim.add_client(c, Box::new(ZyzzyvaClient::new(scenario, q, fast_quorum, c)));
    }
    run_to_completion(sim, scenario.total_requests(), scenario.max_time)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bft_sim::{FaultPlan, SafetyAuditor};

    fn accepted(out: &RunOutcome) -> usize {
        out.log.client_latencies().len()
    }

    fn fast_accepts(out: &RunOutcome) -> usize {
        out.log.count(|e| {
            matches!(
                e.obs,
                Observation::ClientAccept {
                    fast_path: true,
                    ..
                }
            )
        })
    }

    #[test]
    fn fault_free_fast_path() {
        let s = Scenario::small(1).with_load(1, 30);
        let out = run(&s, ZyzzyvaVariant::Classic);
        SafetyAuditor::all_correct().assert_safe(&out.log);
        assert_eq!(accepted(&out), 30);
        assert_eq!(fast_accepts(&out), 30, "every request takes the fast path");
        assert_eq!(out.log.max_view(), View(0));
    }

    #[test]
    fn backup_crash_forces_slow_path() {
        let s = Scenario::small(1)
            .with_load(1, 20)
            .with_faults(FaultPlan::none().crash(NodeId::replica(2), SimTime::ZERO));
        let out = run(&s, ZyzzyvaVariant::Classic);
        SafetyAuditor::excluding(vec![NodeId::replica(2)]).assert_safe(&out.log);
        assert_eq!(accepted(&out), 20, "liveness holds via commit certificates");
        assert_eq!(fast_accepts(&out), 0, "fast path needs all n replicas");
    }

    #[test]
    fn zyzzyva5_fast_path_survives_backup_crash() {
        let s = Scenario::small(1)
            .with_load(1, 20)
            .with_faults(FaultPlan::none().crash(NodeId::replica(3), SimTime::ZERO));
        let out = run(&s, ZyzzyvaVariant::Five);
        SafetyAuditor::excluding(vec![NodeId::replica(3)]).assert_safe(&out.log);
        assert_eq!(accepted(&out), 20);
        assert_eq!(
            fast_accepts(&out),
            20,
            "Zyzzyva5's fast path tolerates f faults"
        );
    }

    #[test]
    fn leader_crash_triggers_view_change() {
        let s = Scenario::small(1)
            .with_load(1, 20)
            .with_faults(FaultPlan::none().crash(NodeId::replica(0), SimTime(4_000_000)));
        let out = run(&s, ZyzzyvaVariant::Classic);
        SafetyAuditor::excluding(vec![NodeId::replica(0)]).assert_safe(&out.log);
        assert!(out.log.max_view() >= View(1), "view change must happen");
        assert_eq!(accepted(&out), 20);
    }

    #[test]
    fn slow_path_latency_is_worse_than_fast_path() {
        let fast = run(
            &Scenario::small(1).with_load(1, 20),
            ZyzzyvaVariant::Classic,
        );
        let slow = run(
            &Scenario::small(1)
                .with_load(1, 20)
                .with_faults(FaultPlan::none().crash(NodeId::replica(2), SimTime::ZERO)),
            ZyzzyvaVariant::Classic,
        );
        let mean = |o: &RunOutcome| {
            let lats = o.log.client_latencies();
            lats.iter().map(|(_, d)| d.0).sum::<u64>() / lats.len() as u64
        };
        assert!(
            mean(&slow) > 2 * mean(&fast),
            "the τ1 wait + certificate round must show: {} vs {}",
            mean(&slow),
            mean(&fast)
        );
    }

    #[test]
    fn deterministic() {
        let s = Scenario::small(1).with_load(2, 10);
        let a = run(&s, ZyzzyvaVariant::Classic);
        let b = run(&s, ZyzzyvaVariant::Classic);
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.end_time, b.end_time);
    }
}
