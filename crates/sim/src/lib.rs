//! # bft-sim
//!
//! A deterministic discrete-event simulator for partially synchronous
//! distributed protocols.
//!
//! The paper's protocols live in the *partial synchrony* model: there is an
//! unknown global stabilization time (GST) after which all messages between
//! correct replicas arrive within a known bound Δ. Reproducing the paper's
//! trade-offs requires controlling exactly these quantities, which a real
//! network cannot do reproducibly — so the whole protocol suite runs on this
//! simulator (the substitution is documented in `DESIGN.md`).
//!
//! ## Model
//!
//! * **Virtual time** — [`SimTime`], nanosecond resolution. All timers and
//!   delays are virtual; experiments report virtual-time latencies and
//!   counts, never wall-clock.
//! * **Actors** — replicas and clients implement [`Actor`]; the simulator
//!   delivers messages and timer events through [`Context`], which is also
//!   how actors send messages, set the paper's τ1–τ8 timers, charge
//!   virtual CPU time for crypto, and record [`Observation`]s.
//! * **Network** — [`NetworkModel`] assigns each message a delay drawn from
//!   a seeded RNG: before GST delays are adversarial (up to a configurable
//!   pre-GST bound, with optional drops); after GST they fall within Δ.
//!   Link-level partitions and per-link delay overrides support fault
//!   experiments; [`Topology`] restricts who may talk to whom (star, clique,
//!   tree, chain — dimension E2).
//! * **CPU model** — each node is a single virtual core: handlers run at
//!   `max(arrival, busy_until)` and charged costs push `busy_until`
//!   forward, so crypto-heavy protocols exhibit the leader bottleneck the
//!   paper's Q2 dimension discusses.
//! * **Faults** — crash/recover schedules, partitions and slow links at
//!   the simulator level ([`faults`]); *Byzantine* replicas are modeled
//!   protocol-agnostically by the [`adversary`] layer, which intercepts a
//!   compromised node's wire envelopes (equivocation, censorship,
//!   strategic delay, replay, corruption) at the send/deliver chokepoint.
//!   Content-aware misbehavior that needs protocol knowledge (e.g. a
//!   leader crafting valid-but-conflicting batches) stays in the protocol
//!   crates as malicious actor variants.
//! * **Determinism** — a run is a pure function of (actors, config, seed).
//!   Events at equal timestamps are delivered in insertion order.
//!
//! ## Auditing
//!
//! Every actor records commits, executions, view changes, checkpoints and
//! stage transitions as [`Observation`]s. [`audit::SafetyAuditor`] checks the
//! global safety invariant — no two correct replicas commit different
//! digests at the same sequence number — after (or during) every experiment.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adversary;
pub mod audit;
pub mod campaign;
pub mod checker;
pub mod engine;
pub mod event;
pub mod faults;
pub mod metrics;
pub mod net;
pub mod obs;
pub mod runner;
pub mod threaded;
pub mod time;
pub mod topology;

pub use adversary::{AdversaryError, AdversarySpec, Attack, AttackKind};
pub use audit::SafetyAuditor;
pub use campaign::{AdversaryBudget, CampaignViolation, ChaosCase, ChaosProfile, RecoveryBudget};
pub use checker::{ExecutionSemantics, SemanticConfig, SemanticViolation};
pub use engine::{Engine, EngineKind};
pub use event::{CalendarQueue, NodeId, SchedulerKind};
pub use faults::{FaultEvent, FaultPlan, FaultPlanError, RestartMode};
pub use metrics::{LatencyStats, Metrics, NodeCounters};
pub use net::{Delivery, NetworkConfig, NetworkModel};
pub use obs::{Observation, ObservationLog, Stage};
pub use runner::{Actor, Context, RunOutcome, Simulation, TimerId};
pub use threaded::ThreadedEngine;
pub use time::{SimDuration, SimTime};
pub use topology::Topology;
