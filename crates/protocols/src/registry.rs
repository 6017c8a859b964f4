//! The unified protocol registry.
//!
//! Historically every protocol grew its own entry point — `pbft::run(&s,
//! &PbftOptions)`, `hotstuff::run(&s)`, `zyzzyva::run(&s, Variant)`,
//! `kauri::run(&s, fanout)`... — so anything that wanted to enumerate "all
//! protocols" (experiments, the chaos campaign, smoke tests) hard-coded its
//! own list with its own call syntax. This module is the single source of
//! truth instead:
//!
//! * [`ProtocolId`] — one fieldless id per registry entry. Option-carrying
//!   variants that the paper treats as distinct protocols (Zyzzyva5, the
//!   informed-leader Tendermint, read-optimized PBFT, Kauri at its default
//!   fanout) are distinct ids, so iterating [`ProtocolId::ALL`] covers the
//!   full suite with defaults.
//! * [`ProtocolId::run`] — `fn(&Scenario) -> RunOutcome` with each entry's
//!   default options.
//! * [`Protocol`] — the option-carrying form for call sites that need
//!   non-default knobs (Byzantine behaviors, alternate fanouts, sabotage).
//!   `Protocol::from(id)` gives the defaults; [`Protocol::run`] dispatches.
//!
//! Everything else about a protocol — display name, minimum replica count
//! for a fault budget, execution semantics and the campaign tolerance
//! envelopes — is a method of its [`ProtocolId`].

use bft_sim::runner::RunOutcome;
use bft_types::ReplicaId;

use crate::common::Scenario;
use crate::pbft::PbftOptions;
use crate::poe::PoeBehavior;
use crate::prime::PrimeBehavior;
use crate::zyzzyva::ZyzzyvaVariant;
use crate::{
    chain, cheap, fab, fair, hotstuff, kauri, minbft, pbft, poe, prime, qu, sbft, tendermint,
    zyzzyva,
};

/// Canonical identifier of one registry entry (a protocol at its default
/// options). Ordered as the paper's presentation: PBFT first, then the
/// design-choice derivatives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ProtocolId {
    /// PBFT (MAC authentication, honest replicas).
    Pbft,
    /// PBFT with read-optimized clients (P6).
    PbftReadOpt,
    /// Zyzzyva speculative execution, classic 3f+1.
    Zyzzyva,
    /// Zyzzyva5: 5f+1 replicas, fast path survives f faults.
    Zyzzyva5,
    /// SBFT-style collector protocol with fast/slow paths.
    Sbft,
    /// HotStuff: rotating responsive leader, threshold QCs.
    HotStuff,
    /// Tendermint-style non-responsive rotation (Δ-wait).
    Tendermint,
    /// Tendermint with the informed-leader optimization.
    TendermintInformed,
    /// PoE-style speculative phase reduction.
    Poe,
    /// CheapBFT-style active/passive replication (fixed leader).
    Cheap,
    /// FaB-style fast two-phase consensus (5f+1).
    Fab,
    /// Prime-style robust preordering.
    Prime,
    /// Themis-style γ-fair ordering (4f+1).
    Fair,
    /// Kauri-style tree dissemination at the default fanout of 2.
    Kauri,
    /// Q/U-style conflict-free quorum protocol (5f+1, no ordering).
    Qu,
    /// MinBFT-style 2f+1 with attested counters.
    MinBft,
    /// Chain-style pipelined protocol.
    Chain,
}

impl ProtocolId {
    /// Every registry entry, in presentation order.
    pub const ALL: [ProtocolId; 17] = [
        ProtocolId::Pbft,
        ProtocolId::PbftReadOpt,
        ProtocolId::Zyzzyva,
        ProtocolId::Zyzzyva5,
        ProtocolId::Sbft,
        ProtocolId::HotStuff,
        ProtocolId::Tendermint,
        ProtocolId::TendermintInformed,
        ProtocolId::Poe,
        ProtocolId::Cheap,
        ProtocolId::Fab,
        ProtocolId::Prime,
        ProtocolId::Fair,
        ProtocolId::Kauri,
        ProtocolId::Qu,
        ProtocolId::MinBft,
        ProtocolId::Chain,
    ];

    /// Short stable name (used in reports and CLI filters).
    pub fn name(self) -> &'static str {
        match self {
            ProtocolId::Pbft => "pbft",
            ProtocolId::PbftReadOpt => "pbft-ro",
            ProtocolId::Zyzzyva => "zyzzyva",
            ProtocolId::Zyzzyva5 => "zyzzyva5",
            ProtocolId::Sbft => "sbft",
            ProtocolId::HotStuff => "hotstuff",
            ProtocolId::Tendermint => "tendermint",
            ProtocolId::TendermintInformed => "tendermint-il",
            ProtocolId::Poe => "poe",
            ProtocolId::Cheap => "cheapbft",
            ProtocolId::Fab => "fab",
            ProtocolId::Prime => "prime",
            ProtocolId::Fair => "fair",
            ProtocolId::Kauri => "kauri",
            ProtocolId::Qu => "qu",
            ProtocolId::MinBft => "minbft",
            ProtocolId::Chain => "chain",
        }
    }

    /// The protocol's minimum replica count for fault budget `f` (the
    /// formula `Scenario::n` is clamped against).
    pub fn min_n(self, f: usize) -> usize {
        match self {
            ProtocolId::Zyzzyva5 | ProtocolId::Fab | ProtocolId::Qu => 5 * f + 1,
            ProtocolId::Fair => 4 * f + 1,
            ProtocolId::MinBft => 2 * f + 1,
            _ => 3 * f + 1,
        }
    }

    /// Run this protocol with its default options — the canonical run
    /// entry point: `run(&Scenario) -> RunOutcome`.
    ///
    /// Everything about the run comes from the scenario, including which
    /// execution backend carries it ([`Scenario::engine`]:
    /// deterministic simulation by default, or the real-time threaded
    /// engine). Protocols with non-default options are run through
    /// [`Protocol::run`], the single dispatch this delegates to; it shares
    /// this exact signature.
    pub fn run(self, scenario: &Scenario) -> RunOutcome {
        Protocol::from(self).run(scenario)
    }

    /// How the protocol executes transactions — selects which semantic
    /// checkers apply (see [`bft_sim::checker`]). Q/U has no global order
    /// and no `Execute` stream; everything else is a replicated state
    /// machine.
    pub fn semantics(self) -> bft_sim::ExecutionSemantics {
        match self {
            ProtocolId::Qu => bft_sim::ExecutionSemantics::VersionedObjects,
            _ => bft_sim::ExecutionSemantics::Replicated,
        }
    }

    /// What the protocol tolerates while staying safe *and* live — the
    /// chaos campaign's generator envelope.
    ///
    /// The `reordering`/`gst_storm` exclusions are campaign *findings*, not
    /// designed-in limits: hammering the suite with the chaos campaign
    /// showed these implementations assume quasi-FIFO links or do not
    /// recover from pre-GST drop storms (see EXPERIMENTS.md, "chaos
    /// campaign"). They are excluded from the generator so the remaining
    /// envelope is enforced in CI, and kept here as an executable record of
    /// the gap.
    pub fn tolerance(self) -> ChaosTolerance {
        match self {
            // CheapBFT's leader is fixed: the active/passive transition
            // replaces actives, never the leader itself — crashing or
            // isolating replica 0 stalls the run. Campaign findings: a
            // healed partition between two actives also stalls it for good
            // (no rejoin path), as does a pre-GST drop storm.
            ProtocolId::Cheap => ChaosTolerance {
                leader_crash: false,
                partitions: false,
                gst_storm: false,
                ..ChaosTolerance::full()
            },
            // A partitioned chain node is excluded by reconfiguration and
            // stays excluded after healing (documented in the safety
            // matrix), so only crash churn is within the liveness envelope.
            ProtocolId::Chain => ChaosTolerance {
                partitions: false,
                ..ChaosTolerance::full()
            },
            // Campaign findings: divergent execution state under post-GST
            // reordering (tree aggregation and speculative execution
            // assume quasi-FIFO delivery); PoE also diverges under the
            // reordering a pre-GST storm induces. SBFT used to carry the
            // same exclusions (plus healed partitions) until its
            // commit-outran-pre-prepare bug was fixed — a commit
            // certificate arriving before its delayed pre-prepare
            // committed an empty placeholder slot, silently skipping the
            // slot's requests — after which the unscoped sweep (100
            // seeds) measures clean, so it is back to the full envelope.
            ProtocolId::Poe => ChaosTolerance {
                reordering: false,
                gst_storm: false,
                ..ChaosTolerance::full()
            },
            // Campaign finding: HotStuff also diverges when a slowed link
            // (which reorders across links) or a pre-GST storm perturbs
            // delivery order.
            ProtocolId::HotStuff => ChaosTolerance {
                slow_links: false,
                reordering: false,
                gst_storm: false,
                ..ChaosTolerance::full()
            },
            // Campaign findings: Kauri's tree aggregation diverges whenever
            // delivery order through the tree is perturbed — post-GST
            // reordering, pre-GST drop storms, a slowed internal link,
            // transient isolation of an internal node, crash churn of the
            // root, and even non-root crash churn once duplication is in
            // play. Only benign-network misbehavior (duplication) stays
            // within its envelope.
            ProtocolId::Kauri => ChaosTolerance {
                crashes: false,
                leader_crash: false,
                partitions: false,
                slow_links: false,
                reordering: false,
                gst_storm: false,
            },
            // Campaign finding: speculative client-side commitment tolerates
            // reordering and GST storms in isolation but strands requests
            // when both hit the same run.
            ProtocolId::Zyzzyva => ChaosTolerance {
                reordering: false,
                ..ChaosTolerance::full()
            },
            // Campaign findings: order-fair preordering loses a request
            // when reordering rides on crash churn plus a healed partition,
            // and a pre-GST drop storm alone can stall it completely.
            ProtocolId::Fair => ChaosTolerance {
                reordering: false,
                gst_storm: false,
                ..ChaosTolerance::full()
            },
            // Campaign findings: the Δ-wait rotation never recovers after a
            // pre-GST drop storm (0/N requests accepted); reordered
            // proposals diverge state and stall progress — a single slowed
            // link (which reorders across links) is already enough; and
            // crash churn concurrent with a healed partition stalls rounds
            // permanently.
            ProtocolId::Tendermint | ProtocolId::TendermintInformed => ChaosTolerance {
                partitions: false,
                slow_links: false,
                reordering: false,
                gst_storm: false,
                ..ChaosTolerance::full()
            },
            // Campaign finding: preordering timers do not always resume
            // after a pre-GST drop storm.
            ProtocolId::Prime => ChaosTolerance {
                gst_storm: false,
                ..ChaosTolerance::full()
            },
            _ => ChaosTolerance::full(),
        }
    }

    /// Which wire-level Byzantine attack classes the protocol stays safe
    /// *and live* under with up to `f` compromised replicas — the Byzantine
    /// campaign's generator envelope (`--byzantine`).
    ///
    /// The exclusions below are measured findings from the unscoped
    /// campaign (`BFT_BYZ_UNSCOPED=1`, 15 seeds per protocol per attack
    /// class; see EXPERIMENTS.md, "Byzantine tolerance envelopes"). Most
    /// are liveness deficits, but three are *safety* escapes among the
    /// honest replicas: PoE diverges state under strategic delay, and
    /// HotStuff and Kauri diverge when corruption (rejected at the wire,
    /// so effectively relay loss) perturbs dissemination. Like the chaos
    /// findings, the flags scope the generator so the remaining envelope
    /// is enforced in CI while the gap stays recorded executably.
    pub fn byzantine_tolerance(self) -> ByzantineTolerance {
        match self {
            // Campaign finding: read-optimized clients need 2f+1 matching
            // replies from a read quorum; a compromised replica censoring
            // two peers' links starves that quorum for good (0/8 at seed
            // 59, ddmin-minimal `r0:censor(r2+r3, both)`).
            ProtocolId::PbftReadOpt => ByzantineTolerance {
                censorship: false,
                ..ByzantineTolerance::full()
            },
            // SBFT's former `delay: false` exclusion (DivergentState at
            // seeds 49/50, a lost write at seed 17) is repaired: commit
            // certificates outrunning their delayed pre-prepares no
            // longer commit empty placeholder slots, and retransmissions
            // are only ever answered with the threshold-combined reply
            // (a bare cached result from one replica could vouch for a
            // write no honest quorum had executed). Re-measured clean
            // across the full gallery (60 delay seeds, 15 per other
            // class, 60 mixed).
            // Campaign findings: CheapBFT's fixed active set cannot route
            // around a compromised active replica — equivocated, censored
            // or corrupted traffic from it stalls runs outright (0/8 on
            // five corrupt seeds); only delay and replay stay harmless.
            ProtocolId::Cheap => ByzantineTolerance {
                equivocation: false,
                censorship: false,
                corruption: false,
                ..ByzantineTolerance::full()
            },
            // Campaign findings: the Δ-wait rotation never recovers rounds
            // lost to a withholding, equivocating, delaying or corrupting
            // proposer — the round clock advances but stranded requests
            // stay stranded (down to 0/8). Only replay is absorbed.
            ProtocolId::Tendermint | ProtocolId::TendermintInformed => ByzantineTolerance {
                equivocation: false,
                censorship: false,
                delay: false,
                corruption: false,
                ..ByzantineTolerance::full()
            },
            // Campaign findings — SAFETY: PoE's speculative execution
            // diverges honest state whenever wire attacks desynchronize
            // its rollback path: strategic holds at the retransmission
            // scale (DivergentState at two of fifteen delay seeds) and an
            // equivocate+corrupt stack on the leader (seed 20; ddmin
            // keeps both attacks — either alone is absorbed).
            ProtocolId::Poe => ByzantineTolerance {
                delay: false,
                corruption: false,
                ..ByzantineTolerance::full()
            },
            // Campaign findings: Prime's preordering pipeline starves when
            // a compromised replica equivocates its ordering stream, holds
            // it back, or feeds it corrupt (wire-rejected) envelopes; τ7
            // monitoring handles slow leaders but not these.
            ProtocolId::Prime => ByzantineTolerance {
                equivocation: false,
                delay: false,
                corruption: false,
                ..ByzantineTolerance::full()
            },
            // Campaign findings — SAFETY: HotStuff's chained commits
            // assume order-consistent delivery, and every wire attack
            // that perturbs it diverges honest state: corruption
            // (wire-rejected, so relay loss; seed 4), strategic holds
            // (seed 50), and replay+equivocate stacks on the leader
            // (seeds 47, 49). Only censorship and replay alone are
            // absorbed.
            ProtocolId::HotStuff => ByzantineTolerance {
                equivocation: false,
                delay: false,
                corruption: false,
                ..ByzantineTolerance::full()
            },
            // Campaign findings: through Kauri's aggregation tree a
            // compromised internal node is a single point of dissemination
            // — corruption (wire-rejected, so relay loss) makes honest
            // roots commit divergent state (SAFETY, seed 4), and totally
            // censoring one internal node severs its subtree for good
            // (0/8, ddmin-minimal `r1:censor(all, both)`); near-timeout
            // holds on the root likewise strand the last batch (7/8).
            ProtocolId::Kauri => ByzantineTolerance {
                censorship: false,
                delay: false,
                corruption: false,
                ..ByzantineTolerance::full()
            },
            // Campaign findings: order-fair batching amplifies equivocated
            // and corrupted ordering streams into retransmission storms
            // (hundreds of thousands of adversarial multicasts, runs ended
            // only by the event budget, 3/8 accepted), and near-timeout
            // holds on the leader strand the last batch (7/8, seed 31).
            ProtocolId::Fair => ByzantineTolerance {
                equivocation: false,
                delay: false,
                corruption: false,
                ..ByzantineTolerance::full()
            },
            // Campaign finding: MinBFT's 2f+1 sizing has no spare quorum —
            // losing one replica's stream to wire-rejected corruption
            // already strands requests (3/8 at seed 2).
            ProtocolId::MinBft => ByzantineTolerance {
                corruption: false,
                ..ByzantineTolerance::full()
            },
            // Measured clean across the full gallery: PBFT's view change,
            // Zyzzyva's commit-certificate fallback, FaB's recovery, Q/U's
            // repair loops and Chain's reconfiguration all absorb every
            // attack class within the liveness budget.
            _ => ByzantineTolerance::full(),
        }
    }

    /// What the protocol tolerates under recovery churn — repeated
    /// crash → recover cycles of up to `f` replicas — the recovery
    /// campaign's generator envelope (`--recovery`).
    ///
    /// `durable` churn replays the chaos campaign's crash/recover fault
    /// with more cycles per victim on a clean network; `amnesia` restarts
    /// additionally wipe the replica back to its last stable checkpoint
    /// on recover, which requires the protocol to implement the
    /// [`Actor::on_recover`](bft_sim::Actor::on_recover) hook (reload the
    /// checkpoint, rejoin via state transfer). Only the PBFT family
    /// implements that hook today; for every other protocol an amnesia
    /// restart silently degrades to a durable one, so `amnesia` is
    /// excluded *structurally* (the coverage would be vacuous), not as a
    /// measured failure.
    ///
    /// Campaign finding (`BFT_REC_UNSCOPED=1`, 100 seeds per protocol,
    /// 40-request workloads; see EXPERIMENTS.md, "Recovery campaign"):
    /// every protocol rides out the full churn gallery on a clean network
    /// — 1700 cases, zero violations. Even Kauri, whose *chaos* envelope
    /// excludes crash churn, survives here: its tree aggregation only
    /// diverges when duplication or reordering ride along with the churn,
    /// and the recovery mode generates neither. So no protocol carries a
    /// measured `durable` exclusion.
    pub fn recovery_tolerance(self) -> RecoveryTolerance {
        match self {
            // The PBFT family implements the full amnesia-restart path:
            // checkpoint-only reload, state-transfer rejoin, view
            // adoption. Measured clean across the churn gallery.
            ProtocolId::Pbft | ProtocolId::PbftReadOpt => RecoveryTolerance::full(),
            // No amnesia hook (structural, see above); durable churn
            // measured clean. Leader sparing for CheapBFT is applied by
            // the profile scoper, as in the chaos campaign.
            _ => RecoveryTolerance {
                durable: true,
                amnesia: false,
            },
        }
    }
}

impl std::fmt::Display for ProtocolId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What a protocol tolerates (with liveness intact) under the chaos
/// campaign. Safety is always checked; these flags only scope the
/// *generator*, so liveness findings stay within each protocol's claims.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosTolerance {
    /// Crash/recover churn of up to `f` replicas.
    pub crashes: bool,
    /// Crashing replica 0 (the fixed leader, where one exists).
    pub leader_crash: bool,
    /// Healed partitions and transient isolation.
    pub partitions: bool,
    /// Permanently slowed links (which reorder messages across links).
    pub slow_links: bool,
    /// Post-GST in-window message reordering (non-FIFO links).
    pub reordering: bool,
    /// A late GST with a pre-GST drop storm.
    pub gst_storm: bool,
}

impl ChaosTolerance {
    /// Tolerates the full fault gallery.
    pub fn full() -> ChaosTolerance {
        ChaosTolerance {
            crashes: true,
            leader_crash: true,
            partitions: true,
            slow_links: true,
            reordering: true,
            gst_storm: true,
        }
    }
}

/// Which wire-level Byzantine attack classes a protocol stays live under
/// with up to `f` compromised replicas (safety is always checked — see
/// [`ProtocolId::byzantine_tolerance`]). These flags scope the Byzantine
/// campaign's [`bft_sim::AdversaryBudget`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ByzantineTolerance {
    /// Multicasts split into conflicting peer sets.
    pub equivocation: bool,
    /// Selective or total message suppression.
    pub censorship: bool,
    /// Strategic holds at the retransmission-timer scale.
    pub delay: bool,
    /// Stale-message re-injection (valid tags).
    pub replay: bool,
    /// In-flight payload tampering (rejected by wire auth).
    pub corruption: bool,
}

impl ByzantineTolerance {
    /// Tolerates the full attack gallery.
    pub fn full() -> ByzantineTolerance {
        ByzantineTolerance {
            equivocation: true,
            censorship: true,
            delay: true,
            replay: true,
            corruption: true,
        }
    }

    /// The tolerated attack classes as generator kinds (for
    /// [`bft_sim::AdversaryBudget::restrict`]).
    pub fn kinds(&self) -> Vec<bft_sim::AttackKind> {
        use bft_sim::AttackKind;
        AttackKind::ALL
            .into_iter()
            .filter(|k| match k {
                AttackKind::Equivocate => self.equivocation,
                AttackKind::Censor => self.censorship,
                AttackKind::Delay => self.delay,
                AttackKind::Replay => self.replay,
                AttackKind::Corrupt => self.corruption,
            })
            .collect()
    }
}

/// What a protocol tolerates under recovery churn (repeated
/// crash → recover cycles). These flags scope the recovery campaign's
/// generator ([`bft_sim::RecoveryBudget`]); safety is always checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryTolerance {
    /// Repeated durable crash/recover cycles of up to `f` replicas.
    pub durable: bool,
    /// Amnesia restarts: recover with only the last stable checkpoint,
    /// rejoining via state transfer. Requires the protocol to implement
    /// the `on_recover` hook.
    pub amnesia: bool,
}

impl RecoveryTolerance {
    /// Tolerates the full churn gallery, both restart modes.
    pub fn full() -> RecoveryTolerance {
        RecoveryTolerance {
            durable: true,
            amnesia: true,
        }
    }
}

/// A protocol plus its run options: the option-carrying form of
/// [`ProtocolId`] for call sites that need non-default knobs.
#[derive(Debug, Clone)]
pub enum Protocol {
    /// PBFT with full options (auth mode, behaviors, recovery, sabotage).
    Pbft(PbftOptions),
    /// Read-optimized PBFT with full options.
    PbftReadOpt(PbftOptions),
    /// Zyzzyva at either variant.
    Zyzzyva(ZyzzyvaVariant),
    /// SBFT.
    Sbft,
    /// HotStuff.
    HotStuff,
    /// Tendermint, optionally with the informed-leader optimization.
    Tendermint {
        /// Enable the informed-leader optimization.
        informed_leader: bool,
    },
    /// PoE with per-replica behaviors.
    Poe(Vec<(ReplicaId, PoeBehavior)>),
    /// CheapBFT.
    Cheap,
    /// FaB.
    Fab,
    /// Prime with per-replica behaviors.
    Prime(Vec<(ReplicaId, PrimeBehavior)>),
    /// Themis-style fair ordering.
    Fair,
    /// Kauri at a chosen fanout.
    Kauri {
        /// Tree fanout (the registry default is 2).
        fanout: usize,
    },
    /// Q/U.
    Qu,
    /// MinBFT.
    MinBft,
    /// Chain.
    Chain,
}

impl From<ProtocolId> for Protocol {
    fn from(id: ProtocolId) -> Protocol {
        match id {
            ProtocolId::Pbft => Protocol::Pbft(PbftOptions::default()),
            ProtocolId::PbftReadOpt => Protocol::PbftReadOpt(PbftOptions::default()),
            ProtocolId::Zyzzyva => Protocol::Zyzzyva(ZyzzyvaVariant::Classic),
            ProtocolId::Zyzzyva5 => Protocol::Zyzzyva(ZyzzyvaVariant::Five),
            ProtocolId::Sbft => Protocol::Sbft,
            ProtocolId::HotStuff => Protocol::HotStuff,
            ProtocolId::Tendermint => Protocol::Tendermint {
                informed_leader: false,
            },
            ProtocolId::TendermintInformed => Protocol::Tendermint {
                informed_leader: true,
            },
            ProtocolId::Poe => Protocol::Poe(Vec::new()),
            ProtocolId::Cheap => Protocol::Cheap,
            ProtocolId::Fab => Protocol::Fab,
            ProtocolId::Prime => Protocol::Prime(Vec::new()),
            ProtocolId::Fair => Protocol::Fair,
            ProtocolId::Kauri => Protocol::Kauri { fanout: 2 },
            ProtocolId::Qu => Protocol::Qu,
            ProtocolId::MinBft => Protocol::MinBft,
            ProtocolId::Chain => Protocol::Chain,
        }
    }
}

impl Protocol {
    /// The registry id this configuration corresponds to.
    pub fn id(&self) -> ProtocolId {
        match self {
            Protocol::Pbft(_) => ProtocolId::Pbft,
            Protocol::PbftReadOpt(_) => ProtocolId::PbftReadOpt,
            Protocol::Zyzzyva(ZyzzyvaVariant::Classic) => ProtocolId::Zyzzyva,
            Protocol::Zyzzyva(ZyzzyvaVariant::Five) => ProtocolId::Zyzzyva5,
            Protocol::Sbft => ProtocolId::Sbft,
            Protocol::HotStuff => ProtocolId::HotStuff,
            Protocol::Tendermint {
                informed_leader: false,
            } => ProtocolId::Tendermint,
            Protocol::Tendermint {
                informed_leader: true,
            } => ProtocolId::TendermintInformed,
            Protocol::Poe(_) => ProtocolId::Poe,
            Protocol::Cheap => ProtocolId::Cheap,
            Protocol::Fab => ProtocolId::Fab,
            Protocol::Prime(_) => ProtocolId::Prime,
            Protocol::Fair => ProtocolId::Fair,
            Protocol::Kauri { .. } => ProtocolId::Kauri,
            Protocol::Qu => ProtocolId::Qu,
            Protocol::MinBft => ProtocolId::MinBft,
            Protocol::Chain => ProtocolId::Chain,
        }
    }

    /// Run the protocol under a scenario — the one dispatch behind the
    /// canonical `run(&Scenario) -> RunOutcome` signature; use
    /// [`ProtocolId::run`] unless non-default options are needed.
    pub fn run(&self, scenario: &Scenario) -> RunOutcome {
        match self {
            Protocol::Pbft(opts) => pbft::run(scenario, opts),
            Protocol::PbftReadOpt(opts) => pbft::run_with_read_optimization(scenario, opts),
            Protocol::Zyzzyva(variant) => zyzzyva::run(scenario, *variant),
            Protocol::Sbft => sbft::run(scenario),
            Protocol::HotStuff => hotstuff::run(scenario),
            Protocol::Tendermint { informed_leader } => tendermint::run(scenario, *informed_leader),
            Protocol::Poe(behaviors) => poe::run(scenario, behaviors),
            Protocol::Cheap => cheap::run(scenario),
            Protocol::Fab => fab::run(scenario),
            Protocol::Prime(behaviors) => prime::run(scenario, behaviors),
            Protocol::Fair => fair::run(scenario),
            Protocol::Kauri { fanout } => kauri::run(scenario, *fanout),
            Protocol::Qu => qu::run(scenario),
            Protocol::MinBft => minbft::run(scenario),
            Protocol::Chain => chain::run(scenario),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bft_sim::SafetyAuditor;

    #[test]
    fn ids_round_trip_through_protocol() {
        for id in ProtocolId::ALL {
            assert_eq!(Protocol::from(id).id(), id, "{id} does not round-trip");
        }
        let names: std::collections::BTreeSet<&str> =
            ProtocolId::ALL.iter().map(|id| id.name()).collect();
        assert_eq!(names.len(), ProtocolId::ALL.len(), "duplicate names");
    }

    #[test]
    fn every_entry_runs_and_stays_safe() {
        let scenario = Scenario::small(1).with_load(1, 5);
        for id in ProtocolId::ALL {
            let out = id.run(&scenario);
            SafetyAuditor::all_correct().assert_safe(&out.log);
            assert_eq!(
                out.log.client_latencies().len(),
                5,
                "{id} did not complete the workload"
            );
        }
    }
}
