//! The programmable policy data plane: typed enforcement points, a staged
//! rule pipeline, and one engine that executes every control plane.
//!
//! Before this module, each control plane the paper compares (Baseline,
//! SDC, DIF, IOrchestra and its `FunctionSet` ablations) was a hand-fused
//! struct: Algorithms 1–3 hardcoded into one `on_tick`, and every new
//! policy a fork. Following PAIO's stage/rule split — enforcement
//! *mechanisms* live in the data plane, *policies* are data — the planes
//! are now expressed as [`PolicySet`]s: ordered [`Stage`]s of [`Rule`]s,
//! anchored at typed [`EnforcementPoint`]s, evaluated once per control
//! tick by the [`PolicyEngine`].
//!
//! # Division of labour
//!
//! * **Rules decide.** A [`Rule`] reads monitor and trace signals through
//!   a read-only [`PolicyCtx`] and emits [`Action`]s. Rules own their own
//!   decision state (rate baselines, last pushed weights, …) and are
//!   notified of lifecycle events (crash, recovery, domain destruction).
//! * **The engine enforces.** The [`PolicyEngine`] owns every mechanism
//!   the PR 5 robustness work introduced — epoch-stamped command issue,
//!   persisted recovery state, quarantine bookkeeping, ack deadlines,
//!   reconciliation sweeps, the staggered-wake FIFO — and applies each
//!   action through the same store writes and machine verbs the
//!   hand-fused planes used, in the same order.
//!
//! # Determinism contract
//!
//! The pipeline-expressed built-in sets reproduce the pre-redesign
//! planes' traces **byte-identically** (see `iorch_bench::oracle::planes`
//! and the `policy_equivalence` suite): same store write order, same
//! trace event order, same RNG draw order. Two design rules make this
//! hold, and custom policy sets inherit them:
//!
//! 1. Within a stage, every rule is evaluated against the same immutable
//!    [`PolicyCtx`] snapshot, and the collected actions are applied in
//!    emission order *after* evaluation. Built-in stages hold one rule
//!    each, so batching is observationally identical to inline execution.
//! 2. Rule-firing trace events ([`Decision::RuleFired`]) are opt-in per
//!    set ([`PolicySet::trace_rules`]); the built-in sets leave them off
//!    so their decision streams match the legacy planes byte for byte.
//!
//! [`Decision::RuleFired`]: iorch_simcore::trace::Decision::RuleFired
//!
//! # Quick start
//!
//! ```
//! use iorchestra::policy::{PolicyEngine, PolicySet};
//! use iorchestra::IOrchestraConfig;
//!
//! // The paper's full system, as a policy set:
//! let plane = PolicyEngine::new(PolicySet::iorchestra(IOrchestraConfig::new(7)));
//! assert_eq!(plane.set().name(), "iorchestra");
//!
//! // An ablation is configuration, not a fork:
//! use iorchestra::FunctionSet;
//! let cfg = IOrchestraConfig::new(7).with_functions(FunctionSet::flush_only());
//! let _flush_only = PolicyEngine::new(PolicySet::iorchestra(cfg));
//! ```
//!
//! See `examples/custom_policy.rs` for a user-defined rate-limit rule.

mod builtin;
mod engine;
mod slab;

pub use builtin::{
    AnomalyRule, CongestionAdjudicationRule, CoschedRule, DifBroadcastRule, FlushArgmaxRule,
};
pub use engine::PolicyEngine;

use iorch_hypervisor::{DomainId, Machine, StoreQuota};
use iorch_simcore::{SimDuration, SimTime};

use crate::keys::DomainKeys;
use crate::monitor::MonitorReport;
use crate::planes::{IOrchestraConfig, PlaneStats};

// --------------------------------------------------------------------
// Enforcement points
// --------------------------------------------------------------------

/// The decision sites on the I/O path where policy actions bind.
///
/// A [`Stage`] is anchored at one point. Stages are *evaluated* once per
/// control tick, in the order the points are listed here (then in
/// declaration order within a point); the point names where the resulting
/// actions take effect on the data path.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EnforcementPoint {
    /// Guest queue admission: store-write/denied-rate anomaly budgets and
    /// per-domain store quotas ([`Action::Quarantine`], [`Action::Quota`]).
    QueueAdmission,
    /// Flush/release command issue over the store ([`Action::Flush`],
    /// [`Action::Release`]) — Algorithms 1 and 2's command half.
    CommandIssue,
    /// Frontend-ring push into the backend ([`Action::RateLimit`] binds
    /// on the ring-drain dispatch path).
    RingPush,
    /// DRR visit on a dedicated I/O core (per-socket quanta from
    /// [`Action::Priority`]).
    DrrVisit,
    /// Host device dispatch (route weights and blkio weights from
    /// [`Action::Priority`]) — Algorithm 3's enforcement half.
    DeviceDispatch,
}

impl EnforcementPoint {
    /// Tick evaluation order (see [`PolicyEngine`] docs / DESIGN.md §10):
    /// admission first, then command issue, then the data-path points.
    pub const TICK_ORDER: [EnforcementPoint; 5] = [
        EnforcementPoint::QueueAdmission,
        EnforcementPoint::CommandIssue,
        EnforcementPoint::RingPush,
        EnforcementPoint::DrrVisit,
        EnforcementPoint::DeviceDispatch,
    ];
}

/// Guest-side monitoring feeds a stage can request. Declaring a feed
/// makes the engine publish the corresponding guest state into the store
/// (collaborative sets only), exactly as the legacy plane did.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Feed {
    /// `has_dirty_pages` / `nr_dirty` under each domain's virt-dev subtree
    /// (Algorithm 1's input), republished on change each tick.
    DirtyPages,
}

// --------------------------------------------------------------------
// Actions
// --------------------------------------------------------------------

/// How a flush command reaches the guest.
#[derive(Clone, PartialEq, Debug)]
pub enum FlushMode {
    /// Store-choreographed: epoch-stamped `flush_now` with a persisted
    /// in-flight record, ack deadline, retry backoff and quarantine on
    /// repeated timeouts (Algorithm 1's command path).
    Tracked {
        /// The chosen domain's dirty-page count (trace metadata).
        nr_dirty: u64,
        /// All eligible `(dom, nr_dirty)` pairs (trace metadata; built
        /// only while tracing is enabled).
        candidates: Vec<(u32, u64)>,
    },
    /// Direct hypercall-style remote sync with no store choreography, no
    /// epoch and no ack tracking (DIF's broadcast, or a quick custom
    /// governor).
    Direct,
}

/// What a [`Rule`] can ask the engine to enforce. Each action maps onto
/// one mechanism (store writes + machine verbs) owned by the engine.
#[derive(Clone, PartialEq, Debug)]
pub enum Action {
    /// Cap a domain's backend dispatch at `bytes_per_sec`
    /// (`None` lifts the cap). Binds at [`EnforcementPoint::RingPush`].
    RateLimit {
        /// Target domain.
        dom: DomainId,
        /// Cap in bytes/sec; `None` (or 0) removes the limiter.
        bytes_per_sec: Option<u64>,
    },
    /// Program a domain's I/O priority: per-socket route weights, DRR
    /// quanta and a blkio weight (Algorithm 3's outputs).
    Priority {
        /// Target domain.
        dom: DomainId,
        /// Per-socket route weights (normalized; one slot per socket).
        route: Vec<f64>,
        /// `(socket, quantum_bytes)` pairs for the spanned sockets.
        quanta: Vec<(usize, u64)>,
        /// cgroup blkio weight at the device (10–1000).
        blkio_weight: u32,
    },
    /// Override a domain's store quota (`None` restores the base quota).
    Quota {
        /// Target domain.
        dom: DomainId,
        /// Replacement quota, or `None` to clear the override.
        quota: Option<StoreQuota>,
    },
    /// Tell a guest to write back its dirty pages.
    Flush {
        /// Target domain.
        dom: DomainId,
        /// Tracked (store-choreographed) or direct.
        mode: FlushMode,
    },
    /// Grant a congestion release under a fresh epoch (Algorithm 2's
    /// `release_request`). Collaborative sets only.
    Release {
        /// Target domain.
        dom: DomainId,
    },
    /// Quarantine a domain: Baseline behaviour, keys ignored, persisted
    /// until an operator clears it.
    Quarantine {
        /// Target domain.
        dom: DomainId,
        /// Which budget or policy tripped (trace label).
        reason: &'static str,
    },
}

impl Action {
    /// The domain this action targets.
    pub fn domain(&self) -> DomainId {
        match self {
            Action::RateLimit { dom, .. }
            | Action::Priority { dom, .. }
            | Action::Quota { dom, .. }
            | Action::Flush { dom, .. }
            | Action::Release { dom }
            | Action::Quarantine { dom, .. } => *dom,
        }
    }

    /// Short discriminant label used by rule-firing trace events.
    pub fn label(&self) -> &'static str {
        match self {
            Action::RateLimit { .. } => "rate_limit",
            Action::Priority { .. } => "priority",
            Action::Quota { .. } => "quota",
            Action::Flush { .. } => "flush",
            Action::Release { .. } => "release",
            Action::Quarantine { .. } => "quarantine",
        }
    }
}

/// Answer to a congestion adjudication (Algorithm 2's branch).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// Host really congested: the guest stays asleep and joins the FIFO
    /// woken on relief.
    Confirm,
    /// False trigger: grant a release under a fresh epoch.
    Release,
}

// --------------------------------------------------------------------
// PolicyCtx
// --------------------------------------------------------------------

/// Read-only view of the monitor, machine and engine state a [`Rule`]
/// decides on. Built fresh for each evaluation; rules cannot mutate
/// anything through it — all effects go through emitted [`Action`]s.
pub struct PolicyCtx<'a> {
    pub(crate) now: SimTime,
    pub(crate) report: Option<&'a MonitorReport>,
    pub(crate) machine: &'a Machine,
    pub(crate) cfg: &'a IOrchestraConfig,
    pub(crate) slab: &'a slab::PlaneSlab,
    pub(crate) congested_fifo: &'a [DomainId],
    pub(crate) stats: &'a PlaneStats,
}

impl<'a> PolicyCtx<'a> {
    /// Current sim time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This tick's monitor report (`None` outside tick evaluation, e.g.
    /// during recovery adjudication).
    pub fn report(&self) -> Option<&'a MonitorReport> {
        self.report
    }

    /// The machine: store (reads only — `read_ref` takes `&self`),
    /// storage subsystem, domains, topology.
    pub fn machine(&self) -> &'a Machine {
        self.machine
    }

    /// The engine's tunables.
    pub fn cfg(&self) -> &'a IOrchestraConfig {
        self.cfg
    }

    /// Whether a domain is quarantined (rules should skip it).
    pub fn is_quarantined(&self, dom: DomainId) -> bool {
        self.slab
            .slot(self.machine, dom)
            .is_some_and(|s| s.quarantined)
    }

    /// Whether a `flush_now` command is in flight for this domain.
    pub fn flush_in_flight(&self, dom: DomainId) -> bool {
        self.slab
            .slot(self.machine, dom)
            .is_some_and(|s| s.flush_in_progress.is_some())
    }

    /// Whether the domain is in post-timeout flush retry backoff.
    pub fn in_flush_backoff(&self, dom: DomainId) -> bool {
        self.slab
            .slot(self.machine, dom)
            .and_then(|s| s.flush_backoff_until)
            .is_some_and(|t| self.now < t)
    }

    /// Interned store paths for a domain (present for every live domain
    /// on a collaborative set).
    pub fn keys(&self, dom: DomainId) -> Option<&'a DomainKeys> {
        self.slab.slot(self.machine, dom)?.keys.as_ref()
    }

    /// Domains whose store-published `has_dirty_pages` flag is raised,
    /// ascending by id — the differential signal feeding Algorithm 1's
    /// argmax, maintained by the engine at its own `has_dirty_pages`
    /// publish site. Empty on non-collaborative sets.
    pub fn dirty_domains(&self) -> &'a [DomainId] {
        self.slab.dirty_domains()
    }

    /// Domains whose congestion was confirmed, in FIFO wake order.
    pub fn congested_fifo(&self) -> &'a [DomainId] {
        self.congested_fifo
    }

    /// The engine's activation counters so far.
    pub fn stats(&self) -> &'a PlaneStats {
        self.stats
    }
}

// --------------------------------------------------------------------
// Rule
// --------------------------------------------------------------------

/// One policy decision unit. Implementations own their decision state and
/// emit [`Action`]s; the engine owns enforcement.
///
/// All methods except [`name`](Rule::name) have no-op defaults, so a
/// minimal rule only implements `name` and [`on_tick`](Rule::on_tick).
pub trait Rule: 'static {
    /// Stable rule name (trace label, diagnostics).
    fn name(&self) -> &'static str;

    /// Per-tick evaluation: read `ctx`, push actions onto `out`. Actions
    /// are applied in emission order after the stage finishes evaluating.
    fn on_tick(&mut self, ctx: &PolicyCtx<'_>, out: &mut Vec<Action>) {
        let _ = (ctx, out);
    }

    /// Whether this rule answers congestion adjudications. A set
    /// containing an adjudicating rule (on a collaborative engine) runs
    /// the full Algorithm 2 handshake: `congested` key watches, per-tick
    /// reconciliation, staggered FIFO wake on relief.
    fn adjudicates(&self) -> bool {
        false
    }

    /// Adjudicate one raised `congested` flag. Return `None` to pass to
    /// the next rule; the engine falls back to [`Verdict::Confirm`] (the
    /// guest sleeps, as under Baseline) if no rule answers.
    fn adjudicate(&mut self, ctx: &PolicyCtx<'_>, dom: DomainId) -> Option<Verdict> {
        let _ = (ctx, dom);
        None
    }

    /// A domain was destroyed: drop any per-domain state.
    fn on_domain_destroyed(&mut self, dom: DomainId) {
        let _ = dom;
    }

    /// An operator cleared a quarantine: forgive the domain's history.
    fn on_quarantine_cleared(&mut self, dom: DomainId) {
        let _ = dom;
    }

    /// The control plane crashed: reset decision state to boot values.
    fn on_crash(&mut self) {}

    /// The control plane recovered: re-seed decision state from current
    /// machine/store observables (never from event history).
    fn on_recover(&mut self, ctx: &PolicyCtx<'_>) {
        let _ = ctx;
    }
}

// --------------------------------------------------------------------
// Stage / PolicySet
// --------------------------------------------------------------------

/// An ordered group of rules anchored at one enforcement point.
pub struct Stage {
    pub(crate) name: &'static str,
    pub(crate) point: EnforcementPoint,
    pub(crate) feeds: Vec<Feed>,
    pub(crate) rules: Vec<Box<dyn Rule>>,
}

impl Stage {
    /// New empty stage at `point`.
    pub fn new(name: &'static str, point: EnforcementPoint) -> Self {
        Stage {
            name,
            point,
            feeds: Vec::new(),
            rules: Vec::new(),
        }
    }

    /// Request a guest-side monitoring feed.
    pub fn feed(mut self, f: Feed) -> Self {
        if !self.feeds.contains(&f) {
            self.feeds.push(f);
        }
        self
    }

    /// Append a rule (evaluated in append order).
    pub fn rule(mut self, r: impl Rule) -> Self {
        self.rules.push(Box::new(r));
        self
    }

    /// Stage name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Anchoring enforcement point.
    pub fn point(&self) -> EnforcementPoint {
        self.point
    }
}

/// A complete policy: a name, the engine tunables, and the staged rule
/// pipeline. Built-in constructors re-express the paper's planes; custom
/// sets compose freely via [`PolicySet::custom`].
pub struct PolicySet {
    pub(crate) name: &'static str,
    pub(crate) cfg: IOrchestraConfig,
    pub(crate) tick: Option<SimDuration>,
    pub(crate) collaborative: bool,
    pub(crate) trace_rules: bool,
    pub(crate) stages: Vec<Stage>,
}

impl PolicySet {
    /// Start a custom set: no stages, non-collaborative, ticking at
    /// `cfg.tick`. Chain [`stage`](PolicySet::stage),
    /// [`collaborative`](PolicySet::collaborative), etc. Note the engine
    /// derives its behaviour from the *stages* (and the collaborative
    /// flag), not from `cfg.functions` — that field only drives the
    /// built-in [`PolicySet::iorchestra`] constructor.
    pub fn custom(name: &'static str, cfg: IOrchestraConfig) -> Self {
        PolicySet {
            name,
            tick: Some(cfg.tick),
            collaborative: false,
            trace_rules: false,
            stages: Vec::new(),
            cfg,
        }
    }

    /// Enable/disable store choreography: key registration at domain
    /// creation, watches, health publication, quarantine persistence and
    /// crash/recovery handling. Non-collaborative sets never touch the
    /// store (like Baseline and DIF).
    pub fn collaborative(mut self, on: bool) -> Self {
        self.collaborative = on;
        self
    }

    /// Set (or with `None`, disable) the control tick.
    pub fn tick(mut self, t: Option<SimDuration>) -> Self {
        self.tick = t;
        self
    }

    /// Emit a [`RuleFired`](iorch_simcore::trace::Decision::RuleFired)
    /// decision per applied action. Off by default — and off for every
    /// built-in set, preserving byte-identical legacy traces.
    pub fn trace_rules(mut self, on: bool) -> Self {
        self.trace_rules = on;
        self
    }

    /// Append a stage (stages at the same point run in append order).
    pub fn stage(mut self, st: Stage) -> Self {
        self.stages.push(st);
        self
    }

    /// Set name (the plane name reported to the trace layer).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Engine tunables.
    pub fn config(&self) -> &IOrchestraConfig {
        &self.cfg
    }

    /// Control tick, if any.
    pub fn tick_period(&self) -> Option<SimDuration> {
        self.tick
    }

    /// Whether this set uses store choreography.
    pub fn is_collaborative(&self) -> bool {
        self.collaborative
    }

    /// The staged pipeline.
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }
}
