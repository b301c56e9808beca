//! The paper's planes, re-expressed as rules and policy sets.
//!
//! Each rule here carries exactly the *decision* half of a function the
//! hand-fused planes implemented inline; the enforcement half lives in
//! [`PolicyEngine`](super::PolicyEngine). The constructors at the bottom
//! ([`PolicySet::iorchestra`], [`PolicySet::baseline`], [`PolicySet::sdc`],
//! [`PolicySet::dif`]) assemble them into the planes §5 of the paper
//! compares. Their trace output is byte-identical to the pre-redesign
//! hand-fused planes they replaced, as recorded in the committed trace
//! fingerprints (`crates/bench/tests/fingerprints/traces.txt`, checked by
//! `policy_equivalence`).

use iorch_hypervisor::{DomainId, DOM0};
use iorch_simcore::{SimDuration, SimTime};

use crate::anomaly::{AnomalyDetector, AnomalyParams};
use crate::formulas::{
    drr_quantum, inverse_latency_weights, ratio_changed, socket_io_share, socket_process_weight,
};
use crate::planes::IOrchestraConfig;

use super::{
    Action, EnforcementPoint, Feed, FlushMode, PolicyCtx, PolicySet, Rule, Stage, Verdict,
};

// --------------------------------------------------------------------
// Admission: anomaly budgets
// --------------------------------------------------------------------

/// Store-write and denied-operation rate budgets ([`QueueAdmission`]).
///
/// Feeds the tick's drained store traffic
/// ([`PolicyCtx::store_traffic`]) to windowed budgets and emits
/// [`Action::Quarantine`] when a budget trips (and for any domain still
/// flagged from an older window). Quarantined domains' traffic is drained
/// but not fed, so an operator clear only counts new traffic.
///
/// [`QueueAdmission`]: EnforcementPoint::QueueAdmission
pub struct AnomalyRule {
    params: AnomalyParams,
    detector: AnomalyDetector,
}

impl AnomalyRule {
    /// New rule with the given budget parameters.
    pub fn new(params: AnomalyParams) -> Self {
        AnomalyRule {
            params,
            detector: AnomalyDetector::new(params),
        }
    }
}

impl Rule for AnomalyRule {
    fn name(&self) -> &'static str {
        "anomaly-budget"
    }

    fn on_tick(&mut self, ctx: &PolicyCtx<'_>, out: &mut Vec<Action>) {
        let now = ctx.now();
        for &(dom, traffic) in ctx.store_traffic() {
            if ctx.is_quarantined(dom) {
                continue;
            }
            if traffic.writes > 0 && self.detector.on_writes(dom, traffic.writes, now) {
                out.push(Action::Quarantine {
                    dom,
                    reason: "write-rate budget",
                });
            }
            if traffic.denied > 0 && self.detector.on_denied(dom, traffic.denied, now) {
                out.push(Action::Quarantine {
                    dom,
                    reason: "denied-rate budget",
                });
            }
        }
        // Domains still flagged from older windows. Usually duplicates of
        // the pushes above — the engine's quarantine set dedups, exactly
        // as the legacy plane's inline `quarantine()` calls did.
        for dom in self.detector.flagged() {
            out.push(Action::Quarantine {
                dom,
                reason: "anomaly flag",
            });
        }
    }

    fn on_quarantine_cleared(&mut self, dom: DomainId) {
        self.detector.clear(dom);
    }

    fn on_domain_destroyed(&mut self, dom: DomainId) {
        self.detector.remove(dom);
    }

    fn on_crash(&mut self) {
        self.detector = AnomalyDetector::new(self.params);
    }
}

// --------------------------------------------------------------------
// Flush: Algorithm 1's argmax
// --------------------------------------------------------------------

/// Algorithm 1's decision: when the device is underutilized *and*
/// instantaneously quiet, pick the eligible guest with the most dirty
/// pages and emit a tracked [`Action::Flush`]. Domains with a flush in
/// flight, in retry backoff, or quarantined are skipped — the argmax over
/// the rest IS the fallback to the next-dirtiest domain.
pub struct FlushArgmaxRule;

impl Rule for FlushArgmaxRule {
    fn name(&self) -> &'static str {
        "flush-argmax"
    }

    fn on_tick(&mut self, ctx: &PolicyCtx<'_>, out: &mut Vec<Action>) {
        if !ctx.device_underutilized() {
            return;
        }
        let m = ctx.machine();
        // Besides the windowed bandwidth check the device must be
        // instantaneously quiet, or the flush would land on top of a read
        // burst the window average missed.
        if m.storage.in_flight() > 8 || m.storage.queue_depth() > 0 {
            return;
        }
        let mut best: Option<(u64, DomainId)> = None;
        // Eligible (dom, nr_dirty) pairs, recorded as the decision's input
        // when tracing is on (the Vec is only built while tracing).
        let mut candidates: Vec<(u32, u64)> = Vec::new();
        let tracing = iorch_simcore::trace::enabled();
        // The engine's dirty set is the scan: domains whose published
        // `has_dirty_pages` flag is down can never enter the argmax, and
        // the set is ascending by id, so the winner (first strict maximum)
        // matches a full ascending scan. The store re-read below keeps the
        // flag authoritative even if something else wrote it.
        for &dom in ctx.dirty_domains() {
            if ctx.flush_in_flight(dom) || ctx.is_quarantined(dom) || ctx.in_flush_backoff(dom) {
                continue;
            }
            let Some(k) = ctx.keys(dom) else { continue };
            let has_dirty = m
                .store
                .read_ref(DOM0, &k.has_dirty_pages)
                .map(|v| v == "1")
                .unwrap_or(false);
            if !has_dirty {
                continue;
            }
            let nr = m
                .store
                .read_ref(DOM0, &k.nr_dirty)
                .ok()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0);
            if tracing {
                candidates.push((dom.0, nr));
            }
            if best.is_none_or(|(bn, _)| nr > bn) {
                best = Some((nr, dom));
            }
        }
        if let Some((nr_dirty, dom)) = best {
            out.push(Action::Flush {
                dom,
                mode: FlushMode::Tracked {
                    nr_dirty,
                    candidates,
                },
            });
        }
    }
}

// --------------------------------------------------------------------
// Flush: DIF's broadcast
// --------------------------------------------------------------------

/// DIF's decision (Elango et al. \[17\]): idleness is broadcast — every
/// VM with dirty pages gets a direct [`Action::Flush`] at once. The
/// simultaneous flush is DIF's weakness vs. Algorithm 1's argmax.
pub struct DifBroadcastRule;

impl Rule for DifBroadcastRule {
    fn name(&self) -> &'static str {
        "dif-broadcast"
    }

    fn on_tick(&mut self, ctx: &PolicyCtx<'_>, out: &mut Vec<Action>) {
        if !ctx.device_underutilized() {
            return;
        }
        let m = ctx.machine();
        for dom in m.domains() {
            let dirty = m.domain(dom).map(|d| d.kernel.dirty_pages()).unwrap_or(0);
            if dirty > 0 {
                out.push(Action::Flush {
                    dom,
                    mode: FlushMode::Direct,
                });
            }
        }
    }
}

// --------------------------------------------------------------------
// Congestion: Algorithm 2's adjudication
// --------------------------------------------------------------------

/// Algorithm 2's branch: confirm a raised `congested` flag when the host
/// device really is congested (the guest sleeps and joins the wake FIFO),
/// otherwise grant a release. Registering this rule (on a collaborative
/// set) activates the engine's full congestion machinery: `congested`-key
/// watch handling, per-tick reconciliation, and the staggered FIFO wake
/// on relief.
pub struct CongestionAdjudicationRule;

impl Rule for CongestionAdjudicationRule {
    fn name(&self) -> &'static str {
        "congestion-adjudicate"
    }

    fn adjudicates(&self) -> bool {
        true
    }

    fn adjudicate(&mut self, ctx: &PolicyCtx<'_>, _dom: DomainId) -> Option<Verdict> {
        Some(if ctx.machine().storage.is_congested() {
            Verdict::Confirm
        } else {
            Verdict::Release
        })
    }
}

// --------------------------------------------------------------------
// Co-scheduling: Algorithm 3
// --------------------------------------------------------------------

/// Algorithm 3's decision: per-VM route weights (inverse-latency across
/// the sockets the VM's I/O processes span), DRR quanta
/// (`Q_i = BW_max · S^{VMi}_{SKT}`), and a proportional blkio weight,
/// emitted as [`Action::Priority`] when the ratios moved more than the
/// configured threshold or the periodic push interval elapsed.
///
/// # Change-driven evaluation
///
/// A domain's route is a pure function of its VCPU sockets (fixed at
/// creation) and the per-socket I/O-core latencies, and the push test
/// compares it with the domain's last pushed route. So a domain whose
/// inputs did not move since its last evaluation would reach the same
/// verdict again. The rule re-evaluates every live, unquarantined domain
/// when the latency vector changed bit for bit, the push interval is due,
/// or the rule was reset (boot, [`on_crash`](Rule::on_crash)); otherwise
/// it evaluates only the domains created or un-quarantined since the
/// previous tick. Quarantined domains are skipped either way and
/// re-evaluated once their quarantine clears. The actions emitted are the
/// ones an every-domain-every-tick evaluation would emit, in the same
/// ascending-domain order.
pub struct CoschedRule {
    /// Last pushed route per machine slot, tagged with its domain. Slots
    /// are recycled and `DomainId`s are not, so an entry tagged with
    /// another domain reads as "never pushed".
    pushed: Vec<Option<(DomainId, Vec<f64>)>>,
    last_weight_push: SimTime,
    /// Per-socket I/O-core latency (µs) at the previous evaluation.
    lats: Vec<f64>,
    /// Domains to evaluate at the next tick even if no shared input
    /// moved: created or un-quarantined since the previous one.
    pending: Vec<DomainId>,
    /// Evaluate every domain at the next tick (set at boot and by
    /// `on_crash`).
    all: bool,
}

impl CoschedRule {
    /// New rule with no pushed history (first tick always pushes).
    pub fn new() -> Self {
        CoschedRule {
            pushed: Vec::new(),
            last_weight_push: SimTime::ZERO,
            lats: Vec::new(),
            pending: Vec::new(),
            all: true,
        }
    }

    /// Evaluate one domain and push its weights when its route moved past
    /// the threshold since its last push, or when `interval_due`. Returns
    /// whether it pushed.
    fn evaluate(
        &mut self,
        ctx: &PolicyCtx<'_>,
        dom: DomainId,
        interval_due: bool,
        out: &mut Vec<Action>,
    ) -> bool {
        if ctx.is_quarantined(dom) {
            return false;
        }
        let m = ctx.machine();
        let cfg = ctx.cfg();
        let Some(d) = m.domain(dom) else {
            return false;
        };
        // Process weight per socket: each VCPU carries weight 1 (the guest
        // publishes per-process weights; with one I/O thread per VCPU they
        // are uniform).
        let vcpu_sockets: Vec<usize> = (0..d.spec.vcpus)
            .map(|v| d.vcpu_socket(&m.topology, v))
            .collect();
        let vcpu_weights = vec![1.0; vcpu_sockets.len()];
        let spanned: Vec<usize> = {
            let mut v = vcpu_sockets.clone();
            v.sort_unstable();
            v.dedup();
            v
        };
        // Route weights: inverse-latency across the spanned sockets, scaled
        // by where the VM's I/O processes actually live.
        let lats: Vec<f64> = spanned
            .iter()
            .map(|&sk| self.lats.get(sk).copied().unwrap_or(1.0))
            .collect();
        let inv = inverse_latency_weights(&lats);
        let total_w: f64 = vcpu_weights.iter().sum();
        let mut route = vec![0.0; m.topology.sockets()];
        for (j, sk) in spanned.iter().enumerate() {
            let proc_w = socket_process_weight(&vcpu_weights, &vcpu_sockets, *sk);
            route[*sk] = inv[j] * (proc_w / total_w).max(0.05);
        }
        let norm: f64 = route.iter().sum();
        if norm > 0.0 {
            for r in &mut route {
                *r /= norm;
            }
        }
        let slot = d.slot();
        if slot >= self.pushed.len() {
            self.pushed.resize_with(slot + 1, || None);
        }
        let stale = match &self.pushed[slot] {
            Some((owner, prev)) if *owner == dom => {
                ratio_changed(prev, &route, cfg.weight_change_threshold)
            }
            _ => true,
        };
        if !(stale || interval_due) {
            return false;
        }
        self.pushed[slot] = Some((dom, route.clone()));
        let vm_share = 1.0 / m.domain_count().max(1) as f64;
        let device_bw = m.storage.device_bandwidth();
        // Quanta per socket: Q_i = BW_max · S^{VMi}_{SKT}.
        let quanta: Vec<(usize, u64)> = spanned
            .iter()
            .map(|sk| {
                let w_skt = socket_process_weight(&vcpu_weights, &vcpu_sockets, *sk);
                let share = socket_io_share(w_skt, total_w, vm_share);
                (*sk, drr_quantum(device_bw, share, cfg.drr_round))
            })
            .collect();
        out.push(Action::Priority {
            dom,
            route,
            quanta,
            // cgroup blkio weight at the device, proportional to VM share.
            blkio_weight: ((vm_share * 1000.0) as u32).clamp(10, 1000),
        });
        true
    }
}

impl Default for CoschedRule {
    fn default() -> Self {
        Self::new()
    }
}

impl Rule for CoschedRule {
    fn name(&self) -> &'static str {
        "numa-cosched"
    }

    fn on_tick(&mut self, ctx: &PolicyCtx<'_>, out: &mut Vec<Action>) {
        let m = ctx.machine();
        if m.iocores.len() < 2 {
            return;
        }
        let now = ctx.now();
        // L_i per socket, in microseconds (1.0 for a socket without an I/O
        // core; a later core on the same socket wins).
        let mut lats = vec![1.0; m.topology.sockets()];
        for c in &m.iocores {
            if let Some(l) = lats.get_mut(c.socket()) {
                *l = c.avg_latency().as_micros_f64();
            }
        }
        let moved = !lats
            .iter()
            .map(|l| l.to_bits())
            .eq(self.lats.iter().map(|l| l.to_bits()));
        self.lats = lats;
        let interval_due =
            now.saturating_since(self.last_weight_push) >= ctx.cfg().weight_update_interval;
        let mut pending = std::mem::take(&mut self.pending);
        let mut pushed = false;
        if std::mem::take(&mut self.all) || moved || interval_due {
            for dom in m.domains() {
                pushed |= self.evaluate(ctx, dom, interval_due, out);
            }
        } else {
            pending.sort_unstable();
            pending.dedup();
            for &dom in &pending {
                pushed |= self.evaluate(ctx, dom, false, out);
            }
        }
        pending.clear();
        self.pending = pending;
        if pushed {
            self.last_weight_push = now;
        }
    }

    fn on_domain_created(&mut self, dom: DomainId) {
        self.pending.push(dom);
    }

    fn on_quarantine_cleared(&mut self, dom: DomainId) {
        // The latencies may have moved while the domain was skipped.
        self.pending.push(dom);
    }

    fn on_crash(&mut self) {
        *self = CoschedRule::new();
    }
}

// --------------------------------------------------------------------
// Built-in policy sets
// --------------------------------------------------------------------

impl PolicySet {
    /// The paper's system as a policy set: Algorithms 1–3 plus anomaly
    /// admission, staged per `cfg.functions` (an ablation is
    /// configuration, not a fork).
    pub fn iorchestra(cfg: IOrchestraConfig) -> PolicySet {
        let f = cfg.functions;
        let anomaly = cfg.anomaly;
        let mut set = PolicySet::custom("iorchestra", cfg)
            .collaborative(true)
            .stage(
                Stage::new("admission", EnforcementPoint::QueueAdmission)
                    .rule(AnomalyRule::new(anomaly)),
            );
        if f.flush {
            set = set.stage(
                Stage::new("flush", EnforcementPoint::CommandIssue)
                    .feed(Feed::DirtyPages)
                    .rule(FlushArgmaxRule),
            );
        }
        if f.congestion {
            set = set.stage(
                Stage::new("congestion", EnforcementPoint::CommandIssue)
                    .rule(CongestionAdjudicationRule),
            );
        }
        if f.cosched {
            set = set.stage(
                Stage::new("cosched", EnforcementPoint::DeviceDispatch).rule(CoschedRule::new()),
            );
        }
        set
    }

    /// The paper's Baseline: no stages, no tick, no store choreography —
    /// the guest's congestion avoidance runs blind (pair with paravirt
    /// I/O).
    pub fn baseline() -> PolicySet {
        PolicySet::custom("baseline", IOrchestraConfig::new(0)).tick(None)
    }

    /// SDC: Baseline behaviour paired with a single dedicated I/O core
    /// \[22, 29\].
    pub fn sdc() -> PolicySet {
        PolicySet::custom("sdc", IOrchestraConfig::new(0)).tick(None)
    }

    /// DIF \[17\]: disk-idleness-based flush broadcast, no store
    /// choreography.
    pub fn dif() -> PolicySet {
        PolicySet::custom("dif", IOrchestraConfig::new(0))
            .tick(Some(SimDuration::from_millis(100)))
            .stage(Stage::new("flush", EnforcementPoint::CommandIssue).rule(DifBroadcastRule))
    }
}
