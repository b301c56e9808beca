//! The cluster controller: lease-based membership, failure detection,
//! and domain failover.
//!
//! The controller is deliberately *stateless about intent*: the desired
//! placement is a pure function of the alive membership and the durable
//! domain catalog ([`Controller::desired`]), and reconciliation only
//! diffs that against the ground-truth `owned` sets nodes report in
//! heartbeats. There is no placement journal to corrupt — a controller
//! that crashes and restarts (fresh epoch, empty membership) rebuilds
//! everything from heartbeats and converges to the same steady state as
//! a controller that never crashed, which is exactly what the cluster
//! convergence oracle asserts.
//!
//! # Per-tick cost
//!
//! The placement is memoized, keyed on everything it reads: a catalog
//! version (bumped by [`submit`](Controller::submit) and
//! [`retire`](Controller::retire)) and the ascending `(node, caps)` list
//! of alive members. A tick whose key is unchanged reuses the last
//! placement; a changed key reruns the whole pass, so the memo is a
//! cache of the pure function, never state of its own. Reconciliation is
//! two merge-joins of ascending lists — the desired `(ldom, node)` list
//! against each alive member's `owned` vector and in-flight commands — so
//! a tick costs a linear walk instead of a map lookup per domain.
//!
//! Command reliability follows the policy engine's epoch scheme
//! (DESIGN.md §7): every command carries `(epoch, seq)` plus the target's
//! boot incarnation; agents discard stale/duplicate deliveries; the
//! controller re-issues unacked commands under fresh sequence numbers
//! with exponentially backed-off deadlines. Acks are an optimization —
//! heartbeat `owned` sets resolve in-flight commands even when every ack
//! is lost.

use std::collections::BTreeMap;

use iorch_hypervisor::VmSpec;
use iorch_netsim::{MsgBus, NodeId};
use iorch_simcore::trace::{Decision, TraceEventKind};
use iorch_simcore::{trace_event, SimTime};

use super::msg::{Msg, NodeCaps};
use super::placement::{self, NodeView};
use super::ClusterConfig;

/// A node as the controller currently believes it to be.
#[derive(Clone, Debug)]
pub struct Member {
    /// Boot incarnation the node last registered/heartbeat under.
    pub incarnation: u64,
    /// Advertised capacity.
    pub caps: NodeCaps,
    /// Instant the lease runs out (renewed by heartbeats).
    pub lease_until: SimTime,
    /// False once the lease expired; flips back on a heartbeat
    /// (rejoin) or registration.
    pub alive: bool,
    /// Ground-truth owned set from the node's last heartbeat, ascending.
    pub owned: Vec<u32>,
}

/// An unacked command awaiting its deadline.
#[derive(Clone, Copy, Debug)]
struct Rpc {
    /// True for `Start`, false for `Stop`.
    start: bool,
    seq: u64,
    deadline: SimTime,
    attempt: u32,
}

/// The memoized desired placement, with the key it was computed under.
#[derive(Default)]
struct Placement {
    /// Catalog version at computation.
    version: u64,
    /// Alive members' `(node, caps)` at computation, ascending by node.
    alive: Vec<(u32, NodeCaps)>,
    /// Desired `(ldom, node)` pairs, ascending by ldom.
    list: Vec<(u32, u32)>,
}

/// Monotonic controller counters (excluded from convergence digests).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ControllerStats {
    /// Commands issued (first attempts and retries).
    pub commands: u64,
    /// Timed-out commands re-issued with backoff.
    pub retries: u64,
    /// Acks dropped for carrying a stale epoch.
    pub stale_acks: u64,
    /// Orphaned domains re-placed on survivors.
    pub failovers: u64,
}

/// The cluster controller state machine. Driven by [`tick`](Self::tick)
/// and the message handlers; sends through the caller-provided bus so it
/// stays borrow-disjoint from the rest of the tier.
pub struct Controller {
    cfg: ClusterConfig,
    ctrl: NodeId,
    /// Durable command epoch: bumped on every recovery, never reset.
    epoch: u64,
    down: bool,
    /// After a recovery, commands are suppressed until this instant so
    /// membership can rebuild from heartbeats first.
    grace_until: SimTime,
    members: BTreeMap<u32, Member>,
    /// Durable domain catalog: `ldom → spec`. Survives controller
    /// crashes (etcd-style persistence in a real deployment).
    catalog: BTreeMap<u32, VmSpec>,
    /// Bumped on every catalog change (half of the placement memo key).
    catalog_version: u64,
    next_ldom: u32,
    /// Memoized [`desired`](Self::desired) placement.
    placement: Placement,
    /// Domains orphaned by a lease expiry, with their dead former owner
    /// (for failover tracing).
    orphans: BTreeMap<u32, u32>,
    next_seq: u64,
    /// Unacked commands, keyed `(node, ldom)` — a node can have at most
    /// one in-flight command per logical domain.
    inflight: BTreeMap<(u32, u32), Rpc>,
    stats: ControllerStats,
}

impl Controller {
    /// A fresh controller addressed as `ctrl` on the bus.
    pub fn new(cfg: ClusterConfig, ctrl: NodeId) -> Self {
        Controller {
            cfg,
            ctrl,
            epoch: 1,
            down: false,
            grace_until: SimTime::ZERO,
            members: BTreeMap::new(),
            catalog: BTreeMap::new(),
            catalog_version: 0,
            next_ldom: 0,
            placement: Placement::default(),
            orphans: BTreeMap::new(),
            next_seq: 0,
            inflight: BTreeMap::new(),
            stats: ControllerStats::default(),
        }
    }

    /// Add a domain to the durable catalog; returns its logical id.
    pub fn submit(&mut self, spec: VmSpec) -> u32 {
        self.next_ldom += 1;
        self.catalog.insert(self.next_ldom, spec);
        self.catalog_version += 1;
        self.next_ldom
    }

    /// Remove a domain from the catalog (reconciliation stops it).
    pub fn retire(&mut self, ldom: u32) {
        self.catalog.remove(&ldom);
        self.catalog_version += 1;
        self.orphans.remove(&ldom);
    }

    /// The controller's bus address.
    pub fn node_id(&self) -> NodeId {
        self.ctrl
    }

    /// Whether the controller is currently crashed.
    pub fn is_down(&self) -> bool {
        self.down
    }

    /// Current command epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Monotonic counters.
    pub fn stats(&self) -> ControllerStats {
        self.stats
    }

    /// Current membership view.
    pub fn members(&self) -> &BTreeMap<u32, Member> {
        &self.members
    }

    /// The durable domain catalog.
    pub fn catalog(&self) -> &BTreeMap<u32, VmSpec> {
        &self.catalog
    }

    /// Unacked command count (empty at steady state).
    pub fn inflight_len(&self) -> usize {
        self.inflight.len()
    }

    /// Desired placement: a pure function of the alive membership and the
    /// catalog. Greedy in ascending `ldom` order over
    /// [`placement::place`]; domains that fit nowhere are omitted. Served
    /// from the memo when its key is current, else computed afresh.
    pub fn desired(&self) -> BTreeMap<u32, u32> {
        if self.placement_is_current() {
            self.placement.list.iter().copied().collect()
        } else {
            self.place_catalog().into_iter().collect()
        }
    }

    /// Alive members' `(node, caps)`, ascending by node: what the
    /// placement reads of the membership.
    fn alive_caps(&self) -> impl Iterator<Item = (u32, NodeCaps)> + '_ {
        self.members
            .iter()
            .filter(|(_, m)| m.alive)
            .map(|(&n, m)| (n, m.caps))
    }

    /// Whether the memo was computed under the current key.
    fn placement_is_current(&self) -> bool {
        self.placement.version == self.catalog_version
            && self.placement.alive.iter().copied().eq(self.alive_caps())
    }

    /// One full placement pass: `(ldom, node)`, ascending by ldom.
    fn place_catalog(&self) -> Vec<(u32, u32)> {
        let mut views: Vec<NodeView> = self
            .alive_caps()
            .map(|(n, c)| NodeView::new(n, c.total_vcpus, c.numa_max_vcpus, c.mem_quota))
            .collect();
        self.catalog
            .iter()
            .filter_map(|(&ldom, spec)| placement::place(spec, &mut views).map(|n| (ldom, n)))
            .collect()
    }

    /// Recompute the memo if its key moved.
    fn refresh_placement(&mut self) {
        if !self.placement_is_current() {
            self.placement = Placement {
                version: self.catalog_version,
                alive: self.alive_caps().collect(),
                list: self.place_catalog(),
            };
        }
    }

    /// Crash: volatile state (membership, in-flight commands, orphan
    /// ledger) is lost; the epoch and catalog are durable.
    pub fn crash(&mut self, now: SimTime) {
        self.down = true;
        self.members.clear();
        self.inflight.clear();
        self.orphans.clear();
        trace_event!(now, TraceEventKind::Decision(Decision::ControllerCrash));
    }

    /// Restart under a fresh epoch; commands stay suppressed for the
    /// configured grace period while heartbeats rebuild membership.
    pub fn recover(&mut self, now: SimTime) {
        self.down = false;
        self.epoch += 1;
        self.next_seq = 0;
        self.grace_until = now + self.cfg.recovery_grace;
        trace_event!(
            now,
            TraceEventKind::Decision(Decision::ControllerRecover { epoch: self.epoch })
        );
    }

    /// One control tick: expire leases, retry timed-out commands,
    /// reconcile actual ownership against the desired placement.
    pub fn tick(&mut self, bus: &mut MsgBus<Msg>, now: SimTime) {
        if self.down || now < self.grace_until {
            return;
        }
        self.expire_leases(now);
        self.retry_timeouts(bus, now);
        self.reconcile(bus, now);
    }

    fn expire_leases(&mut self, now: SimTime) {
        let expired: Vec<u32> = self
            .members
            .iter()
            .filter(|(_, m)| m.alive && m.lease_until <= now)
            .map(|(&n, _)| n)
            .collect();
        for node in expired {
            let m = self.members.get_mut(&node).unwrap();
            m.alive = false;
            let owned = std::mem::take(&mut m.owned);
            trace_event!(
                now,
                TraceEventKind::Decision(Decision::LeaseExpired {
                    node,
                    orphaned: owned.len() as u32,
                })
            );
            for ldom in owned {
                self.orphans.insert(ldom, node);
            }
            self.inflight.retain(|&(n, _), _| n != node);
        }
    }

    fn retry_timeouts(&mut self, bus: &mut MsgBus<Msg>, now: SimTime) {
        let due: Vec<(u32, u32)> = self
            .inflight
            .iter()
            .filter(|(_, rpc)| rpc.deadline <= now)
            .map(|(&k, _)| k)
            .collect();
        for (node, ldom) in due {
            let rpc = self.inflight.remove(&(node, ldom)).unwrap();
            let alive = self.members.get(&node).is_some_and(|m| m.alive);
            let spec = self.catalog.get(&ldom).copied();
            if !alive || (rpc.start && spec.is_none()) {
                // The target died or the domain was retired: drop the
                // command and let reconciliation decide afresh.
                continue;
            }
            trace_event!(
                now,
                TraceEventKind::Decision(Decision::ClusterRetry {
                    node,
                    dom: ldom,
                    attempt: rpc.attempt + 1,
                })
            );
            self.stats.retries += 1;
            self.issue(bus, now, node, ldom, rpc.start, spec, rpc.attempt + 1);
        }
    }

    fn reconcile(&mut self, bus: &mut MsgBus<Msg>, now: SimTime) {
        self.refresh_placement();
        for Cmd { start, node, ldom } in self.diff() {
            if !start {
                trace_event!(
                    now,
                    TraceEventKind::Decision(Decision::DomainEvicted { dom: ldom, node })
                );
                self.issue(bus, now, node, ldom, false, None, 0);
                continue;
            }
            trace_event!(
                now,
                TraceEventKind::Decision(Decision::DomainPlaced { dom: ldom, node })
            );
            if let Some(from) = self.orphans.remove(&ldom) {
                trace_event!(
                    now,
                    TraceEventKind::Decision(Decision::Failover {
                        dom: ldom,
                        from,
                        to: node,
                    })
                );
                self.stats.failovers += 1;
            }
            let spec = self.catalog.get(&ldom).copied();
            self.issue(bus, now, node, ldom, true, spec, 0);
        }
    }

    /// The commands one reconcile issues, in issue order: starts ascending
    /// by ldom, then stops ascending by `(node, ldom)`. Both come from
    /// merge-joins of the memoized desired list against each alive
    /// member's ascending `owned` vector and in-flight ldoms. Issuing a
    /// command never changes another entry's verdict (each key appears
    /// once), so the diff is taken before anything is issued.
    fn diff(&self) -> Vec<Cmd> {
        let desired = &self.placement.list;
        let inflight: Vec<(u32, u32)> = self.inflight.keys().copied().collect();
        // Alive members ascending by node. Every desired node is among
        // them: the memo was placed over exactly this membership.
        let alive: Vec<Side<'_>> = self
            .members
            .iter()
            .filter(|(_, m)| m.alive)
            .map(|(&node, m)| {
                let lo = inflight.partition_point(|&(n, _)| n < node);
                let hi = inflight.partition_point(|&(n, _)| n <= node);
                Side {
                    node,
                    owned: &m.owned,
                    inflight: &inflight[lo..hi],
                }
            })
            .collect();
        let mut cmds = Vec::new();
        // Starts: the desired owner doesn't report the domain yet and has
        // no command for it in flight.
        let mut cursors = vec![(0, 0); alive.len()];
        for &(ldom, node) in desired {
            let Ok(i) = alive.binary_search_by_key(&node, |a| a.node) else {
                continue;
            };
            let (o, p) = &mut cursors[i];
            if seek(alive[i].owned, o, ldom, |l| l).is_none()
                && seek(alive[i].inflight, p, ldom, |(_, l)| l).is_none()
            {
                cmds.push(Cmd {
                    start: true,
                    node,
                    ldom,
                });
            }
        }
        // Stops: an alive node owns a domain it shouldn't. Make before
        // break — a superseded copy is only stopped once the desired
        // owner actually reports it (retired domains stop immediately).
        for side in &alive {
            let (mut d, mut p) = (0, 0);
            for &ldom in side.owned {
                let keep = match seek(desired, &mut d, ldom, |(l, _)| l) {
                    Some((_, want)) if want == side.node => true,
                    Some((_, want)) => self
                        .members
                        .get(&want)
                        .is_none_or(|m| m.owned.binary_search(&ldom).is_err()),
                    None => self.catalog.contains_key(&ldom),
                };
                if !keep && seek(side.inflight, &mut p, ldom, |(_, l)| l).is_none() {
                    cmds.push(Cmd {
                        start: false,
                        node: side.node,
                        ldom,
                    });
                }
            }
        }
        cmds
    }

    /// Issue (or re-issue) a command under a fresh sequence number, with
    /// an exponentially backed-off deadline for retries.
    #[allow(clippy::too_many_arguments)]
    fn issue(
        &mut self,
        bus: &mut MsgBus<Msg>,
        now: SimTime,
        node: u32,
        ldom: u32,
        start: bool,
        spec: Option<VmSpec>,
        attempt: u32,
    ) {
        let Some(m) = self.members.get(&node) else {
            return;
        };
        let inc = m.incarnation;
        self.next_seq += 1;
        let seq = self.next_seq;
        let shift = attempt.min(self.cfg.backoff_cap_shift);
        let deadline = now + self.cfg.rpc_timeout * (1u64 << shift);
        let msg = if start {
            let Some(spec) = spec else { return };
            Msg::Start {
                node,
                inc,
                epoch: self.epoch,
                seq,
                ldom,
                spec,
            }
        } else {
            Msg::Stop {
                node,
                inc,
                epoch: self.epoch,
                seq,
                ldom,
            }
        };
        self.stats.commands += 1;
        self.inflight.insert(
            (node, ldom),
            Rpc {
                start,
                seq,
                deadline,
                attempt,
            },
        );
        let len = msg.wire_len();
        bus.send(self.ctrl, NodeId(node as usize), len, msg, now);
    }

    /// Handle one inbound message (the tier routes controller-addressed
    /// deliveries here; drops them entirely while the controller is down).
    pub fn on_msg(&mut self, bus: &mut MsgBus<Msg>, msg: Msg, now: SimTime) {
        match msg {
            Msg::Register {
                node,
                incarnation,
                caps,
            } => self.on_register(bus, node, incarnation, caps, now),
            Msg::Heartbeat {
                node,
                incarnation,
                caps,
                owned,
            } => self.on_heartbeat(bus, node, incarnation, caps, owned, now),
            Msg::CmdAck { node, epoch, seq } => self.on_ack(node, epoch, seq),
            // Controller-originated kinds reflected back are impossible by
            // construction; ignore defensively.
            Msg::Lease { .. } | Msg::Start { .. } | Msg::Stop { .. } => {}
        }
    }

    fn grant_lease(&mut self, bus: &mut MsgBus<Msg>, node: u32, now: SimTime) {
        let msg = Msg::Lease {
            node,
            epoch: self.epoch,
            ttl: self.cfg.lease_ttl,
        };
        let len = msg.wire_len();
        bus.send(self.ctrl, NodeId(node as usize), len, msg, now);
    }

    fn on_register(
        &mut self,
        bus: &mut MsgBus<Msg>,
        node: u32,
        incarnation: u64,
        caps: NodeCaps,
        now: SimTime,
    ) {
        match self.members.get_mut(&node) {
            // A delayed duplicate from a previous life: ignore.
            Some(m) if incarnation < m.incarnation => return,
            // Re-registration of the current life (lost lease, e.g. a
            // healed partition): renew without touching the owned set —
            // the node kept its domains running.
            Some(m) if incarnation == m.incarnation => {
                m.caps = caps;
                m.lease_until = now + self.cfg.lease_ttl;
                if !m.alive {
                    m.alive = true;
                    trace_event!(
                        now,
                        TraceEventKind::Decision(Decision::NodeRejoined { node, incarnation })
                    );
                }
            }
            // A new node, or a reboot under a fresh incarnation: the
            // previous life's domains and in-flight commands are void.
            _ => {
                self.inflight.retain(|&(n, _), _| n != node);
                self.members.insert(
                    node,
                    Member {
                        incarnation,
                        caps,
                        lease_until: now + self.cfg.lease_ttl,
                        alive: true,
                        owned: Vec::new(),
                    },
                );
                trace_event!(
                    now,
                    TraceEventKind::Decision(Decision::NodeRegistered { node, incarnation })
                );
            }
        }
        self.grant_lease(bus, node, now);
    }

    fn on_heartbeat(
        &mut self,
        bus: &mut MsgBus<Msg>,
        node: u32,
        incarnation: u64,
        caps: NodeCaps,
        owned: Vec<u32>,
        now: SimTime,
    ) {
        match self.members.get_mut(&node) {
            Some(m) if incarnation < m.incarnation => return,
            Some(m) if incarnation == m.incarnation => {
                m.caps = caps;
                m.owned = owned;
                m.lease_until = now + self.cfg.lease_ttl;
                if !m.alive {
                    m.alive = true;
                    trace_event!(
                        now,
                        TraceEventKind::Decision(Decision::NodeRejoined { node, incarnation })
                    );
                }
            }
            // Unknown node (controller restarted) or a newer incarnation
            // whose Register was lost: heartbeats carry everything needed
            // to (re)build the member.
            _ => {
                self.inflight.retain(|&(n, _), _| n != node);
                self.members.insert(
                    node,
                    Member {
                        incarnation,
                        caps,
                        lease_until: now + self.cfg.lease_ttl,
                        alive: true,
                        owned,
                    },
                );
                trace_event!(
                    now,
                    TraceEventKind::Decision(Decision::NodeRegistered { node, incarnation })
                );
            }
        }
        // Ground truth resolves in-flight commands even when acks are
        // lost: a Start is done once owned, a Stop once gone.
        let owned = &self.members[&node].owned;
        self.inflight.retain(|&(n, ldom), rpc| {
            if n != node {
                return true;
            }
            let has = owned.binary_search(&ldom).is_ok();
            rpc.start != has
        });
        self.grant_lease(bus, node, now);
    }

    fn on_ack(&mut self, node: u32, epoch: u64, seq: u64) {
        if epoch != self.epoch {
            self.stats.stale_acks += 1;
            return;
        }
        self.inflight
            .retain(|&(n, _), rpc| !(n == node && rpc.seq == seq));
    }
}

/// One reconcile command: start or stop `ldom` on `node`.
struct Cmd {
    start: bool,
    node: u32,
    ldom: u32,
}

/// One alive member's side of the reconcile merge-joins.
struct Side<'a> {
    node: u32,
    /// Ground-truth owned set, ascending.
    owned: &'a [u32],
    /// This node's in-flight `(node, ldom)` commands, ascending.
    inflight: &'a [(u32, u32)],
}

/// One merge-join step: advance the cursor `at` over `list` (ascending
/// by `key`) past every entry keyed below `x`, and return the entry keyed
/// `x`, if any. Successive calls must ask for ascending `x`.
fn seek<T: Copy>(list: &[T], at: &mut usize, x: u32, key: impl Fn(T) -> u32) -> Option<T> {
    while list.get(*at).is_some_and(|&e| key(e) < x) {
        *at += 1;
    }
    list.get(*at).copied().filter(|&e| key(e) == x)
}
