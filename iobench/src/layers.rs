//! The traced run's observer: folds the trace tap's event stream into
//! per-request layer spans, per-layer counts, control-decision latencies
//! and per-layer host self time.
//!
//! Spans pair each request's `QueueSubmit`, `RingPush`, `DeviceDispatch`,
//! `DeviceComplete` and `BlockComplete` events by `(dom, req)`:
//!
//! | span               | from             | to               | layer        |
//! |--------------------|------------------|------------------|--------------|
//! | queue wait         | `QueueSubmit`    | `RingPush`       | `guestos`    |
//! | backend wait       | `RingPush`       | `DeviceDispatch` | `hypervisor` |
//! | device service     | `DeviceDispatch` | `DeviceComplete` | `storage`    |
//! | completion         | `DeviceComplete` | `BlockComplete`  | `hypervisor` |
//!
//! Host self time: the benchmark times every `Simulation::step` and charges
//! it to the layer of the first trace event that step emits
//! ([`Folder::end_step`]); steps that emit none are charged to
//! `untraced`.

use std::collections::{BTreeMap, HashMap};
use std::time::Duration;

use iorch_simcore::trace::{Decision, TraceEventKind};
use iorch_simcore::SimTime;

use crate::stats::percentile;

/// Where host time and events are attributed.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Layer {
    /// Guest block queue, congestion avoidance, page cache writeback.
    Guest,
    /// Frontend ring, backend, DRR I/O cores, completion delivery.
    HypervisorIo,
    /// System store and XenBus watch delivery.
    HypervisorStore,
    /// Host storage subsystem and device model.
    Storage,
    /// Per-machine policy engine decisions.
    CorePolicy,
    /// Cluster controller and node agents.
    CoreCluster,
    /// Steps that emitted no trace event.
    Untraced,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 7] = [
        Layer::Guest,
        Layer::HypervisorIo,
        Layer::HypervisorStore,
        Layer::Storage,
        Layer::CorePolicy,
        Layer::CoreCluster,
        Layer::Untraced,
    ];

    /// Per-layer metric name of the layer's host self time.
    pub fn host_metric(self) -> &'static str {
        match self {
            Layer::Guest => "guestos.host_s",
            Layer::HypervisorIo => "hypervisor.io_host_s",
            Layer::HypervisorStore => "hypervisor.store_host_s",
            Layer::Storage => "storage.host_s",
            Layer::CorePolicy => "core.policy_host_s",
            Layer::CoreCluster => "core.cluster_host_s",
            Layer::Untraced => "untraced.host_s",
        }
    }

    fn of(kind: &TraceEventKind) -> Layer {
        use TraceEventKind as K;
        match kind {
            K::QueueSubmit { .. }
            | K::QueueMerge { .. }
            | K::QueueBlocked { .. }
            | K::CongestionQuery { .. }
            | K::CongestionEnter { .. }
            | K::CongestionClear { .. }
            | K::BypassGrant { .. }
            | K::BypassRevoke { .. }
            | K::DescriptorUnderflow { .. }
            | K::Unplug { .. }
            | K::WritebackIssue { .. } => Layer::Guest,
            K::RingPush { .. }
            | K::BlockComplete { .. }
            | K::DrrVisit { .. }
            | K::RateLimitDefer { .. } => Layer::HypervisorIo,
            K::DeviceDispatch { .. } | K::DeviceComplete { .. } => Layer::Storage,
            K::StoreWrite { .. }
            | K::StoreDenied { .. }
            | K::XenBusDeliver { .. }
            | K::XenBusDrop { .. }
            | K::XenBusDup { .. } => Layer::HypervisorStore,
            K::Decision(d) if is_cluster(d) => Layer::CoreCluster,
            K::Decision(_) => Layer::CorePolicy,
        }
    }
}

fn is_cluster(d: &Decision) -> bool {
    matches!(
        d,
        Decision::NodeRegistered { .. }
            | Decision::LeaseExpired { .. }
            | Decision::NodeRejoined { .. }
            | Decision::DomainPlaced { .. }
            | Decision::DomainEvicted { .. }
            | Decision::Failover { .. }
            | Decision::ControllerCrash
            | Decision::ControllerRecover { .. }
            | Decision::ClusterCmdStale { .. }
            | Decision::ClusterRetry { .. }
    )
}

/// Timestamps (sim-ns) seen so far for one in-flight request.
#[derive(Clone, Copy, Default, Debug)]
struct Open {
    submit: u64,
    ring: Option<u64>,
    dispatch: Option<u64>,
    dev_done: Option<u64>,
}

/// Everything the traced run folds out of the event stream.
#[derive(Default, Debug)]
pub struct Folder {
    open: HashMap<(u32, u64), Open>,
    /// Completed requests whose spans were checked.
    pub spans_checked: u64,
    /// Completed requests whose spans were missing, out of order, or did
    /// not sum to `BlockComplete − QueueSubmit`.
    pub span_mismatches: u64,
    /// Exact span samples in sim-ns, one per checked request.
    pub queue_wait_ns: Vec<u64>,
    pub backend_wait_ns: Vec<u64>,
    pub service_ns: Vec<u64>,
    pub completion_ns: Vec<u64>,
    /// Device queue occupancy after each dispatch.
    pub qdepth: Vec<u64>,
    /// Event counts.
    pub congestion_entries: u64,
    pub bypass_grants: u64,
    pub drr_visits: u64,
    pub rate_limit_defers: u64,
    pub xenbus_deliveries: u64,
    /// Control decisions by kind.
    pub decisions: BTreeMap<&'static str, u64>,
    /// Writeback pages issued (all / by remote `flush_now`).
    pub writeback_pages: u64,
    pub remote_flush_pages: u64,
    /// `FlushNow` → `FlushAck` and `CongestionQuery` → verdict latencies
    /// in sim-ns, paired per domain.
    pub flush_ack_ns: Vec<u64>,
    pub verdict_ns: Vec<u64>,
    flush_sent: HashMap<u32, u64>,
    query_sent: HashMap<u32, u64>,
    /// Host self time per layer.
    pub host: BTreeMap<Layer, Duration>,
    step_layer: Option<Layer>,
}

impl Folder {
    /// Observe one trace event (called from the tap).
    pub fn on_event(&mut self, t: SimTime, kind: &TraceEventKind) {
        use TraceEventKind as K;
        if self.step_layer.is_none() {
            self.step_layer = Some(Layer::of(kind));
        }
        let now = t.as_nanos();
        match kind {
            K::QueueSubmit { dom, req, .. } => {
                let fresh = Open {
                    submit: now,
                    ..Open::default()
                };
                // A request id submitted twice breaks the pairing.
                let resubmitted = self.open.insert((*dom, *req), fresh).is_some();
                self.span_mismatches += u64::from(resubmitted);
            }
            K::RingPush { dom, req } => self.stamp(*dom, *req, now, |o| &mut o.ring),
            K::DeviceDispatch {
                dom, req, qdepth, ..
            } => {
                self.qdepth.push(u64::from(*qdepth));
                self.stamp(*dom, *req, now, |o| &mut o.dispatch);
            }
            K::DeviceComplete { dom, req, .. } => self.stamp(*dom, *req, now, |o| &mut o.dev_done),
            K::BlockComplete { dom, req } => self.close(*dom, *req, now),
            K::WritebackIssue { pages, remote, .. } => {
                self.writeback_pages += pages;
                if *remote {
                    self.remote_flush_pages += pages;
                }
            }
            K::CongestionQuery { dom, .. } => {
                self.query_sent.insert(*dom, now);
            }
            K::CongestionEnter { .. } => self.congestion_entries += 1,
            K::BypassGrant { .. } => self.bypass_grants += 1,
            K::DrrVisit { .. } => self.drr_visits += 1,
            K::RateLimitDefer { .. } => self.rate_limit_defers += 1,
            K::XenBusDeliver { .. } => self.xenbus_deliveries += 1,
            K::Decision(d) => self.on_decision(d, now),
            _ => {}
        }
    }

    fn stamp(&mut self, dom: u32, req: u64, now: u64, slot: fn(&mut Open) -> &mut Option<u64>) {
        let stage = self.open.get_mut(&(dom, req)).map(slot);
        match stage {
            Some(s @ None) => *s = Some(now),
            // A stage seen twice, or for a request never submitted.
            _ => self.span_mismatches += 1,
        }
    }

    fn close(&mut self, dom: u32, req: u64, done: u64) {
        self.spans_checked += 1;
        let Some(o) = self.open.remove(&(dom, req)) else {
            self.span_mismatches += 1;
            return;
        };
        let (Some(ring), Some(dispatch), Some(dev_done)) = (o.ring, o.dispatch, o.dev_done) else {
            self.span_mismatches += 1;
            return;
        };
        let stages = [o.submit, ring, dispatch, dev_done, done];
        if stages.windows(2).any(|w| w[0] > w[1]) {
            self.span_mismatches += 1;
            return;
        }
        let spans = [
            ring - o.submit,
            dispatch - ring,
            dev_done - dispatch,
            done - dev_done,
        ];
        if spans.iter().sum::<u64>() != done - o.submit {
            self.span_mismatches += 1;
            return;
        }
        self.queue_wait_ns.push(spans[0]);
        self.backend_wait_ns.push(spans[1]);
        self.service_ns.push(spans[2]);
        self.completion_ns.push(spans[3]);
    }

    fn on_decision(&mut self, d: &Decision, now: u64) {
        *self.decisions.entry(decision_name(d)).or_default() += 1;
        match d {
            Decision::FlushNow { dom, .. } => {
                self.flush_sent.insert(*dom, now);
            }
            Decision::FlushAck { dom } => {
                if let Some(sent) = self.flush_sent.remove(dom) {
                    self.flush_ack_ns.push(now - sent);
                }
            }
            Decision::ReleaseGranted { dom, .. } | Decision::CongestionConfirmed { dom, .. } => {
                if let Some(sent) = self.query_sent.remove(dom) {
                    self.verdict_ns.push(now - sent);
                }
            }
            _ => {}
        }
    }

    /// Charge one timed `Simulation::step` to the layer of the first event
    /// it emitted.
    pub fn end_step(&mut self, host: Duration) {
        let layer = self.step_layer.take().unwrap_or(Layer::Untraced);
        *self.host.entry(layer).or_default() += host;
    }

    /// Forget the layer of events emitted outside a timed step (set-up).
    pub fn begin_steps(&mut self) {
        self.step_layer = None;
    }

    /// Requests still in flight (submitted, not completed) at the horizon.
    pub fn open_spans(&self) -> usize {
        self.open.len()
    }

    /// Count of decisions of one kind (see [`decision_name`]).
    pub fn decision(&self, kind: &str) -> u64 {
        self.decisions.get(kind).copied().unwrap_or(0)
    }
}

/// Sort exact samples and take a nearest-rank percentile.
pub fn pct(samples: &[u64], p: f64) -> Option<u64> {
    let mut v = samples.to_vec();
    v.sort_unstable();
    percentile(&v, p)
}

/// Snake-case name of a decision kind, as used in `core.decisions.<kind>`.
pub fn decision_name(d: &Decision) -> &'static str {
    match d {
        Decision::FlushNow { .. } => "flush_now",
        Decision::FlushAck { .. } => "flush_ack",
        Decision::FlushTimeout { .. } => "flush_timeout",
        Decision::ReleaseGranted { .. } => "release_granted",
        Decision::CongestionConfirmed { .. } => "congestion_confirmed",
        Decision::StaggeredWake { .. } => "staggered_wake",
        Decision::Quarantine { .. } => "quarantine",
        Decision::QuarantineCleared { .. } => "quarantine_cleared",
        Decision::WeightPush { .. } => "weight_push",
        Decision::PlaneCrash => "plane_crash",
        Decision::PlaneRecover { .. } => "plane_recover",
        Decision::StaleCommand { .. } => "stale_command",
        Decision::RuleFired { .. } => "rule_fired",
        Decision::NodeRegistered { .. } => "node_registered",
        Decision::LeaseExpired { .. } => "lease_expired",
        Decision::NodeRejoined { .. } => "node_rejoined",
        Decision::DomainPlaced { .. } => "domain_placed",
        Decision::DomainEvicted { .. } => "domain_evicted",
        Decision::Failover { .. } => "failover",
        Decision::ControllerCrash => "controller_crash",
        Decision::ControllerRecover { .. } => "controller_recover",
        Decision::ClusterCmdStale { .. } => "cluster_cmd_stale",
        Decision::ClusterRetry { .. } => "cluster_retry",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn request(f: &mut Folder, dom: u32, req: u64, times: [u64; 5]) {
        use TraceEventKind as K;
        f.on_event(
            at(times[0]),
            &K::QueueSubmit {
                dom,
                req,
                write: true,
                len: 4096,
            },
        );
        f.on_event(at(times[1]), &K::RingPush { dom, req });
        f.on_event(
            at(times[2]),
            &K::DeviceDispatch {
                req,
                dom,
                write: true,
                len: 4096,
                qdepth: 3,
            },
        );
        f.on_event(
            at(times[3]),
            &K::DeviceComplete {
                req,
                dom,
                latency_us: 0,
            },
        );
        f.on_event(at(times[4]), &K::BlockComplete { dom, req });
    }

    #[test]
    fn spans_sum_to_end_to_end() {
        let mut f = Folder::default();
        request(&mut f, 1, 10, [100, 250, 1_000, 5_000, 5_400]);
        // Same request id on another domain is a different request.
        request(&mut f, 2, 10, [200, 200, 300, 900, 901]);
        assert_eq!(f.spans_checked, 2);
        assert_eq!(f.span_mismatches, 0);
        assert_eq!(f.queue_wait_ns, vec![150, 0]);
        assert_eq!(f.backend_wait_ns, vec![750, 100]);
        assert_eq!(f.service_ns, vec![4_000, 600]);
        assert_eq!(f.completion_ns, vec![400, 1]);
        assert_eq!(f.qdepth, vec![3, 3]);
        assert_eq!(f.open_spans(), 0);
    }

    #[test]
    fn merged_and_in_flight_requests_are_not_mismatches() {
        use TraceEventKind as K;
        let mut f = Folder::default();
        f.on_event(
            at(5),
            &K::QueueMerge {
                dom: 1,
                req: 7,
                len: 512,
            },
        );
        f.on_event(
            at(6),
            &K::QueueSubmit {
                dom: 1,
                req: 8,
                write: false,
                len: 512,
            },
        );
        f.on_event(at(9), &K::RingPush { dom: 1, req: 8 });
        assert_eq!(f.span_mismatches, 0);
        assert_eq!(f.spans_checked, 0);
        assert_eq!(f.open_spans(), 1);
    }

    #[test]
    fn broken_spans_are_counted_not_dropped() {
        use TraceEventKind as K;
        let mut f = Folder::default();
        // Completion of a request that was never submitted.
        f.on_event(at(10), &K::BlockComplete { dom: 3, req: 1 });
        // Completion with a missing device stage.
        f.on_event(
            at(20),
            &K::QueueSubmit {
                dom: 3,
                req: 2,
                write: false,
                len: 1,
            },
        );
        f.on_event(at(30), &K::RingPush { dom: 3, req: 2 });
        f.on_event(at(40), &K::BlockComplete { dom: 3, req: 2 });
        // Stages out of order.
        request(&mut f, 3, 4, [100, 90, 200, 300, 400]);
        assert_eq!(f.spans_checked, 3);
        assert_eq!(f.span_mismatches, 3);
        assert!(f.queue_wait_ns.is_empty());
    }

    #[test]
    fn host_time_goes_to_first_event_layer() {
        use TraceEventKind as K;
        let mut f = Folder::default();
        f.on_event(at(1), &K::CongestionEnter { dom: 1 });
        f.begin_steps();
        f.on_event(at(2), &K::RingPush { dom: 1, req: 1 });
        f.on_event(at(2), &K::CongestionEnter { dom: 1 });
        f.end_step(Duration::from_nanos(30));
        f.end_step(Duration::from_nanos(5));
        f.on_event(at(3), &K::Decision(Decision::ControllerCrash));
        f.end_step(Duration::from_nanos(7));
        assert_eq!(f.host[&Layer::HypervisorIo], Duration::from_nanos(30));
        assert_eq!(f.host[&Layer::Untraced], Duration::from_nanos(5));
        assert_eq!(f.host[&Layer::CoreCluster], Duration::from_nanos(7));
        assert!(!f.host.contains_key(&Layer::Guest));
    }

    #[test]
    fn decision_latencies_pair_per_domain() {
        use TraceEventKind as K;
        let mut f = Folder::default();
        let flush = |dom| {
            K::Decision(Decision::FlushNow {
                dom,
                nr_dirty: 1,
                candidates: vec![],
            })
        };
        f.on_event(at(1_000), &flush(1));
        f.on_event(at(1_500), &flush(2));
        f.on_event(at(4_000), &K::Decision(Decision::FlushAck { dom: 2 }));
        f.on_event(at(9_000), &K::Decision(Decision::FlushAck { dom: 1 }));
        f.on_event(
            at(10),
            &K::CongestionQuery {
                dom: 5,
                allocated: 120,
            },
        );
        f.on_event(
            at(70),
            &K::Decision(Decision::ReleaseGranted {
                dom: 5,
                host_qdepth: 0,
            }),
        );
        assert_eq!(f.flush_ack_ns, vec![2_500, 8_000]);
        assert_eq!(f.verdict_ns, vec![60]);
        assert_eq!(f.decision("flush_now"), 2);
        assert_eq!(pct(&f.flush_ack_ns, 50.0), Some(2_500));
    }
}
