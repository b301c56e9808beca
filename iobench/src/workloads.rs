//! The three benchmark workloads: set-up from a seed, driving to the
//! horizon, and the modelled (simulated-time) results each run yields.
//!
//! All load is generated inside the simulator's virtual time, so the
//! generators can never run late relative to the simulated clock.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;
use std::time::{Duration, Instant};

use iorch_hypervisor::{Cluster, VmSpec};
use iorch_metrics::LatencyHistogram;
use iorch_simcore::{
    FaultKind, FaultPlan, FaultWindow, RunOutcome, SimDuration, SimRng, SimTime, Simulation,
};
use iorch_workloads::{
    recorder, spawn_fileserver, spawn_olio, spawn_ycsb, FsParams, OlioParams, OlioRecorders, Rec,
    VmRef, YcsbParams,
};
use iorchestra::cluster::ClusterTier;
use iorchestra::{ClusterConfig, SystemKind};

use crate::stats::{percentile, tail_rule};

/// Warm-up discarded from every recorder.
const WARMUP: SimDuration = SimDuration::from_secs(2);
/// Measured spans of the two single-host workloads, sized so the headline
/// and Olio timings report p99.9: at least 10k samples (ten beyond p99.9),
/// and fewer than 100k (where the rule would move to p99.99).
const COLO_MEASURE: SimDuration = SimDuration::from_secs(30);
const FLUSH_MEASURE: SimDuration = SimDuration::from_secs(45);

/// Fleet shape.
const FLEET_NODES: u32 = 4;
const FLEET_CATALOG: u32 = 512;
/// Catalog domains that are short-lived tenants, turned over one at a time;
/// the rest are long-lived.
const FLEET_CHURNING: u32 = 32;
/// Faults injected per run, one per slot, cycling node crash → partition on
/// a lossy bus → controller crash.
const FLEET_FAULTS: u32 = 102;
const FLEET_SLOT_MS: u64 = 3_200;
/// Restore polling grid: the controller tick.
const FLEET_POLL: SimDuration = SimDuration::from_millis(50);
/// One tenant retires and a new one is submitted this often.
const FLEET_TURNOVER: SimDuration = SimDuration::from_millis(250);

/// A benchmark workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// §5.1 co-location: Olio + YCSB1 + YCSB2 on one host.
    ColoOlioYcsb,
    /// §5.3 Algorithm 1 setting: 20 FileBench file-server VMs.
    FlushWaves,
    /// Cluster tier over 4 hosts under a repeating fault cycle.
    FleetFailover,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ColoOlioYcsb,
        Workload::FlushWaves,
        Workload::FleetFailover,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColoOlioYcsb => "colo_olio_ycsb",
            Workload::FlushWaves => "flush_waves",
            Workload::FleetFailover => "fleet_failover",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Tail label the percentile rule must pick for the headline timing;
    /// anything else means the run produced too few samples.
    pub fn expected_tail(self) -> &'static str {
        match self {
            Workload::ColoOlioYcsb | Workload::FlushWaves => "p999",
            Workload::FleetFailover => "p90",
        }
    }
}

/// Latency summary of one application in the measured window.
#[derive(Clone, PartialEq, Debug)]
pub struct AppStats {
    pub name: &'static str,
    pub ops: u64,
    pub bytes: u64,
    pub p50_ns: f64,
    pub tail_ns: f64,
    pub tail_label: &'static str,
}

impl AppStats {
    fn from_hist(name: &'static str, hist: &LatencyHistogram, ops: u64, bytes: u64) -> AppStats {
        let (p, label) = tail_rule(hist.count()).unwrap_or((50.0, "none"));
        AppStats {
            name,
            ops,
            bytes,
            p50_ns: hist_percentile(hist, 50.0),
            tail_ns: hist_percentile(hist, p),
            tail_label: label,
        }
    }

    fn from_samples(name: &'static str, samples: &[u64]) -> AppStats {
        let mut v = samples.to_vec();
        v.sort_unstable();
        let (p, label) = tail_rule(v.len() as u64).unwrap_or((50.0, "none"));
        AppStats {
            name,
            ops: v.len() as u64,
            bytes: 0,
            p50_ns: percentile(&v, 50.0).unwrap_or(0) as f64,
            tail_ns: percentile(&v, p).unwrap_or(0) as f64,
            tail_label: label,
        }
    }
}

/// Percentile `p` of a latency histogram in ns, interpolated linearly
/// inside the bucket that holds it. The histogram keeps 32 linear
/// sub-buckets per power of two, so its own `percentile` reads a bucket
/// midpoint and moves in steps of up to ~3%; interpolation gives a value
/// that moves with the samples, still within that bucket.
pub fn hist_percentile(hist: &LatencyHistogram, p: f64) -> f64 {
    let n = hist.count();
    if n == 0 {
        return 0.0;
    }
    let rank = (p / 100.0).clamp(0.0, 1.0) * n as f64;
    let mut seen = 0.0;
    for (mid, c) in hist.iter_buckets() {
        let mid = mid.as_nanos();
        let c = c as f64;
        if seen + c >= rank {
            // Bucket width from its midpoint: 1 ns below 64, else
            // 2^(msb - 5) (see the histogram's bucket layout).
            let width = if mid < 64 {
                1
            } else {
                1u64 << (63 - mid.leading_zeros() - 5)
            };
            let lower = (mid - width / 2) as f64;
            let v = lower + (rank - seen) / c * width as f64;
            return v.clamp(hist.min().as_nanos() as f64, hist.max().as_nanos() as f64);
        }
        seen += c;
    }
    hist.max().as_nanos() as f64
}

/// Fleet-only results.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct FleetStats {
    /// Faults injected.
    pub faults: u64,
    /// Faults restored only after the next fault was injected, or never.
    pub late: u64,
    /// Ownership invariant violations at the end of the run.
    pub violations: u64,
    pub failovers: u64,
    pub retries: u64,
    pub stale_acks: u64,
    pub msgs_delivered: u64,
    pub msgs_dropped: u64,
    pub msgs_duplicated: u64,
}

/// Everything a run computes in simulated time. Two runs of one seed must
/// produce equal values, traced or not.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Modelled {
    /// Scheduler events executed.
    pub events: u64,
    /// Simulated seconds covered (the horizon).
    pub sim_s: f64,
    /// Length of the measured window in simulated seconds.
    pub measured_s: f64,
    /// Applications, headline first.
    pub apps: Vec<AppStats>,
    /// Store writes / denials summed over hosts.
    pub store_writes: u64,
    pub store_denied: u64,
    /// Device payload bytes summed over hosts.
    pub dev_read_bytes: u64,
    pub dev_write_bytes: u64,
    pub fleet: Option<FleetStats>,
}

impl Modelled {
    /// The headline application (first in `apps`).
    pub fn headline(&self) -> &AppStats {
        &self.apps[0]
    }

    pub fn app(&self, name: &str) -> Option<&AppStats> {
        self.apps.iter().find(|a| a.name == name)
    }

    /// The workload-specific modelled metrics, by name, with units.
    pub fn named(&self, w: Workload) -> Vec<(String, f64, &'static str)> {
        let us = |ns: f64| ns / 1e3;
        let ms = |ns: f64| ns / 1e6;
        let mut out = Vec::new();
        match w {
            Workload::ColoOlioYcsb => {
                for (a, scale) in [("ycsb1", "us"), ("ycsb2", "us"), ("olio", "ms")] {
                    let Some(s) = self.app(a) else { continue };
                    let f = if scale == "us" { us } else { ms };
                    if a != "ycsb2" {
                        out.push((format!("{a}_p50_{scale}"), f(s.p50_ns), scale));
                    }
                    out.push((format!("{a}_{}_{scale}", s.tail_label), f(s.tail_ns), scale));
                }
                if let Some(o) = self.app("olio") {
                    out.push((
                        "olio_ops_per_sim_s".into(),
                        o.ops as f64 / self.measured_s,
                        "1/s",
                    ));
                }
            }
            Workload::FlushWaves => {
                let fs = self.headline();
                out.push(("fs_p50_ms".into(), ms(fs.p50_ns), "ms"));
                out.push((format!("fs_{}_ms", fs.tail_label), ms(fs.tail_ns), "ms"));
                out.push((
                    "fs_mb_per_sim_s".into(),
                    fs.bytes as f64 / 1e6 / self.measured_s,
                    "MB/s",
                ));
            }
            Workload::FleetFailover => {
                let r = self.headline();
                out.push(("restore_ms_p50".into(), ms(r.p50_ns), "ms"));
                out.push((format!("restore_ms_{}", r.tail_label), ms(r.tail_ns), "ms"));
            }
        }
        out
    }
}

/// One fault of the fleet's cycle: when it strikes and when the faulted
/// component is back (node rebooted, partition healed, controller up).
#[derive(Clone, Copy, Debug)]
struct Fault {
    inject: SimTime,
    end: SimTime,
}

enum Probes {
    Colo {
        ycsb1: Rec,
        ycsb2: Rec,
        olio: OlioRecorders,
    },
    Flush {
        fs: Vec<Rec>,
    },
    Fleet {
        tier: Rc<RefCell<ClusterTier>>,
        faults: Vec<Fault>,
        turnover: Rc<Cell<u64>>,
    },
}

/// A provisioned workload, ready to run.
pub struct Instance {
    pub sim: Simulation<Cluster>,
    /// Host time spent provisioning.
    pub setup: Duration,
    /// Host time of each `Cluster::create_domain` call made during set-up.
    pub create_domain: Vec<Duration>,
    horizon: SimTime,
    probes: Probes,
}

/// The result of driving an instance to its horizon.
pub struct Driven {
    /// Host time spent inside the advance calls.
    pub host: Duration,
    /// Every advance ended with `RunOutcome::HorizonReached`.
    pub horizon_reached: bool,
    pub modelled: Modelled,
    /// Ops per application, for the "every app did work" check.
    pub app_ops: Vec<(&'static str, u64)>,
}

/// Advance a simulation up to and including `t`.
pub type Advance<'a> = dyn FnMut(&mut Simulation<Cluster>, SimTime) -> RunOutcome + 'a;

impl Instance {
    /// Provision `w` for `seed`. Everything before the first event counts
    /// as set-up.
    pub fn setup(w: Workload, seed: u64) -> Instance {
        let start = Instant::now();
        let mut create_domain = Vec::new();
        let mut sim = Simulation::new(Cluster::new());
        let (horizon, probes) = match w {
            Workload::ColoOlioYcsb => setup_colo(&mut sim, seed, &mut create_domain),
            Workload::FlushWaves => setup_flush(&mut sim, seed, &mut create_domain),
            Workload::FleetFailover => setup_fleet(&mut sim, seed),
        };
        Instance {
            sim,
            setup: start.elapsed(),
            create_domain,
            horizon,
            probes,
        }
    }

    /// Drive to the horizon with `advance`, timing only the advance calls.
    pub fn drive(mut self, advance: &mut Advance<'_>) -> Driven {
        let mut host = Duration::ZERO;
        let mut horizon_reached = true;
        let mut timed = |sim: &mut Simulation<Cluster>, t: SimTime| {
            let t0 = Instant::now();
            let out = advance(sim, t);
            host += t0.elapsed();
            horizon_reached &= out == RunOutcome::HorizonReached;
        };
        let mut restore = Vec::new();
        let mut late = 0;
        if let Probes::Fleet { tier, faults, .. } = &self.probes {
            // Poll the restore condition on the controller-tick grid.
            let mut pending: VecDeque<(usize, Fault)> =
                faults.iter().copied().enumerate().collect();
            let mut t = SimTime::ZERO;
            while t < self.horizon {
                t = (t + FLEET_POLL).min(self.horizon);
                timed(&mut self.sim, t);
                if pending.front().is_some_and(|(_, f)| f.end <= t)
                    && fleet_restored(&tier.borrow(), self.sim.world())
                {
                    while let Some(&(i, f)) = pending.front() {
                        if f.end > t {
                            break;
                        }
                        pending.pop_front();
                        restore.push(t.saturating_since(f.inject).as_nanos());
                        if faults.get(i + 1).is_some_and(|next| t > next.inject) {
                            late += 1;
                        }
                    }
                }
            }
            late += pending.len() as u64;
        } else {
            timed(&mut self.sim, self.horizon);
        }
        let events = self.sim.scheduler_mut().events_executed();
        let modelled = self.modelled(events, &restore, late);
        let app_ops = match &self.probes {
            Probes::Fleet { turnover, .. } => vec![("tenant_turnover", turnover.get())],
            _ => modelled.apps.iter().map(|a| (a.name, a.ops)).collect(),
        };
        Driven {
            host,
            horizon_reached,
            modelled,
            app_ops,
        }
    }

    fn modelled(&self, events: u64, restore: &[u64], late: u64) -> Modelled {
        let cl = self.sim.world();
        let measured_s = self
            .horizon
            .saturating_since(SimTime::ZERO + WARMUP)
            .as_secs_f64();
        let mut m = Modelled {
            events,
            sim_s: self.horizon.as_secs_f64(),
            measured_s,
            ..Modelled::default()
        };
        for mach in &cl.machines {
            m.store_writes += mach.store.write_total();
            m.store_denied += mach.store.denied_total();
            let (r, w) = mach.storage.monitor().byte_counts();
            m.dev_read_bytes += r;
            m.dev_write_bytes += w;
        }
        let app = |name, rec: &Rec| {
            let r = rec.borrow();
            AppStats::from_hist(name, &r.hist, r.ops, r.bytes)
        };
        match &self.probes {
            Probes::Colo { ycsb1, ycsb2, olio } => {
                m.apps = vec![
                    app("ycsb1", ycsb1),
                    app("ycsb2", ycsb2),
                    app("olio", &olio.total),
                ];
            }
            Probes::Flush { fs } => {
                let mut hist = LatencyHistogram::new();
                let (mut ops, mut bytes) = (0, 0);
                for rec in fs {
                    let r = rec.borrow();
                    hist.merge(&r.hist);
                    ops += r.ops;
                    bytes += r.bytes;
                }
                m.apps = vec![AppStats::from_hist("fileserver", &hist, ops, bytes)];
            }
            Probes::Fleet { tier, faults, .. } => {
                let t = tier.borrow();
                let stats = t.controller().stats();
                let bus = t.bus_stats();
                m.apps = vec![AppStats::from_samples("restore", restore)];
                m.fleet = Some(FleetStats {
                    faults: faults.len() as u64,
                    late,
                    violations: t.ownership_violations(cl).len() as u64,
                    failovers: stats.failovers,
                    retries: stats.retries,
                    stale_acks: stats.stale_acks,
                    msgs_delivered: bus.delivered,
                    msgs_dropped: bus.dropped_partition + bus.dropped_loss,
                    msgs_duplicated: bus.duplicated,
                });
            }
        }
        m
    }
}

/// The paper's Linux writeback clocks compressed to the run length, as the
/// repository's figure runners do for the co-location experiments.
fn scaled_writeback(g: &mut iorch_guestos::GuestConfig) {
    g.wb.periodic_interval = SimDuration::from_millis(1000);
    g.wb.dirty_expire = SimDuration::from_millis(3000);
}

fn timed_vm(
    sim: &mut Simulation<Cluster>,
    idx: usize,
    spec: VmSpec,
    tune: impl FnOnce(&mut iorch_guestos::GuestConfig),
    create_domain: &mut Vec<Duration>,
) -> VmRef {
    let (cl, s) = sim.parts_mut();
    let t0 = Instant::now();
    let dom = cl.create_domain(s, idx, spec, tune);
    create_domain.push(t0.elapsed());
    VmRef { machine: idx, dom }
}

/// §5.1 co-location on one IOrchestra host: Olio (web/db/file VMs, 150
/// closed-loop clients), YCSB1 (2 VMs, 50% writes, open-loop Poisson at
/// 3000 req/s) and YCSB2 (2 VMs, 95% reads, 3000 req/s).
fn setup_colo(
    sim: &mut Simulation<Cluster>,
    seed: u64,
    create_domain: &mut Vec<Duration>,
) -> (SimTime, Probes) {
    let idx = {
        let (cl, s) = sim.parts_mut();
        SystemKind::IOrchestra.provision(cl, s, seed)
    };
    let mut vm = |mem_gb, disk_gb| {
        timed_vm(
            sim,
            idx,
            VmSpec::new(2, mem_gb).with_disk_gb(disk_gb),
            scaled_writeback,
            create_domain,
        )
    };
    let (web, db, file) = (vm(4, 10), vm(4, 60), vm(4, 40));
    let (y1a, y1b, y2a, y2b) = (vm(4, 20), vm(4, 20), vm(4, 20), vm(4, 20));
    let after = SimTime::ZERO + WARMUP;
    let olio = OlioRecorders::new(after);
    let ycsb1 = recorder(after);
    let ycsb2 = recorder(after);
    let (cl, s) = sim.parts_mut();
    let p = OlioParams {
        clients: 150,
        seed: seed ^ 0x01,
        ..OlioParams::default()
    };
    spawn_olio(cl, s, web, db, file, p, olio.clone());
    // Memtable flushes scaled to the compressed run, as in the Fig. 4 runs.
    let mut p1 = YcsbParams::ycsb1(3000.0, seed ^ 0x02);
    p1.memtable_flush_bytes = 2 << 20;
    let mut p2 = YcsbParams::ycsb2(3000.0, seed ^ 0x03);
    p2.memtable_flush_bytes = 2 << 20;
    spawn_ycsb(cl, s, &[y1a, y1b], None, p1, Rc::clone(&ycsb1));
    spawn_ycsb(cl, s, &[y2a, y2b], None, p2, Rc::clone(&ycsb2));
    (after + COLO_MEASURE, Probes::Colo { ycsb1, ycsb2, olio })
}

/// §5.3 Algorithm 1 setting: 20 FileBench file-server VMs (1 VCPU, 1 GB,
/// dirty ratio 0.2) writing 60-op waves every ~400 ms over a ~2.3 GB
/// working set each.
fn setup_flush(
    sim: &mut Simulation<Cluster>,
    seed: u64,
    create_domain: &mut Vec<Duration>,
) -> (SimTime, Probes) {
    const DIRTY_RATIO: f64 = 0.2;
    let idx = {
        let (cl, s) = sim.parts_mut();
        SystemKind::IOrchestra.provision(cl, s, seed)
    };
    let after = SimTime::ZERO + WARMUP;
    let mut fs = Vec::new();
    for v in 0..20u64 {
        let vm = timed_vm(
            sim,
            idx,
            VmSpec::new(1, 1).with_disk_gb(6),
            |g| {
                g.wb.dirty_ratio = DIRTY_RATIO;
                g.wb.background_ratio = DIRTY_RATIO / 2.0;
                g.wb.periodic_interval = SimDuration::from_millis(1000);
                g.wb.dirty_expire = SimDuration::from_millis(8000);
            },
            create_domain,
        );
        let rec = recorder(after);
        let p = FsParams {
            threads: 1,
            pool: 9_000,
            file_size: 256 << 10,
            op_cpu: SimDuration::from_millis(2),
            read_recent: None,
            burst: Some((60, SimDuration::from_millis(400))),
            seed: seed ^ v,
            ..FsParams::default()
        };
        let (cl, s) = sim.parts_mut();
        spawn_fileserver(cl, s, vm, p, Rc::clone(&rec));
        fs.push(rec);
    }
    (after + FLUSH_MEASURE, Probes::Flush { fs })
}

/// The cluster tier over 4 IOrchestra hosts with a 512-domain catalog,
/// steady tenant turnover, and a fault cycle drawn from the seed.
fn setup_fleet(sim: &mut Simulation<Cluster>, seed: u64) -> (SimTime, Probes) {
    let mut rng = SimRng::new(seed ^ 0xF1EE7);
    let (cl, s) = sim.parts_mut();
    let machines: Vec<usize> = (0..u64::from(FLEET_NODES))
        .map(|m| SystemKind::IOrchestra.provision(cl, s, seed ^ m))
        .collect();
    // Room for the whole catalog on the survivors of one lost node.
    let cfg = ClusterConfig {
        vcpu_overcommit: 32,
        mem_quota: 256 << 30,
        ..ClusterConfig::default()
    };
    let tier = ClusterTier::install(cl, s, &machines, cfg);
    let mut live: VecDeque<u32> = VecDeque::new();
    {
        let mut t = tier.borrow_mut();
        for i in 0..FLEET_CATALOG {
            let ldom = t.submit_domain(fleet_spec(i));
            if i >= FLEET_CATALOG - FLEET_CHURNING {
                live.push_back(ldom);
            }
        }
    }
    // The fault cycle: one fault per slot at a seed-drawn offset (off the
    // polling grid), cycling node crash → partition on a lossy bus →
    // controller crash, each with a seed-drawn outage length.
    let ms = SimDuration::from_millis;
    let mut plan = FaultPlan::new();
    let mut faults = Vec::new();
    for i in 0..FLEET_FAULTS {
        let slot = SimTime::ZERO + WARMUP + ms(u64::from(i) * FLEET_SLOT_MS);
        let inject = slot + SimDuration::from_micros(rng.range(0, 200_000));
        let node = rng.below(u64::from(FLEET_NODES)) as u32;
        let outage = match i % 3 {
            0 => {
                let down = SimDuration::from_micros(rng.range(400_000, 500_000));
                plan = plan.with(
                    FaultWindow::always(),
                    FaultKind::NodeCrash {
                        node,
                        at: inject,
                        recover_after: down,
                    },
                );
                down
            }
            1 => {
                let cut = SimDuration::from_micros(rng.range(500_000, 600_000));
                plan = plan
                    .with(
                        FaultWindow::new(inject, inject + cut),
                        FaultKind::NetPartition { group: 1 << node },
                    )
                    .with(
                        FaultWindow::new(inject, inject + cut),
                        FaultKind::NetUnreliable {
                            drop_1_in: 11,
                            dup_1_in: 9,
                            reorder: true,
                        },
                    );
                cut
            }
            _ => {
                let down = SimDuration::from_micros(rng.range(250_000, 350_000));
                plan = plan.with(
                    FaultWindow::always(),
                    FaultKind::ControllerCrash {
                        at: inject,
                        recover_after: down,
                    },
                );
                down
            }
        };
        faults.push(Fault {
            inject,
            end: inject + outage,
        });
    }
    tier.borrow_mut().install_faults(s, &plan);
    // Tenant turnover: retire the oldest short-lived tenant and admit a new
    // one, off the polling grid, until the last fault strikes; the fleet
    // then settles before the horizon. (Placement is a pure function of the
    // catalog in ascending id order, so retiring a long-lived tenant would
    // reshuffle every domain above it.)
    let turnover = Rc::new(Cell::new(0u64));
    let stop = faults.last().map_or(SimTime::ZERO, |f| f.inject);
    let churn = Rc::new(RefCell::new(Turnover {
        tier: Rc::downgrade(&tier),
        live,
        next: FLEET_CATALOG,
        count: Rc::clone(&turnover),
        stop,
    }));
    Turnover::arm(churn, s, SimTime::ZERO + WARMUP + FLEET_POLL / 2);
    let last = faults.last().map_or(SimTime::ZERO, |f| f.end);
    let horizon = last + ms(FLEET_SLOT_MS);
    (
        horizon,
        Probes::Fleet {
            tier,
            faults,
            turnover,
        },
    )
}

/// Steady tenant turnover, re-armed every [`FLEET_TURNOVER`] until `stop`.
struct Turnover {
    tier: std::rc::Weak<RefCell<ClusterTier>>,
    live: VecDeque<u32>,
    next: u32,
    count: Rc<Cell<u64>>,
    stop: SimTime,
}

impl Turnover {
    fn arm(me: Rc<RefCell<Turnover>>, s: &mut iorch_hypervisor::Sched, at: SimTime) {
        s.schedule_at(at, move |_cl: &mut Cluster, s| {
            {
                let mut t = me.borrow_mut();
                let Some(tier) = t.tier.upgrade() else { return };
                let mut tier = tier.borrow_mut();
                if let Some(old) = t.live.pop_front() {
                    tier.retire_domain(old);
                }
                let i = t.next;
                t.live.push_back(tier.submit_domain(fleet_spec(i)));
                t.next += 1;
                t.count.set(t.count.get() + 1);
            }
            let next = s.now() + FLEET_TURNOVER;
            if next < me.borrow().stop {
                Turnover::arm(me, s, next);
            }
        });
    }
}

fn fleet_spec(i: u32) -> VmSpec {
    VmSpec::new(1 + i % 2, 1).with_disk_gb(4)
}

/// The restore condition: the controller is up with no command in flight,
/// every catalog domain runs on exactly one live node (agent up, machine
/// domain present), and that node is the one the controller's desired
/// placement names.
fn fleet_restored(t: &ClusterTier, cl: &Cluster) -> bool {
    let c = t.controller();
    if c.is_down() || c.inflight_len() > 0 {
        return false;
    }
    let mut owners: std::collections::BTreeMap<u32, (u32, u32)> = Default::default();
    for a in t.agents().iter().filter(|a| !a.is_down()) {
        let m = cl.machine(a.machine());
        for (&ldom, &dom) in a.owned() {
            if m.domain(dom).is_some() {
                let e = owners.entry(ldom).or_insert((0, a.node()));
                e.0 += 1;
            }
        }
    }
    let desired = c.desired();
    desired.len() == c.catalog().len()
        && desired
            .iter()
            .all(|(l, &node)| owners.get(l) == Some(&(1, node)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolated_percentile_stays_in_bucket_and_moves_with_samples() {
        let mut h = LatencyHistogram::new();
        for us in 1..=1000u64 {
            h.record(SimDuration::from_micros(us));
        }
        let p50 = hist_percentile(&h, 50.0);
        // True median 500 us; the bucket holding it is ~1.6% wide.
        assert!((p50 - 500_000.0).abs() < 8_000.0, "{p50}");
        assert_ne!(p50, h.median().as_nanos() as f64);
        let p999 = hist_percentile(&h, 99.9);
        assert!((p999 - 999_000.0).abs() < 16_000.0, "{p999}");
        // Small values sit in exact 1 ns buckets.
        let mut small = LatencyHistogram::new();
        for ns in [3u64, 5, 7, 9] {
            small.record(SimDuration::from_nanos(ns));
        }
        assert_eq!(hist_percentile(&small, 50.0), 6.0);
        assert_eq!(hist_percentile(&small, 100.0), 9.0);
        assert_eq!(hist_percentile(&LatencyHistogram::new(), 50.0), 0.0);
    }
}
