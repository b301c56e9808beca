//! End-to-end and per-layer benchmark of the IOrchestra reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path iobench/Cargo.toml -- \
//!     --workload <colo_olio_ycsb|flush_waves|fleet_failover> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run provisions and simulates the workload repeatedly for about
//! `--seconds` of host time. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` adds traced repetitions and reports the per-layer metrics.
//! The last line of standard output is one JSON object; the lines before it
//! give every metric's median, quartiles and sample count, the
//! workload-specific modelled metrics by name, the checks, and the host.
//! See `iobench/README.md`.

mod host;
mod layers;
mod stats;
mod workloads;

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::{Duration, Instant};

use iorch_hypervisor::Cluster;
use iorch_simcore::trace::{self, TapSession};
use iorch_simcore::{RunOutcome, SimTime, Simulation};

use layers::{pct, Folder, Layer};
use stats::Summary;
use workloads::{Driven, Instance, Modelled, Workload};

/// End-to-end metrics (`--trace 0`), in output order.
const END_TO_END: [(&str, &str); 5] = [
    ("sim_s_per_host_s", "s/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
];

/// Per-layer metrics (`--trace 1`), in output order.
const PER_LAYER: [(&str, &str); 58] = [
    ("simcore.events", "count"),
    ("simcore.host_ns_per_event", "ns"),
    ("guestos.queue_wait_us_p50", "us"),
    ("guestos.queue_wait_us_p99", "us"),
    ("guestos.congestion_entries", "count"),
    ("guestos.bypass_grants", "count"),
    ("guestos.writeback_pages", "count"),
    ("guestos.remote_flush_pages", "count"),
    ("guestos.host_s", "s"),
    ("hypervisor.backend_wait_us_p50", "us"),
    ("hypervisor.backend_wait_us_p99", "us"),
    ("hypervisor.completion_us_p50", "us"),
    ("hypervisor.drr_visits", "count"),
    ("hypervisor.rate_limit_defers", "count"),
    ("hypervisor.io_host_s", "s"),
    ("hypervisor.store_writes", "count"),
    ("hypervisor.store_denied", "count"),
    ("hypervisor.xenbus_deliveries", "count"),
    ("hypervisor.store_host_s", "s"),
    ("hypervisor.create_domain_us_p50", "us"),
    ("storage.service_us_p50", "us"),
    ("storage.service_us_p99", "us"),
    ("storage.qdepth_p99", "count"),
    ("storage.read_mb", "MB"),
    ("storage.write_mb", "MB"),
    ("storage.host_s", "s"),
    ("core.decisions.flush_now", "count"),
    ("core.decisions.release_granted", "count"),
    ("core.decisions.congestion_confirmed", "count"),
    ("core.decisions.weight_push", "count"),
    ("core.decisions.quarantine", "count"),
    ("core.flush_ack_ms_p50", "ms"),
    ("core.congestion_verdict_us_p50", "us"),
    ("core.policy_host_s", "s"),
    ("core.failovers", "count"),
    ("core.cluster_retries", "count"),
    ("core.stale_acks", "count"),
    ("core.placements", "count"),
    ("core.evictions", "count"),
    ("core.cluster_host_s", "s"),
    ("netsim.msgs_delivered", "count"),
    ("netsim.msgs_dropped", "count"),
    ("netsim.msgs_duplicated", "count"),
    ("workloads.ops.ycsb1", "count"),
    ("workloads.ops.ycsb2", "count"),
    ("workloads.ops.olio", "count"),
    ("workloads.ops.fileserver", "count"),
    ("workloads.ops.tenant_turnover", "count"),
    ("untraced.host_s", "s"),
    ("trace.overhead_frac", "frac"),
    ("trace.io_spans", "count"),
    ("trace.open_spans", "count"),
    ("trace.span_mismatches", "count"),
    ("trace.traced_sim_s_per_host_s", "s/s"),
    ("trace.untraced_reps", "count"),
    ("trace.traced_reps", "count"),
    ("core.flush_acks", "count"),
    ("core.congestion_verdicts", "count"),
];

/// Simulations per run: a run simulates the workload under this many seeds
/// derived from `--seed` ([`sub_seed`]) in turn, and reports each modelled
/// metric as the median over them. One seed's tail percentile swings with
/// rare events such as a flush storm meeting a write wave; the median of
/// three is steadier.
const SUB_SEEDS: usize = 3;

fn sub_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(SUB_SEEDS as u64).wrapping_add(k as u64)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Correctness checks; each one counts toward `attempted`, each failure
/// toward `failed`.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    log: Vec<String>,
}

impl Checks {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.log.push(format!("FAIL {}", what()));
        }
    }

    /// Record `n` checks of which `bad` failed.
    fn bulk(&mut self, n: u64, bad: u64, what: &str) {
        self.attempted += n;
        self.failed += bad;
        if bad > 0 {
            self.log.push(format!("FAIL {what}: {bad} of {n}"));
        }
    }
}

/// One untraced repetition: set up, then drive to the horizon.
struct Rep {
    /// Index of the sub-seed it ran.
    sub: usize,
    setup: Duration,
    create_domain: Vec<Duration>,
    driven: Driven,
}

fn untraced_rep(w: Workload, seed: u64, sub: usize) -> Rep {
    let inst = Instance::setup(w, sub_seed(seed, sub));
    let setup = inst.setup;
    let create_domain = inst.create_domain.clone();
    let driven = inst.drive(&mut |sim: &mut Simulation<Cluster>, t| sim.run_until(t));
    Rep {
        sub,
        setup,
        create_domain,
        driven,
    }
}

/// One traced repetition: the same run with the trace tap installed and
/// every `Simulation::step` timed and attributed.
fn traced_rep(w: Workload, seed: u64) -> (Driven, Folder) {
    let folder = Rc::new(RefCell::new(Folder::default()));
    let tap = {
        let f = Rc::clone(&folder);
        TapSession::new(Box::new(move |t, kind| f.borrow_mut().on_event(t, kind)))
    };
    let inst = Instance::setup(w, seed);
    folder.borrow_mut().begin_steps();
    let f = Rc::clone(&folder);
    let mut advance = move |sim: &mut Simulation<Cluster>, t: SimTime| loop {
        match sim.scheduler_mut().peek_next_time() {
            None => return RunOutcome::QueueEmpty,
            Some(next) if next > t => return RunOutcome::HorizonReached,
            Some(_) => {
                let t0 = Instant::now();
                sim.step();
                let dt = t0.elapsed();
                f.borrow_mut().end_step(dt);
            }
        }
    };
    let driven = inst.drive(&mut advance);
    drop(advance);
    drop(tap);
    let folder = Rc::try_unwrap(folder)
        .map(RefCell::into_inner)
        .unwrap_or_else(|rc| std::mem::take(&mut *rc.borrow_mut()));
    (driven, folder)
}

/// Checks every repetition's outcome must pass.
fn check_rep(c: &mut Checks, w: Workload, d: &Driven, first: &Modelled, label: &str) {
    c.check(d.horizon_reached, || {
        format!("{label}: run did not end with HorizonReached")
    });
    c.check(&d.modelled == first, || {
        format!("{label}: modelled results differ from the first untraced run of this seed")
    });
    for &(app, ops) in &d.app_ops {
        c.check(ops > 0, || format!("{label}: {app} recorded no ops"));
    }
    c.check(
        d.modelled.headline().tail_label == w.expected_tail(),
        || {
            format!(
                "{label}: headline tail is {} (want {}): too few samples",
                d.modelled.headline().tail_label,
                w.expected_tail()
            )
        },
    );
    if let Some(f) = &d.modelled.fleet {
        c.check(f.violations == 0, || {
            format!("{label}: {} ownership violations at the end", f.violations)
        });
        c.bulk(
            f.faults,
            f.late,
            "faults restored before the next was injected",
        );
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// A metric value: a number, or `None` when this build cannot measure it.
type Value = Option<f64>;

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("iobench: {e}");
            std::process::exit(2);
        }
    };
    let w = args.workload;
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut c = Checks::default();

    // Untraced repetitions: the end-to-end numbers, and in a traced run
    // the baseline for the overhead and the equality check. Every sub-seed
    // runs at least twice.
    let untraced_budget = if args.trace { budget / 2 } else { budget };
    let mut reps: Vec<Rep> = Vec::new();
    let mut firsts: Vec<Modelled> = Vec::new();
    // Peak memory after one simulation per sub-seed: later repetitions
    // only add allocator fragmentation, and their number depends on how
    // fast the host runs.
    let mut rss = None;
    while reps.len() < 2 * SUB_SEEDS || start.elapsed() < untraced_budget {
        let sub = reps.len() % SUB_SEEDS;
        let rep = untraced_rep(w, args.seed, sub);
        if firsts.len() == sub {
            firsts.push(rep.driven.modelled.clone());
        }
        let label = format!("untraced run {} (sub-seed {sub})", reps.len() + 1);
        check_rep(&mut c, w, &rep.driven, &firsts[sub], &label);
        reps.push(rep);
        if reps.len() == SUB_SEEDS {
            rss = host::peak_rss_mb();
        }
    }

    let mut traced: Vec<(usize, Driven, Folder)> = Vec::new();
    if args.trace {
        while traced.is_empty() || start.elapsed() < budget {
            let sub = traced.len() % SUB_SEEDS;
            let (d, f) = traced_rep(w, sub_seed(args.seed, sub));
            let label = format!("traced run {} (sub-seed {sub})", traced.len() + 1);
            check_rep(&mut c, w, &d, &firsts[sub], &label);
            if trace::COMPILED {
                c.bulk(
                    f.spans_checked,
                    f.span_mismatches,
                    "request spans summing exactly",
                );
            }
            traced.push((sub, d, f));
        }
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "# iobench workload={} seed={} seconds={} trace={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let _ = writeln!(out, "# host {}", host::metadata());
    let sub_seeds: Vec<u64> = (0..SUB_SEEDS).map(|k| sub_seed(args.seed, k)).collect();
    let _ = writeln!(
        out,
        "# sub_seeds={sub_seeds:?} sim_s={:?} events={:?} untraced_reps={} traced_reps={}",
        firsts.iter().map(|m| m.sim_s).collect::<Vec<_>>(),
        firsts.iter().map(|m| m.events).collect::<Vec<_>>(),
        reps.len(),
        traced.len()
    );

    let speed: Vec<f64> = reps
        .iter()
        .map(|r| r.driven.modelled.sim_s / secs(r.driven.host))
        .collect();
    let setup: Vec<f64> = reps.iter().map(|r| secs(r.setup)).collect();
    let head = |f: fn(&workloads::AppStats) -> f64| -> Vec<f64> {
        firsts.iter().map(|m| f(m.headline())).collect()
    };

    // Every metric: median, quartiles and sample count over repetitions.
    let mut metrics: Vec<(&str, &str, Value)> = Vec::new();
    let mut report = |out: &mut String, name: &'static str, unit: &'static str, values: &[f64]| {
        debug_assert!(values.iter().all(|v| v.is_finite()), "{name} is not finite");
        let v = match Summary::of(values) {
            Some(s) => {
                let _ = writeln!(
                    out,
                    "metric {name} median={} q1={} q3={} n={} iqr/median={:.4} unit={unit}",
                    s.median,
                    s.q1,
                    s.q3,
                    s.n,
                    s.spread()
                );
                Some(s.median)
            }
            None => {
                let _ = writeln!(out, "metric {name} unavailable unit={unit}");
                None
            }
        };
        metrics.push((name, unit, v));
    };

    if !args.trace {
        for (name, unit) in END_TO_END {
            let values: Vec<f64> = match name {
                "sim_s_per_host_s" => speed.clone(),
                "setup_s" => setup.clone(),
                "peak_rss_mb" => rss.into_iter().collect(),
                "p50_ms" => head(|a| a.p50_ns / 1e6),
                "tail_ms" => head(|a| a.tail_ns / 1e6),
                _ => unreachable!("end-to-end metric {name} has no source"),
            };
            report(&mut out, name, unit, &values);
        }
    } else {
        per_layer(&mut out, &mut report, &reps, &traced, &firsts[0]);
    }

    for m in &firsts {
        let h = m.headline();
        let _ = writeln!(
            out,
            "# headline: {} p50 and {} over {} samples",
            h.name, h.tail_label, h.ops
        );
    }
    // Workload-specific modelled metrics: median over the sub-seeds.
    let named: Vec<Vec<(String, f64, &str)>> = firsts.iter().map(|m| m.named(w)).collect();
    for (i, (name, _, unit)) in named[0].iter().enumerate() {
        let values: Vec<f64> = named.iter().filter_map(|n| n.get(i)).map(|n| n.1).collect();
        let median = Summary::of(&values).map_or(f64::NAN, |s| s.median);
        let _ = writeln!(
            out,
            "named {name} {median} {unit} (per sub-seed {values:?})"
        );
    }
    for line in &c.log {
        let _ = writeln!(out, "{line}");
    }
    let error_rate = c.failed as f64 / c.attempted as f64;
    let _ = writeln!(
        out,
        "error_rate {error_rate} ({} failed of {} checks)",
        c.failed, c.attempted
    );
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        c.failed == 0,
        c.attempted,
        c.failed
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let v = value
            .filter(|v| v.is_finite())
            .map_or_else(|| "null".to_string(), |v| format!("{v}"));
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}\n");
    print!("{out}");
}

/// The traced run's per-layer metrics, in [`PER_LAYER`] order.
fn per_layer(
    out: &mut String,
    report: &mut impl FnMut(&mut String, &'static str, &'static str, &[f64]),
    reps: &[Rep],
    traced: &[(usize, Driven, Folder)],
    m: &Modelled,
) {
    // Counts and spans come from the first traced run (sub-seed 0, like
    // `m`); host times are medians over every run.
    let f = &traced[0].2;
    let traced_ok = trace::COMPILED;
    let us = |ns: Option<u64>| ns.map_or(0.0, |v| v as f64 / 1e3);
    let untraced_host = |sub: usize| -> f64 {
        let hosts: Vec<f64> = reps
            .iter()
            .filter(|r| r.sub == sub)
            .map(|r| secs(r.driven.host))
            .collect();
        Summary::of(&hosts).map_or(f64::NAN, |s| s.median)
    };
    let host_of = |layer: Layer| -> Vec<f64> {
        traced
            .iter()
            .map(|(_, _, f)| f.host.get(&layer).map_or(0.0, |d| secs(*d)))
            .collect()
    };
    let create_us: Vec<u64> = reps
        .iter()
        .flat_map(|r| r.create_domain.iter().map(|d| d.as_nanos() as u64))
        .collect();
    let fleet = m.fleet.clone().unwrap_or_default();
    let app_ops = |name: &str| -> f64 {
        reps[0]
            .driven
            .app_ops
            .iter()
            .find(|(a, _)| *a == name)
            .map_or(0.0, |&(_, n)| n as f64)
    };
    for (name, unit) in PER_LAYER {
        // Tap-derived values are unavailable when tracing is compiled out.
        let tap = |v: f64| -> Vec<f64> {
            if traced_ok {
                vec![v]
            } else {
                vec![]
            }
        };
        let values: Vec<f64> = match name {
            "simcore.events" => vec![m.events as f64],
            "simcore.host_ns_per_event" => reps
                .iter()
                .map(|r| secs(r.driven.host) * 1e9 / r.driven.modelled.events as f64)
                .collect(),
            "guestos.queue_wait_us_p50" => tap(us(pct(&f.queue_wait_ns, 50.0))),
            "guestos.queue_wait_us_p99" => tap(us(pct(&f.queue_wait_ns, 99.0))),
            "guestos.congestion_entries" => tap(f.congestion_entries as f64),
            "guestos.bypass_grants" => tap(f.bypass_grants as f64),
            "guestos.writeback_pages" => tap(f.writeback_pages as f64),
            "guestos.remote_flush_pages" => tap(f.remote_flush_pages as f64),
            "hypervisor.backend_wait_us_p50" => tap(us(pct(&f.backend_wait_ns, 50.0))),
            "hypervisor.backend_wait_us_p99" => tap(us(pct(&f.backend_wait_ns, 99.0))),
            "hypervisor.completion_us_p50" => tap(us(pct(&f.completion_ns, 50.0))),
            "hypervisor.drr_visits" => tap(f.drr_visits as f64),
            "hypervisor.rate_limit_defers" => tap(f.rate_limit_defers as f64),
            "hypervisor.store_writes" => vec![m.store_writes as f64],
            "hypervisor.store_denied" => vec![m.store_denied as f64],
            "hypervisor.xenbus_deliveries" => tap(f.xenbus_deliveries as f64),
            "hypervisor.create_domain_us_p50" => vec![us(pct(&create_us, 50.0))],
            "storage.service_us_p50" => tap(us(pct(&f.service_ns, 50.0))),
            "storage.service_us_p99" => tap(us(pct(&f.service_ns, 99.0))),
            "storage.qdepth_p99" => tap(pct(&f.qdepth, 99.0).unwrap_or(0) as f64),
            "storage.read_mb" => vec![m.dev_read_bytes as f64 / 1e6],
            "storage.write_mb" => vec![m.dev_write_bytes as f64 / 1e6],
            "core.flush_ack_ms_p50" => tap(us(pct(&f.flush_ack_ns, 50.0)) / 1e3),
            "core.congestion_verdict_us_p50" => tap(us(pct(&f.verdict_ns, 50.0))),
            "core.flush_acks" => tap(f.flush_ack_ns.len() as f64),
            "core.congestion_verdicts" => tap(f.verdict_ns.len() as f64),
            "core.failovers" => vec![fleet.failovers as f64],
            "core.cluster_retries" => vec![fleet.retries as f64],
            "core.stale_acks" => vec![fleet.stale_acks as f64],
            "core.placements" => tap(f.decision("domain_placed") as f64),
            "core.evictions" => tap(f.decision("domain_evicted") as f64),
            "netsim.msgs_delivered" => vec![fleet.msgs_delivered as f64],
            "netsim.msgs_dropped" => vec![fleet.msgs_dropped as f64],
            "netsim.msgs_duplicated" => vec![fleet.msgs_duplicated as f64],
            "trace.overhead_frac" => {
                if traced_ok {
                    traced
                        .iter()
                        .map(|(sub, d, _)| secs(d.host) / untraced_host(*sub) - 1.0)
                        .collect()
                } else {
                    vec![]
                }
            }
            "trace.io_spans" => tap(f.queue_wait_ns.len() as f64),
            "trace.open_spans" => tap(f.open_spans() as f64),
            "trace.span_mismatches" => tap(f.span_mismatches as f64),
            "trace.traced_sim_s_per_host_s" => traced
                .iter()
                .map(|(_, d, _)| d.modelled.sim_s / secs(d.host))
                .collect(),
            "trace.untraced_reps" => vec![reps.len() as f64],
            "trace.traced_reps" => vec![traced.len() as f64],
            _ => {
                if let Some(kind) = name.strip_prefix("core.decisions.") {
                    tap(f.decision(kind) as f64)
                } else if let Some(app) = name.strip_prefix("workloads.ops.") {
                    vec![app_ops(app)]
                } else if let Some(layer) = Layer::ALL.iter().find(|l| l.host_metric() == name) {
                    if traced_ok {
                        host_of(*layer)
                    } else {
                        vec![]
                    }
                } else {
                    unreachable!("per-layer metric {name} has no source")
                }
            }
        };
        report(out, name, unit, &values);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs listed under `key` in `BENCHMARK.json`.
    fn listed(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let section = &json[start..];
        let section = &section[..section.find(']').expect("list closes")];
        let field = |item: &str, f: &str| {
            let rest =
                &item[item.find(&format!("\"{f}\": \"")).expect("field present") + f.len() + 5..];
            rest[..rest.find('"').expect("string closes")].to_string()
        };
        section
            .split('{')
            .skip(1)
            .map(|item| (field(item, "name"), field(item, "unit")))
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&json, "end_to_end"), own(&END_TO_END));
        assert_eq!(listed(&json, "per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = json
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').unwrap()].to_string())
            .filter(|n| Workload::parse(n).is_some())
            .collect();
        let all: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, all);
    }

    #[test]
    fn every_per_layer_metric_has_a_source() {
        // `per_layer` panics on a metric it cannot source; run it on an
        // empty fold.
        let m = Modelled {
            apps: vec![],
            ..Modelled::default()
        };
        let rep = || Rep {
            sub: 0,
            setup: Duration::from_millis(1),
            create_domain: vec![],
            driven: Driven {
                host: Duration::from_millis(2),
                horizon_reached: true,
                modelled: m.clone(),
                app_ops: vec![],
            },
        };
        let traced = vec![(0, rep().driven, Folder::default())];
        let mut names = Vec::new();
        let mut out = String::new();
        per_layer(
            &mut out,
            &mut |_: &mut String, name, _, _: &[f64]| names.push(name),
            &[rep()],
            &traced,
            &m,
        );
        assert_eq!(names, PER_LAYER.map(|(n, _)| n).to_vec());
    }
}
