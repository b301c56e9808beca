//! Policy-redesign byte-identity oracle: every control plane the paper
//! compares, re-expressed as a [`PolicySet`] on the [`PolicyEngine`],
//! must reproduce the pre-redesign hand-fused plane's trace **byte for
//! byte** — same timeline, same decision log — across all tracedump
//! scenarios. The frozen pre-redesign planes live in `iorch_bench::oracle`
//! and exist only so this file can diff against them.

use iorch_bench::oracle::planes::{LegacyBaselinePlane, LegacyDifPlane, LegacyIOrchestraPlane};
use iorch_bench::tracereplay::{run_scenario_with, SCENARIOS};
use iorch_hypervisor::{Cluster, ControlPlane, IoPathMode, MachineConfig, Sched};
use iorch_simcore::trace;
use iorchestra::{FunctionSet, IOrchestraConfig, PolicyEngine, PolicySet};

/// Every plane variant under test: the paper's full system, its three
/// single-function ablations, and the comparison systems.
const VARIANTS: &[&str] = &[
    "full",
    "flush_only",
    "congestion_only",
    "cosched_only",
    "baseline",
    "sdc",
    "dif",
];

/// I/O path a variant pairs with (mirrors `SystemKind::io_mode`).
fn io_mode(variant: &str) -> IoPathMode {
    match variant {
        "baseline" | "dif" | "flush_only" | "congestion_only" => IoPathMode::Paravirt,
        "sdc" => IoPathMode::DedicatedCores { per_socket: false },
        "full" | "cosched_only" => IoPathMode::DedicatedCores { per_socket: true },
        _ => unreachable!("unknown variant {variant}"),
    }
}

fn functions(variant: &str) -> FunctionSet {
    match variant {
        "full" => FunctionSet::all(),
        "flush_only" => FunctionSet::flush_only(),
        "congestion_only" => FunctionSet::congestion_only(),
        "cosched_only" => FunctionSet::cosched_only(),
        _ => unreachable!("{variant} is not an iorchestra variant"),
    }
}

/// The frozen pre-redesign plane for a variant.
fn legacy_plane(variant: &str, seed: u64) -> Box<dyn ControlPlane> {
    match variant {
        "baseline" => Box::new(LegacyBaselinePlane::baseline()),
        "sdc" => Box::new(LegacyBaselinePlane::sdc()),
        "dif" => Box::new(LegacyDifPlane::new()),
        v => Box::new(LegacyIOrchestraPlane::new(
            IOrchestraConfig::new(seed).with_functions(functions(v)),
        )),
    }
}

/// The same plane expressed as a policy set on the engine.
fn engine_plane(variant: &str, seed: u64) -> Box<dyn ControlPlane> {
    let set = match variant {
        "baseline" => PolicySet::baseline(),
        "sdc" => PolicySet::sdc(),
        "dif" => PolicySet::dif(),
        v => PolicySet::iorchestra(IOrchestraConfig::new(seed).with_functions(functions(v))),
    };
    Box::new(PolicyEngine::new(set))
}

/// Run `scenario` under `plane` and return `(timeline, decision log)`.
fn replay(
    plane: Box<dyn ControlPlane>,
    mode: IoPathMode,
    seed: u64,
    scenario: &str,
) -> (String, String) {
    let mut plane = Some(plane);
    let events = run_scenario_with(
        &mut |cl: &mut Cluster, s: &mut Sched| {
            let idx = cl.add_machine(MachineConfig::paper_testbed(seed, mode));
            cl.install_control(s, idx, plane.take().expect("provisioner runs once"));
            idx
        },
        seed,
        scenario,
    )
    .expect("known scenario");
    (
        trace::render_timeline(&events),
        trace::render_decision_log(&events),
    )
}

/// Assert byte identity for one `(variant, seed, scenario)` cell.
fn assert_equivalent(variant: &str, seed: u64, scenario: &str) {
    let mode = io_mode(variant);
    let (legacy_tl, legacy_dl) = replay(legacy_plane(variant, seed), mode, seed, scenario);
    let (engine_tl, engine_dl) = replay(engine_plane(variant, seed), mode, seed, scenario);
    assert!(
        engine_tl == legacy_tl,
        "{variant}/{scenario}/seed {seed}: engine timeline diverged from the legacy plane\n\
         --- first difference ---\n{}",
        first_diff(&legacy_tl, &engine_tl),
    );
    assert_eq!(
        engine_dl, legacy_dl,
        "{variant}/{scenario}/seed {seed}: decision logs diverged"
    );
}

/// The first differing line pair, for a readable failure message.
fn first_diff(a: &str, b: &str) -> String {
    for (i, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
        if la != lb {
            return format!("line {}:\n  legacy: {la}\n  engine: {lb}", i + 1);
        }
    }
    format!(
        "line counts differ: legacy {} vs engine {}",
        a.lines().count(),
        b.lines().count()
    )
}

/// Debug-suite slice: the showcase scenario under every variant, and the
/// full system under every scenario, one seed each.
#[test]
fn engine_matches_legacy_planes_on_the_showcase() {
    if !trace::COMPILED {
        return; // built with --cfg iorch_trace_off
    }
    for variant in VARIANTS {
        assert_equivalent(variant, 42, "mixed8");
    }
}

#[test]
fn engine_matches_legacy_full_system_on_every_scenario() {
    if !trace::COMPILED {
        return;
    }
    for (scenario, _) in SCENARIOS {
        if *scenario == "mixed8" {
            continue; // covered above
        }
        assert_equivalent("full", 42, scenario);
    }
}

/// Exhaustive seed-swept sweep: every variant × every scenario × several
/// seeds. Too heavy for the debug suite; tier1.sh runs it in release with
/// `--include-ignored`.
#[test]
#[ignore = "exhaustive sweep; run in release via tier1.sh"]
fn engine_matches_legacy_planes_everywhere() {
    if !trace::COMPILED {
        return;
    }
    for seed in [7u64, 42, 1337] {
        for variant in VARIANTS {
            for (scenario, _) in SCENARIOS {
                assert_equivalent(variant, seed, scenario);
            }
        }
    }
}
