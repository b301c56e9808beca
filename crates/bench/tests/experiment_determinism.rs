//! Golden-summary regression suite for the declarative experiment
//! runner (DESIGN.md §12).
//!
//! Every named experiment at its smoke profile must emit byte-identical
//! artifact JSON/CSV across two runs, seed-swept over {7, 42, 1337} —
//! the determinism contract every future scale/policy PR gates on. A
//! cheap subset runs in the debug suite; the exhaustive sweep is
//! `#[ignore]`d here and run in release by `tier1.sh`. The suite also
//! enforces the live-telemetry non-interference contract: installing a
//! trace tap must not change a single trace event.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::Path;
use std::rc::Rc;

use iorch_bench::exp::{self, Profile};
use iorch_bench::tracereplay::run_scenario;
use iorch_bench::RunCfg;
use iorch_simcore::trace::{self, TapSession};
use iorch_simcore::SimDuration;
use iorchestra::SystemKind;

/// Read every file under `dir` (recursively) as `relative path → bytes`.
fn snapshot(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<String, Vec<u8>>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel = path.strip_prefix(root).unwrap().display().to_string();
                out.insert(rel, std::fs::read(&path).unwrap());
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(dir, dir, &mut out);
    out
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    dir
}

/// Run `name` twice at the smoke profile under `seed`; assert the
/// artifact trees are byte-identical, schema-valid, and non-trivial.
/// `prefix` names the calling test, so tests running in parallel never
/// share (and race on) a directory.
fn assert_golden(prefix: &str, name: &str, seed: u64) {
    let spec = exp::find(name).unwrap_or_else(|| panic!("unknown experiment {name}"));
    let d1 = tmp(&format!("{prefix}_{name}_{seed}_a"));
    let d2 = tmp(&format!("{prefix}_{name}_{seed}_b"));
    exp::run_spec(spec, Profile::Smoke, seed, &d1, true).unwrap();
    exp::run_spec(spec, Profile::Smoke, seed, &d2, true).unwrap();
    let s1 = snapshot(&d1);
    let s2 = snapshot(&d2);
    assert!(
        s1.len() >= 3,
        "{name}@{seed}: expected json+csv+summary, got {} files",
        s1.len()
    );
    assert_eq!(
        s1.keys().collect::<Vec<_>>(),
        s2.keys().collect::<Vec<_>>(),
        "{name}@{seed}: file sets differ between runs"
    );
    for (rel, bytes) in &s1 {
        assert_eq!(
            bytes, &s2[rel],
            "{name}@{seed}: artifact {rel} differs between identical runs"
        );
        if rel.ends_with(".json") {
            let text = std::str::from_utf8(bytes).unwrap();
            exp::validate_artifact(text)
                .unwrap_or_else(|e| panic!("{name}@{seed}: {rel} fails schema: {e}"));
        }
    }
}

/// Debug-suite subset: the cheapest families, one seed. The exhaustive
/// seed-swept sweep below is release-gated via tier1.sh.
#[test]
fn smoke_goldens_subset() {
    for name in ["motivation", "fig9", "telemetry"] {
        assert_golden("golden_subset", name, 7);
    }
}

/// Every named experiment × seeds {7, 42, 1337} × two runs. Heavy:
/// release-only via `tier1.sh -- --include-ignored`.
#[test]
#[ignore = "exhaustive seed sweep; run in release via tier1.sh"]
fn smoke_goldens_all_experiments_seed_swept() {
    for spec in exp::registry() {
        if spec.timing {
            // Wall-clock specs (e.g. `scale`) are not byte-deterministic;
            // they gate on thresholds from tier1.sh instead.
            continue;
        }
        for seed in [7u64, 42, 1337] {
            assert_golden("golden_sweep", spec.name, seed);
        }
    }
}

/// Installing a live-telemetry tap must not perturb the simulation: the
/// recorded trace of a faulted scenario is byte-identical with and
/// without a tap observing it, and the tap does observe real events.
#[test]
fn telemetry_tap_does_not_perturb_traces() {
    if !trace::COMPILED {
        return; // nothing to compare with tracing compiled out
    }
    for scenario in ["mixed8", "device_stall"] {
        let plain = run_scenario(SystemKind::IOrchestra, 7, scenario).unwrap();
        let seen = Rc::new(RefCell::new(0u64));
        let tapped = {
            let seen = Rc::clone(&seen);
            let _tap = TapSession::new(Box::new(move |_, _| *seen.borrow_mut() += 1));
            run_scenario(SystemKind::IOrchestra, 7, scenario).unwrap()
        };
        assert!(
            *seen.borrow() > 0,
            "{scenario}: tap saw no events despite tracing being compiled in"
        );
        assert_eq!(
            plain.len(),
            tapped.len(),
            "{scenario}: event count changed under the tap"
        );
        assert_eq!(
            plain, tapped,
            "{scenario}: trace events changed under the tap"
        );
    }
}

/// The telemetry report stream itself is deterministic: same seed, same
/// windows, byte-identical rendering.
#[test]
fn telemetry_report_stream_is_deterministic() {
    let cfg = RunCfg::new(7)
        .with_warmup(SimDuration::from_millis(300))
        .with_measure(SimDuration::from_millis(700));
    let run = || {
        let (reports, ops) = exp::telemetry_run(
            SystemKind::IOrchestra,
            600.0,
            SimDuration::from_millis(100),
            SimDuration::from_millis(1),
            cfg,
        );
        let lines: Vec<String> = reports.iter().map(|r| r.render()).collect();
        (lines, ops)
    };
    let (l1, ops1) = run();
    let (l2, ops2) = run();
    assert!(ops1 > 0, "telemetry run recorded no ops");
    assert!(!l1.is_empty(), "telemetry run cut no windows");
    assert_eq!(ops1, ops2);
    assert_eq!(l1, l2);
}
