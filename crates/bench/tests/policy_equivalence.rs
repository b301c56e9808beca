//! Policy-redesign byte-identity oracle: every control plane the paper
//! compares, expressed as a [`PolicySet`](iorchestra::PolicySet) on the
//! [`PolicyEngine`](iorchestra::PolicyEngine), must reproduce the trace of
//! the pre-redesign hand-fused plane it replaced — same timeline, same
//! decision log — on every tracedump scenario.
//!
//! The hand-fused planes are gone; their output on all 7 variants × 8
//! scenarios × seeds {7, 42, 1337} is recorded in
//! `tests/fingerprints/traces.txt` (see [`iorch_bench::fingerprint`]), so
//! each cell here replays the scenario through [`run_scenario`] — the
//! `tracedump` path — and compares fingerprints. On a mismatch the full
//! recomputed table is written under `$CARGO_TARGET_TMPDIR/fingerprints/`.

use std::path::Path;

use iorch_bench::fingerprint::{self, Table};
use iorch_bench::tracereplay::{parse_system, run_scenario, SCENARIOS, VARIANTS};
use iorch_simcore::trace;

const TRACES: &str = include_str!("fingerprints/traces.txt");
const SEEDS: [u64; 3] = [7, 42, 1337];

/// Replay each `(variant, scenario, seed)` cell and fingerprint its
/// `(timeline, decision log)` under the key `<variant>/<scenario>/<seed>`.
fn replay(cells: &[(&str, &str, u64)]) -> Table {
    let mut t = Table::new();
    for &(variant, scenario, seed) in cells {
        let kind = parse_system(variant).expect("known variant");
        let events = run_scenario(kind, seed, scenario).expect("known scenario");
        t.insert(
            format!("{variant}/{scenario}/{seed}"),
            &[
                trace::render_timeline(&events).as_bytes(),
                trace::render_decision_log(&events).as_bytes(),
            ],
        );
    }
    t
}

/// Compare the replayed `cells` against their committed rows (every row
/// when `all`).
fn assert_matches_recorded(cells: &[(&str, &str, u64)], all: bool) {
    let actual = replay(cells);
    let dump = Path::new(env!("CARGO_TARGET_TMPDIR")).join("fingerprints");
    fingerprint::check(
        "traces.txt",
        TRACES,
        &actual,
        |k| all || actual.get(k).is_some(),
        &dump,
    );
}

/// Debug-suite slice: the showcase scenario under every variant, and the
/// full system under every scenario, one seed each.
#[test]
fn engine_matches_legacy_planes_on_the_showcase() {
    if !trace::COMPILED {
        return; // built with --cfg iorch_trace_off
    }
    let cells: Vec<_> = VARIANTS.iter().map(|(v, _)| (*v, "mixed8", 42)).collect();
    assert_matches_recorded(&cells, false);
}

#[test]
fn engine_matches_legacy_full_system_on_every_scenario() {
    if !trace::COMPILED {
        return;
    }
    let cells: Vec<_> = SCENARIOS
        .iter()
        .filter(|(s, _)| *s != "mixed8") // covered above
        .map(|(s, _)| ("iorchestra", *s, 42))
        .collect();
    assert_matches_recorded(&cells, false);
}

/// Exhaustive sweep: every variant × every scenario × every seed, against
/// the whole table (a missing or extra row fails too). Too heavy for the
/// debug suite; tier1.sh runs it in release with `--include-ignored`.
#[test]
#[ignore = "exhaustive sweep; run in release via tier1.sh"]
fn engine_matches_legacy_planes_everywhere() {
    if !trace::COMPILED {
        return;
    }
    let mut cells = Vec::new();
    for seed in SEEDS {
        for (variant, _) in VARIANTS {
            for (scenario, _) in SCENARIOS {
                cells.push((*variant, *scenario, seed));
            }
        }
    }
    assert_eq!(cells.len(), 168);
    assert_matches_recorded(&cells, true);
}
