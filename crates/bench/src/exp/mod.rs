//! Declarative experiment runner: experiments as data, executed by one
//! engine (DESIGN.md §12).
//!
//! Each paper figure/table is a [`Spec`] in [`registry`]: a name, the
//! system variants it compares, its load-point axes, repeat count and
//! warmup/measure spans — at two sizes (`smoke` for gates, `full` for
//! regenerating EXPERIMENTS.md). The engine resolves a spec against a
//! profile and seed, invokes the family run function, renders the same
//! console tables the old hand-rolled benches printed, and writes
//! per-figure JSON + CSV artifacts (plus a `summary.json`) into a run
//! directory. Artifacts are byte-deterministic for a `(spec, profile,
//! seed)` triple; `tier1.sh` gates on that via the smoke sweep and the
//! `experiment_determinism` suite. The `experiments` binary is the
//! command-line front end.

mod cluster;
mod families;
mod figure;
pub mod gate;
mod json;
mod scale;
mod telemetry;

pub use figure::{json_num, json_str, FigRow, Figure};
pub use json::{parse, validate_artifact, Json};
pub use telemetry::telemetry_run;

use std::fmt::Write as _;
use std::path::Path;

use crate::runner::RunCfg;
use iorch_metrics::Table;
use iorch_simcore::SimDuration;

/// Which size of a spec to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Profile {
    /// Seconds-long gate runs with reduced axes (tier1, goldens).
    Smoke,
    /// The paper-scale sweep that regenerates EXPERIMENTS.md columns.
    Full,
}

impl Profile {
    /// Lower-case name as used in artifacts and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            Profile::Smoke => "smoke",
            Profile::Full => "full",
        }
    }

    /// Parse a CLI/env profile name.
    pub fn parse(s: &str) -> Option<Profile> {
        match s {
            "smoke" => Some(Profile::Smoke),
            "full" => Some(Profile::Full),
            _ => None,
        }
    }
}

/// One size of an experiment, as pure data.
#[derive(Clone, Copy, Debug)]
pub struct RunProfile {
    /// Warm-up span discarded from recordings, in ms.
    pub warmup_ms: u64,
    /// Measured span, in ms.
    pub measure_ms: u64,
    /// Seeded repeats pooled per data point (seed, seed+1000, …).
    pub repeats: u32,
    /// Primary load-point axis; meaning is per-experiment (clients,
    /// req/s, machines, VMs, λ/min, I/O threads…).
    pub axis: &'static [f64],
    /// Secondary axis for grid sweeps (req/s, dirty ratios, burst ms…).
    pub axis2: &'static [f64],
}

/// A named experiment: everything the engine needs, as data plus one run
/// function.
pub struct Spec {
    /// Registry name (also the artifact subdirectory).
    pub name: &'static str,
    /// Human title.
    pub title: &'static str,
    /// System variants compared (labels from `SystemKind::label`).
    pub systems: &'static [&'static str],
    /// Figure ids this experiment emits (full profile; smoke may emit a
    /// subset for parameter-ablation figures).
    pub figures: &'static [&'static str],
    /// Gate-sized profile.
    pub smoke: RunProfile,
    /// Paper-sized profile.
    pub full: RunProfile,
    /// Latency SLO used by live telemetry, if the experiment has one.
    pub slo: Option<SimDuration>,
    /// This spec measures wall-clock time (`std::time::Instant`), so its
    /// artifacts are *not* byte-deterministic across runs. Timing specs
    /// are excluded from `experiments run all` and from the golden
    /// determinism sweeps — they must be run by name (the tier-1 script
    /// does), and they gate on thresholds instead of byte identity.
    pub timing: bool,
    /// Trailing note printed after the tables (paper shapes).
    pub notes: &'static str,
    /// The family function: resolves the context into figures.
    pub run: fn(&Ctx) -> Vec<Figure>,
}

/// A resolved `(spec, profile, seed)` execution context.
pub struct Ctx<'a> {
    /// The spec being run.
    pub spec: &'a Spec,
    /// Which profile was selected.
    pub profile: Profile,
    /// Base seed.
    pub seed: u64,
    /// The resolved [`RunProfile`].
    pub p: RunProfile,
}

impl Ctx<'_> {
    /// `RunCfg` for the base seed.
    pub fn cfg(&self) -> RunCfg {
        self.cfg_seeded(self.seed)
    }

    /// `RunCfg` for an explicit seed (repeat pooling).
    pub fn cfg_seeded(&self, seed: u64) -> RunCfg {
        RunCfg::new(seed)
            .with_warmup(SimDuration::from_millis(self.p.warmup_ms))
            .with_measure(SimDuration::from_millis(self.p.measure_ms))
    }

    /// The repeat seeds: `seed + 1000*i` (so base seed 42 with 3 repeats
    /// reproduces the historical 42/1042/2042 pooling).
    pub fn seeds(&self) -> Vec<u64> {
        (0..self.p.repeats.max(1) as u64)
            .map(|i| self.seed + 1000 * i)
            .collect()
    }

    /// True when running the gate-sized profile.
    pub fn is_smoke(&self) -> bool {
        self.profile == Profile::Smoke
    }
}

/// All named experiments, in EXPERIMENTS.md order.
pub fn registry() -> &'static [Spec] {
    families::REGISTRY
}

/// Look up a spec by name.
pub fn find(name: &str) -> Option<&'static Spec> {
    registry().iter().find(|s| s.name == name)
}

/// Run one spec and write its artifacts under `out/<name>/`. Returns the
/// figures (also rendered to stdout unless `quiet`).
pub fn run_spec(
    spec: &Spec,
    profile: Profile,
    seed: u64,
    out: &Path,
    quiet: bool,
) -> std::io::Result<Vec<Figure>> {
    let p = match profile {
        Profile::Smoke => spec.smoke,
        Profile::Full => spec.full,
    };
    let ctx = Ctx {
        spec,
        profile,
        seed,
        p,
    };
    let figures = (spec.run)(&ctx);
    assert!(
        !figures.is_empty(),
        "experiment {} produced no figures",
        spec.name
    );
    write_artifacts(spec, &ctx, &figures, out)?;
    if !quiet {
        for f in &figures {
            print!("{}", render_table(f));
        }
        if !spec.notes.is_empty() {
            println!("{}", spec.notes);
        }
    }
    Ok(figures)
}

/// Render a figure as the aligned console table the old benches printed.
pub fn render_table(f: &Figure) -> String {
    let mut headers: Vec<&str> = vec![f.x_axis.as_str()];
    headers.extend(f.columns.iter().map(String::as_str));
    let mut t = Table::new(f.title.clone(), &headers);
    for r in &f.rows {
        let mut row = vec![r.x.clone()];
        row.extend(r.values.iter().map(|v| fmt_value(&f.unit, *v)));
        t.row(row);
    }
    t.render()
}

/// Unit-aware cell formatting for the console tables. Artifacts keep the
/// full-precision values; this only affects display.
pub fn fmt_value(unit: &str, v: f64) -> String {
    match unit {
        "ratio" => format!("{v:.3}"),
        "%" => format!("{v:.1}%"),
        "count" => format!("{v:.0}"),
        _ => format!("{v:.1}"),
    }
}

fn write_artifacts(spec: &Spec, ctx: &Ctx, figures: &[Figure], out: &Path) -> std::io::Result<()> {
    let dir = out.join(spec.name);
    std::fs::create_dir_all(&dir)?;
    for f in figures {
        std::fs::write(
            dir.join(format!("{}.json", f.id)),
            f.to_json(spec.name, ctx.profile.name(), ctx.seed),
        )?;
        std::fs::write(dir.join(format!("{}.csv", f.id)), f.to_csv())?;
    }
    std::fs::write(dir.join("summary.json"), render_summary(spec, ctx, figures))?;
    Ok(())
}

fn render_summary(spec: &Spec, ctx: &Ctx, figures: &[Figure]) -> String {
    let mut s = String::with_capacity(512);
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"iorch-exp-summary/v1\",");
    let _ = writeln!(s, "  \"experiment\": {},", json_str(spec.name));
    let _ = writeln!(s, "  \"title\": {},", json_str(spec.title));
    let _ = writeln!(s, "  \"profile\": {},", json_str(ctx.profile.name()));
    let _ = writeln!(s, "  \"seed\": {},", ctx.seed);
    let _ = writeln!(s, "  \"repeats\": {},", ctx.p.repeats);
    let _ = writeln!(s, "  \"warmup_ms\": {},", ctx.p.warmup_ms);
    let _ = writeln!(s, "  \"measure_ms\": {},", ctx.p.measure_ms);
    let systems: Vec<String> = spec.systems.iter().map(|x| json_str(x)).collect();
    let _ = writeln!(s, "  \"systems\": [{}],", systems.join(", "));
    let total: u64 = figures.iter().map(|f| f.samples).sum();
    let _ = writeln!(s, "  \"total_samples\": {total},");
    s.push_str("  \"figures\": [\n");
    for (i, f) in figures.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"figure\": {}, \"rows\": {}, \"columns\": {}, \"samples\": {}}}",
            json_str(&f.id),
            f.rows.len(),
            f.columns.len(),
            f.samples
        );
        s.push_str(if i + 1 == figures.len() { "\n" } else { ",\n" });
    }
    s.push_str("  ]\n}\n");
    s
}
