//! Replay a named fault scenario under a capturing trace session and dump
//! the event timeline.
//!
//! ```text
//! tracedump [--system NAME] [--seed N]
//!           [--scenario NAME] [--format timeline|decisions|chrome]
//!           [--list]
//! ```
//!
//! `--system` takes any of the compared control-plane variants:
//! `baseline`, `sdc`, `dif`, `flush_only`, `congestion_only`,
//! `cosched_only` or `iorchestra` (the default).
//!
//! The output is a pure function of `(system, seed, scenario)`: two runs
//! with the same arguments produce byte-identical dumps. `--format
//! decisions` prints only the control-plane decision log; `--format
//! chrome` emits Chrome trace-event JSON for `about:tracing` / Perfetto.

use std::io::Write;
use std::process::ExitCode;

use iorch_bench::tracereplay::{parse_system, run_scenario, SCENARIOS};
use iorch_simcore::trace;
use iorchestra::SystemKind;

fn usage() -> ExitCode {
    eprintln!(
        "usage: tracedump [--system baseline|sdc|dif|flush_only|congestion_only|\
         cosched_only|iorchestra] [--seed N] [--scenario NAME] \
         [--format timeline|decisions|chrome] [--list]"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut system = SystemKind::IOrchestra;
    let mut seed = 42u64;
    let mut scenario = String::from("mixed8");
    let mut format = String::from("timeline");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list" => {
                for (name, desc) in SCENARIOS {
                    println!("{name:20} {desc}");
                }
                return ExitCode::SUCCESS;
            }
            "--system" => match args.next().as_deref().and_then(parse_system) {
                Some(k) => system = k,
                None => return usage(),
            },
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => return usage(),
            },
            "--scenario" => match args.next() {
                Some(v) => scenario = v,
                None => return usage(),
            },
            "--format" => match args.next() {
                Some(v) if ["timeline", "decisions", "chrome"].contains(&v.as_str()) => format = v,
                _ => return usage(),
            },
            _ => return usage(),
        }
    }
    if !trace::COMPILED {
        eprintln!(
            "tracedump: the trace layer is compiled out \
             (built with --cfg iorch_trace_off); rebuild without it"
        );
        return ExitCode::FAILURE;
    }
    let Some(events) = run_scenario(system, seed, &scenario) else {
        eprintln!("tracedump: unknown scenario {scenario:?} (try --list)");
        return ExitCode::FAILURE;
    };
    let out = match format.as_str() {
        "decisions" => trace::render_decision_log(&events),
        "chrome" => trace::chrome_json(&events),
        _ => trace::render_timeline(&events),
    };
    // Ignore a closed pipe (`tracedump | head`) instead of panicking.
    let _ = std::io::stdout().write_all(out.as_bytes());
    ExitCode::SUCCESS
}
