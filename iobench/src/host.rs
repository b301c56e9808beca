//! Host metadata recorded with every result, and peak memory.

use std::fs;

/// `nproc`, CPU model, compiler version and source commit, as one line.
pub fn metadata() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "nproc={nproc} cpu=\"{cpu}\" rustc=\"{}\" commit={}",
        env!("IOBENCH_RUSTC_VERSION"),
        git_commit().unwrap_or_else(|| "unknown".into())
    )
}

/// The commit checked out in the current directory, read from `.git`
/// without running git (a plain source tree has none).
fn git_commit() -> Option<String> {
    let head = fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = fs::read_to_string(format!(".git/{r}")) {
        return Some(id.trim().to_string());
    }
    fs::read_to_string(".git/packed-refs")
        .ok()?
        .lines()
        .find_map(|l| {
            let (id, name) = l.split_once(' ')?;
            (name == r).then(|| id.to_string())
        })
}

/// Peak resident set size of this process (`VmHWM`) in MB (10^6 bytes),
/// `None` where `/proc` does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb * 1024.0 / 1e6)
}
