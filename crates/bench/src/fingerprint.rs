//! Committed behaviour fingerprints: cross-change regression references.
//!
//! A fingerprint is a frozen FNV-1a-64 digest of a byte string, rendered
//! as `<byte len>:<16 hex digits>`. It needs no external crate, and any
//! single-byte substitution always changes it: each step xors one byte
//! into the state and multiplies by an odd prime, and both are bijections
//! on the 64-bit state, so two inputs that differ in one byte never meet
//! again.
//!
//! A [`Table`] maps a key (a trace cell, an artifact path) to one or more
//! space-separated fingerprints. The tables committed under
//! `crates/bench/tests/fingerprints/` pin the simulator's observable
//! output across changes; [`check`] compares a recomputed table against
//! one and, on any mismatch, writes the full recomputed table next to the
//! test binary and panics naming the first differing keys. A missing row,
//! an extra row and an altered digest all fail — a stale table never
//! passes. Do not change the hash: every committed table depends on it.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::Path;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a of `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

/// `<byte len>:<16 hex digits of fnv1a64>`.
pub fn fingerprint(bytes: &[u8]) -> String {
    format!("{}:{:016x}", bytes.len(), fnv1a64(bytes))
}

/// Key → fingerprints (one or more, space-separated), sorted by key.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Table {
    rows: BTreeMap<String, String>,
}

impl Table {
    /// An empty table.
    pub fn new() -> Table {
        Table::default()
    }

    /// Parse the text form: one `<key> <value…>` row per line; blank lines
    /// and `#` comments are skipped. Panics on a duplicate key or a row
    /// without a value — a malformed reference is a test failure.
    fn parse(text: &str) -> Table {
        let mut t = Table::new();
        for line in text.lines().map(str::trim) {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once(' ')
                .unwrap_or_else(|| panic!("fingerprint row without a value: {line:?}"));
            let prev = t.rows.insert(key.to_owned(), value.trim().to_owned());
            assert!(prev.is_none(), "duplicate fingerprint row {key:?}");
        }
        t
    }

    /// Set `key`'s row to the fingerprints of `parts`, in order.
    pub fn insert(&mut self, key: impl Into<String>, parts: &[&[u8]]) {
        let value: Vec<String> = parts.iter().map(|p| fingerprint(p)).collect();
        self.rows.insert(key.into(), value.join(" "));
    }

    /// `key`'s fingerprints, if it has a row.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.rows.get(key).map(String::as_str)
    }

    /// The text form, one row per line in key order.
    fn render(&self) -> String {
        let mut s = String::new();
        for (k, v) in &self.rows {
            let _ = writeln!(s, "{k} {v}");
        }
        s
    }
}

/// Every key on which `expected` and `actual` disagree, in key order, with
/// what went wrong: a missing row, an extra row, or an altered value.
fn diff(expected: &Table, actual: &Table) -> Vec<String> {
    let keys: BTreeSet<&String> = expected.rows.keys().chain(actual.rows.keys()).collect();
    keys.into_iter()
        .filter_map(|k| match (expected.rows.get(k), actual.rows.get(k)) {
            (Some(e), Some(a)) if e == a => None,
            (Some(e), Some(a)) => Some(format!("{k} (committed {e}, got {a})")),
            (Some(_), None) => Some(format!("{k} (missing: committed but not produced)")),
            (None, Some(_)) => Some(format!("{k} (extra: produced but not committed)")),
            (None, None) => unreachable!(),
        })
        .collect()
}

/// Compare `actual` against the rows of the committed table `committed`
/// (its text) for which `in_scope` holds. On any difference, write the
/// full recomputed table — the committed header and out-of-scope rows,
/// plus `actual` — to `<dump_dir>/<name>` and panic naming the first
/// differing keys and that path.
pub fn check(
    name: &str,
    committed: &str,
    actual: &Table,
    in_scope: impl Fn(&str) -> bool,
    dump_dir: &Path,
) {
    let all = Table::parse(committed);
    let expected = Table {
        rows: all
            .rows
            .iter()
            .filter(|(k, _)| in_scope(k))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect(),
    };
    let diffs = diff(&expected, actual);
    if diffs.is_empty() {
        return;
    }
    let mut merged = Table {
        rows: all.rows.into_iter().filter(|(k, _)| !in_scope(k)).collect(),
    };
    merged.rows.extend(actual.rows.clone());
    let header: String = committed
        .lines()
        .take_while(|l| l.starts_with('#'))
        .map(|l| format!("{l}\n"))
        .collect();
    let path = dump_dir.join(name);
    let written = std::fs::create_dir_all(dump_dir)
        .and_then(|()| std::fs::write(&path, header + &merged.render()));
    let shown: Vec<&str> = diffs.iter().take(5).map(String::as_str).collect();
    panic!(
        "{name}: {} row(s) differ from the committed fingerprints; first: {}\n\
         recomputed table {}: {}",
        diffs.len(),
        shown.join("; "),
        if written.is_ok() {
            "written to"
        } else {
            "could not be written to"
        },
        path.display(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_answers() {
        assert_eq!(format!("{:016x}", fnv1a64(b"")), "cbf29ce484222325");
        assert_eq!(format!("{:016x}", fnv1a64(b"a")), "af63dc4c8601ec8c");
        assert_eq!(fingerprint(b""), "0:cbf29ce484222325");
        assert_eq!(fingerprint(b"a"), "1:af63dc4c8601ec8c");
    }

    #[test]
    fn every_single_byte_substitution_changes_the_digest() {
        let base = b"t=1.000ms dom3 flush_now epoch=2\n".to_vec();
        let want = fnv1a64(&base);
        for i in 0..base.len() {
            for b in 0..=255u8 {
                if b == base[i] {
                    continue;
                }
                let mut m = base.clone();
                m[i] = b;
                assert_ne!(fnv1a64(&m), want, "byte {i} -> {b:#04x} collided");
            }
        }
    }

    #[test]
    fn parse_render_round_trip() {
        let mut t = Table::new();
        t.insert("b/x", &[b"one", b"two"]);
        t.insert("a/y", &[b""]);
        let text = t.render();
        assert_eq!(
            text,
            format!(
                "a/y 0:cbf29ce484222325\nb/x {} {}\n",
                fingerprint(b"one"),
                fingerprint(b"two")
            )
        );
        assert_eq!(Table::parse(&format!("# header\n\n{text}")), t);
        assert_eq!(t.get("a/y"), Some("0:cbf29ce484222325"));
    }

    fn committed() -> String {
        let mut t = Table::new();
        t.insert("k/1", &[b"x"]);
        t.insert("k/2", &[b"y"]);
        t.insert("other/1", &[b"z"]);
        format!("# test table\n{}", t.render())
    }

    fn dump_dir(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("iorch-fingerprint-{}-{name}", std::process::id()))
    }

    fn failure(actual: &Table, name: &str) -> String {
        let text = committed();
        let dir = dump_dir(name);
        let err = std::panic::catch_unwind(|| {
            check(name, &text, actual, |k| k.starts_with("k/"), &dir);
        })
        .expect_err("a stale table must not pass");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .expect("panic message");
        // The dump is the committed header, the out-of-scope row and the
        // recomputed rows.
        let dumped = std::fs::read_to_string(dir.join(name)).unwrap();
        assert!(dumped.starts_with("# test table\n"), "{dumped}");
        assert_eq!(
            Table::parse(&dumped).get("other/1"),
            Some(&*fingerprint(b"z"))
        );
        std::fs::remove_dir_all(&dir).unwrap();
        msg
    }

    #[test]
    fn matching_scope_passes() {
        let mut actual = Table::new();
        actual.insert("k/1", &[b"x"]);
        actual.insert("k/2", &[b"y"]);
        check(
            "ok.txt",
            &committed(),
            &actual,
            |k| k.starts_with("k/"),
            &dump_dir("ok"),
        );
    }

    #[test]
    fn missing_extra_and_altered_rows_fail_naming_the_key() {
        let mut missing = Table::new();
        missing.insert("k/1", &[b"x"]);
        let msg = failure(&missing, "missing.txt");
        assert!(msg.contains("k/2 (missing"), "{msg}");

        let mut extra = Table::new();
        extra.insert("k/1", &[b"x"]);
        extra.insert("k/2", &[b"y"]);
        extra.insert("k/3", &[b"w"]);
        let msg = failure(&extra, "extra.txt");
        assert!(msg.contains("k/3 (extra"), "{msg}");

        let mut altered = Table::new();
        altered.insert("k/1", &[b"x"]);
        altered.insert("k/2", &[b"Y"]);
        let msg = failure(&altered, "altered.txt");
        assert!(msg.contains("k/2 (committed"), "{msg}");
        assert!(msg.contains("altered.txt"), "names the dump path: {msg}");
    }
}
