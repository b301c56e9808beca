//! Differential tests: the optimized store must be observationally
//! identical to the frozen seed implementation (`oracle::store`) —
//! same read results, same tree contents, same watch-event streams, same
//! per-domain write counts — for arbitrary operation interleavings.
//!
//! The one *intentional* divergence is `remove` on a subtree: the seed
//! fired a single event for the removed root (a bug this PR fixes), while
//! the new store fires one event per deleted node. The random driver
//! checks that the new stream is a superset whose extra events are all
//! removals strictly below the removed root; a dedicated test pins the
//! exact shapes of both streams.

use iorch_bench::oracle::store::XenStore as LegacyStore;
use iorch_hypervisor::{DomainId, Perms, StoreError, XenStore, DOM0};
use iorch_simcore::{gen, SimRng};

const CASES: usize = 96;

/// Common event shape both stores can be projected onto.
type Ev = (u64, u32, String, Option<String>);

fn new_events(s: &mut XenStore) -> Vec<Ev> {
    s.take_events()
        .into_iter()
        .map(|e| {
            (
                e.watch.0,
                e.owner.0,
                e.path.to_string(),
                e.value.map(|v| v.to_string()),
            )
        })
        .collect()
}

fn legacy_events(s: &mut LegacyStore) -> Vec<Ev> {
    s.take_events()
        .into_iter()
        .map(|e| (e.watch.0, e.owner.0, e.path, e.value))
        .collect()
}

fn rand_perms(rng: &mut SimRng) -> Perms {
    Perms {
        owner: DomainId(rng.below(3) as u32),
        others_read: rng.chance(0.5),
        others_write: rng.chance(0.25),
    }
}

fn rand_path(rng: &mut SimRng) -> String {
    // A small alphabet makes prefix collisions (and thus interesting
    // watch/permission interactions) common.
    gen::path_from_alphabet(rng, &["a", "b", "ab", "cd"], 4)
}

fn errs_match(a: &StoreError, b: &StoreError) -> bool {
    std::mem::discriminant(a) == std::mem::discriminant(b)
}

/// Drive both stores with an identical random op stream and require
/// identical observable behaviour at every step.
#[test]
fn random_ops_match_seed_implementation() {
    for seed in gen::seeds(0xD1FF_0001, CASES) {
        let mut rng = SimRng::new(seed);
        let mut new = XenStore::new();
        let mut old = LegacyStore::new();
        let ops = 40 + rng.below(80);
        for step in 0..ops {
            let roll = rng.below(100);
            let dom = DomainId(rng.below(3) as u32);
            if roll < 40 {
                let p = rand_path(&mut rng);
                let v = format!("v{}", rng.below(8));
                let rn = new.write(dom, p.as_str(), v.as_str());
                let ro = old.write(dom, &p, v.clone());
                match (&rn, &ro) {
                    (Ok(()), Ok(())) => {}
                    (Err(a), Err(b)) if errs_match(a, b) => {}
                    _ => panic!("write({p}) diverged: {rn:?} vs {ro:?} (seed {seed} step {step})"),
                }
            } else if roll < 48 {
                let p = rand_path(&mut rng);
                let perms = rand_perms(&mut rng);
                let rn = new.mkdir(DOM0, p.as_str(), perms);
                let ro = old.mkdir(DOM0, &p, perms);
                assert_eq!(rn.is_ok(), ro.is_ok(), "mkdir({p}) diverged (seed {seed})");
            } else if roll < 56 {
                let p = rand_path(&mut rng);
                new.watch(dom, p.as_str());
                old.watch(dom, p.clone());
            } else if roll < 60 {
                // Both stores hand out sequential ids; unwatch the same one.
                let id = iorch_hypervisor::WatchId(1 + rng.below(8));
                assert_eq!(
                    new.unwatch(id),
                    old.unwatch(id),
                    "unwatch diverged (seed {seed})"
                );
            } else if roll < 68 {
                let p = rand_path(&mut rng);
                let rn = new.remove(DOM0, p.as_str());
                let ro = old.remove(DOM0, &p);
                assert_eq!(rn.is_ok(), ro.is_ok(), "remove({p}) diverged (seed {seed})");
                // Intentional divergence: the seed fired one event per
                // removed *subtree*; the fixed store fires one per node.
                let en = new_events(&mut new);
                let eo = legacy_events(&mut old);
                for e in &eo {
                    assert!(
                        en.contains(e),
                        "legacy remove event {e:?} missing from new stream (seed {seed})"
                    );
                }
                for e in &en {
                    assert!(
                        e.3.is_none(),
                        "remove fired a non-removal event {e:?} (seed {seed})"
                    );
                    if !eo.contains(e) {
                        assert!(
                            e.2.starts_with(&p) && e.2.len() > p.len(),
                            "extra event {e:?} not below removed root {p} (seed {seed})"
                        );
                    }
                }
                continue;
            } else if roll < 76 {
                let p = rand_path(&mut rng);
                let rn = new.read(dom, p.as_str());
                let ro = old.read(dom, &p);
                match (&rn, &ro) {
                    (Ok(a), Ok(b)) => assert_eq!(a, b, "read({p}) diverged (seed {seed})"),
                    (Err(a), Err(b)) => {
                        assert!(errs_match(a, b), "read({p}) errors diverged (seed {seed})")
                    }
                    _ => panic!("read({p}) diverged: {rn:?} vs {ro:?} (seed {seed})"),
                }
            } else if roll < 82 {
                let p = rand_path(&mut rng);
                let rn = new.list(dom, p.as_str());
                let ro = old.list(dom, &p);
                assert_eq!(rn.is_ok(), ro.is_ok(), "list({p}) diverged (seed {seed})");
                if let (Ok(a), Ok(b)) = (rn, ro) {
                    assert_eq!(a, b, "list({p}) contents diverged (seed {seed})");
                }
            } else if roll < 88 {
                let p = rand_path(&mut rng);
                let perms = rand_perms(&mut rng);
                let rn = new.set_perms(DOM0, p.as_str(), perms);
                let ro = old.set_perms(DOM0, &p, perms);
                assert_eq!(
                    rn.is_ok(),
                    ro.is_ok(),
                    "set_perms({p}) diverged (seed {seed})"
                );
            } else {
                // Transaction: identical buffered writes, commit or abort.
                let tn = new.txn_begin();
                let to = old.txn_begin();
                for _ in 0..=rng.below(3) {
                    let p = rand_path(&mut rng);
                    let v = format!("t{}", rng.below(8));
                    let rn = new.txn_write(tn, dom, p.as_str(), v.as_str());
                    let ro = old.txn_write(to, dom, &p, v.clone());
                    assert_eq!(rn.is_ok(), ro.is_ok(), "txn_write diverged (seed {seed})");
                }
                if rng.chance(0.7) {
                    let rn = new.txn_commit(tn);
                    let ro = old.txn_commit(to);
                    assert_eq!(rn.is_ok(), ro.is_ok(), "txn_commit diverged (seed {seed})");
                } else {
                    new.txn_abort(tn).unwrap();
                    old.txn_abort(to).unwrap();
                }
            }
            // After every non-remove op: identical event streams (watch id,
            // owner, path, value — in order), identical trees.
            assert_eq!(
                new_events(&mut new),
                legacy_events(&mut old),
                "event streams diverged (seed {seed} step {step})"
            );
            assert_eq!(
                new.dump(),
                old.dump(),
                "trees diverged (seed {seed} step {step})"
            );
        }
        for d in 0..3 {
            assert_eq!(
                new.write_count(DomainId(d)),
                old.write_count(DomainId(d)),
                "write counts diverged (seed {seed})"
            );
        }
    }
}

/// The fixed `remove` fires one event per deleted node (parent first);
/// the seed fired only the root. Pin both shapes exactly.
#[test]
fn remove_divergence_is_exactly_the_bugfix() {
    let mut new = XenStore::new();
    let mut old = LegacyStore::new();
    new.write(DOM0, "/a/b/c", "1").unwrap();
    new.write(DOM0, "/a/b/d", "2").unwrap();
    new.watch(DOM0, "/a");
    new.take_events();
    new.remove(DOM0, "/a").unwrap();
    old.write(DOM0, "/a/b/c", "1").unwrap();
    old.write(DOM0, "/a/b/d", "2").unwrap();
    old.watch(DOM0, "/a");
    old.take_events();
    old.remove(DOM0, "/a").unwrap();
    let en: Vec<String> = new
        .take_events()
        .iter()
        .map(|e| e.path.to_string())
        .collect();
    let eo: Vec<String> = old.take_events().iter().map(|e| e.path.clone()).collect();
    assert_eq!(
        eo,
        vec!["/a"],
        "seed behaviour changed — legacy module was edited"
    );
    assert_eq!(en, vec!["/a", "/a/b", "/a/b/c", "/a/b/d"]);
}

/// A failed commit leaves the store byte-identical and fires no events.
#[test]
fn failed_commit_is_invisible() {
    let mut s = XenStore::new();
    let d1 = DomainId(1);
    s.mkdir(DOM0, "/local/domain/1", Perms::private_to(d1))
        .unwrap();
    s.write(d1, "/local/domain/1/x", "keep").unwrap();
    s.watch(DOM0, "/");
    s.take_events();
    let before = s.dump();

    let t = s.txn_begin();
    s.txn_write(t, d1, "/local/domain/1/x", "changed").unwrap();
    s.txn_write(t, d1, "/forbidden/path", "nope").unwrap();
    assert!(matches!(s.txn_commit(t), Err(StoreError::PermissionDenied)));

    assert_eq!(s.dump(), before, "failed commit mutated the tree");
    assert!(!s.has_events(), "failed commit fired events");
    assert_eq!(s.read(d1, "/local/domain/1/x").unwrap(), "keep");
}

/// A successful commit applies writes — and fires their events — in the
/// order they were buffered.
#[test]
fn successful_commit_fires_in_write_order() {
    let mut s = XenStore::new();
    s.watch(DOM0, "/");
    s.take_events();
    let t = s.txn_begin();
    s.txn_write(t, DOM0, "/c", "3").unwrap();
    s.txn_write(t, DOM0, "/a", "1").unwrap();
    s.txn_write(t, DOM0, "/b", "2").unwrap();
    s.txn_write(t, DOM0, "/a", "updated").unwrap();
    s.txn_commit(t).unwrap();
    let paths: Vec<String> = s.take_events().iter().map(|e| e.path.to_string()).collect();
    assert_eq!(paths, vec!["/c", "/a", "/b", "/a"]);
    assert_eq!(s.read(DOM0, "/a").unwrap(), "updated");
}

/// `write_if_changed` must agree with the legacy plain-write observable
/// state while suppressing only the no-op republish events.
#[test]
fn write_if_changed_matches_plain_write_state() {
    for seed in gen::seeds(0xD1FF_0002, 32) {
        let mut rng = SimRng::new(seed);
        let mut new = XenStore::new();
        let mut old = LegacyStore::new();
        new.watch(DOM0, "/");
        old.watch(DOM0, "/");
        for _ in 0..60 {
            let p = rand_path(&mut rng);
            let v = format!("v{}", rng.below(3));
            let changed = new.write_if_changed(DOM0, p.as_str(), v.as_str()).unwrap();
            old.write(DOM0, &p, v.clone()).unwrap();
            let en = new_events(&mut new);
            let eo = legacy_events(&mut old);
            if changed {
                assert_eq!(en, eo, "changed write must fire like seed (seed {seed})");
            } else {
                assert!(en.is_empty(), "suppressed write fired events (seed {seed})");
            }
        }
        // Same final tree either way.
        assert_eq!(new.dump(), old.dump(), "trees diverged (seed {seed})");
    }
}
