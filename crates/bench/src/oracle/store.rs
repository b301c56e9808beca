//! Frozen seed implementation of the system store.
//!
//! This is the original, allocation-heavy `XenStore` exactly as it shipped
//! in the growth seed: `Vec<&str>` path splitting on every operation, a
//! linear scan over all watches per write, `String` clones per watch event,
//! and transaction commits validated against a full clone of the store.
//!
//! It is kept verbatim for two jobs:
//!
//! 1. **Differential oracle** — randomized tests drive the same operation
//!    sequence through this store and the optimized
//!    [`iorch_hypervisor::XenStore`] and assert identical reads, final
//!    trees and watch event streams (see `tests/store_differential.rs`).
//! 2. **Bench baseline** — the `hotpath` bench binary times both
//!    implementations with the same harness so the recorded speedups in
//!    `BENCH_hotpath.json` are measured, not estimated.
//!
//! Do not "fix" or optimize this module; its value is that it does not
//! change. The one seed bug it preserves (remove fires a watch event only
//! for the removed root, not the descendants deleted with it) is pinned by
//! the differential tests, which special-case removals.

use std::collections::BTreeMap;

use iorch_hypervisor::{DomainId, Perms, StoreError, TxnId, WatchId, DOM0};

/// A queued watch firing in the seed representation: owned `String`s.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WatchEvent {
    /// The watch that fired.
    pub watch: WatchId,
    /// Domain to notify.
    pub owner: DomainId,
    /// The path that was written or removed.
    pub path: String,
    /// New value (`None` for a removal).
    pub value: Option<String>,
}

#[derive(Clone, Debug)]
struct Node {
    value: Option<String>,
    perms: Perms,
    children: BTreeMap<String, Node>,
}

impl Node {
    fn new(perms: Perms) -> Self {
        Node {
            value: None,
            perms,
            children: BTreeMap::new(),
        }
    }
}

#[derive(Clone, Debug)]
struct Watch {
    id: WatchId,
    owner: DomainId,
    prefix: String,
}

/// The seed system store (see module docs — kept as-is on purpose).
#[derive(Clone, Debug)]
pub struct XenStore {
    root: Node,
    watches: Vec<Watch>,
    next_watch: u64,
    pending: Vec<WatchEvent>,
    txns: BTreeMap<u64, Vec<(DomainId, String, String)>>,
    next_txn: u64,
    write_counts: BTreeMap<DomainId, u64>,
}

fn split_path(path: &str) -> Result<Vec<&str>, StoreError> {
    if !path.starts_with('/') {
        return Err(StoreError::BadPath);
    }
    if path == "/" {
        return Ok(Vec::new());
    }
    let segs: Vec<&str> = path[1..].split('/').collect();
    if segs.iter().any(|s| s.is_empty()) {
        return Err(StoreError::BadPath);
    }
    Ok(segs)
}

impl Default for XenStore {
    fn default() -> Self {
        Self::new()
    }
}

impl XenStore {
    /// Empty store; the root is dom0-owned and world-readable.
    pub fn new() -> Self {
        XenStore {
            root: Node::new(Perms {
                owner: DOM0,
                others_read: true,
                others_write: false,
            }),
            watches: Vec::new(),
            next_watch: 0,
            pending: Vec::new(),
            txns: BTreeMap::new(),
            next_txn: 0,
            write_counts: BTreeMap::new(),
        }
    }

    fn lookup(&self, segs: &[&str]) -> Option<&Node> {
        let mut node = &self.root;
        for s in segs {
            node = node.children.get(*s)?;
        }
        Some(node)
    }

    fn lookup_mut(&mut self, segs: &[&str]) -> Option<&mut Node> {
        let mut node = &mut self.root;
        for s in segs {
            node = node.children.get_mut(*s)?;
        }
        Some(node)
    }

    /// Read a value.
    pub fn read(&self, caller: DomainId, path: &str) -> Result<String, StoreError> {
        let segs = split_path(path)?;
        let node = self.lookup(&segs).ok_or(StoreError::NotFound)?;
        if !node.perms.can_read(caller) {
            return Err(StoreError::PermissionDenied);
        }
        node.value.clone().ok_or(StoreError::NotFound)
    }

    /// Write a value, creating intermediate nodes (seed semantics).
    pub fn write(
        &mut self,
        caller: DomainId,
        path: &str,
        value: impl Into<String>,
    ) -> Result<(), StoreError> {
        let segs = split_path(path)?;
        if segs.is_empty() {
            return Err(StoreError::BadPath);
        }
        // Walk down, checking write permission on the deepest existing node.
        {
            let mut node = &self.root;
            let mut deepest = node;
            for s in &segs {
                match node.children.get(*s) {
                    Some(child) => {
                        node = child;
                        deepest = child;
                    }
                    None => break,
                }
            }
            if !deepest.perms.can_write(caller) {
                return Err(StoreError::PermissionDenied);
            }
        }
        // Create the chain with inherited perms.
        let mut node = &mut self.root;
        for s in &segs {
            let inherited = node.perms;
            node = node
                .children
                .entry((*s).to_string())
                .or_insert_with(|| Node::new(inherited));
        }
        let value = value.into();
        node.value = Some(value.clone());
        *self.write_counts.entry(caller).or_insert(0) += 1;
        self.fire_watches(path, Some(value));
        Ok(())
    }

    /// Remove a node (and its subtree). Seed bug preserved: only one event
    /// fires, for the removed root.
    pub fn remove(&mut self, caller: DomainId, path: &str) -> Result<(), StoreError> {
        let segs = split_path(path)?;
        if segs.is_empty() {
            return Err(StoreError::BadPath);
        }
        let (parent_segs, leaf) = segs.split_at(segs.len() - 1);
        let node = self.lookup(&segs).ok_or(StoreError::NotFound)?;
        if !node.perms.can_write(caller) {
            return Err(StoreError::PermissionDenied);
        }
        let parent = self.lookup_mut(parent_segs).ok_or(StoreError::NotFound)?;
        parent.children.remove(leaf[0]);
        self.fire_watches(path, None);
        Ok(())
    }

    /// List child names of a directory node.
    pub fn list(&self, caller: DomainId, path: &str) -> Result<Vec<String>, StoreError> {
        let segs = split_path(path)?;
        let node = self.lookup(&segs).ok_or(StoreError::NotFound)?;
        if !node.perms.can_read(caller) {
            return Err(StoreError::PermissionDenied);
        }
        Ok(node.children.keys().cloned().collect())
    }

    /// Set permissions on an existing node.
    pub fn set_perms(
        &mut self,
        caller: DomainId,
        path: &str,
        perms: Perms,
    ) -> Result<(), StoreError> {
        let segs = split_path(path)?;
        let node = self.lookup_mut(&segs).ok_or(StoreError::NotFound)?;
        if caller != DOM0 && caller != node.perms.owner {
            return Err(StoreError::PermissionDenied);
        }
        node.perms = perms;
        Ok(())
    }

    /// Create a directory node with explicit permissions.
    pub fn mkdir(&mut self, caller: DomainId, path: &str, perms: Perms) -> Result<(), StoreError> {
        let segs = split_path(path)?;
        if segs.is_empty() {
            return Err(StoreError::BadPath);
        }
        {
            let mut node = &self.root;
            let mut deepest = node;
            for s in &segs {
                match node.children.get(*s) {
                    Some(child) => {
                        node = child;
                        deepest = child;
                    }
                    None => break,
                }
            }
            if !deepest.perms.can_write(caller) {
                return Err(StoreError::PermissionDenied);
            }
        }
        let mut node = &mut self.root;
        for s in &segs {
            let inherited = node.perms;
            node = node
                .children
                .entry((*s).to_string())
                .or_insert_with(|| Node::new(inherited));
        }
        node.perms = perms;
        Ok(())
    }

    /// Register a watch on a path prefix.
    pub fn watch(&mut self, owner: DomainId, prefix: impl Into<String>) -> WatchId {
        let id = WatchId(self.next_watch);
        self.next_watch += 1;
        self.watches.push(Watch {
            id,
            owner,
            prefix: prefix.into(),
        });
        id
    }

    /// Remove a watch.
    pub fn unwatch(&mut self, id: WatchId) -> bool {
        let before = self.watches.len();
        self.watches.retain(|w| w.id != id);
        self.watches.len() != before
    }

    fn fire_watches(&mut self, path: &str, value: Option<String>) {
        for w in &self.watches {
            let hit = path == w.prefix
                || (path.starts_with(&w.prefix)
                    && path.as_bytes().get(w.prefix.len()) == Some(&b'/'))
                || w.prefix == "/";
            if hit {
                self.pending.push(WatchEvent {
                    watch: w.id,
                    owner: w.owner,
                    path: path.to_string(),
                    value: value.clone(),
                });
            }
        }
    }

    /// Drain queued watch events.
    pub fn take_events(&mut self) -> Vec<WatchEvent> {
        std::mem::take(&mut self.pending)
    }

    /// Whether any watch events are queued.
    pub fn has_events(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Begin a transaction.
    pub fn txn_begin(&mut self) -> TxnId {
        let id = self.next_txn;
        self.next_txn += 1;
        self.txns.insert(id, Vec::new());
        TxnId(id)
    }

    /// Buffer a write inside a transaction (permissions checked at commit).
    pub fn txn_write(
        &mut self,
        txn: TxnId,
        caller: DomainId,
        path: impl Into<String>,
        value: impl Into<String>,
    ) -> Result<(), StoreError> {
        let buf = self
            .txns
            .get_mut(&txn.0)
            .ok_or(StoreError::BadTransaction)?;
        buf.push((caller, path.into(), value.into()));
        Ok(())
    }

    /// Commit a transaction, validating against a full clone of the store.
    pub fn txn_commit(&mut self, txn: TxnId) -> Result<(), StoreError> {
        let buf = self.txns.remove(&txn.0).ok_or(StoreError::BadTransaction)?;
        // Validate first against a clone (cheap at our scale), then apply.
        let mut probe = self.clone();
        probe.watches.clear();
        for (caller, path, value) in &buf {
            probe.write(*caller, path, value.clone())?;
        }
        for (caller, path, value) in buf {
            self.write(caller, &path, value)?;
        }
        Ok(())
    }

    /// Abort a transaction.
    pub fn txn_abort(&mut self, txn: TxnId) -> Result<(), StoreError> {
        self.txns.remove(&txn.0).ok_or(StoreError::BadTransaction)?;
        Ok(())
    }

    /// Writes performed by a domain.
    pub fn write_count(&self, dom: DomainId) -> u64 {
        self.write_counts.get(&dom).copied().unwrap_or(0)
    }

    /// Conventional per-domain subtree root, as in Xen.
    pub fn domain_path(dom: DomainId) -> String {
        format!("/local/domain/{}", dom.0)
    }

    /// Flatten the tree into `(path, value, perms)` rows, depth-first in
    /// child order — the comparison format shared with the optimized store.
    pub fn dump(&self) -> Vec<(String, Option<String>, Perms)> {
        let mut out = Vec::new();
        fn visit(node: &Node, path: &mut String, out: &mut Vec<(String, Option<String>, Perms)>) {
            for (name, child) in &node.children {
                let len = path.len();
                path.push('/');
                path.push_str(name);
                out.push((path.clone(), child.value.clone(), child.perms));
                visit(child, path, out);
                path.truncate(len);
            }
        }
        visit(&self.root, &mut String::new(), &mut out);
        out
    }
}
