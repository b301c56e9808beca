//! Quota/NUMA-aware placement scoring for the cluster controller.
//!
//! The controller's *desired* placement is a pure function of the alive
//! membership and the sorted domain catalog, which is what makes cluster
//! convergence provable: any two controllers seeing the same membership
//! and catalog produce byte-identical desired state, so a recovered (or
//! partitioned-and-healed) cluster always settles on the no-fault
//! placement. The controller memoizes the pass and reruns it in full
//! whenever the catalog or the alive `(node, caps)` list changes.
//!
//! The score is fixed: a node past its VCPU or memory quota is vetoed,
//! every other node scores `free·100 + numa_fit·50 − domains`, and the
//! highest score wins with the lowest node index as tie-break (see
//! [`place`]).

use iorch_hypervisor::VmSpec;

/// A candidate node's capacity and current commitments, as seen by the
/// controller (static caps from registration, usage accumulated while
/// placing the catalog in order).
#[derive(Clone, Copy, Debug)]
pub struct NodeView {
    /// Cluster node index.
    pub node: u32,
    /// VCPU capacity (unreserved cores × overcommit factor).
    pub total_vcpus: u32,
    /// Largest VCPU count that stays NUMA-local (per-socket cores ×
    /// overcommit factor).
    pub numa_max_vcpus: u32,
    /// Guest-memory quota in bytes.
    pub mem_quota: u64,
    /// VCPUs already assigned by earlier placements this pass.
    pub used_vcpus: u32,
    /// Memory already assigned by earlier placements this pass.
    pub used_mem: u64,
    /// Domains already assigned by earlier placements this pass.
    pub domains: u32,
}

impl NodeView {
    /// A fresh view with no commitments.
    pub fn new(node: u32, total_vcpus: u32, numa_max_vcpus: u32, mem_quota: u64) -> Self {
        NodeView {
            node,
            total_vcpus,
            numa_max_vcpus,
            mem_quota,
            used_vcpus: 0,
            used_mem: 0,
            domains: 0,
        }
    }
}

/// Choose a node for `spec` and commit its usage to the winning view.
/// Returns `None` when every node is past its quota (cluster full).
///
/// Among the nodes with room for `spec`, each scores
/// * `free · 100`, where `free` is the node's VCPUs left after this
///   placement (least-loaded first);
/// * `+ 50` when the VM fits on one socket (the §3.3 NUMA concern lifted
///   to cluster scope: a VM that spans sockets pays cross-socket I/O
///   routing costs);
/// * `− domains`, mild pressure to spread domain *count* so small VMs do
///   not all pile onto one node.
///
/// The highest score wins; ties break to the lowest node index.
pub fn place(spec: &VmSpec, views: &mut [NodeView]) -> Option<u32> {
    let mut best: Option<(i64, usize)> = None;
    for (i, view) in views.iter().enumerate() {
        let vcpus = view.used_vcpus + spec.vcpus;
        if vcpus > view.total_vcpus || view.used_mem + spec.mem_bytes > view.mem_quota {
            continue;
        }
        let free = (view.total_vcpus - vcpus) as i64;
        let numa_fit = (spec.vcpus <= view.numa_max_vcpus) as i64;
        let score = free * 100 + numa_fit * 50 - view.domains as i64;
        // Strict `>` keeps the lowest node index on ties (views are
        // iterated in ascending node order).
        if best.is_none_or(|(b, _)| score > b) {
            best = Some((score, i));
        }
    }
    let (_, i) = best?;
    views[i].used_vcpus += spec.vcpus;
    views[i].used_mem += spec.mem_bytes;
    views[i].domains += 1;
    Some(views[i].node)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn views(n: u32) -> Vec<NodeView> {
        (0..n).map(|i| NodeView::new(i, 40, 20, 64 << 30)).collect()
    }

    #[test]
    fn ties_break_to_lowest_node() {
        let mut v = views(3);
        assert_eq!(place(&VmSpec::new(2, 4), &mut v), Some(0));
        // Node 0 is now more loaded; next placement prefers node 1.
        assert_eq!(place(&VmSpec::new(2, 4), &mut v), Some(1));
        assert_eq!(place(&VmSpec::new(2, 4), &mut v), Some(2));
    }

    #[test]
    fn quota_vetoes_full_nodes() {
        let mut v = views(2);
        v[0].used_vcpus = 40;
        let got = place(&VmSpec::new(2, 4), &mut v).unwrap();
        assert_eq!(got, 1);
        v[1].used_vcpus = 40;
        assert_eq!(place(&VmSpec::new(2, 4), &mut v), None, "cluster full");
    }

    #[test]
    fn memory_quota_is_enforced() {
        let mut v = views(2);
        v[0].used_mem = 63 << 30;
        v[1].used_mem = 0;
        assert_eq!(place(&VmSpec::new(1, 4), &mut v), Some(1));
    }

    #[test]
    fn numa_fit_beats_slightly_freer_node() {
        // Node 0: fits NUMA-locally. Node 1: slightly freer but the VM
        // would span sockets (numa_max 2 < 4 vcpus).
        let mut v = vec![NodeView::new(0, 40, 20, 64 << 30), {
            let mut n = NodeView::new(1, 40, 2, 64 << 30);
            n.used_vcpus = 0;
            n
        }];
        assert_eq!(place(&VmSpec::new(4, 4), &mut v), Some(0));
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut v = views(4);
            (0..32)
                .map(|i| place(&VmSpec::new(1 + i % 3, 1), &mut v))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
