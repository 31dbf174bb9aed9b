//! Divergence bisection: the first cycle at which two runs' state digests
//! part, and the components that differ there.

use crate::snapshot::Walk;
use crate::{Cluster, Core};
use std::fmt;

/// One component whose digests disagree at the first divergent cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentDiff {
    /// Component name (`core3`, `tile7`, `net`, `stats`, ...).
    pub component: String,
    /// Digest in the first cluster.
    pub left: u64,
    /// Digest in the second cluster.
    pub right: u64,
}

/// The result of [`bisect_divergence`]: where and in what two runs first
/// disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DivergenceReport {
    /// First cycle at which the state digests differ.
    pub cycle: u64,
    /// The components (tiles, cores, structures) that differ at that cycle,
    /// in canonical order.
    pub components: Vec<ComponentDiff>,
}

impl fmt::Display for DivergenceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "first divergence at cycle {}:", self.cycle)?;
        for c in &self.components {
            write!(
                f,
                "\n  {}: {:#018x} vs {:#018x}",
                c.component, c.left, c.right
            )?;
        }
        Ok(())
    }
}

/// Binary-searches for the first cycle at which two clusters' state digests
/// diverge, advancing both in lock-step.
///
/// The clusters must share a geometry (so their component lists line up);
/// they may differ in fault plans — plan *parameters* are excluded from the
/// digest precisely so a faulted run and a clean run agree until the first
/// injected fault acts. Both clusters are left **at the divergent cycle**
/// (or `max_cycles` further along when no divergence was found, returning
/// `None`).
///
/// `stride` is the checkpoint interval of the forward scan: the search runs
/// both clusters `stride` cycles at a time, and on the first mismatching
/// window restores from the last agreeing checkpoint and bisects inside it.
pub fn bisect_divergence<C: Core + Walk>(
    a: &mut Cluster<C>,
    b: &mut Cluster<C>,
    max_cycles: u64,
    stride: u64,
) -> Option<DivergenceReport> {
    let stride = stride.max(1);
    let diff = |a: &Cluster<C>, b: &Cluster<C>| -> Vec<ComponentDiff> {
        a.component_digests()
            .into_iter()
            .zip(b.component_digests())
            .filter(|((_, left), (_, right))| left != right)
            .map(|((component, left), (_, right))| ComponentDiff {
                component,
                left,
                right,
            })
            .collect()
    };
    if a.state_digest() != b.state_digest() {
        return Some(DivergenceReport {
            cycle: a.now(),
            components: diff(a, b),
        });
    }
    let mut remaining = max_cycles;
    while remaining > 0 {
        let chunk = stride.min(remaining);
        let snap_a = a.snapshot();
        let snap_b = b.snapshot();
        let base = a.now();
        a.step_cycles(chunk);
        b.step_cycles(chunk);
        if a.state_digest() == b.state_digest() {
            remaining -= chunk;
            continue;
        }
        // Diverged somewhere in (base, base + chunk]: bisect by restoring
        // to the last agreeing checkpoint and replaying partial windows.
        let (mut lo, mut hi) = (0u64, chunk);
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            a.restore(&snap_a).expect("snapshot of this very cluster");
            b.restore(&snap_b).expect("snapshot of this very cluster");
            a.step_cycles(mid);
            b.step_cycles(mid);
            if a.state_digest() == b.state_digest() {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        a.restore(&snap_a).expect("snapshot of this very cluster");
        b.restore(&snap_b).expect("snapshot of this very cluster");
        a.step_cycles(hi);
        b.step_cycles(hi);
        return Some(DivergenceReport {
            cycle: base + hi,
            components: diff(a, b),
        });
    }
    None
}
