//! The thread-safe [`Probe`] implementation backing the profiler.

use crate::tree::AttributionTree;
use rm_core::{Probe, ProbeSample};
use std::sync::Mutex;

/// A [`Probe`] that accumulates every sample into an [`AttributionTree`].
///
/// Wrap it in an `Arc` and hand clones to the simulation layers; when the
/// run completes, [`AttributionProbe::snapshot`] (or
/// [`AttributionProbe::into_tree`]) yields the tree for export.
#[derive(Debug, Default)]
pub struct AttributionProbe {
    tree: Mutex<AttributionTree>,
}

impl AttributionProbe {
    /// An empty, enabled probe.
    pub fn new() -> Self {
        AttributionProbe::default()
    }

    /// A copy of the accumulated tree.
    ///
    /// # Panics
    ///
    /// Panics if a recording thread panicked while holding the lock.
    pub fn snapshot(&self) -> AttributionTree {
        self.tree.lock().unwrap().clone()
    }

    /// Runs `f` on the accumulated tree in place, without copying it.
    /// Recording blocks while `f` runs.
    ///
    /// # Panics
    ///
    /// Panics if a recording thread panicked while holding the lock.
    pub fn with_tree<R>(&self, f: impl FnOnce(&AttributionTree) -> R) -> R {
        f(&self.tree.lock().unwrap())
    }

    /// Consumes the probe, returning the accumulated tree.
    ///
    /// # Panics
    ///
    /// Panics if a recording thread panicked while holding the lock.
    pub fn into_tree(self) -> AttributionTree {
        self.tree.into_inner().unwrap()
    }
}

impl Probe for AttributionProbe {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, path: &str, sample: ProbeSample) {
        self.tree.lock().unwrap().record(path, &sample);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn concurrent_records_all_land() {
        let probe = Arc::new(AttributionProbe::new());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let p = Arc::clone(&probe);
                thread::spawn(move || {
                    for _ in 0..100 {
                        p.record(&format!("host/worker[{t}]"), ProbeSample::busy(1.0));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let tree = probe.snapshot();
        assert_eq!(tree.total().records, 400);
        assert_eq!(tree.total().busy_ns, 400.0);
        assert_eq!(tree.len(), 4);
    }

    #[test]
    fn into_tree_returns_accumulation() {
        let probe = AttributionProbe::new();
        probe.record("proc/multiplier", ProbeSample::busy(2.0));
        assert_eq!(probe.with_tree(|t| t.len()), 1);
        let tree = probe.into_tree();
        assert_eq!(tree.node("proc/multiplier").unwrap().busy_ns, 2.0);
    }
}
