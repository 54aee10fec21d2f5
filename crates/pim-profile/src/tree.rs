//! The attribution tree: per-component accumulation of probe samples.

use rm_core::{EnergyBreakdown, OpCounters, ProbeSample};
use std::collections::BTreeMap;

/// Accumulated attribution of one component (or of the whole run).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NodeStats {
    /// Operation counters attributed to the component.
    pub ops: OpCounters,
    /// Energy attributed to the component, picojoules.
    pub energy: EnergyBreakdown,
    /// Busy time (occupancy) attributed to the component, nanoseconds.
    pub busy_ns: f64,
    /// Number of samples merged in.
    pub records: u64,
}

impl NodeStats {
    /// Folds one sample in.
    pub fn absorb(&mut self, sample: &ProbeSample) {
        self.ops += sample.ops;
        self.energy += sample.energy;
        self.busy_ns += sample.busy_ns;
        self.records += 1;
    }

    /// Folds another node's accumulation in.
    pub fn merge(&mut self, other: &NodeStats) {
        self.ops += other.ops;
        self.energy += other.energy;
        self.busy_ns += other.busy_ns;
        self.records += other.records;
    }
}

/// Hierarchical attribution keyed by `/`-separated component path.
///
/// Storage is flat — a sorted map from full path to *exclusive*
/// [`NodeStats`] — so the hierarchy is purely a property of the keys;
/// [`AttributionTree::inclusive`] rolls a subtree up on demand. Alongside
/// the map the tree keeps a running [`AttributionTree::total`] that absorbs
/// every sample in arrival order. Because the simulator's emission sites
/// record exactly the values they add to the global accumulators, in the
/// same order, the total is **bit-identical** to the global
/// `OpCounters`/`EnergyBreakdown` of the run — while the per-path exclusive
/// sums equal the total exactly for (integer) counters and up to float
/// re-association for energy.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AttributionTree {
    nodes: BTreeMap<String, NodeStats>,
    total: NodeStats,
}

impl AttributionTree {
    /// An empty tree.
    pub fn new() -> Self {
        AttributionTree::default()
    }

    /// Records `sample` against the component at `path`.
    pub fn record(&mut self, path: &str, sample: &ProbeSample) {
        self.total.absorb(sample);
        // Look up before inserting: only a path's first sample allocates
        // its key.
        match self.nodes.get_mut(path) {
            Some(node) => node.absorb(sample),
            None => self
                .nodes
                .entry(path.to_string())
                .or_default()
                .absorb(sample),
        }
    }

    /// The arrival-ordered grand total over every recorded sample.
    pub fn total(&self) -> &NodeStats {
        &self.total
    }

    /// The exclusive accumulation of the component at exactly `path`.
    pub fn node(&self, path: &str) -> Option<&NodeStats> {
        self.nodes.get(path)
    }

    /// Iterates `(path, exclusive stats)` in lexicographic path order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &NodeStats)> {
        self.nodes.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of distinct component paths.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Inclusive rollup of the subtree rooted at `prefix`: the node itself
    /// plus every node whose path extends it with `/`.
    pub fn inclusive(&self, prefix: &str) -> NodeStats {
        let mut acc = NodeStats::default();
        for (path, stats) in self.nodes.range(prefix.to_string()..) {
            if !path.starts_with(prefix) {
                break;
            }
            // Skip siblings that share the prefix without the `/` boundary
            // (e.g. `busx` under prefix `bus`).
            if path == prefix || path.as_bytes().get(prefix.len()) == Some(&b'/') {
                acc.merge(stats);
            }
        }
        acc
    }

    /// Sum of every node's exclusive stats, in path order.
    ///
    /// Counter fields equal [`AttributionTree::total`] exactly; float fields
    /// agree up to re-association (the total adds in arrival order, this sum
    /// in path order).
    pub fn exclusive_sum(&self) -> NodeStats {
        let mut acc = NodeStats::default();
        for stats in self.nodes.values() {
            acc.merge(stats);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(ns: f64) -> ProbeSample {
        ProbeSample::busy(ns)
    }

    #[test]
    fn record_accumulates_per_path_and_total() {
        let mut t = AttributionTree::new();
        t.record("device/subarray[0]", &busy(10.0));
        t.record("device/subarray[0]", &busy(5.0));
        t.record("device/subarray[1]", &busy(1.0));
        assert_eq!(t.len(), 2);
        assert_eq!(t.node("device/subarray[0]").unwrap().busy_ns, 15.0);
        assert_eq!(t.node("device/subarray[0]").unwrap().records, 2);
        assert_eq!(t.total().busy_ns, 16.0);
        assert_eq!(t.total().records, 3);
    }

    /// Every field of a node, floats as raw bits.
    fn bits(n: &NodeStats) -> (OpCounters, [u64; 6], u64) {
        let e = &n.energy;
        let floats = [
            e.read_pj,
            e.write_pj,
            e.shift_pj,
            e.compute_pj,
            e.other_pj,
            n.busy_ns,
        ];
        (n.ops, floats.map(f64::to_bits), n.records)
    }

    #[test]
    fn repeated_paths_match_an_insert_per_sample_fold() {
        // Reference: the plain fold that builds a key for every sample.
        let paths = [
            "device/subarray[3]",
            "bus/lane[0]",
            "device/subarray[3]",
            "device/controller",
            "bus/lane[0]",
            "device/subarray[10]",
        ];
        let mut tree = AttributionTree::new();
        let mut reference: BTreeMap<String, NodeStats> = BTreeMap::new();
        let mut total = NodeStats::default();
        for (i, path) in paths.iter().cycle().take(60).enumerate() {
            let i = i as u64;
            let sample = ProbeSample {
                ops: OpCounters {
                    reads: i,
                    shifts: 3 * i + 1,
                    ..OpCounters::default()
                },
                energy: EnergyBreakdown {
                    shift_pj: 0.1 * i as f64,
                    other_pj: 1.0 / (i + 3) as f64,
                    ..EnergyBreakdown::default()
                },
                busy_ns: 1.0 / (i + 1) as f64,
            };
            tree.record(path, &sample);
            reference
                .entry(path.to_string())
                .or_default()
                .absorb(&sample);
            total.absorb(&sample);
        }
        assert_eq!(tree.len(), reference.len());
        assert_eq!(tree.len(), 4);
        assert_eq!(bits(tree.total()), bits(&total));
        let got: Vec<_> = tree.iter().map(|(p, n)| (p.to_string(), bits(n))).collect();
        let want: Vec<_> = reference
            .iter()
            .map(|(p, n)| (p.clone(), bits(n)))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn inclusive_rolls_up_strict_subtrees_only() {
        let mut t = AttributionTree::new();
        t.record("device", &busy(1.0));
        t.record("device/subarray[0]", &busy(2.0));
        t.record("device/subarray[0]/mat[1]", &busy(4.0));
        t.record("devices", &busy(100.0)); // sibling, not a child
        assert_eq!(t.inclusive("device").busy_ns, 7.0);
        assert_eq!(t.inclusive("device/subarray[0]").busy_ns, 6.0);
        assert_eq!(t.inclusive("device/subarray[0]/mat[1]").busy_ns, 4.0);
        assert_eq!(t.inclusive("missing").records, 0);
    }

    #[test]
    fn exclusive_sum_matches_total_counters() {
        let mut t = AttributionTree::new();
        for i in 0..10 {
            t.record(
                &format!("bus/lane[{}]", i % 3),
                &ProbeSample::ops(OpCounters {
                    shifts: i,
                    ..OpCounters::default()
                }),
            );
        }
        assert_eq!(t.exclusive_sum().ops, t.total().ops);
        assert_eq!(t.exclusive_sum().records, t.total().records);
    }
}
