//! The stage graph: a pipeline of crossbar stages joined by inter-stage
//! link maps.
//!
//! A [`StageGraph`] gives every multistage fabric one common resource
//! model: `S` switching stages separated by `S + 1` *layers* of
//! lines. Layer `0` is the input ports, layer `S` the output ports, and
//! the inner layers are the fabric's internal lines. Stage `s` is a
//! crossbar over lines whose connectivity is restricted by a *reach
//! matrix* — `reach[s][a][b] = 1` iff some switching element of stage `s`
//! can connect line `a` of layer `s` to line `b` of layer `s + 1`. A
//! connection occupies exactly one line per layer, so a set of
//! connections is realizable iff each can be threaded through the graph
//! without sharing a line — which is precisely the per-stage
//! partial-permutation constraint the scheduler already enforces on the
//! single crossbar.
//!
//! All layers share one padded width `W` (the largest layer); lines past
//! a layer's real population simply have empty reach rows/columns.

use pms_bitmat::BitMatrix;

/// A directed graph of crossbar stages with inter-stage link maps.
#[derive(Debug, Clone)]
pub struct StageGraph {
    ports: usize,
    width: usize,
    reach: Vec<BitMatrix>,
    name: String,
}

impl StageGraph {
    /// Builds a stage graph from explicit reach matrices.
    ///
    /// # Panics
    /// Panics if `reach` is empty, any matrix is not `width x width`, or
    /// `ports > width`.
    pub fn new(ports: usize, width: usize, reach: Vec<BitMatrix>, name: impl Into<String>) -> Self {
        assert!(ports > 0, "stage graph needs at least one port");
        assert!(ports <= width, "layer width must cover the ports");
        assert!(!reach.is_empty(), "stage graph needs at least one stage");
        for (s, m) in reach.iter().enumerate() {
            assert_eq!(
                (m.rows(), m.cols()),
                (width, width),
                "stage {s} reach matrix is not {width}x{width}"
            );
        }
        Self {
            ports,
            width,
            reach,
            name: name.into(),
        }
    }

    /// Number of external ports `N` (layer 0 and the last layer).
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// Padded line count shared by every layer.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of switching stages `S`.
    pub fn num_stages(&self) -> usize {
        self.reach.len()
    }

    /// The reach matrix of stage `s`.
    pub fn reach(&self, s: usize) -> &BitMatrix {
        &self.reach[s]
    }

    /// Topology label for reports.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The degenerate one-stage graph: a full `n x n` crossbar. Any
    /// partial permutation threads through it, so per-stage scheduling on
    /// this graph must agree exactly with the plain scheduler.
    pub fn crossbar(n: usize) -> Self {
        let mut full = BitMatrix::square(n);
        for u in 0..n {
            for v in 0..n {
                full.set(u, v, true);
            }
        }
        Self::new(n, n, vec![full], "crossbar")
    }

    /// An `N = 2^k` Omega network: `k` identical stages of 2x2 elements
    /// joined by perfect shuffles. From line `a`, stage `s` reaches lines
    /// `2a mod N` and `(2a + 1) mod N` — the shuffle rotates the address
    /// left and the element forces the low bit, so the unique `u -> v`
    /// path is destination-tag routing: after stage `i` the line is `u`'s
    /// address shifted left by `i + 1` with `v`'s top `i + 1` bits
    /// shifted in.
    ///
    /// # Panics
    /// Panics unless `n` is a power of two and at least 2.
    pub fn omega(n: usize) -> Self {
        assert!(
            n.is_power_of_two() && n >= 2,
            "omega stage graph needs a power-of-two port count >= 2, got {n}"
        );
        let k = n.trailing_zeros() as usize;
        let mut stage = BitMatrix::square(n);
        for a in 0..n {
            stage.set(a, (2 * a) % n, true);
            stage.set(a, (2 * a + 1) % n, true);
        }
        Self::new(n, n, vec![stage; k], "omega")
    }

    /// An `N = 2^k` butterfly: stage `s` lets a line keep its index or
    /// flip address bit `k - 1 - s` (straight or cross through a 2x2
    /// element). Like the Omega network it has a unique path per pair,
    /// but the inter-stage wiring differs, so a different set of
    /// permutations blocks.
    ///
    /// # Panics
    /// Panics unless `n` is a power of two and at least 2.
    pub fn butterfly(n: usize) -> Self {
        assert!(
            n.is_power_of_two() && n >= 2,
            "butterfly stage graph needs a power-of-two port count >= 2, got {n}"
        );
        let k = n.trailing_zeros() as usize;
        let reach = (0..k)
            .map(|s| {
                let bit = 1usize << (k - 1 - s);
                let mut stage = BitMatrix::square(n);
                for a in 0..n {
                    stage.set(a, a, true);
                    stage.set(a, a ^ bit, true);
                }
                stage
            })
            .collect();
        Self::new(n, n, reach, "butterfly")
    }

    /// A two-level folded Clos over `n` hosts: leaves of `arity` ports,
    /// `uplinks` up-links per leaf, and a consolidated non-blocking spine
    /// (any up-link reaches any down-link). Three stages:
    ///
    /// * stage 0 (leaf, upward): host `u` enters either the *local* line
    ///   of a destination in its own leaf, or one of its leaf's up-links;
    /// * stage 1 (spine): local lines pass straight through; up-links
    ///   connect to down-links of any leaf;
    /// * stage 2 (leaf, downward): the local line of `v` and every
    ///   down-link of `v`'s leaf exit at host `v`.
    ///
    /// Inner layers use lines `0..n` for per-destination local traffic
    /// and lines `n..n + leaves * uplinks` for up-links (layer 1) /
    /// down-links (layer 2). Because up-links of a leaf are
    /// interchangeable, greedy per-connection routing on this graph
    /// admits a partial permutation iff no leaf sources or sinks more
    /// cross-leaf connections than it has up-links: each cross-leaf
    /// connection needs one free up-link at the source leaf and one free
    /// down-link at the destination leaf, and intra-leaf traffic rides its
    /// free local line.
    ///
    /// # Panics
    /// Panics unless `arity` divides `n` and `uplinks >= 1`.
    pub fn fat_tree(n: usize, arity: usize, uplinks: usize) -> Self {
        assert!(arity >= 1 && n >= arity, "bad fat-tree geometry");
        assert!(
            n.is_multiple_of(arity),
            "arity {arity} must divide port count {n}"
        );
        assert!(uplinks >= 1, "need at least one up-link per leaf");
        let leaves = n / arity;
        let width = n + leaves * uplinks;
        let leaf_of = |p: usize| p / arity;
        let trunk = |leaf: usize, j: usize| n + leaf * uplinks + j;

        // Stage 0: host -> same-leaf local line, or own leaf's up-links.
        let mut up = BitMatrix::new(width, width);
        for u in 0..n {
            let l = leaf_of(u);
            for v in 0..n {
                if leaf_of(v) == l {
                    up.set(u, v, true);
                }
            }
            for j in 0..uplinks {
                up.set(u, trunk(l, j), true);
            }
        }
        // Stage 1: local pass-through wires + the spine crossbar.
        let mut spine = BitMatrix::new(width, width);
        for v in 0..n {
            spine.set(v, v, true);
        }
        for i in n..width {
            for j in n..width {
                spine.set(i, j, true);
            }
        }
        // Stage 2: local line v and the leaf's down-links exit at host v.
        let mut down = BitMatrix::new(width, width);
        for v in 0..n {
            down.set(v, v, true);
            let l = leaf_of(v);
            for j in 0..uplinks {
                down.set(trunk(l, j), v, true);
            }
        }
        Self::new(n, width, vec![up, spine, down], "fat-tree")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossbar_is_one_full_stage() {
        let g = StageGraph::crossbar(8);
        assert_eq!(g.num_stages(), 1);
        assert_eq!(g.width(), 8);
        assert_eq!(g.reach(0).count_ones(), 64);
    }

    #[test]
    fn omega_reach_carries_destination_tag_paths() {
        // Every line a destination-tag path occupies is reachable from its
        // predecessor in the stage graph.
        let n = 16;
        let k = 4;
        let g = StageGraph::omega(n);
        assert_eq!(g.num_stages(), k);
        for u in 0..n {
            for v in 0..n {
                let mut line = u;
                for s in 0..k {
                    let next = ((line << 1) | ((v >> (k - 1 - s)) & 1)) & (n - 1);
                    assert!(
                        g.reach(s).get(line, next),
                        "({u}->{v}) stage {s}: {line} -> {next} missing"
                    );
                    line = next;
                }
                assert_eq!(line, v);
            }
        }
    }

    #[test]
    fn omega_stage_rows_have_two_candidates() {
        let g = StageGraph::omega(8);
        for s in 0..g.num_stages() {
            for a in 0..8 {
                assert_eq!(g.reach(s).iter_row_ones(a).count(), 2);
            }
        }
    }

    #[test]
    fn butterfly_straight_and_cross() {
        let g = StageGraph::butterfly(8);
        assert_eq!(g.num_stages(), 3);
        // Stage 0 flips the high bit (4), stage 2 the low bit (1).
        assert!(g.reach(0).get(0, 0) && g.reach(0).get(0, 4));
        assert!(g.reach(2).get(0, 0) && g.reach(2).get(0, 1));
        assert!(!g.reach(0).get(0, 1));
    }

    #[test]
    fn fat_tree_width_and_stage_structure() {
        // 16 hosts, arity 4, 2 up-links per leaf: 4 leaves, width 24.
        let g = StageGraph::fat_tree(16, 4, 2);
        assert_eq!(g.num_stages(), 3);
        assert_eq!(g.width(), 16 + 4 * 2);
        // Host 0 reaches its 4 leaf-local lines and 2 up-links.
        assert_eq!(g.reach(0).iter_row_ones(0).count(), 4 + 2);
        // An up-link reaches every down-link but no local line.
        assert_eq!(g.reach(1).iter_row_ones(16).count(), 8);
        assert!(g.reach(1).get(16, 16) && !g.reach(1).get(16, 0));
        // Host 5's exits: its local line plus leaf 1's down-links.
        assert_eq!(
            (0..g.width()).filter(|&a| g.reach(2).get(a, 5)).count(),
            1 + 2
        );
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn omega_rejects_non_power_of_two() {
        StageGraph::omega(6);
    }
}
