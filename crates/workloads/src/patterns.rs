//! Generators for the paper's test patterns (§5) and NAS-flavored extras.

use crate::program::Program;
use crate::workload::Workload;
use pms_bitmat::BitMatrix;
use rand::prelude::*;
use rand::rngs::StdRng;

/// Geometry of a 2D processor mesh (torus wrap-around).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeshSpec {
    /// Mesh rows.
    pub rows: usize,
    /// Mesh columns.
    pub cols: usize,
}

impl MeshSpec {
    /// A mesh covering `n` processors, as square as possible.
    ///
    /// # Panics
    /// Panics if `n` has no factorization `rows * cols` with both > 1
    /// (i.e. `n` prime or < 4); [`try_for_ports`](Self::try_for_ports)
    /// reports that as an error instead.
    pub fn for_ports(n: usize) -> Self {
        Self::try_for_ports(n).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`for_ports`](Self::for_ports), or an error naming `n` when it
    /// has no 2D factorization.
    pub fn try_for_ports(n: usize) -> Result<Self, String> {
        let mut rows = (n as f64).sqrt() as usize;
        while rows > 1 && !n.is_multiple_of(rows) {
            rows -= 1;
        }
        if rows > 1 && n / rows > 1 {
            Ok(Self {
                rows,
                cols: n / rows,
            })
        } else {
            Err(format!("no 2D mesh for {n} processors"))
        }
    }

    /// Total processors.
    pub fn ports(&self) -> usize {
        self.rows * self.cols
    }

    /// The four torus neighbors of `p` in order East, West, South, North.
    pub fn neighbors(&self, p: usize) -> [usize; 4] {
        let (r, c) = (p / self.cols, p % self.cols);
        let east = r * self.cols + (c + 1) % self.cols;
        let west = r * self.cols + (c + self.cols - 1) % self.cols;
        let south = ((r + 1) % self.rows) * self.cols + c;
        let north = ((r + self.rows - 1) % self.rows) * self.cols + c;
        [east, west, south, north]
    }
}

/// Scatter (§5): "sends a unique message from a single processor to all
/// 128 processors". Processor 0 sends one `bytes`-byte message to every
/// other processor.
pub fn scatter(ports: usize, bytes: u32) -> Workload {
    assert!(ports >= 2, "scatter needs at least two processors");
    let mut programs = vec![Program::new(); ports];
    for dst in 1..ports {
        programs[0].send(dst, bytes);
    }
    // Preloadable as a stream: the root reaches one destination per
    // config, cycling 0->1, 0->2, ... (a crossbar config is a partial
    // permutation, so the fan-out cannot share one config).
    let stream: Vec<BitMatrix> = (1..ports)
        .map(|dst| BitMatrix::from_pairs(ports, ports, [(0, dst)]))
        .collect();
    Workload::new(format!("scatter/{bytes}B"), ports, programs).with_patterns(vec![stream])
}

/// Ordered Mesh (§5): nearest-neighbor exchange where every processor
/// sends to its four torus neighbors in the same global direction order,
/// so each wave is a full permutation — maximally predictable.
///
/// `compute_ns` models the computation between communication rounds
/// (stencil update); it is what gives the pattern *temporal* locality for
/// the predictor to exploit.
pub fn ordered_mesh(
    mesh: MeshSpec,
    bytes: u32,
    rounds: usize,
    compute_ns: u64,
    send_gap_ns: u64,
) -> Workload {
    let n = mesh.ports();
    let mut programs = vec![Program::new(); n];
    for _ in 0..rounds {
        for dir in 0..4 {
            for (p, prog) in programs.iter_mut().enumerate() {
                let dst = mesh.neighbors(p)[dir];
                prog.send(dst, bytes);
                if send_gap_ns > 0 {
                    prog.delay(send_gap_ns);
                }
            }
        }
        if compute_ns > 0 {
            for prog in programs.iter_mut() {
                prog.delay(compute_ns);
            }
        }
    }
    Workload::new(
        format!("ordered-mesh/{}x{}/{bytes}B", mesh.rows, mesh.cols),
        n,
        programs,
    )
}

/// Random Mesh (§5): the same four-neighbor working set "but without any
/// predictability" — each processor shuffles its direction order
/// independently every round. `compute_ns` is the per-round computation
/// time and `send_gap_ns` the per-message software/NIC overhead, as in
/// [`ordered_mesh`].
pub fn random_mesh(
    mesh: MeshSpec,
    bytes: u32,
    rounds: usize,
    compute_ns: u64,
    send_gap_ns: u64,
    seed: u64,
) -> Workload {
    let n = mesh.ports();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut programs = vec![Program::new(); n];
    for _ in 0..rounds {
        for (p, prog) in programs.iter_mut().enumerate() {
            let mut dirs = [0usize, 1, 2, 3];
            dirs.shuffle(&mut rng);
            for d in dirs {
                prog.send(mesh.neighbors(p)[d], bytes);
                if send_gap_ns > 0 {
                    prog.delay(send_gap_ns);
                }
            }
        }
        if compute_ns > 0 {
            for prog in programs.iter_mut() {
                prog.delay(compute_ns);
            }
        }
    }
    Workload::new(
        format!("random-mesh/{}x{}/{bytes}B", mesh.rows, mesh.cols),
        n,
        programs,
    )
}

/// Two Phase (§5): "one 128-processor all-to-all communication followed by
/// 16 random nearest neighbor communications", separated by a barrier.
/// `compute_ns` is the per-round computation time of the nearest-neighbor
/// phase.
pub fn two_phase(
    mesh: MeshSpec,
    bytes: u32,
    nn_rounds: usize,
    compute_ns: u64,
    send_gap_ns: u64,
    seed: u64,
) -> Workload {
    let n = mesh.ports();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut programs = vec![Program::new(); n];
    // Phase 1: staggered all-to-all (round r: p -> p + r + 1), so each wave
    // is a clean permutation.
    for r in 1..n {
        for (p, prog) in programs.iter_mut().enumerate() {
            prog.send((p + r) % n, bytes);
        }
    }
    for prog in &mut programs {
        prog.barrier();
    }
    // Phase 2: random nearest-neighbor rounds.
    for _ in 0..nn_rounds {
        for (p, prog) in programs.iter_mut().enumerate() {
            let d = rng.gen_range(0..4);
            prog.send(mesh.neighbors(p)[d], bytes);
            if send_gap_ns > 0 {
                prog.delay(send_gap_ns);
            }
        }
        if compute_ns > 0 {
            for prog in programs.iter_mut() {
                prog.delay(compute_ns);
            }
        }
    }
    Workload::new(
        format!("two-phase/{}x{}/{bytes}B", mesh.rows, mesh.cols),
        n,
        programs,
    )
}

/// Parameters of the [`hybrid`] determinism sweep (Figure 5).
#[derive(Debug, Clone, Copy)]
pub struct HybridSpec {
    /// Number of processors.
    pub ports: usize,
    /// Fraction of traffic to the static destinations (0.0 – 1.0).
    pub determinism: f64,
    /// Messages per processor.
    pub messages_per_proc: usize,
    /// Message size in bytes.
    pub bytes: u32,
    /// RNG seed.
    pub seed: u64,
}

/// Hybrid (§5, Figure 5): "a percentage of the communications are to
/// specific processors and the remaining are randomly sent to any
/// processor". Each processor owns two static destinations — the shift-by-1
/// and shift-by-`ports/2` permutations — so the static pattern occupies
/// exactly two preloadable configurations (the paper sweeps `k` preloaded
/// slots from 0 to 2).
pub fn hybrid(spec: HybridSpec) -> Workload {
    let n = spec.ports;
    assert!(n >= 4, "hybrid needs at least four processors");
    assert!(
        (0.0..=1.0).contains(&spec.determinism),
        "determinism must be a fraction"
    );
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut programs = vec![Program::new(); n];
    for (p, prog) in programs.iter_mut().enumerate() {
        let statics = [(p + 1) % n, (p + n / 2) % n];
        for m in 0..spec.messages_per_proc {
            if rng.gen_bool(spec.determinism) {
                prog.send(statics[m % 2], spec.bytes);
            } else {
                // Uniform random destination other than self.
                let mut dst = rng.gen_range(0..n - 1);
                if dst >= p {
                    dst += 1;
                }
                prog.send(dst, spec.bytes);
            }
        }
    }
    // The two static permutations, preloadable as patterns 0 and 1.
    let shift1 = BitMatrix::from_pairs(n, n, (0..n).map(|u| (u, (u + 1) % n)));
    let shift_half = BitMatrix::from_pairs(n, n, (0..n).map(|u| (u, (u + n / 2) % n)));
    Workload::new(
        format!("hybrid/d{:.2}/{}B", spec.determinism, spec.bytes),
        n,
        programs,
    )
    .with_patterns(vec![vec![shift1], vec![shift_half]])
}

/// Matrix-transpose exchange (NAS FT-like): processor `(r, c)` of an
/// `m x m` grid sends to `(c, r)`.
pub fn transpose(m: usize, bytes: u32, rounds: usize) -> Workload {
    let n = m * m;
    let mut programs = vec![Program::new(); n];
    for _ in 0..rounds {
        for (p, prog) in programs.iter_mut().enumerate() {
            let (r, c) = (p / m, p % m);
            let dst = c * m + r;
            if dst != p {
                prog.send(dst, bytes);
            }
        }
    }
    Workload::new(format!("transpose/{m}x{m}/{bytes}B"), n, programs)
}

/// Ring shift: processor `p` sends to `p+1 (mod n)` each round (NAS LU /
/// pipeline-like).
pub fn ring(ports: usize, bytes: u32, rounds: usize) -> Workload {
    assert!(ports >= 2, "ring needs at least two processors");
    let mut programs = vec![Program::new(); ports];
    for _ in 0..rounds {
        for (p, prog) in programs.iter_mut().enumerate() {
            prog.send((p + 1) % ports, bytes);
        }
    }
    Workload::new(format!("ring/{bytes}B"), ports, programs)
}

/// Gather: every processor sends one message to processor 0 (reduction
/// root). The pathological fan-in for a crossbar output.
pub fn gather(ports: usize, bytes: u32) -> Workload {
    assert!(ports >= 2, "gather needs at least two processors");
    let mut programs = vec![Program::new(); ports];
    for prog in programs.iter_mut().skip(1) {
        prog.send(0, bytes);
    }
    Workload::new(format!("gather/{bytes}B"), ports, programs)
}

/// 3D stencil (NAS MG-like): six-neighbor exchange on an
/// `x * y * z` torus.
pub fn stencil3d(x: usize, y: usize, z: usize, bytes: u32, rounds: usize) -> Workload {
    assert!(x > 1 && y > 1 && z > 1, "stencil needs a 3D grid");
    let n = x * y * z;
    let idx = |i: usize, j: usize, k: usize| (k * y + j) * x + i;
    let mut programs = vec![Program::new(); n];
    for _ in 0..rounds {
        for k in 0..z {
            for j in 0..y {
                for i in 0..x {
                    let p = idx(i, j, k);
                    let nbrs = [
                        idx((i + 1) % x, j, k),
                        idx((i + x - 1) % x, j, k),
                        idx(i, (j + 1) % y, k),
                        idx(i, (j + y - 1) % y, k),
                        idx(i, j, (k + 1) % z),
                        idx(i, j, (k + z - 1) % z),
                    ];
                    for d in nbrs {
                        if d != p {
                            programs[p].send(d, bytes);
                        }
                    }
                }
            }
        }
    }
    Workload::new(format!("stencil3d/{x}x{y}x{z}/{bytes}B"), n, programs)
}

/// Butterfly exchange (FFT / recursive-doubling allreduce): `log2 n`
/// rounds; in round `i` processor `p` exchanges with `p XOR 2^i`.
pub fn butterfly(ports: usize, bytes: u32) -> Workload {
    assert!(
        ports.is_power_of_two() && ports >= 2,
        "butterfly needs a power-of-two processor count"
    );
    let stages = ports.trailing_zeros();
    let mut programs = vec![Program::new(); ports];
    for i in 0..stages {
        for (p, prog) in programs.iter_mut().enumerate() {
            prog.send(p ^ (1 << i), bytes);
        }
    }
    Workload::new(format!("butterfly/{bytes}B"), ports, programs)
}

/// Hotspot traffic: a fraction of every processor's messages target one
/// hot processor, the rest go to uniformly random destinations. The
/// classic stress test for output-port contention in any switch.
pub fn hotspot(
    ports: usize,
    bytes: u32,
    messages_per_proc: usize,
    hot_fraction: f64,
    seed: u64,
) -> Workload {
    assert!(ports >= 3, "hotspot needs at least three processors");
    assert!(
        (0.0..=1.0).contains(&hot_fraction),
        "hot fraction must be a fraction"
    );
    let hot = 0usize;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut programs = vec![Program::new(); ports];
    for (p, prog) in programs.iter_mut().enumerate() {
        for _ in 0..messages_per_proc {
            let dst = if p != hot && rng.gen_bool(hot_fraction) {
                hot
            } else {
                // Uniform destination other than self (and other than the
                // hot node for the hot node itself).
                loop {
                    let d = rng.gen_range(0..ports);
                    if d != p {
                        break d;
                    }
                }
            };
            prog.send(dst, bytes);
        }
    }
    Workload::new(
        format!("hotspot/{hot_fraction:.2}/{bytes}B"),
        ports,
        programs,
    )
}

/// Uniform random traffic: every processor sends `messages_per_proc`
/// messages to uniformly random destinations.
pub fn uniform(ports: usize, bytes: u32, messages_per_proc: usize, seed: u64) -> Workload {
    assert!(ports >= 2, "uniform needs at least two processors");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut programs = vec![Program::new(); ports];
    for (p, prog) in programs.iter_mut().enumerate() {
        for _ in 0..messages_per_proc {
            let mut dst = rng.gen_range(0..ports - 1);
            if dst >= p {
                dst += 1;
            }
            prog.send(dst, bytes);
        }
    }
    Workload::new(format!("uniform/{bytes}B"), ports, programs)
}

/// Random-permutation traffic: each round draws a fresh random permutation
/// and every processor sends one message along it — conflict-free within a
/// round, unpredictable across rounds.
pub fn permutation(ports: usize, bytes: u32, rounds: usize, seed: u64) -> Workload {
    assert!(ports >= 2, "permutation needs at least two processors");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut programs = vec![Program::new(); ports];
    for _ in 0..rounds {
        // A random derangement-ish permutation: shuffle and rotate away
        // fixed points.
        let mut perm: Vec<usize> = (0..ports).collect();
        perm.shuffle(&mut rng);
        for p in 0..ports {
            if perm[p] == p {
                let q = (p + 1) % ports;
                perm.swap(p, q);
            }
        }
        for (p, prog) in programs.iter_mut().enumerate() {
            if perm[p] != p {
                prog.send(perm[p], bytes);
            }
        }
    }
    Workload::new(format!("permutation/{bytes}B"), ports, programs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_spec_factorizes() {
        let m = MeshSpec::for_ports(128);
        assert_eq!((m.rows, m.cols), (8, 16));
        assert_eq!(m.ports(), 128);
        let m = MeshSpec::for_ports(16);
        assert_eq!((m.rows, m.cols), (4, 4));
    }

    #[test]
    #[should_panic(expected = "no 2D mesh")]
    fn prime_ports_rejected() {
        MeshSpec::for_ports(13);
    }

    #[test]
    fn try_for_ports_reports_unfactorable_counts() {
        for n in [0, 1, 2, 3, 13] {
            assert_eq!(
                MeshSpec::try_for_ports(n),
                Err(format!("no 2D mesh for {n} processors"))
            );
        }
        assert_eq!(
            MeshSpec::try_for_ports(4),
            Ok(MeshSpec { rows: 2, cols: 2 })
        );
    }

    #[test]
    fn neighbors_wrap_torus() {
        let m = MeshSpec { rows: 4, cols: 4 };
        // Corner 0: east 1, west 3, south 4, north 12.
        assert_eq!(m.neighbors(0), [1, 3, 4, 12]);
        // All neighbor relations are symmetric under direction reversal.
        for p in 0..16 {
            let [e, w, s, n] = m.neighbors(p);
            assert_eq!(m.neighbors(e)[1], p);
            assert_eq!(m.neighbors(w)[0], p);
            assert_eq!(m.neighbors(s)[3], p);
            assert_eq!(m.neighbors(n)[2], p);
        }
    }

    #[test]
    fn scatter_shape() {
        let w = scatter(128, 64);
        assert_eq!(w.message_count(), 127);
        assert_eq!(w.sender_count(), 1);
        assert_eq!(w.total_bytes(), 127 * 64);
    }

    #[test]
    fn ordered_mesh_waves_are_permutations() {
        let w = ordered_mesh(MeshSpec { rows: 4, cols: 4 }, 8, 1, 0, 0);
        let table = w.message_table();
        assert_eq!(table.len(), 64);
        // Each wave of 16 messages (one per processor) is a permutation.
        for wave in table.chunks(16) {
            let mut dsts: Vec<usize> = wave.iter().map(|m| m.dst).collect();
            dsts.sort_unstable();
            dsts.dedup();
            assert_eq!(dsts.len(), 16, "wave must be a permutation");
        }
    }

    #[test]
    fn random_mesh_only_hits_neighbors_and_is_seeded() {
        let mesh = MeshSpec { rows: 4, cols: 4 };
        let w1 = random_mesh(mesh, 8, 3, 0, 0, 42);
        let w2 = random_mesh(mesh, 8, 3, 0, 0, 42);
        let w3 = random_mesh(mesh, 8, 3, 0, 0, 43);
        assert_eq!(w1.connection_trace(), w2.connection_trace());
        assert_ne!(w1.connection_trace(), w3.connection_trace());
        for m in w1.message_table() {
            assert!(mesh.neighbors(m.src).contains(&m.dst));
        }
        // Working set per processor is exactly the 4 neighbors.
        assert_eq!(w1.message_count(), 16 * 4 * 3);
    }

    #[test]
    fn two_phase_has_barrier_and_both_phases() {
        let mesh = MeshSpec { rows: 4, cols: 4 };
        let w = two_phase(mesh, 8, 4, 0, 0, 7);
        let n = 16;
        // All-to-all: n*(n-1) messages; NN: n*4.
        assert_eq!(w.message_count(), n * (n - 1) + n * 4);
        assert!(w
            .programs
            .iter()
            .all(|p| p.cmds.iter().any(|c| matches!(c, crate::Command::Barrier))));
    }

    #[test]
    fn hybrid_respects_determinism_extremes() {
        let w = hybrid(HybridSpec {
            ports: 16,
            determinism: 1.0,
            messages_per_proc: 10,
            bytes: 64,
            seed: 1,
        });
        for m in w.message_table() {
            let statics = [(m.src + 1) % 16, (m.src + 8) % 16];
            assert!(statics.contains(&m.dst), "d=1.0 must only hit statics");
        }
        assert_eq!(w.patterns.len(), 2, "two preloadable static permutations");
        let w0 = hybrid(HybridSpec {
            ports: 16,
            determinism: 0.0,
            messages_per_proc: 200,
            bytes: 64,
            seed: 1,
        });
        // With d=0 destinations are uniform: expect more than 2 distinct
        // destinations per source.
        let mut dsts0: Vec<usize> = w0
            .message_table()
            .iter()
            .filter(|m| m.src == 0)
            .map(|m| m.dst)
            .collect();
        dsts0.sort_unstable();
        dsts0.dedup();
        assert!(dsts0.len() > 4);
    }

    #[test]
    fn transpose_is_self_inverse_permutation() {
        let w = transpose(4, 8, 1);
        for m in w.message_table() {
            let (r, c) = (m.src / 4, m.src % 4);
            assert_eq!(m.dst, c * 4 + r);
        }
        // Diagonal processors don't send.
        assert_eq!(w.message_count(), 16 - 4);
    }

    #[test]
    fn butterfly_stages() {
        let w = butterfly(8, 8);
        assert_eq!(w.message_count(), 8 * 3);
        for m in w.message_table() {
            assert!((m.src ^ m.dst).is_power_of_two());
        }
    }

    #[test]
    fn gather_fans_in() {
        let w = gather(8, 16);
        assert_eq!(w.message_count(), 7);
        assert!(w.message_table().iter().all(|m| m.dst == 0));
    }

    #[test]
    fn stencil3d_six_neighbors() {
        let w = stencil3d(2, 2, 2, 8, 1);
        // 8 procs x 6 dirs, but in a 2-torus opposite dirs coincide -> the
        // duplicate destination still counts as a send (6 sends, 3 distinct
        // dsts). Self-sends are skipped (none in 2x2x2: p XOR dims...).
        assert_eq!(w.ports, 8);
        assert!(w.message_count() > 0);
        for m in w.message_table() {
            assert_ne!(m.src, m.dst);
        }
    }

    #[test]
    fn hotspot_concentrates_on_node_zero() {
        let w = hotspot(16, 64, 50, 0.8, 9);
        let to_hot = w.message_table().iter().filter(|m| m.dst == 0).count();
        let total = w.message_count();
        // ~75% of non-hot-node traffic goes to node 0.
        assert!(to_hot * 10 > total * 5, "{to_hot}/{total} to hot node");
        let w0 = hotspot(16, 64, 50, 0.0, 9);
        let to_hot0 = w0.message_table().iter().filter(|m| m.dst == 0).count();
        assert!(to_hot0 * 10 < total * 2, "no concentration at fraction 0");
    }

    #[test]
    fn uniform_never_self_sends_and_is_seeded() {
        let w = uniform(16, 32, 20, 3);
        for m in w.message_table() {
            assert_ne!(m.src, m.dst);
        }
        assert_eq!(
            uniform(16, 32, 20, 3).connection_trace(),
            w.connection_trace()
        );
        assert_ne!(
            uniform(16, 32, 20, 4).connection_trace(),
            w.connection_trace()
        );
    }

    #[test]
    fn permutation_rounds_are_conflict_free() {
        let w = permutation(16, 64, 5, 11);
        let table = w.message_table();
        // Each round's messages form a partial permutation (distinct
        // sources, distinct destinations).
        for round in table.chunks(16) {
            let mut dsts: Vec<usize> = round.iter().map(|m| m.dst).collect();
            let len = dsts.len();
            dsts.sort_unstable();
            dsts.dedup();
            assert_eq!(dsts.len(), len, "duplicate destination within a round");
        }
    }

    #[test]
    fn ring_rounds() {
        let w = ring(8, 32, 5);
        assert_eq!(w.message_count(), 40);
        for m in w.message_table() {
            assert_eq!(m.dst, (m.src + 1) % 8);
        }
    }
}
