//! The benchmark's own inputs, built from the command-line seed.
//!
//! The program under test receives only `Dag`s, machines and wire payloads;
//! nothing here calls `dag_gen`, so a change to the program's generators or
//! their random streams leaves every workload unchanged.
//!
//! * Fine-grained DAGs (`spmv`, `exp`, `cg`) follow the paper's scalar data
//!   flow over a random sparse pattern that has the diagonal plus `extra`
//!   distinct off-diagonal columns per row, drawn in `O(nnz)`.
//! * Coarse-grained DAGs (`pagerank`, `bicgstab`) are the fixed GraphBLAS
//!   shapes of the paper's Appendix B.1: one node per matrix or vector
//!   operation, independent of the seed.
//!
//! Weights follow the paper in both cases: `w(v) = max(1, indeg(v) − 1)` and
//! `c(v) = 1`.

use bsp_model::{Dag, Machine};

/// SplitMix64: small, fast, and fixed here so the inputs never drift with a
/// dependency's random stream.
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `(seed, label)`.
    pub fn derive(seed: u64, label: &str) -> Self {
        let mut h = Fnv::new();
        h.u64(seed);
        h.bytes(label.as_bytes());
        Rng(h.finish())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// 64-bit FNV-1a, used for the input digest and stream derivation.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Folds a DAG's structure and weights into `h`.
pub fn digest_dag(h: &mut Fnv, dag: &Dag) {
    h.u64(dag.n() as u64);
    h.u64(dag.num_edges() as u64);
    for (u, v) in dag.edges() {
        h.u64(u as u64);
        h.u64(v as u64);
    }
    for v in 0..dag.n() {
        h.u64(dag.work(v));
        h.u64(dag.comm(v));
    }
}

/// Folds a machine's parameters and λ matrix into `h`.
pub fn digest_machine(h: &mut Fnv, machine: &Machine) {
    h.u64(machine.p() as u64);
    h.u64(machine.g());
    h.u64(machine.latency());
    for a in 0..machine.p() {
        for b in 0..machine.p() {
            h.u64(machine.lambda(a, b));
        }
    }
}

/// The three machine classes every workload draws from.
pub fn machines() -> Vec<(&'static str, Machine)> {
    vec![
        ("uniform", Machine::uniform(8, 1, 5)),
        ("commheavy", Machine::uniform(8, 10, 20)),
        ("numa", Machine::numa_binary_tree(8, 1, 5, 3)),
    ]
}

/// Collects edges node by node and applies the paper's weights.
struct Builder {
    edges: Vec<(usize, usize)>,
    n: usize,
}

impl Builder {
    fn new() -> Self {
        Builder {
            edges: Vec::new(),
            n: 0,
        }
    }

    fn node(&mut self, preds: &[usize]) -> usize {
        let id = self.n;
        self.n += 1;
        let start = self.edges.len();
        for &p in preds {
            // An operand listed twice (`r·r`) is one dependency.
            if !self.edges[start..].contains(&(p, id)) {
                self.edges.push((p, id));
            }
        }
        id
    }

    fn nodes(&mut self, count: usize) -> Vec<usize> {
        (0..count).map(|_| self.node(&[])).collect()
    }

    fn finish(self) -> Dag {
        let mut indeg = vec![0u64; self.n];
        for &(_, v) in &self.edges {
            indeg[v] += 1;
        }
        let work = indeg.iter().map(|&d| d.saturating_sub(1).max(1)).collect();
        Dag::from_edges(self.n, &self.edges, work, vec![1; self.n])
            .expect("generated graphs are acyclic by construction")
    }
}

/// Row `i` holds `i` and `extra` distinct other columns.
fn sparse_rows(n: usize, extra: usize, rng: &mut Rng) -> Vec<Vec<usize>> {
    let extra = extra.min(n.saturating_sub(1));
    (0..n)
        .map(|i| {
            let mut row = vec![i];
            while row.len() < extra + 1 {
                let j = rng.below(n as u64) as usize;
                if !row.contains(&j) {
                    row.push(j);
                }
            }
            row.sort_unstable();
            row
        })
        .collect()
}

/// Matrix-entry source nodes, one per nonzero, in row order.
fn matrix_nodes(b: &mut Builder, rows: &[Vec<usize>]) -> Vec<Vec<usize>> {
    rows.iter().map(|row| b.nodes(row.len())).collect()
}

/// `y = A·x` at scalar granularity: one product per nonzero, one reduction
/// per row.
fn spmv_layer(b: &mut Builder, rows: &[Vec<usize>], a: &[Vec<usize>], x: &[usize]) -> Vec<usize> {
    rows.iter()
        .zip(a)
        .map(|(row, a_row)| {
            let products: Vec<usize> = row
                .iter()
                .zip(a_row)
                .map(|(&j, &a_ij)| b.node(&[a_ij, x[j]]))
                .collect();
            b.node(&products)
        })
        .collect()
}

/// One sparse matrix–vector product.
pub fn spmv(n: usize, extra: usize, rng: &mut Rng) -> Dag {
    let rows = sparse_rows(n, extra, rng);
    let mut b = Builder::new();
    let x = b.nodes(n);
    let a = matrix_nodes(&mut b, &rows);
    spmv_layer(&mut b, &rows, &a, &x);
    b.finish()
}

/// `A^k · x`: `k` chained products sharing the matrix entries.
pub fn exp(n: usize, extra: usize, k: usize, rng: &mut Rng) -> Dag {
    let rows = sparse_rows(n, extra, rng);
    let mut b = Builder::new();
    let mut x = b.nodes(n);
    let a = matrix_nodes(&mut b, &rows);
    for _ in 0..k {
        x = spmv_layer(&mut b, &rows, &a, &x);
    }
    b.finish()
}

/// `k` conjugate-gradient iterations at scalar granularity.
pub fn cg(n: usize, extra: usize, k: usize, rng: &mut Rng) -> Dag {
    let rows = sparse_rows(n, extra, rng);
    let mut b = Builder::new();
    let mut x = b.nodes(n);
    let mut r = b.nodes(n);
    let mut p = b.nodes(n);
    let a = matrix_nodes(&mut b, &rows);
    let mut rr = b.node(&r);
    for _ in 0..k {
        let q = spmv_layer(&mut b, &rows, &a, &p);
        let pq_in: Vec<usize> = p.iter().chain(&q).copied().collect();
        let pq = b.node(&pq_in);
        let alpha = b.node(&[rr, pq]);
        let x_new: Vec<usize> = (0..n).map(|i| b.node(&[x[i], p[i], alpha])).collect();
        let r_new: Vec<usize> = (0..n).map(|i| b.node(&[r[i], q[i], alpha])).collect();
        let rr_new = b.node(&r_new);
        let beta = b.node(&[rr_new, rr]);
        p = (0..n).map(|i| b.node(&[r_new[i], p[i], beta])).collect();
        x = x_new;
        r = r_new;
        rr = rr_new;
    }
    b.finish()
}

/// The PageRank power iteration, one node per GraphBLAS operation.
pub fn pagerank(iterations: usize) -> Dag {
    let mut b = Builder::new();
    let a = b.node(&[]);
    let teleport = b.node(&[]);
    let mut rank = b.node(&[]);
    for _ in 0..iterations {
        let spread = b.node(&[a, rank]);
        let damped = b.node(&[spread]);
        let summed = b.node(&[damped, teleport]);
        let norm = b.node(&[summed]);
        let scaled = b.node(&[summed, norm]);
        b.node(&[scaled, rank]); // convergence check
        rank = scaled;
    }
    b.finish()
}

/// A BiCGStab solver, one node per GraphBLAS operation.
pub fn bicgstab(iterations: usize) -> Dag {
    let mut b = Builder::new();
    let a = b.node(&[]);
    let rhs = b.node(&[]);
    let mut x = b.node(&[]);
    let ax = b.node(&[a, x]);
    let mut r = b.node(&[rhs, ax]);
    let r0 = b.node(&[r]);
    let mut p = b.node(&[r]);
    let mut rho = b.node(&[r0, r]);
    for _ in 0..iterations {
        let v = b.node(&[a, p]);
        let r0v = b.node(&[r0, v]);
        let alpha = b.node(&[rho, r0v]);
        let s = b.node(&[r, v, alpha]);
        let t = b.node(&[a, s]);
        let ts = b.node(&[t, s]);
        let tt = b.node(&[t, t]);
        let omega = b.node(&[ts, tt]);
        x = b.node(&[x, p, s, alpha, omega]);
        r = b.node(&[s, t, omega]);
        let rho_new = b.node(&[r0, r]);
        let beta = b.node(&[rho_new, rho, alpha, omega]);
        p = b.node(&[r, p, v, beta, omega]);
        rho = rho_new;
    }
    b.finish()
}

/// Fine-grained DAG of the given kind with roughly `target` nodes.  The
/// sizes below solve `nodes(n) ≈ target` for three off-diagonal entries per
/// row (`nnz = 4n`).
pub fn fine(kind: &str, target: usize, rng: &mut Rng) -> Dag {
    const EXTRA: usize = 3;
    match kind {
        // n inputs + nnz entries + nnz products + n sums = 10n.
        "spmv" => spmv(target / 10, EXTRA, rng),
        // n + nnz + 3·(nnz + n) = 20n.
        "exp" => exp(target / 20, EXTRA, 3, rng),
        // 3n + nnz + 2·(nnz + 4n) ≈ 23n.
        "cg" => cg(target / 23, EXTRA, 2, rng),
        _ => unreachable!("unknown fine-grained kind {kind}"),
    }
}

/// A re-weighted copy of `dag`: same structure (so the same structural
/// cache family), every work weight raised by 1–3.
pub fn reweight(dag: &Dag, rng: &mut Rng) -> Dag {
    let edges: Vec<(usize, usize)> = dag.edges().collect();
    let work = (0..dag.n())
        .map(|v| dag.work(v) + 1 + rng.below(3))
        .collect();
    Dag::from_edges(dag.n(), &edges, work, dag.comm_weights().to_vec())
        .expect("re-weighting keeps the DAG acyclic")
}
