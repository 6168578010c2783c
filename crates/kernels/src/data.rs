//! Deterministic workload generators.
//!
//! All generators are seeded so traces (and therefore simulations) are
//! bit-reproducible across runs — a requirement for regression-testing
//! the reproduction figures. The generators use a self-contained
//! SplitMix64 PRNG so the crate builds with no external dependencies.

/// The fixed seed used by every generator (deterministic reproduction).
const SEED: u64 = 0x4d6f_7361_6963; // "Mosaic"

/// A small deterministic PRNG (SplitMix64, Steele et al. 2014).
///
/// Statistical quality is more than sufficient for workload synthesis,
/// and the generator is endian- and platform-independent, keeping every
/// figure bit-reproducible.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// A generator seeded with `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        Rng { state: seed }
    }

    /// The next raw 64-bit output.
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform float in `[0, 1)` with 24 bits of precision.
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// A uniform integer in `[0, bound)`; `bound` must be positive.
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Multiply-shift range reduction (Lemire); the tiny modulo bias
        // of plain `% bound` is avoided without rejection sampling.
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// A uniform integer in `[lo, hi]` (inclusive).
    fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        lo + self.below(hi - lo + 1)
    }
}

/// A seeded RNG with a caller-provided stream id (distinct sequences for
/// distinct inputs of one kernel).
fn rng_stream(stream: u64) -> Rng {
    Rng::seed_from_u64(SEED ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// `n` uniform floats in `[0, 1)`.
pub(crate) fn f32_vec(n: usize, stream: u64) -> Vec<f32> {
    let mut r = rng_stream(stream);
    (0..n).map(|_| r.next_f32()).collect()
}

/// `n` uniform ints in `[0, bound)`.
pub(crate) fn i32_vec(n: usize, bound: i32, stream: u64) -> Vec<i32> {
    let mut r = rng_stream(stream);
    (0..n).map(|_| r.below(bound as u64) as i32).collect()
}

/// A sparse matrix in compressed-sparse-row form.
#[derive(Debug, Clone)]
pub(crate) struct Csr {
    /// Number of columns.
    #[cfg(test)]
    pub cols: usize,
    /// Row pointers (`rows + 1` entries).
    pub row_ptr: Vec<i32>,
    /// Column indices per non-zero.
    pub col_idx: Vec<i32>,
    /// Values per non-zero.
    pub values: Vec<f32>,
}

impl Csr {
    /// Number of stored non-zeros.
    pub(crate) fn nnz(&self) -> usize {
        self.values.len()
    }
}

/// A random CSR matrix with ~`nnz_per_row` non-zeros per row.
pub(crate) fn random_csr(rows: usize, cols: usize, nnz_per_row: usize, stream: u64) -> Csr {
    let mut r = rng_stream(stream);
    let mut row_ptr = Vec::with_capacity(rows + 1);
    let mut col_idx = Vec::new();
    let mut values = Vec::new();
    row_ptr.push(0);
    for _ in 0..rows {
        let k = (r.range_inclusive(1, (nnz_per_row.max(1) * 2) as u64) as usize).min(cols);
        let mut cols_in_row: Vec<i32> = (0..k).map(|_| r.below(cols as u64) as i32).collect();
        cols_in_row.sort_unstable();
        cols_in_row.dedup();
        for c in cols_in_row {
            col_idx.push(c);
            values.push(r.next_f32());
        }
        row_ptr.push(col_idx.len() as i32);
    }
    Csr {
        #[cfg(test)]
        cols,
        row_ptr,
        col_idx,
        values,
    }
}

/// A directed graph in CSR adjacency form.
#[derive(Debug, Clone)]
pub(crate) struct Graph {
    /// Number of vertices.
    #[cfg(test)]
    pub nodes: usize,
    /// Offsets into `edges` (`nodes + 1` entries).
    pub offsets: Vec<i32>,
    /// Flattened adjacency lists.
    pub edges: Vec<i32>,
}

impl Graph {
    /// Number of edges.
    pub(crate) fn edge_count(&self) -> usize {
        self.edges.len()
    }
}

/// A uniform random graph with average degree `avg_degree`.
pub(crate) fn random_graph(nodes: usize, avg_degree: usize, stream: u64) -> Graph {
    let mut r = rng_stream(stream);
    let mut offsets = Vec::with_capacity(nodes + 1);
    let mut edges = Vec::new();
    offsets.push(0);
    for _ in 0..nodes {
        let d = r.range_inclusive(1, (avg_degree.max(1) * 2) as u64);
        for _ in 0..d {
            edges.push(r.below(nodes as u64) as i32);
        }
        offsets.push(edges.len() as i32);
    }
    Graph {
        #[cfg(test)]
        nodes,
        offsets,
        edges,
    }
}

/// A bipartite graph U → V in CSR form (used by the graph-projection
/// kernel, paper §VII-A: recommendation systems, disease association).
#[derive(Debug, Clone)]
pub(crate) struct Bipartite {
    /// Vertices on the V side.
    #[cfg(test)]
    pub v_nodes: usize,
    /// Offsets into `edges` per U vertex.
    pub offsets: Vec<i32>,
    /// Flattened V-neighbor lists.
    pub edges: Vec<i32>,
}

/// A random bipartite graph with average U-degree `avg_degree`.
pub(crate) fn random_bipartite(u_nodes: usize, v_nodes: usize, avg_degree: usize, stream: u64) -> Bipartite {
    let mut r = rng_stream(stream);
    let mut offsets = Vec::with_capacity(u_nodes + 1);
    let mut edges = Vec::new();
    offsets.push(0);
    for _ in 0..u_nodes {
        let d = r.range_inclusive(1, (avg_degree.max(1) * 2) as u64);
        for _ in 0..d {
            edges.push(r.below(v_nodes as u64) as i32);
        }
        offsets.push(edges.len() as i32);
    }
    Bipartite {
        #[cfg(test)]
        v_nodes,
        offsets,
        edges,
    }
}

/// Random 3-D points in the unit cube, as three coordinate arrays.
pub(crate) fn point_cloud(n: usize, stream: u64) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let mut r = rng_stream(stream);
    let mut xs = Vec::with_capacity(n);
    let mut ys = Vec::with_capacity(n);
    let mut zs = Vec::with_capacity(n);
    for _ in 0..n {
        xs.push(r.next_f32());
        ys.push(r.next_f32());
        zs.push(r.next_f32());
    }
    (xs, ys, zs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(f32_vec(16, 1), f32_vec(16, 1));
        assert_ne!(f32_vec(16, 1), f32_vec(16, 2));
        let a = random_csr(10, 10, 3, 7);
        let b = random_csr(10, 10, 3, 7);
        assert_eq!(a.col_idx, b.col_idx);
    }

    #[test]
    fn csr_is_well_formed() {
        let m = random_csr(50, 40, 4, 3);
        assert_eq!(m.row_ptr.len(), 51);
        assert_eq!(*m.row_ptr.last().unwrap() as usize, m.nnz());
        for w in m.row_ptr.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert!(m.col_idx.iter().all(|&c| (c as usize) < m.cols));
    }

    #[test]
    fn graph_is_well_formed() {
        let g = random_graph(30, 5, 11);
        assert_eq!(g.offsets.len(), 31);
        assert_eq!(*g.offsets.last().unwrap() as usize, g.edge_count());
        assert!(g.edges.iter().all(|&e| (e as usize) < g.nodes));
    }

    #[test]
    fn bipartite_edges_target_v() {
        let b = random_bipartite(20, 15, 3, 5);
        assert!(b.edges.iter().all(|&e| (e as usize) < b.v_nodes));
        assert_eq!(b.offsets.len(), 21);
    }

    #[test]
    fn bounded_ints_respect_bound() {
        let v = i32_vec(100, 7, 9);
        assert!(v.iter().all(|&x| (0..7).contains(&x)));
    }

    #[test]
    fn floats_are_in_unit_interval() {
        let v = f32_vec(1000, 3);
        assert!(v.iter().all(|&x| (0.0..1.0).contains(&x)));
    }
}
