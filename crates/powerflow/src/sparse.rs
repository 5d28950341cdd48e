//! Block-sparse LU over the node graph of one island.
//!
//! The Newton–Raphson Jacobian couples two unknowns per node, (θ, V), and
//! its nonzeros follow the admittance matrix: node `i` couples to node `j`
//! only when a branch joins them. Each node's pair is therefore one 2×2
//! block, and the matrix is a sparse matrix of blocks over the node graph.
//!
//! [`BlockLu::analyze`] numbers the nodes in a minimum-degree elimination
//! order and records the L/U fill pattern that order produces; both depend
//! only on the graph, so one analysis serves every factorization on the same
//! topology. [`BlockLu::factorize`] is a row-oriented block LU with no
//! pivoting across nodes. Inside each 2×2 pivot block the larger entry of
//! the first column is taken as the first pivot, and any pivot below
//! [`PIVOT_MIN`] in magnitude reports the matrix as singular.

use std::collections::BTreeSet;

/// A 2×2 block in row-major order: `[a00, a01, a10, a11]`.
pub(crate) type Block = [f64; 4];

/// The zero block.
const ZERO: Block = [0.0; 4];

/// Pivots below this magnitude make the matrix singular.
const PIVOT_MIN: f64 = 1e-13;

fn mul(a: &Block, b: &Block) -> Block {
    [
        a[0] * b[0] + a[1] * b[2],
        a[0] * b[1] + a[1] * b[3],
        a[2] * b[0] + a[3] * b[2],
        a[2] * b[1] + a[3] * b[3],
    ]
}

fn mul_vec(a: &Block, x: [f64; 2]) -> [f64; 2] {
    [a[0] * x[0] + a[1] * x[1], a[2] * x[0] + a[3] * x[1]]
}

/// Inverts a pivot block, or returns `None` when either pivot of its
/// partially pivoted elimination falls below [`PIVOT_MIN`] (or is NaN).
fn invert(m: &Block) -> Option<Block> {
    let [a, b, c, d] = *m;
    let (p1, p2, sign) = if a.abs() >= c.abs() {
        (a, d - c / a * b, 1.0)
    } else {
        (c, b - a / c * d, -1.0)
    };
    if !(p1.abs() >= PIVOT_MIN && p2.abs() >= PIVOT_MIN) {
        return None;
    }
    let det = sign * p1 * p2;
    Some([d / det, -b / det, -c / det, a / det])
}

/// Where an entry of the assembled matrix lives in the factor storage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Slot {
    /// The pivot block of a position.
    Diag(usize),
    /// An entry of the strictly lower part.
    Lower(usize),
    /// An entry of the strictly upper part.
    Upper(usize),
}

/// The factor storage a matrix is assembled into, addressed by [`Slot`].
pub(crate) struct Assembly<'a> {
    diag: &'a mut [Block],
    lower: &'a mut [Block],
    upper: &'a mut [Block],
}

impl Assembly<'_> {
    /// Adds `block` to the entry at `slot`.
    pub(crate) fn add(&mut self, slot: Slot, block: Block) {
        let target = match slot {
            Slot::Diag(k) => &mut self.diag[k],
            Slot::Lower(e) => &mut self.lower[e],
            Slot::Upper(e) => &mut self.upper[e],
        };
        for (t, b) in target.iter_mut().zip(block) {
            *t += b;
        }
    }
}

/// The elimination order and L/U fill pattern of one node graph, plus the
/// numeric storage every factorization over it reuses.
#[derive(Debug, Clone)]
pub(crate) struct BlockLu {
    /// Elimination position of each node.
    pos: Vec<usize>,
    /// For each position, the later positions its row couples to (sorted).
    u_ptr: Vec<usize>,
    u_idx: Vec<usize>,
    /// For each position, the earlier positions its row couples to (sorted).
    l_ptr: Vec<usize>,
    l_idx: Vec<usize>,
    /// Numeric factor: inverted pivot blocks, L multipliers, U blocks.
    d_inv: Vec<Block>,
    l_val: Vec<Block>,
    u_val: Vec<Block>,
    /// Dense work row, indexed by position.
    work: Vec<Block>,
}

impl BlockLu {
    /// Orders the nodes `0..n` of the graph with undirected `edges` by
    /// minimum degree (ties to the lower node index) and records the fill
    /// pattern of eliminating them in that order. Self-loops and repeated
    /// edges are ignored.
    pub(crate) fn analyze(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> BlockLu {
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (a, b) in edges {
            if a != b {
                adj[a].push(b);
                adj[b].push(a);
            }
        }
        for list in &mut adj {
            list.sort_unstable();
            list.dedup();
        }

        // Greedy minimum degree on the elimination graph: eliminating a node
        // joins its remaining neighbours into a clique (the fill), and its
        // neighbour set at that moment is its row of U.
        let mut queue: BTreeSet<(usize, usize)> = (0..n).map(|v| (adj[v].len(), v)).collect();
        let mut order = Vec::with_capacity(n);
        let mut upper: Vec<Vec<usize>> = vec![Vec::new(); n];
        while let Some((_, v)) = queue.pop_first() {
            order.push(v);
            let nbrs = std::mem::take(&mut adj[v]);
            for &a in &nbrs {
                let list = &mut adj[a];
                queue.remove(&(list.len(), a));
                list.retain(|&x| x != v);
                list.extend(nbrs.iter().copied().filter(|&x| x != a));
                list.sort_unstable();
                list.dedup();
                queue.insert((list.len(), a));
            }
            upper[v] = nbrs;
        }

        let mut pos = vec![0usize; n];
        for (k, &v) in order.iter().enumerate() {
            pos[v] = k;
        }
        let mut u_ptr = Vec::with_capacity(n + 1);
        let mut u_idx = Vec::new();
        let mut lower: Vec<Vec<usize>> = vec![Vec::new(); n];
        u_ptr.push(0);
        for (k, &v) in order.iter().enumerate() {
            let mut row: Vec<usize> = upper[v].iter().map(|&x| pos[x]).collect();
            row.sort_unstable();
            for &j in &row {
                lower[j].push(k);
            }
            u_idx.extend(row);
            u_ptr.push(u_idx.len());
        }
        let mut l_ptr = Vec::with_capacity(n + 1);
        let mut l_idx = Vec::new();
        l_ptr.push(0);
        for row in lower {
            l_idx.extend(row);
            l_ptr.push(l_idx.len());
        }
        BlockLu {
            pos,
            d_inv: vec![ZERO; n],
            l_val: vec![ZERO; l_idx.len()],
            u_val: vec![ZERO; u_idx.len()],
            work: vec![ZERO; n],
            u_ptr,
            u_idx,
            l_ptr,
            l_idx,
        }
    }

    /// Number of nodes.
    pub(crate) fn len(&self) -> usize {
        self.pos.len()
    }

    /// Elimination position of `node`.
    pub(crate) fn position(&self, node: usize) -> usize {
        self.pos[node]
    }

    /// The storage slot of the block coupling `row` to `col` (both nodes).
    ///
    /// # Panics
    ///
    /// Panics if the nodes are not adjacent in the analysed graph.
    pub(crate) fn slot(&self, row: usize, col: usize) -> Slot {
        let (i, j) = (self.pos[row], self.pos[col]);
        let find = |idx: &[usize], lo: usize, hi: usize, target: usize| {
            lo + idx[lo..hi]
                .binary_search(&target)
                .unwrap_or_else(|_| panic!("block ({row}, {col}) is outside the pattern"))
        };
        match i.cmp(&j) {
            std::cmp::Ordering::Equal => Slot::Diag(i),
            std::cmp::Ordering::Less => {
                Slot::Upper(find(&self.u_idx, self.u_ptr[i], self.u_ptr[i + 1], j))
            }
            std::cmp::Ordering::Greater => {
                Slot::Lower(find(&self.l_idx, self.l_ptr[i], self.l_ptr[i + 1], j))
            }
        }
    }

    /// Factorizes the matrix whose blocks `assemble` adds into a zeroed
    /// [`Assembly`].
    ///
    /// Returns `false`, leaving the factor unusable, when a pivot block is
    /// singular.
    pub(crate) fn factorize(&mut self, assemble: impl FnOnce(&mut Assembly<'_>)) -> bool {
        // Assemble A in place: pivots into `d_inv`, off-diagonals into the
        // factor arrays (fill entries stay zero).
        self.d_inv.fill(ZERO);
        self.l_val.fill(ZERO);
        self.u_val.fill(ZERO);
        assemble(&mut Assembly {
            diag: &mut self.d_inv,
            lower: &mut self.l_val,
            upper: &mut self.u_val,
        });

        // Row-oriented elimination: scatter row i into the work row, apply
        // the already factored rows k < i it couples to, gather it back.
        let work = &mut self.work;
        for i in 0..self.pos.len() {
            let (l_lo, l_hi) = (self.l_ptr[i], self.l_ptr[i + 1]);
            let (u_lo, u_hi) = (self.u_ptr[i], self.u_ptr[i + 1]);
            for e in l_lo..l_hi {
                work[self.l_idx[e]] = self.l_val[e];
            }
            work[i] = self.d_inv[i];
            for e in u_lo..u_hi {
                work[self.u_idx[e]] = self.u_val[e];
            }
            for e in l_lo..l_hi {
                let k = self.l_idx[e];
                let lik = mul(&work[k], &self.d_inv[k]);
                self.l_val[e] = lik;
                for f in self.u_ptr[k]..self.u_ptr[k + 1] {
                    let j = self.u_idx[f];
                    let delta = mul(&lik, &self.u_val[f]);
                    let w = &mut work[j];
                    for (w, d) in w.iter_mut().zip(delta) {
                        *w -= d;
                    }
                }
            }
            let Some(inv) = invert(&work[i]) else {
                return false;
            };
            self.d_inv[i] = inv;
            for e in u_lo..u_hi {
                self.u_val[e] = work[self.u_idx[e]];
            }
        }
        true
    }

    /// Solves `A x = b` in place with the last successful factorization.
    /// `x` holds one `[θ, V]` pair per elimination position.
    pub(crate) fn solve(&self, x: &mut [[f64; 2]]) {
        for i in 0..x.len() {
            let mut y = x[i];
            for e in self.l_ptr[i]..self.l_ptr[i + 1] {
                let d = mul_vec(&self.l_val[e], x[self.l_idx[e]]);
                y = [y[0] - d[0], y[1] - d[1]];
            }
            x[i] = y;
        }
        for i in (0..x.len()).rev() {
            let mut y = x[i];
            for e in self.u_ptr[i]..self.u_ptr[i + 1] {
                let d = mul_vec(&self.u_val[e], x[self.u_idx[e]]);
                y = [y[0] - d[0], y[1] - d[1]];
            }
            x[i] = mul_vec(&self.d_inv[i], y);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dense product of the block matrix with `x`, in node order.
    fn apply(blocks: &[(usize, usize, Block)], n: usize, x: &[[f64; 2]]) -> Vec<[f64; 2]> {
        let mut out = vec![[0.0; 2]; n];
        for &(r, c, b) in blocks {
            let d = mul_vec(&b, x[c]);
            out[r] = [out[r][0] + d[0], out[r][1] + d[1]];
        }
        out
    }

    fn solve_blocks(
        n: usize,
        blocks: &[(usize, usize, Block)],
        b: &[[f64; 2]],
    ) -> Option<Vec<[f64; 2]>> {
        let mut sym = BlockLu::analyze(n, blocks.iter().map(|&(r, c, _)| (r, c)));
        let slots: Vec<Slot> = blocks.iter().map(|&(r, c, _)| sym.slot(r, c)).collect();
        let ok = sym.factorize(|a| {
            for (&slot, &(_, _, block)) in slots.iter().zip(blocks) {
                a.add(slot, block);
            }
        });
        if !ok {
            return None;
        }
        let mut x = vec![[0.0; 2]; n];
        for node in 0..n {
            x[sym.position(node)] = b[node];
        }
        sym.solve(&mut x);
        Some((0..n).map(|node| x[sym.position(node)]).collect())
    }

    #[test]
    fn star_graph_orders_leaves_first_without_fill() {
        // Hub 0 with four leaves: eliminating the hub first would fill a
        // 4-clique; minimum degree eliminates three leaves before it, and
        // then the hub ties with the last leaf at degree one.
        let sym = BlockLu::analyze(5, (1..5).map(|leaf| (0, leaf)));
        assert_eq!(sym.position(0), 3);
        assert_eq!(sym.u_idx.len(), 4, "no fill beyond the four edges");
    }

    #[test]
    fn cycle_fill_is_in_the_pattern() {
        // A 4-cycle needs one fill edge; every block still lands in a slot.
        let edges = [(0, 1), (1, 2), (2, 3), (3, 0)];
        let sym = BlockLu::analyze(4, edges);
        assert_eq!(sym.u_idx.len(), 5);
        for (a, b) in edges {
            assert_ne!(sym.slot(a, b), sym.slot(b, a));
        }
    }

    #[test]
    fn solves_a_meshed_block_system() {
        // Diagonally dominant blocks on a 4-cycle with a chord.
        let edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)];
        let mut blocks: Vec<(usize, usize, Block)> = Vec::new();
        for (k, &(a, b)) in edges.iter().enumerate() {
            let v = 0.3 + 0.1 * k as f64;
            blocks.push((a, b, [-v, 0.2 * v, -0.1, -v]));
            blocks.push((b, a, [-v, -0.1, 0.3 * v, -v]));
        }
        for node in 0..4 {
            blocks.push((node, node, [4.0 + node as f64, 0.5, -0.7, 3.0]));
        }
        let b: Vec<[f64; 2]> = (0..4).map(|i| [i as f64 + 1.0, 2.0 - i as f64]).collect();
        let x = solve_blocks(4, &blocks, &b).expect("nonsingular");
        let r = apply(&blocks, 4, &x);
        for (ri, bi) in r.iter().zip(&b) {
            assert!((ri[0] - bi[0]).abs() < 1e-12 && (ri[1] - bi[1]).abs() < 1e-12);
        }
    }

    #[test]
    fn pivot_block_needs_row_exchange() {
        // A zero in the pivot block's first entry is handled by swapping
        // its two rows, not reported as singular.
        let blocks = [(0, 0, [0.0, 1.0, 1.0, 0.0])];
        let x = solve_blocks(1, &blocks, &[[3.0, 7.0]]).expect("nonsingular");
        assert_eq!(x, vec![[7.0, 3.0]]);
    }

    #[test]
    fn singular_block_detected() {
        let blocks = [(0, 0, [1.0, 2.0, 2.0, 4.0])];
        assert!(solve_blocks(1, &blocks, &[[1.0, 2.0]]).is_none());
        let nan = [(0, 0, [f64::NAN, 0.0, 0.0, 1.0])];
        assert!(solve_blocks(1, &nan, &[[1.0, 2.0]]).is_none());
    }
}
