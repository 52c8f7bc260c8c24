//! Flattened CSR (compressed sparse row) adjacency for the pull kernels.
//!
//! [`DiGraph`] stores `Vec<Vec<u32>>` adjacency — fine for construction and
//! mutation, but every row is its own heap allocation, so an iteration
//! sweep pointer-chases per node. [`Csr`] flattens the whole structure into
//! two arrays (`offsets`, `edges`); PageRank and HITS walk it with pure
//! sequential loads (DESIGN.md §10).
//!
//! Ordering contract: [`Csr::successors_of`] keeps each row in the graph's
//! insertion order; [`Csr::predecessors_of`] lists every in-edge source
//! (with multiplicity) in **ascending-`u`** order — exactly the order the
//! legacy serial scatter loop added into each slot, so a pull fold over a
//! predecessor row reproduces the scatter result bit for bit.
//!
//! Both orderings survive **append-only edits**: [`Csr::apply_edits`] folds
//! a batch of new nodes and edges into an existing view, rebuilding only the
//! touched adjacency runs (untouched runs are bulk-copied) while preserving
//! the per-row order contract — so a maintained view equals a from-scratch
//! rebuild, and the pull kernels stay bit-identical across edits. [`LinkCsr`]
//! bundles the two views of one graph for the kernels that need both.

use crate::digraph::DiGraph;

/// Which adjacency a [`Csr`] holds — decides where [`Csr::apply_edits`]
/// lands each new edge `u → v` and in what order within the row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdjacencyKind {
    /// Rows are successor lists: `u → v` appends `v` to row `u`, keeping
    /// the batch's edit order (= the source graph's insertion order when
    /// edits append to the underlying adjacency).
    Successors,
    /// Rows are predecessor lists: `u → v` inserts `u` into row `v`,
    /// keeping the ascending-source counting-sort order.
    Predecessors,
}

/// A read-only flattened adjacency view: row `i` is
/// `edges[offsets[i] .. offsets[i + 1]]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Csr {
    offsets: Vec<u32>,
    edges: Vec<u32>,
}

impl Csr {
    /// Successor rows of `g`, each in insertion order.
    pub fn successors_of(g: &DiGraph) -> Csr {
        let n = g.len();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut edges = Vec::with_capacity(g.edge_count());
        offsets.push(0);
        for u in 0..n {
            edges.extend(g.successors(u).map(|v| v as u32));
            offsets.push(edges.len() as u32);
        }
        Csr { offsets, edges }
    }

    /// Predecessor rows of `g`, each in ascending-source order with
    /// multiplicity. Built by a counting sort over the successor lists
    /// (`DiGraph`'s own `in_edges` are insertion-ordered, which is *not*
    /// the scatter-equivalent order the kernels need).
    pub fn predecessors_of(g: &DiGraph) -> Csr {
        let n = g.len();
        let mut offsets = vec![0u32; n + 1];
        for u in 0..n {
            for v in g.successors(u) {
                offsets[v + 1] += 1;
            }
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut edges = vec![0u32; g.edge_count()];
        for u in 0..n {
            for v in g.successors(u) {
                edges[cursor[v] as usize] = u as u32;
                cursor[v] += 1;
            }
        }
        Csr { offsets, edges }
    }

    /// A view with `n` rows and no edges.
    pub fn empty(n: usize) -> Csr {
        Csr {
            offsets: vec![0; n + 1],
            edges: Vec::new(),
        }
    }

    /// Folds an append-only edit batch into the view: `added_rows` new empty
    /// rows (new nodes, ids continuing the dense range), then one entry per
    /// new edge `(u, v)`, placed according to `kind`.
    ///
    /// Only rows that actually receive an edge are rebuilt; runs of
    /// untouched rows between them are contiguous in the old layout and are
    /// bulk-copied. The per-row order contract of
    /// [`successors_of`](Csr::successors_of) /
    /// [`predecessors_of`](Csr::predecessors_of) is preserved, so the result
    /// equals a from-scratch rebuild of the edited graph (for successor
    /// views: provided the underlying adjacency also appends, i.e. each new
    /// edge lands at the end of its source's list).
    ///
    /// # Panics
    /// Panics if an edge endpoint is outside the grown node range.
    pub fn apply_edits(
        &mut self,
        added_rows: usize,
        new_edges: &[(u32, u32)],
        kind: AdjacencyKind,
    ) {
        let n_old = self.len();
        let n_new = n_old + added_rows;
        for &(u, v) in new_edges {
            assert!(
                (u as usize) < n_new,
                "edge source {u} out of range ({n_new} nodes)"
            );
            assert!(
                (v as usize) < n_new,
                "edge target {v} out of range ({n_new} nodes)"
            );
        }
        if new_edges.is_empty() {
            let end = *self.offsets.last().expect("offsets never empty");
            self.offsets.resize(n_new + 1, end);
            return;
        }
        // (row, value) per edit; stable sort by row keeps each row's edits
        // in batch order, which is what the successor contract needs.
        let mut adds: Vec<(u32, u32)> = match kind {
            AdjacencyKind::Successors => new_edges.to_vec(),
            AdjacencyKind::Predecessors => new_edges.iter().map(|&(u, v)| (v, u)).collect(),
        };
        adds.sort_by_key(|&(row, _)| row);

        let mut offsets = vec![0u32; n_new + 1];
        let mut edges = Vec::with_capacity(self.edges.len() + adds.len());
        {
            // Copies rows `lo..hi` verbatim: their edges are one contiguous
            // slice of the old layout, so an untouched run costs a single
            // extend plus an offset shift.
            let copy_untouched =
                |lo: usize, hi: usize, edges: &mut Vec<u32>, offsets: &mut [u32]| {
                    let lo_e = self.offsets[lo.min(n_old)] as usize;
                    let hi_e = self.offsets[hi.min(n_old)] as usize;
                    let shift = edges.len() - lo_e;
                    edges.extend_from_slice(&self.edges[lo_e..hi_e]);
                    for r in lo..hi {
                        offsets[r + 1] = if r < n_old {
                            (self.offsets[r + 1] as usize + shift) as u32
                        } else {
                            edges.len() as u32
                        };
                    }
                };
            let mut ai = 0usize;
            let mut next_row = 0usize;
            while ai < adds.len() {
                let row = adds[ai].0 as usize;
                copy_untouched(next_row, row, &mut edges, &mut offsets);
                let mut run_end = ai;
                while run_end < adds.len() && adds[run_end].0 as usize == row {
                    run_end += 1;
                }
                let old: &[u32] = if row < n_old {
                    &self.edges[self.offsets[row] as usize..self.offsets[row + 1] as usize]
                } else {
                    &[]
                };
                match kind {
                    AdjacencyKind::Successors => {
                        edges.extend_from_slice(old);
                        edges.extend(adds[ai..run_end].iter().map(|&(_, v)| v));
                    }
                    AdjacencyKind::Predecessors => {
                        // Merge the (sorted) old run with the sorted batch —
                        // the union is the same sorted multiset a counting
                        // sort over the edited graph produces.
                        let mut new_vals: Vec<u32> =
                            adds[ai..run_end].iter().map(|&(_, v)| v).collect();
                        new_vals.sort_unstable();
                        let (mut i, mut j) = (0usize, 0usize);
                        while i < old.len() && j < new_vals.len() {
                            if old[i] <= new_vals[j] {
                                edges.push(old[i]);
                                i += 1;
                            } else {
                                edges.push(new_vals[j]);
                                j += 1;
                            }
                        }
                        edges.extend_from_slice(&old[i..]);
                        edges.extend_from_slice(&new_vals[j..]);
                    }
                }
                offsets[row + 1] = edges.len() as u32;
                next_row = row + 1;
                ai = run_end;
            }
            copy_untouched(next_row, n_new, &mut edges, &mut offsets);
        }
        self.offsets = offsets;
        self.edges = edges;
    }

    /// The predecessor view of this successor view: every in-edge source in
    /// ascending-`u` order with multiplicity — the same counting sort as
    /// [`Csr::predecessors_of`], but straight off the flattened rows, so
    /// sharded builders never need an intermediate [`DiGraph`].
    pub fn predecessors_from_successors(&self) -> Csr {
        let n = self.len();
        let mut offsets = vec![0u32; n + 1];
        for &v in &self.edges {
            offsets[v as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut edges = vec![0u32; self.edges.len()];
        for u in 0..n {
            for &v in self.row(u) {
                edges[cursor[v as usize] as usize] = u as u32;
                cursor[v as usize] += 1;
            }
        }
        Csr { offsets, edges }
    }

    /// Number of rows (nodes).
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the view has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row `i` as a slice of neighbour ids.
    #[inline]
    pub fn row(&self, i: usize) -> &[u32] {
        &self.edges[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Length of row `i`.
    #[inline]
    pub fn degree(&self, i: usize) -> usize {
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }
}

/// Row-by-row constructor for a successor [`Csr`] — what sharded corpus
/// ingest uses to assemble the friend-link graph without materialising a
/// [`DiGraph`]: each shard builds the rows of its contiguous node range,
/// and segments concatenate in shard order via
/// [`append`](CsrBuilder::append).
#[derive(Clone, Debug, Default)]
pub struct CsrBuilder {
    offsets: Vec<u32>,
    edges: Vec<u32>,
}

impl CsrBuilder {
    /// An empty builder.
    pub fn new() -> CsrBuilder {
        CsrBuilder {
            offsets: vec![0],
            edges: Vec::new(),
        }
    }

    /// Appends the next node's successor row (kept in the given order).
    pub fn push_row(&mut self, targets: &[u32]) {
        self.edges.extend_from_slice(targets);
        self.offsets.push(self.edges.len() as u32);
    }

    /// Appends every row of `segment` after the rows already pushed —
    /// segment node `i` becomes global node `rows-before + i`, so callers
    /// append shards of a contiguous node range in shard order.
    pub fn append(&mut self, segment: &Csr) {
        let base = self.edges.len() as u32;
        self.edges.extend_from_slice(&segment.edges);
        self.offsets
            .extend(segment.offsets[1..].iter().map(|&o| o + base));
    }

    /// Rows pushed so far.
    pub fn rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Seals the successor view.
    pub fn finish(self) -> Csr {
        Csr {
            offsets: self.offsets,
            edges: self.edges,
        }
    }
}

/// Both flattened views of one link graph — everything the pull kernels
/// read — maintainable in place across append-only edits.
///
/// [`pagerank_csr`](crate::pagerank::pagerank_csr) and
/// [`hits_csr`](crate::hits::hits_csr) take this directly, so a caller that
/// keeps a `LinkCsr` current via [`apply_edits`](LinkCsr::apply_edits) can
/// rerun link analysis without ever rebuilding the graph: the maintained
/// views equal a from-scratch rebuild, and therefore so do the scores, bit
/// for bit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LinkCsr {
    succs: Csr,
    preds: Csr,
}

impl LinkCsr {
    /// Flattens both views of `g`.
    pub fn from_digraph(g: &DiGraph) -> LinkCsr {
        LinkCsr {
            succs: Csr::successors_of(g),
            preds: Csr::predecessors_of(g),
        }
    }

    /// Bundles a successor view with its derived predecessor view — equals
    /// [`LinkCsr::from_digraph`] of the graph the rows describe.
    pub fn from_successors(succs: Csr) -> LinkCsr {
        LinkCsr {
            preds: succs.predecessors_from_successors(),
            succs,
        }
    }

    /// An edgeless graph over `n` nodes.
    pub fn empty(n: usize) -> LinkCsr {
        LinkCsr {
            succs: Csr::empty(n),
            preds: Csr::empty(n),
        }
    }

    /// Folds `added_nodes` new nodes and a batch of new edges `u → v` into
    /// both views ([`Csr::apply_edits`] per view).
    ///
    /// # Panics
    /// Panics if an edge endpoint is outside the grown node range.
    pub fn apply_edits(&mut self, added_nodes: usize, new_edges: &[(u32, u32)]) {
        self.succs
            .apply_edits(added_nodes, new_edges, AdjacencyKind::Successors);
        self.preds
            .apply_edits(added_nodes, new_edges, AdjacencyKind::Predecessors);
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.succs.len()
    }

    /// Whether the graph has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.succs.is_empty()
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.succs.edges.len()
    }

    /// Out-neighbours of `u`, in insertion order.
    #[inline]
    pub fn successors(&self, u: usize) -> &[u32] {
        self.succs.row(u)
    }

    /// In-edge sources of `v`, ascending with multiplicity.
    #[inline]
    pub fn predecessors(&self, v: usize) -> &[u32] {
        self.preds.row(v)
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn out_degree(&self, u: usize) -> usize {
        self.succs.degree(u)
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: usize) -> usize {
        self.preds.degree(v)
    }

    /// The successor adjacency as a whole.
    #[inline]
    pub fn successors_csr(&self) -> &Csr {
        &self.succs
    }

    /// The predecessor adjacency as a whole (ascending-`u` rows with
    /// multiplicity).
    #[inline]
    pub fn predecessors_csr(&self) -> &Csr {
        &self.preds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn successors_preserve_insertion_order() {
        let g = DiGraph::from_edges(4, [(0, 2), (0, 1), (0, 2), (2, 0), (3, 1)]);
        let s = Csr::successors_of(&g);
        assert_eq!(s.len(), 4);
        assert_eq!(s.row(0), &[2, 1, 2]);
        assert_eq!(s.row(1), &[] as &[u32]);
        assert_eq!(s.row(2), &[0]);
        assert_eq!(s.row(3), &[1]);
        assert_eq!(s.degree(0), 3);
    }

    #[test]
    fn predecessors_ascend_with_multiplicity() {
        // in_edges insertion order for node 1 would be [3, 0, 0] if edges
        // are added as (3,1) first — the CSR must re-sort to ascending u.
        let g = DiGraph::from_edges(4, [(3, 1), (0, 1), (0, 1), (2, 0), (1, 0)]);
        let p = Csr::predecessors_of(&g);
        assert_eq!(p.row(1), &[0, 0, 3]);
        assert_eq!(p.row(0), &[1, 2]);
        assert_eq!(p.row(2), &[] as &[u32]);
        assert_eq!(p.degree(3), 0);
    }

    #[test]
    fn matches_digraph_views() {
        let mut edges = Vec::new();
        for u in 0..50usize {
            edges.push((u, (u * 7 + 3) % 50));
            if u % 4 == 0 {
                edges.push((u, (u * 7 + 3) % 50)); // parallel
                edges.push((u, 0));
            }
        }
        let g = DiGraph::from_edges(50, edges.iter().copied().filter(|&(u, _)| u % 9 != 0));
        let s = Csr::successors_of(&g);
        let p = Csr::predecessors_of(&g);
        for u in 0..g.len() {
            assert_eq!(
                s.row(u).iter().map(|&v| v as usize).collect::<Vec<_>>(),
                g.successors(u).collect::<Vec<_>>()
            );
            let mut want: Vec<usize> = g.predecessors(u).collect();
            want.sort_unstable();
            assert_eq!(
                p.row(u).iter().map(|&v| v as usize).collect::<Vec<_>>(),
                want,
                "preds of {u}"
            );
            assert_eq!(s.degree(u), g.out_degree(u));
            assert_eq!(p.degree(u), g.in_degree(u));
        }
    }

    #[test]
    fn empty_graph() {
        let g = DiGraph::new(0);
        let s = Csr::successors_of(&g);
        assert!(s.is_empty());
        assert_eq!(Csr::predecessors_of(&g).len(), 0);
    }

    #[test]
    fn apply_edits_matches_rebuild_on_both_views() {
        let base_edges = [(0usize, 2usize), (0, 1), (2, 0), (3, 1), (3, 1)];
        let g0 = DiGraph::from_edges(4, base_edges);
        let mut link = LinkCsr::from_digraph(&g0);
        // Two new nodes; edits touch old rows, new rows, include a self-loop
        // and a duplicate of an existing edge.
        let edits = [(0u32, 3u32), (4, 4), (5, 0), (0, 1), (4, 2)];
        link.apply_edits(2, &edits);

        let mut g1 = DiGraph::from_edges(6, base_edges);
        for &(u, v) in &edits {
            g1.add_edge(u as usize, v as usize);
        }
        assert_eq!(link, LinkCsr::from_digraph(&g1));
        assert_eq!(link.edge_count(), base_edges.len() + edits.len());
        // Successor rows append in edit order; predecessor rows stay sorted.
        assert_eq!(link.successors(0), &[2, 1, 3, 1]);
        assert_eq!(link.predecessors(1), &[0, 0, 3, 3]);
        assert_eq!(link.predecessors(4), &[4]);
    }

    #[test]
    fn apply_edits_with_no_edges_only_grows_rows() {
        let g = DiGraph::from_edges(3, [(0, 1), (2, 0)]);
        let mut link = LinkCsr::from_digraph(&g);
        link.apply_edits(2, &[]);
        assert_eq!(link.len(), 5);
        assert_eq!(link.edge_count(), 2);
        assert_eq!(link.successors(0), &[1]);
        assert!(link.successors(3).is_empty() && link.predecessors(4).is_empty());
        let mut grown = DiGraph::new(5);
        grown.add_edge(0, 1);
        grown.add_edge(2, 0);
        assert_eq!(link, LinkCsr::from_digraph(&grown));
    }

    #[test]
    fn apply_edits_from_empty_graph() {
        let mut link = LinkCsr::empty(0);
        link.apply_edits(3, &[(0, 1), (1, 2), (0, 2)]);
        let g = DiGraph::from_edges(3, [(0, 1), (1, 2), (0, 2)]);
        assert_eq!(link, LinkCsr::from_digraph(&g));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn apply_edits_rejects_out_of_range_targets() {
        let mut link = LinkCsr::empty(2);
        link.apply_edits(0, &[(0, 5)]);
    }

    #[test]
    fn builder_rows_match_digraph_views() {
        let g = DiGraph::from_edges(5, [(0, 2), (0, 1), (0, 2), (2, 0), (3, 1), (4, 4)]);
        let mut b = CsrBuilder::new();
        for u in 0..g.len() {
            let row: Vec<u32> = g.successors(u).map(|v| v as u32).collect();
            b.push_row(&row);
        }
        assert_eq!(b.rows(), 5);
        let succ = b.finish();
        assert_eq!(succ, Csr::successors_of(&g));
        assert_eq!(
            succ.predecessors_from_successors(),
            Csr::predecessors_of(&g)
        );
        assert_eq!(LinkCsr::from_successors(succ), LinkCsr::from_digraph(&g));
    }

    #[test]
    fn builder_append_concatenates_shards() {
        let edges = [(0usize, 3usize), (1, 0), (2, 2), (3, 1), (3, 0), (5, 4)];
        let g = DiGraph::from_edges(6, edges);
        // Build node ranges 0..2, 2..4, 4..6 as separate segments, rows
        // numbered within the segment (global = base + local).
        let mut whole = CsrBuilder::new();
        for range in [0..2usize, 2..4, 4..6] {
            let mut seg = CsrBuilder::new();
            for u in range {
                let row: Vec<u32> = g.successors(u).map(|v| v as u32).collect();
                seg.push_row(&row);
            }
            whole.append(&seg.finish());
        }
        assert_eq!(whole.rows(), 6);
        assert_eq!(whole.finish(), Csr::successors_of(&g));
    }

    #[test]
    fn builder_empty_and_empty_rows() {
        let b = CsrBuilder::new();
        assert_eq!(b.rows(), 0);
        let empty = b.finish();
        assert!(empty.is_empty());
        assert_eq!(empty.predecessors_from_successors(), Csr::empty(0));
        let mut b = CsrBuilder::new();
        b.push_row(&[]);
        b.push_row(&[0]);
        let c = b.finish();
        assert_eq!(c.row(0), &[] as &[u32]);
        assert_eq!(c.row(1), &[0]);
        assert_eq!(c.predecessors_from_successors().row(0), &[1]);
    }
}
