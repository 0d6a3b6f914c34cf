//! Router-tree indexing for Bucket-Brigade and Fat-Tree QRAM.
//!
//! Routers are addressed by the paper's 3-tuple `(i, j, k)`:
//! level `i ∈ [0, n−1]`, node index `j ∈ [0, 2^i − 1]`, and copy index
//! `k ∈ [0, n−i−1]` identifying which multiplexed router inside node
//! `(i, j)` — equivalently, which *sub-component QRAM* (Fig. 5) the router
//! belongs to. Sub-QRAM `q` owns exactly one router in every node with
//! `i ≤ q`, namely copy `k = q − i`.

use qram_metrics::Capacity;
use std::fmt;

/// A node `(i, j)` of the (fat) binary tree: level `i`, index `j` within
/// the level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId {
    /// Tree level, root = 0.
    pub level: u32,
    /// Index within the level, `0 ≤ j < 2^level`.
    pub index: u64,
}

impl NodeId {
    /// The root node `(0, 0)`.
    pub const ROOT: NodeId = NodeId { level: 0, index: 0 };

    /// Creates a node id.
    ///
    /// # Panics
    ///
    /// Panics if `index ≥ 2^level`.
    #[must_use]
    pub fn new(level: u32, index: u64) -> Self {
        assert!(
            level >= 64 || index < (1u64 << level),
            "node index {index} out of range for level {level}"
        );
        NodeId { level, index }
    }

    /// The parent node, or `None` for the root.
    #[must_use]
    pub fn parent(self) -> Option<NodeId> {
        (self.level > 0).then(|| NodeId::new(self.level - 1, self.index / 2))
    }

    /// The left child `(i+1, 2j)`.
    #[must_use]
    pub fn left_child(self) -> NodeId {
        NodeId::new(self.level + 1, self.index * 2)
    }

    /// The right child `(i+1, 2j+1)`.
    #[must_use]
    pub fn right_child(self) -> NodeId {
        NodeId::new(self.level + 1, self.index * 2 + 1)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.level, self.index)
    }
}

/// A multiplexed router `(i, j, k)` inside a Fat-Tree node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RouterId {
    /// The node containing this router.
    pub node: NodeId,
    /// Copy index within the node, `0 ≤ k < n − i`.
    pub copy: u32,
}

impl RouterId {
    /// Creates a router id.
    #[must_use]
    pub fn new(node: NodeId, copy: u32) -> Self {
        RouterId { node, copy }
    }
}

impl fmt::Display for RouterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "({}, {}, {})",
            self.node.level, self.node.index, self.copy
        )
    }
}

/// Static geometry of a QRAM router tree of a given capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeShape {
    capacity: Capacity,
}

impl TreeShape {
    /// Creates the tree shape for a capacity.
    #[must_use]
    pub fn new(capacity: Capacity) -> Self {
        TreeShape { capacity }
    }

    /// The memory capacity `N`.
    #[must_use]
    pub fn capacity(&self) -> Capacity {
        self.capacity
    }

    /// The tree depth / address width `n = log₂ N`.
    #[must_use]
    pub fn depth(&self) -> u32 {
        self.capacity.address_width()
    }

    /// Number of nodes: `N − 1` for a complete binary tree.
    #[must_use]
    pub fn node_count(&self) -> u64 {
        self.capacity.get() - 1
    }

    /// Routers per Fat-Tree node at level `i`: `n − i`.
    ///
    /// # Panics
    ///
    /// Panics if `level ≥ n`.
    #[must_use]
    pub fn routers_in_node(&self, level: u32) -> u32 {
        assert!(level < self.depth(), "level {level} beyond tree depth");
        self.depth() - level
    }

    /// Total Fat-Tree router count `Σᵢ (n−i)·2^i = 2N − 2 − n` (§4.1).
    #[must_use]
    pub fn fat_tree_router_count(&self) -> u64 {
        2 * self.capacity.get() - 2 - u64::from(self.depth())
    }

    /// Bucket-brigade router count `N − 1` (one router per node).
    #[must_use]
    pub fn bucket_brigade_router_count(&self) -> u64 {
        self.capacity.get() - 1
    }

    /// Number of parallel wires between a node at `level` and each of its
    /// children: equals the child's router count `n − level − 1`; the root
    /// has `n` external input wires (§4.1).
    ///
    /// # Panics
    ///
    /// Panics if `level + 1 ≥ n` (leaf nodes connect to classical cells by
    /// a single wire).
    #[must_use]
    pub fn wires_to_child(&self, level: u32) -> u32 {
        assert!(
            level + 1 < self.depth(),
            "level {level} nodes have leaf children"
        );
        self.depth() - level - 1
    }

    /// External (escape) wires entering the root: `n`.
    #[must_use]
    pub fn root_wires(&self) -> u32 {
        self.depth()
    }

    /// Iterates over all node ids in breadth-first order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        let depth = self.depth();
        (0..depth).flat_map(|level| (0..(1u64 << level)).map(move |j| NodeId::new(level, j)))
    }

    /// Iterates over all Fat-Tree routers `(i, j, k)`.
    pub fn routers(&self) -> impl Iterator<Item = RouterId> + '_ {
        let depth = self.depth();
        self.nodes()
            .flat_map(move |node| (0..(depth - node.level)).map(move |k| RouterId::new(node, k)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cap(n: u64) -> Capacity {
        Capacity::new(n).unwrap()
    }

    #[test]
    fn parent_child_relationships() {
        let node = NodeId::new(2, 3);
        assert_eq!(node.parent(), Some(NodeId::new(1, 1)));
        assert_eq!(node.left_child(), NodeId::new(3, 6));
        assert_eq!(node.right_child(), NodeId::new(3, 7));
        assert_eq!(NodeId::ROOT.parent(), None);
    }

    #[test]
    fn router_counts_match_paper() {
        // Fat-Tree router count = 2N − 2 − n, "only doubling" BB's N − 1.
        for n in [8u64, 32, 1024] {
            let shape = TreeShape::new(cap(n));
            let expected = 2 * n - 2 - u64::from(shape.depth());
            assert_eq!(shape.fat_tree_router_count(), expected);
            assert_eq!(shape.routers().count() as u64, expected);
            assert_eq!(shape.bucket_brigade_router_count(), n - 1);
        }
    }

    #[test]
    fn routers_in_node_decrease_with_level() {
        let shape = TreeShape::new(cap(32)); // n = 5
        assert_eq!(shape.routers_in_node(0), 5);
        assert_eq!(shape.routers_in_node(4), 1);
    }

    #[test]
    fn wires_match_figure_3() {
        // N = 32: root has 5 external wires; node-to-child wires shrink by
        // one per level until a single wire above the leaves.
        let shape = TreeShape::new(cap(32));
        assert_eq!(shape.root_wires(), 5);
        assert_eq!(shape.wires_to_child(0), 4);
        assert_eq!(shape.wires_to_child(3), 1);
    }

    #[test]
    fn node_iteration_is_breadth_first_and_complete() {
        let shape = TreeShape::new(cap(8));
        let nodes: Vec<NodeId> = shape.nodes().collect();
        assert_eq!(nodes.len() as u64, shape.node_count());
        assert_eq!(nodes[0], NodeId::ROOT);
        assert!(nodes.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn display_formats() {
        assert_eq!(NodeId::new(1, 1).to_string(), "(1, 1)");
        assert_eq!(RouterId::new(NodeId::new(1, 1), 3).to_string(), "(1, 1, 3)");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_node_index_panics() {
        let _ = NodeId::new(1, 2);
    }
}
