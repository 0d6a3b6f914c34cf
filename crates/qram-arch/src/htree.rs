//! H-tree floorplan of the QRAM router tree (Fig. 2(c), Fig. 3).
//!
//! Both BB and Fat-Tree QRAM adopt the classic H-tree embedding: the root
//! at the center, children placed alternately along the x and y axes with
//! geometrically shrinking arms, so a capacity-`N` memory occupies an
//! `O(√N) × O(√N)` footprint and the leaves land on a regular grid.

use qram_core::NodeId;
use qram_metrics::Capacity;

use crate::geometry::{crossing_count, Point, Segment};

/// The H-tree floorplan of a depth-`n` router tree.
///
/// # Examples
///
/// ```
/// use qram_arch::HTreeLayout;
/// use qram_metrics::Capacity;
///
/// let layout = HTreeLayout::new(Capacity::new(64)?);
/// // Inter-node wires drawn as straight segments never cross: the H-tree
/// // embedding is planar.
/// assert_eq!(layout.edge_crossings(), 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct HTreeLayout {
    capacity: Capacity,
    positions: Vec<(NodeId, Point)>,
}

impl HTreeLayout {
    /// Builds the floorplan for the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if the capacity exceeds 2²⁰ nodes (layout enumeration is
    /// dense).
    #[must_use]
    pub fn new(capacity: Capacity) -> Self {
        assert!(
            capacity.get() <= (1 << 20),
            "H-tree layout limited to 2^20 leaves"
        );
        let depth = capacity.address_width();
        let mut positions = Vec::with_capacity((capacity.get() - 1) as usize);
        // Root at the origin; arm lengths halve every two levels,
        // alternating axes — the classic H-tree recursion.
        let mut stack = vec![(NodeId::ROOT, Point::new(0.0, 0.0))];
        while let Some((node, at)) = stack.pop() {
            positions.push((node, at));
            if node.level + 1 < depth {
                let arm = arm_length(node.level);
                let (dx, dy) = if node.level % 2 == 0 {
                    (arm, 0.0)
                } else {
                    (0.0, arm)
                };
                stack.push((node.left_child(), Point::new(at.x - dx, at.y - dy)));
                stack.push((node.right_child(), Point::new(at.x + dx, at.y + dy)));
            }
        }
        positions.sort_by_key(|(node, _)| *node);
        HTreeLayout {
            capacity,
            positions,
        }
    }

    /// The capacity this layout was built for.
    #[must_use]
    pub fn capacity(&self) -> Capacity {
        self.capacity
    }

    /// The position of a node.
    ///
    /// # Panics
    ///
    /// Panics if the node does not belong to this tree.
    #[must_use]
    pub fn position(&self, node: NodeId) -> Point {
        let idx = self
            .positions
            .binary_search_by_key(&node, |(n, _)| *n)
            .expect("node belongs to this tree");
        self.positions[idx].1
    }

    /// All `(node, position)` pairs in breadth-first order.
    #[must_use]
    pub fn positions(&self) -> &[(NodeId, Point)] {
        &self.positions
    }

    /// The parent→child wire segments of the router tree (leaf level links
    /// to classical cells are omitted — single wires to memory).
    #[must_use]
    pub fn edges(&self) -> Vec<(NodeId, NodeId, Segment)> {
        let mut out = Vec::new();
        for &(node, at) in &self.positions {
            if node.level + 1 < self.capacity.address_width() {
                for child in [node.left_child(), node.right_child()] {
                    out.push((node, child, Segment::new(at, self.position(child))));
                }
            }
        }
        out
    }

    /// Proper crossings among inter-node wires — zero for a planar H-tree.
    #[must_use]
    pub fn edge_crossings(&self) -> usize {
        let segments: Vec<Segment> = self.edges().into_iter().map(|(_, _, s)| s).collect();
        crossing_count(&segments)
    }

    /// Total wire length of all inter-node links.
    #[must_use]
    pub fn total_wire_length(&self) -> f64 {
        self.edges().iter().map(|(_, _, s)| s.length()).sum()
    }
}

fn arm_length(level: u32) -> f64 {
    // Both children of a level-l node sit at distance 1/2^(l/2) from it;
    // halving every two levels keeps subtrees disjoint.
    1.0 / f64::from(1u32 << (level / 2))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout(n: u64) -> HTreeLayout {
        HTreeLayout::new(Capacity::new(n).unwrap())
    }

    #[test]
    fn all_node_positions_distinct() {
        for n in [4u64, 8, 16, 64, 256] {
            let l = layout(n);
            let ps = l.positions();
            for i in 0..ps.len() {
                for j in (i + 1)..ps.len() {
                    assert!(
                        ps[i].1.distance(ps[j].1) > 1e-9,
                        "N={n}: nodes {} and {} collide",
                        ps[i].0,
                        ps[j].0
                    );
                }
            }
        }
    }

    #[test]
    fn embedding_is_planar() {
        for n in [4u64, 8, 16, 64, 256, 1024] {
            assert_eq!(layout(n).edge_crossings(), 0, "N={n}");
        }
    }

    #[test]
    fn footprint_scales_as_sqrt_capacity() {
        // Doubling depth by 2 (4× capacity) should ~2× the side length...
        // in an H-tree the bounding box is Θ(√N) for the *leaf* grid; with
        // fixed arm normalization the box converges, so compare wire totals
        // instead: total wire length grows ~√N per level pair.
        let small = layout(64).total_wire_length();
        let large = layout(1024).total_wire_length();
        // 16× capacity → total wire length grows by ~4–8×, far below 16×.
        let ratio = large / small;
        assert!((3.0..10.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn children_alternate_axes() {
        let l = layout(16);
        let root = l.position(NodeId::ROOT);
        let left = l.position(NodeId::ROOT.left_child());
        // Level 0 splits along x.
        assert!((root.y - left.y).abs() < 1e-12);
        assert!((root.x - left.x).abs() > 0.0);
        // Level 1 splits along y.
        let ll = l.position(NodeId::ROOT.left_child().left_child());
        assert!((left.x - ll.x).abs() < 1e-12);
        assert!((left.y - ll.y).abs() > 0.0);
    }

    #[test]
    fn edge_count_matches_internal_nodes() {
        let l = layout(32); // depth 5: nodes at levels 0..4, edges from 0..3
        let internal: u64 = (0..4).map(|i| 1u64 << i).sum();
        assert_eq!(l.edges().len() as u64, 2 * internal);
    }

    #[test]
    #[should_panic(expected = "belongs to this tree")]
    fn position_of_foreign_node_panics() {
        let l = layout(4);
        let _ = l.position(NodeId::new(5, 0));
    }
}
