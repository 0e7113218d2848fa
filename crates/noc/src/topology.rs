//! Mesh coordinates, XY (dimension-ordered) routing, and the degraded
//! variants: a [`FaultMap`] of failed links/routers and
//! [`adaptive_route`], the fault-region-aware XY router that detours
//! around them.

use core::fmt;
use std::collections::VecDeque;

/// A router/endpoint position in the mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId {
    /// Column (0-based, grows east).
    pub x: u8,
    /// Row (0-based, grows south).
    pub y: u8,
}

impl NodeId {
    /// Construct a node id.
    pub const fn new(x: u8, y: u8) -> Self {
        NodeId { x, y }
    }

    /// Manhattan distance to another node.
    pub fn distance(self, other: NodeId) -> u32 {
        self.x.abs_diff(other.x) as u32 + self.y.abs_diff(other.y) as u32
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

/// The mesh shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    /// Columns.
    pub cols: u8,
    /// Rows.
    pub rows: u8,
}

impl Topology {
    /// Construct a topology.
    ///
    /// # Panics
    /// Panics on an empty mesh.
    pub fn new(cols: u8, rows: u8) -> Self {
        assert!(cols > 0 && rows > 0, "mesh must be non-empty");
        Topology { cols, rows }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        usize::from(self.cols) * usize::from(self.rows)
    }

    /// Never empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether `n` lies inside the mesh.
    pub fn contains(&self, n: NodeId) -> bool {
        n.x < self.cols && n.y < self.rows
    }

    /// Iterate all nodes row-major.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        let cols = self.cols;
        (0..self.rows).flat_map(move |y| (0..cols).map(move |x| NodeId::new(x, y)))
    }

    /// Dense index of a node (row-major).
    pub fn index(&self, n: NodeId) -> usize {
        debug_assert!(self.contains(n));
        usize::from(n.y) * usize::from(self.cols) + usize::from(n.x)
    }
}

/// Deterministic XY route: move along X to the destination column, then
/// along Y. Returns every node visited including `src` and `dst`.
pub fn xy_route(src: NodeId, dst: NodeId) -> Vec<NodeId> {
    let mut path = Vec::new();
    xy_route_into(src, dst, &mut path);
    path
}

/// [`xy_route`] written into `path`, replacing what it held, so the mesh
/// can reuse one buffer per flight.
pub(crate) fn xy_route_into(src: NodeId, dst: NodeId, path: &mut Vec<NodeId>) {
    path.clear();
    path.push(src);
    let mut cur = src;
    while cur.x != dst.x {
        cur.x = if dst.x > cur.x { cur.x + 1 } else { cur.x - 1 };
        path.push(cur);
    }
    while cur.y != dst.y {
        cur.y = if dst.y > cur.y { cur.y + 1 } else { cur.y - 1 };
        path.push(cur);
    }
}

/// Mesh direction index: N=0, S=1, E=2, W=3 (shared with the mesh's
/// per-directed-link arrays and `secbus-fault`'s link selectors).
///
/// Both candidates are computed and one is selected, so the mesh's hop
/// step takes no branch on a direction, which varies from hop to hop.
pub fn direction_index(from: NodeId, to: NodeId) -> usize {
    let vertical = usize::from(to.y > from.y); // north 0, south 1
    let horizontal = 3 - usize::from(to.x > from.x); // east 2, west 3
    if to.y == from.y {
        horizontal
    } else {
        vertical
    }
}

/// The neighbor of `n` in direction `dir` (N=0,S=1,E=2,W=3), if it lies
/// inside the mesh.
pub fn neighbor(topology: Topology, n: NodeId, dir: usize) -> Option<NodeId> {
    match dir {
        0 => (n.y > 0).then(|| NodeId::new(n.x, n.y - 1)),
        1 => (n.y + 1 < topology.rows).then(|| NodeId::new(n.x, n.y + 1)),
        2 => (n.x + 1 < topology.cols).then(|| NodeId::new(n.x + 1, n.y)),
        3 => (n.x > 0).then(|| NodeId::new(n.x - 1, n.y)),
        _ => None,
    }
}

/// The *detected* degraded state of a mesh: which directed links and
/// routers the fault-detection layer (CRC streaks, heartbeats) has
/// declared dead. Routing consults this map — never the ground truth —
/// so an undetected failure costs retransmissions before it costs a
/// detour, exactly like real hardware.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultMap {
    topology: Topology,
    /// Directed link health, indexed `node_index * 4 + direction`.
    failed_links: Vec<bool>,
    /// Router health, indexed by node index.
    failed_routers: Vec<bool>,
    /// How many entries of `failed_links` are set.
    link_failures: usize,
    /// How many entries of `failed_routers` are set.
    router_failures: usize,
}

impl FaultMap {
    /// A clean map: everything healthy.
    pub fn new(topology: Topology) -> Self {
        FaultMap {
            failed_links: vec![false; topology.len() * 4],
            failed_routers: vec![false; topology.len()],
            link_failures: 0,
            router_failures: 0,
            topology,
        }
    }

    /// The mesh this map describes.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// Declare the directed link leaving `from` in direction `dir` dead.
    /// Returns `true` when this is new information.
    pub fn fail_link(&mut self, from: NodeId, dir: usize) -> bool {
        let idx = self.topology.index(from) * 4 + (dir & 3);
        let new = !std::mem::replace(&mut self.failed_links[idx], true);
        self.link_failures += usize::from(new);
        new
    }

    /// Declare router `n` dead (all its links die with it). Returns
    /// `true` when this is new information.
    pub fn fail_router(&mut self, n: NodeId) -> bool {
        let idx = self.topology.index(n);
        let new = !std::mem::replace(&mut self.failed_routers[idx], true);
        self.router_failures += usize::from(new);
        new
    }

    /// Whether the directed link `from → to` is believed healthy
    /// (requires both endpoints' routers alive).
    pub fn link_ok(&self, from: NodeId, to: NodeId) -> bool {
        let idx = self.topology.index(from) * 4 + direction_index(from, to);
        !self.failed_links[idx] && self.router_ok(from) && self.router_ok(to)
    }

    /// Whether router `n` is believed alive.
    pub fn router_ok(&self, n: NodeId) -> bool {
        !self.failed_routers[self.topology.index(n)]
    }

    /// Count of links declared dead.
    pub fn failed_link_count(&self) -> usize {
        self.link_failures
    }

    /// Count of routers declared dead.
    pub fn failed_router_count(&self) -> usize {
        self.router_failures
    }

    /// Whether the map still believes the mesh is fully healthy.
    pub fn is_clean(&self) -> bool {
        self.link_failures == 0 && self.router_failures == 0
    }
}

/// Fault-region-aware XY routing: the plain XY route when every hop on
/// it is believed healthy (the deterministic, deadlock-free fast path),
/// otherwise a deterministic shortest detour over the healthy subgraph.
///
/// The detour is a breadth-first search whose per-node expansion order
/// prefers the XY direction of travel (X toward the destination, then Y,
/// then the remaining directions in N,S,E,W order), so minimal paths
/// keep the XY shape wherever the fault region allows. Routes are
/// loop-free by construction (BFS visits each router once) and computed
/// before injection, so the transport cannot hold-and-wait across
/// routers — freedom from deadlock reduces to bounded rerouting, which
/// the mesh enforces with an explicit reroute budget.
///
/// Returns `None` when `dst` (or `src`) is believed dead or no healthy
/// path exists — the caller must fail secure (alert), never deliver.
pub fn adaptive_route(src: NodeId, dst: NodeId, map: &FaultMap) -> Option<Vec<NodeId>> {
    let mut path = Vec::new();
    adaptive_route_into(src, dst, map, &mut path).then_some(path)
}

/// [`adaptive_route`] written into `path`, replacing what it held.
/// Returns `false` where [`adaptive_route`] returns `None`; `path` is
/// then unspecified. On a clean map it is the XY route, written without
/// checking a hop.
pub(crate) fn adaptive_route_into(
    src: NodeId,
    dst: NodeId,
    map: &FaultMap,
    path: &mut Vec<NodeId>,
) -> bool {
    if map.is_clean() {
        xy_route_into(src, dst, path);
        return true;
    }
    if !map.router_ok(src) || !map.router_ok(dst) {
        return false;
    }
    xy_route_into(src, dst, path);
    if path.windows(2).all(|w| map.link_ok(w[0], w[1])) {
        return true;
    }
    // BFS over believed-healthy links, deterministic expansion order.
    let t = map.topology();
    let mut parent: Vec<Option<NodeId>> = vec![None; t.len()];
    let mut visited = vec![false; t.len()];
    visited[t.index(src)] = true;
    let mut frontier = VecDeque::from([src]);
    while let Some(cur) = frontier.pop_front() {
        if cur == dst {
            path.clear();
            path.push(dst);
            let mut walk = dst;
            while let Some(p) = parent[t.index(walk)] {
                path.push(p);
                walk = p;
            }
            path.reverse();
            return true;
        }
        for dir in preferred_directions(cur, dst) {
            let Some(next) = neighbor(t, cur, dir) else {
                continue;
            };
            if visited[t.index(next)] || !map.link_ok(cur, next) {
                continue;
            }
            visited[t.index(next)] = true;
            parent[t.index(next)] = Some(cur);
            frontier.push_back(next);
        }
    }
    false
}

/// Expansion order for the detour search: X toward `dst` first, then Y
/// toward `dst`, then the remaining directions in fixed N,S,E,W order.
fn preferred_directions(cur: NodeId, dst: NodeId) -> [usize; 4] {
    let mut order = [usize::MAX; 4];
    let mut n = 0;
    let push = |d: usize, order: &mut [usize; 4], n: &mut usize| {
        if !order[..*n].contains(&d) {
            order[*n] = d;
            *n += 1;
        }
    };
    if dst.x > cur.x {
        push(2, &mut order, &mut n);
    } else if dst.x < cur.x {
        push(3, &mut order, &mut n);
    }
    if dst.y > cur.y {
        push(1, &mut order, &mut n);
    } else if dst.y < cur.y {
        push(0, &mut order, &mut n);
    }
    for d in 0..4 {
        push(d, &mut order, &mut n);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_length_is_manhattan_plus_one() {
        let a = NodeId::new(0, 0);
        let b = NodeId::new(3, 2);
        let route = xy_route(a, b);
        assert_eq!(route.len() as u32, a.distance(b) + 1);
        assert_eq!(route.first(), Some(&a));
        assert_eq!(route.last(), Some(&b));
    }

    #[test]
    fn route_goes_x_first() {
        let route = xy_route(NodeId::new(0, 0), NodeId::new(2, 1));
        assert_eq!(
            route,
            vec![
                NodeId::new(0, 0),
                NodeId::new(1, 0),
                NodeId::new(2, 0),
                NodeId::new(2, 1)
            ]
        );
    }

    #[test]
    fn self_route_is_single_node() {
        let n = NodeId::new(1, 1);
        assert_eq!(xy_route(n, n), vec![n]);
    }

    #[test]
    fn westward_and_northward_routes() {
        let route = xy_route(NodeId::new(3, 3), NodeId::new(1, 0));
        assert_eq!(route.len(), 6);
        assert_eq!(route.last(), Some(&NodeId::new(1, 0)));
    }

    #[test]
    fn topology_membership_and_indexing() {
        let t = Topology::new(4, 2);
        assert_eq!(t.len(), 8);
        assert!(t.contains(NodeId::new(3, 1)));
        assert!(!t.contains(NodeId::new(4, 0)));
        assert!(!t.contains(NodeId::new(0, 2)));
        let all: Vec<NodeId> = t.nodes().collect();
        assert_eq!(all.len(), 8);
        for (i, n) in all.iter().enumerate() {
            assert_eq!(t.index(*n), i);
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_mesh_panics() {
        Topology::new(0, 3);
    }

    fn assert_valid_route(route: &[NodeId], src: NodeId, dst: NodeId, map: &FaultMap) {
        assert_eq!(route.first(), Some(&src));
        assert_eq!(
            route.last(),
            Some(&dst),
            "route must END at the destination"
        );
        let mut seen = route.to_vec();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), route.len(), "loop-free");
        for w in route.windows(2) {
            assert_eq!(w[0].distance(w[1]), 1, "hops are mesh-adjacent");
            assert!(map.link_ok(w[0], w[1]), "route uses only healthy links");
        }
    }

    #[test]
    fn adaptive_route_is_xy_on_a_clean_mesh() {
        let map = FaultMap::new(Topology::new(4, 4));
        for s in map.topology().nodes() {
            for d in map.topology().nodes() {
                assert_eq!(adaptive_route(s, d, &map), Some(xy_route(s, d)));
            }
        }
    }

    /// Random declarations, repeats included: the kept counts always
    /// equal the declared entries, and `is_clean` agrees with them and
    /// with a set of what was declared.
    #[test]
    fn failure_counts_track_random_declarations() {
        use secbus_sim::SimRng;
        use std::collections::BTreeSet;
        for case in 0u64..64 {
            let mut rng = SimRng::new(0xFA11 + case);
            let t = Topology::new(1 + rng.below(5) as u8, 1 + rng.below(5) as u8);
            let nodes: Vec<NodeId> = t.nodes().collect();
            let mut map = FaultMap::new(t);
            let (mut links, mut routers) = (BTreeSet::new(), BTreeSet::new());
            for _ in 0..rng.below(40) {
                let n = *rng.pick(&nodes);
                if rng.chance(0.5) {
                    let dir = rng.below(8) as usize;
                    assert_eq!(map.fail_link(n, dir), links.insert((n, dir & 3)));
                } else {
                    assert_eq!(map.fail_router(n), routers.insert(n));
                }
                assert_eq!(map.failed_link_count(), links.len());
                assert_eq!(map.failed_router_count(), routers.len());
                assert_eq!(
                    map.failed_link_count(),
                    map.failed_links.iter().filter(|&&f| f).count()
                );
                assert_eq!(
                    map.failed_router_count(),
                    map.failed_routers.iter().filter(|&&f| f).count()
                );
                assert_eq!(
                    map.is_clean(),
                    map.failed_link_count() == 0 && map.failed_router_count() == 0
                );
                assert_eq!(map.is_clean(), links.is_empty() && routers.is_empty());
            }
        }
    }

    #[test]
    fn adaptive_route_detours_around_a_dead_link() {
        let t = Topology::new(3, 3);
        let mut map = FaultMap::new(t);
        // Kill the eastward link (0,0)→(1,0) that XY would take.
        map.fail_link(NodeId::new(0, 0), 2);
        let src = NodeId::new(0, 0);
        let dst = NodeId::new(2, 0);
        let route = adaptive_route(src, dst, &map).expect("detour exists");
        assert_ne!(route, xy_route(src, dst));
        assert_valid_route(&route, src, dst, &map);
        assert_eq!(route.len(), 5, "shortest detour: down, across, up");
    }

    #[test]
    fn adaptive_route_detours_around_a_dead_router() {
        let t = Topology::new(3, 3);
        let mut map = FaultMap::new(t);
        map.fail_router(NodeId::new(1, 0)); // middle of the XY path
        let src = NodeId::new(0, 0);
        let dst = NodeId::new(2, 0);
        let route = adaptive_route(src, dst, &map).expect("detour exists");
        assert!(!route.contains(&NodeId::new(1, 0)));
        assert_valid_route(&route, src, dst, &map);
    }

    #[test]
    fn unreachable_destination_is_none_not_a_bad_route() {
        let t = Topology::new(3, 1);
        let mut map = FaultMap::new(t);
        map.fail_router(NodeId::new(1, 0)); // severs the 1-row mesh
        assert_eq!(
            adaptive_route(NodeId::new(0, 0), NodeId::new(2, 0), &map),
            None
        );
        // A dead destination is never routed to.
        let mut map2 = FaultMap::new(Topology::new(3, 3));
        map2.fail_router(NodeId::new(2, 2));
        assert_eq!(
            adaptive_route(NodeId::new(0, 0), NodeId::new(2, 2), &map2),
            None
        );
    }

    /// Every single-link and single-router failure on meshes from 2×2 to
    /// 4×4: for every (src, dst) pair the adaptive route either reaches
    /// dst over healthy elements only, or is `None` (fail secure) —
    /// never a path that skips the destination or touches dead hardware.
    #[test]
    fn adaptive_route_survives_every_single_failure() {
        for (cols, rows) in [(2u8, 2u8), (3, 2), (3, 3), (4, 3), (4, 4)] {
            let t = Topology::new(cols, rows);
            let mut cases: Vec<FaultMap> = Vec::new();
            for n in t.nodes() {
                for dir in 0..4 {
                    if neighbor(t, n, dir).is_some() {
                        let mut m = FaultMap::new(t);
                        m.fail_link(n, dir);
                        cases.push(m);
                    }
                }
                let mut m = FaultMap::new(t);
                m.fail_router(n);
                cases.push(m);
            }
            for map in &cases {
                for s in t.nodes() {
                    for d in t.nodes() {
                        match adaptive_route(s, d, map) {
                            Some(route) => assert_valid_route(&route, s, d, map),
                            None => {
                                // Only acceptable when an endpoint died:
                                // one dead link or router never partitions
                                // a 2D mesh with ≥2 rows and columns.
                                assert!(
                                    !map.router_ok(s) || !map.router_ok(d),
                                    "{s}->{d} unroutable without a dead endpoint"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn adaptive_route_is_deterministic() {
        let t = Topology::new(4, 4);
        let mut map = FaultMap::new(t);
        map.fail_link(NodeId::new(1, 1), 2);
        map.fail_router(NodeId::new(2, 2));
        for s in t.nodes() {
            for d in t.nodes() {
                assert_eq!(adaptive_route(s, d, &map), adaptive_route(s, d, &map));
            }
        }
    }

    #[test]
    fn neighbor_and_direction_agree() {
        let t = Topology::new(3, 3);
        let c = NodeId::new(1, 1);
        for dir in 0..4 {
            let n = neighbor(t, c, dir).unwrap();
            assert_eq!(direction_index(c, n), dir);
        }
        assert_eq!(neighbor(t, NodeId::new(0, 0), 0), None); // no north
        assert_eq!(neighbor(t, NodeId::new(2, 2), 1), None); // no south
    }

    /// Exhaustive over the 6×6 mesh: routes stay inside the mesh and never
    /// repeat a node (XY routes are minimal and loop-free).
    #[test]
    fn routes_stay_inside_any_containing_mesh() {
        let t = Topology::new(6, 6);
        for sx in 0u8..6 {
            for sy in 0u8..6 {
                for dx in 0u8..6 {
                    for dy in 0u8..6 {
                        let route = xy_route(NodeId::new(sx, sy), NodeId::new(dx, dy));
                        for hop in &route {
                            assert!(t.contains(*hop));
                        }
                        let mut sorted = route.clone();
                        sorted.sort();
                        sorted.dedup();
                        assert_eq!(sorted.len(), route.len());
                    }
                }
            }
        }
    }
}
