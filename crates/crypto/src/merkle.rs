//! The Integrity Core's hash tree.
//!
//! A binary Merkle tree over the protected external-memory blocks. The root
//! is on-chip state (trusted, like the Configuration Memories); interior
//! nodes conceptually live wherever the implementation caches them — what
//! matters for the threat model is that a verifier holding only the root
//! can detect any modification of a leaf, which is exactly what
//! [`MerkleTree::verify_proof`] provides.
//!
//! Leaf and interior hashes are domain-separated (`0x00` / `0x01` prefixes)
//! so an attacker cannot pass an interior node off as a leaf.
//!
//! ## Cached verification
//!
//! The AEGIS observation: an interior node whose value is held in trusted
//! on-chip storage is as good a verification anchor as the root itself. A
//! bounded [`NodeCache`] models that storage; [`MerkleTree::verify_leaf_cached`]
//! walks leaf-to-root but stops at the first cached ancestor, and
//! [`MerkleTree::update_leaf_cached`] charges a write only up to its first
//! cached ancestor. The functional state (every node, the root) stays
//! exactly what the uncached tree computes — the cache changes *cost*, not
//! *verdicts* — which is what lets the Integrity Core's timing model claim
//! the savings without perturbing a single alert.

use crate::sha256::{sha256, Digest, Sha256};

/// A bounded, deterministically-evicted cache of trusted interior nodes.
///
/// Keys are 1-based heap indices into a [`MerkleTree`]'s node array; the
/// value is the node digest as last seen by the owning tree. Eviction is
/// strict LRU on a monotonic access tick — the simulator is
/// single-threaded per instance, so the tick order (and therefore every
/// hit, miss and eviction) is a pure function of the access sequence.
#[derive(Debug, Clone)]
pub struct NodeCache {
    capacity: usize,
    tick: u64,
    /// `(node index, digest, last-use tick)`, unordered.
    entries: Vec<(usize, Digest, u64)>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl NodeCache {
    /// A cache holding at most `capacity` interior nodes.
    ///
    /// # Panics
    /// Panics on a zero capacity (an always-miss cache is a footgun —
    /// model "no cache" by not constructing one).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "node cache capacity must be positive");
        NodeCache {
            capacity,
            tick: 0,
            entries: Vec::with_capacity(capacity),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Maximum number of cached nodes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of currently cached nodes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime miss count (full walks to the root).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Lifetime eviction count.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// The cached digest for node `idx`, bumping its recency.
    fn get(&mut self, idx: usize) -> Option<Digest> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.iter_mut().find(|e| e.0 == idx).map(|e| {
            e.2 = tick;
            e.1
        })
    }

    /// Insert (or refresh) node `idx`, evicting the least-recently-used
    /// entry when full.
    fn insert(&mut self, idx: usize, digest: Digest) {
        self.tick += 1;
        if let Some(e) = self.entries.iter_mut().find(|e| e.0 == idx) {
            e.1 = digest;
            e.2 = self.tick;
            return;
        }
        if self.entries.len() == self.capacity {
            let lru = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.2)
                .map(|(i, _)| i)
                .expect("non-empty at capacity");
            self.entries.swap_remove(lru);
            self.evictions += 1;
        }
        self.entries.push((idx, digest, self.tick));
    }

    /// Refresh the stored value of node `idx` if present, without touching
    /// recency (a coherence write-through, not a use). Returns whether the
    /// node was cached.
    fn refresh(&mut self, idx: usize, digest: Digest) -> bool {
        match self.entries.iter_mut().find(|e| e.0 == idx) {
            Some(e) => {
                e.1 = digest;
                true
            }
            None => false,
        }
    }
}

/// Outcome of one cached path verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CachedVerify {
    /// Whether the leaf verified (identical to the uncached verdict).
    pub verified: bool,
    /// Interior hashes actually computed (≤ tree height); this is what
    /// the Integrity Core's timing model charges.
    pub levels_hashed: u32,
    /// Whether the walk stopped at a cached trusted ancestor.
    pub cache_hit: bool,
}

/// Domain-separation prefix for leaf hashes.
const LEAF_TAG: u8 = 0x00;
/// Domain-separation prefix for interior-node hashes.
const NODE_TAG: u8 = 0x01;

/// Hash a leaf's raw block content (with its time-stamp tag) into a digest.
///
/// The tag is bound into the leaf so that a replayed (old-tag) block fails
/// verification even if the raw bytes were once genuine.
pub fn leaf_digest(block_index: u64, timestamp: u64, data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(&[LEAF_TAG]);
    h.update(&block_index.to_be_bytes());
    h.update(&timestamp.to_be_bytes());
    h.update(data);
    h.finalize()
}

/// Hash two children into their parent. The preimage `NODE_TAG ‖ left ‖
/// right` is always 65 bytes, so it is laid out on the stack and its two
/// padded blocks are compressed in one call.
fn node_digest(left: &Digest, right: &Digest) -> Digest {
    let mut blocks = [0u8; 128];
    blocks[0] = NODE_TAG;
    blocks[1..33].copy_from_slice(left);
    blocks[33..65].copy_from_slice(right);
    Sha256::new().finish(blocks, 65, 65 * 8)
}

/// The parent digest of `acc`, held at heap index `idx`, and its
/// sibling `sib`: even indices are left children.
fn parent_digest(idx: usize, acc: &Digest, sib: &Digest) -> Digest {
    if idx.is_multiple_of(2) {
        node_digest(acc, sib)
    } else {
        node_digest(sib, acc)
    }
}

/// A binary hash tree with in-place leaf updates and membership proofs.
#[derive(Debug, Clone)]
pub struct MerkleTree {
    /// 1-based heap layout: node 1 is the root, leaves occupy
    /// `[leaf_base, leaf_base + capacity)`.
    nodes: Vec<Digest>,
    capacity: usize,
    leaves: usize,
}

/// Leaves each build worker should own before another thread pays off;
/// [`MerkleTree::build`] sizes its thread count from this, so trees
/// below ~2× this threshold build serially with zero thread setup.
const PAR_LEAVES_PER_THREAD: usize = 4096;

/// Interior levels narrower than this are hashed serially even inside a
/// parallel build — near the root there is too little work per level to
/// amortize a scoped-thread fork/join.
const PAR_MIN_LEVEL_WIDTH: usize = 1024;

/// Leaf verifications each worker of [`MerkleTree::verify_all`] should
/// own before fanning out.
const PAR_VERIFIES_PER_THREAD: usize = 256;

impl MerkleTree {
    /// Build a tree over `leaves` leaf digests (padded internally to the
    /// next power of two with the digest of an empty leaf).
    ///
    /// Large trees build their interior levels in parallel (see
    /// [`MerkleTree::build_with_threads`]); the resulting nodes — and
    /// therefore the root — are bit-identical for every thread count,
    /// so callers never observe the parallelism.
    ///
    /// # Panics
    /// Panics if `initial` is empty.
    pub fn build(initial: &[Digest]) -> Self {
        let threads = crate::par::auto_threads(initial.len(), PAR_LEAVES_PER_THREAD);
        Self::build_with_threads(initial, threads)
    }

    /// [`MerkleTree::build`] with an explicit worker count. Interior
    /// levels are computed bottom-up; each wide level fans its parent
    /// hashes out over contiguous index spans (the bench harness's
    /// order-preserving `par_map_with` discipline, via
    /// [`crate::par::par_map_indexed`]) and narrow levels near the root
    /// stay serial. Every node value is a pure function of the level
    /// below, so the tree is identical for any `threads`.
    pub fn build_with_threads(initial: &[Digest], threads: usize) -> Self {
        assert!(!initial.is_empty(), "MerkleTree needs at least one leaf");
        let leaves = initial.len();
        let capacity = leaves.next_power_of_two();
        let mut nodes = vec![[0u8; 32]; 2 * capacity];
        let pad = sha256(&[LEAF_TAG]);
        for i in 0..capacity {
            nodes[capacity + i] = if i < leaves { initial[i] } else { pad };
        }
        let threads = threads.max(1);
        let mut width = capacity / 2;
        while width >= 1 {
            if threads > 1 && width >= PAR_MIN_LEVEL_WIDTH {
                let level: Vec<Digest> = crate::par::par_map_indexed(width, threads, |i| {
                    let idx = width + i;
                    node_digest(&nodes[2 * idx], &nodes[2 * idx + 1])
                });
                nodes[width..2 * width].copy_from_slice(&level);
            } else {
                for i in width..2 * width {
                    // Digests are Copy: split the slice instead of cloning.
                    let (upper, lower) = nodes.split_at_mut(2 * i);
                    upper[i] = node_digest(&lower[0], &lower[1]);
                }
            }
            width /= 2;
        }
        MerkleTree {
            nodes,
            capacity,
            leaves,
        }
    }

    /// Verify candidate digests for leaves `0..candidates.len()` in
    /// bulk, fanning independent path walks out over worker threads.
    /// Element `i` of the result is exactly
    /// `self.verify_leaf(i, &candidates[i])`.
    ///
    /// # Panics
    /// Panics if there are more candidates than (real) leaves.
    pub fn verify_all(&self, candidates: &[Digest]) -> Vec<bool> {
        assert!(
            candidates.len() <= self.leaves,
            "more candidates than leaves"
        );
        let threads = crate::par::auto_threads(candidates.len(), PAR_VERIFIES_PER_THREAD);
        crate::par::par_map_indexed(candidates.len(), threads, |i| {
            self.verify_leaf(i, &candidates[i])
        })
    }

    /// Build a tree whose `leaves` leaves all hold `digest`.
    pub fn uniform(leaves: usize, digest: Digest) -> Self {
        Self::build(&vec![digest; leaves.max(1)])
    }

    /// Number of (real, unpadded) leaves.
    pub fn len(&self) -> usize {
        self.leaves
    }

    /// Whether the tree has zero real leaves (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.leaves == 0
    }

    /// Tree height in edges (root to leaf).
    pub fn height(&self) -> u32 {
        self.capacity.trailing_zeros()
    }

    /// The on-chip root.
    pub fn root(&self) -> Digest {
        self.nodes[1]
    }

    /// Current digest stored for leaf `i`.
    pub fn leaf(&self, i: usize) -> Digest {
        assert!(i < self.leaves, "leaf index out of range");
        self.nodes[self.capacity + i]
    }

    /// Replace leaf `i` and recompute the path to the root.
    ///
    /// Returns the number of interior nodes rehashed (= height), which the
    /// timing model uses to charge the Integrity Core's update cost.
    pub fn update_leaf(&mut self, i: usize, digest: Digest) -> u32 {
        assert!(i < self.leaves, "leaf index out of range");
        let mut idx = self.capacity + i;
        self.nodes[idx] = digest;
        let mut hops = 0;
        while idx > 1 {
            idx /= 2;
            let (upper, lower) = self.nodes.split_at_mut(2 * idx);
            upper[idx] = node_digest(&lower[0], &lower[1]);
            hops += 1;
        }
        hops
    }

    /// Like [`MerkleTree::update_leaf`], but charges the update only as
    /// far as its first cached trusted ancestor: the returned hop count is
    /// what the Integrity Core pays, while the tree itself (including the
    /// root) is still brought fully up to date, so roots and verdicts are
    /// identical to the uncached tree. Cached ancestors on the path are
    /// refreshed in place (the "dirty only the affected cached nodes"
    /// rule); nothing is inserted or evicted by an update.
    pub fn update_leaf_cached(&mut self, i: usize, digest: Digest, cache: &mut NodeCache) -> u32 {
        assert!(i < self.leaves, "leaf index out of range");
        let mut idx = self.capacity + i;
        self.nodes[idx] = digest;
        let mut hops = 0;
        let mut charged = None;
        while idx > 1 {
            idx /= 2;
            let (upper, lower) = self.nodes.split_at_mut(2 * idx);
            upper[idx] = node_digest(&lower[0], &lower[1]);
            hops += 1;
            if cache.refresh(idx, self.nodes[idx]) && charged.is_none() {
                charged = Some(hops);
            }
        }
        charged.unwrap_or(hops)
    }

    /// Verify leaf `i` against the tree, stopping at the first cached
    /// trusted ancestor instead of walking to the root.
    ///
    /// The verdict is **identical** to [`MerkleTree::verify_leaf`] as long
    /// as the cache only ever holds values this tree wrote into it (which
    /// the `_cached` methods guarantee); what changes is
    /// [`CachedVerify::levels_hashed`]. Every *successful* verification
    /// (full walk or early exit at a trusted ancestor) re-inserts the
    /// leaf's path into the cache: the walked segment is authenticated
    /// either way, and without the re-insert on hits, unrelated cold
    /// traffic steadily evicts a hot set's low anchors and hit walks get
    /// permanently longer. With the re-insert, repeated traffic to a
    /// working set converges to (and stays at) one-level walks.
    pub fn verify_leaf_cached(
        &self,
        i: usize,
        candidate: &Digest,
        cache: &mut NodeCache,
    ) -> CachedVerify {
        assert!(i < self.leaves, "leaf index out of range");
        let mut acc = *candidate;
        let mut idx = self.capacity + i;
        let mut levels = 0u32;
        while idx > 1 {
            acc = parent_digest(idx, &acc, &self.nodes[idx ^ 1]);
            levels += 1;
            idx /= 2;
            if idx > 1 {
                if let Some(trusted) = cache.get(idx) {
                    cache.hits += 1;
                    let verified = acc == trusted;
                    if verified {
                        self.cache_path(i, cache);
                    }
                    return CachedVerify {
                        verified,
                        levels_hashed: levels,
                        cache_hit: true,
                    };
                }
            }
        }
        let verified = acc == self.root();
        cache.misses += 1;
        if verified {
            self.cache_path(i, cache);
        }
        CachedVerify {
            verified,
            levels_hashed: levels,
            cache_hit: false,
        }
    }

    /// Insert leaf `i`'s interior path (excluding the root, which is
    /// on-chip and free) into the cache. Only called after the path was
    /// authenticated, so every inserted value is trusted.
    fn cache_path(&self, i: usize, cache: &mut NodeCache) {
        let mut fill = self.capacity + i;
        while fill > 3 {
            fill /= 2;
            cache.insert(fill, self.nodes[fill]);
        }
    }

    /// Membership proof for leaf `i`: the sibling digests from leaf level
    /// up to (excluding) the root.
    pub fn proof(&self, i: usize) -> Vec<Digest> {
        assert!(i < self.leaves, "leaf index out of range");
        let mut idx = self.capacity + i;
        let mut out = Vec::with_capacity(self.height() as usize);
        while idx > 1 {
            out.push(self.nodes[idx ^ 1]);
            idx /= 2;
        }
        out
    }

    /// Verify that `leaf` is the digest of leaf `i` in the tree with the
    /// given `root`, using a sibling `proof`.
    pub fn verify_proof(root: &Digest, i: usize, leaf: &Digest, proof: &[Digest]) -> bool {
        let mut acc = *leaf;
        let mut idx = i;
        for sib in proof {
            acc = parent_digest(idx, &acc, sib);
            idx /= 2;
        }
        acc == *root
    }

    /// Convenience: check a candidate digest for leaf `i` directly against
    /// the tree (what the Integrity Core does on a read). The same walk as
    /// [`MerkleTree::verify_proof`] over [`MerkleTree::proof`], reading
    /// each sibling in place instead of collecting the proof first.
    pub fn verify_leaf(&self, i: usize, candidate: &Digest) -> bool {
        assert!(i < self.leaves, "leaf index out of range");
        let mut acc = *candidate;
        let mut idx = self.capacity + i;
        while idx > 1 {
            acc = parent_digest(idx, &acc, &self.nodes[idx ^ 1]);
            idx /= 2;
        }
        acc == self.root()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves(n: usize) -> Vec<Digest> {
        (0..n)
            .map(|i| leaf_digest(i as u64, 0, &[i as u8; 16]))
            .collect()
    }

    #[test]
    fn build_and_verify_all_leaves() {
        let init = leaves(5); // non-power-of-two
        let tree = MerkleTree::build(&init);
        assert_eq!(tree.len(), 5);
        assert_eq!(tree.height(), 3); // padded to 8
        for (i, l) in init.iter().enumerate() {
            assert!(tree.verify_leaf(i, l), "leaf {i}");
        }
    }

    #[test]
    fn wrong_leaf_fails_verification() {
        let tree = MerkleTree::build(&leaves(4));
        let forged = leaf_digest(0, 0, b"forged");
        assert!(!tree.verify_leaf(0, &forged));
    }

    #[test]
    fn update_changes_root_and_verifies() {
        let mut tree = MerkleTree::build(&leaves(8));
        let old_root = tree.root();
        let new = leaf_digest(3, 1, &[0xff; 16]);
        let hops = tree.update_leaf(3, new);
        assert_eq!(hops, 3);
        assert_ne!(tree.root(), old_root);
        assert!(tree.verify_leaf(3, &new));
        // Other leaves still verify under the new root.
        assert!(tree.verify_leaf(0, &leaf_digest(0, 0, &[0; 16])));
    }

    #[test]
    fn replayed_leaf_fails_after_update() {
        // The detection path for a replay attack: the attacker restores the
        // old block bytes, but the tree has moved on.
        let mut tree = MerkleTree::build(&leaves(4));
        let old = tree.leaf(2);
        tree.update_leaf(2, leaf_digest(2, 1, &[9; 16]));
        assert!(!tree.verify_leaf(2, &old), "stale leaf must not verify");
    }

    #[test]
    fn relocated_leaf_fails() {
        // Leaf content copied from index 1 to index 2: the block-index
        // binding in the leaf digest breaks it even with identical bytes.
        let data = [0x77u8; 16];
        let l1 = leaf_digest(1, 0, &data);
        let l2 = leaf_digest(2, 0, &data);
        assert_ne!(l1, l2);
        let tree = MerkleTree::build(&[leaf_digest(0, 0, &data), l1, l2, leaf_digest(3, 0, &data)]);
        assert!(!tree.verify_leaf(2, &l1));
    }

    #[test]
    fn proof_roundtrip_and_tamper_detection() {
        let init = leaves(8);
        let tree = MerkleTree::build(&init);
        let proof = tree.proof(5);
        assert_eq!(proof.len(), 3);
        assert!(MerkleTree::verify_proof(&tree.root(), 5, &init[5], &proof));
        // Tampered sibling breaks the proof.
        let mut bad = proof.clone();
        bad[1][0] ^= 1;
        assert!(!MerkleTree::verify_proof(&tree.root(), 5, &init[5], &bad));
        // Wrong index breaks the proof.
        assert!(!MerkleTree::verify_proof(&tree.root(), 4, &init[5], &proof));
    }

    #[test]
    fn single_leaf_tree() {
        let d = leaf_digest(0, 0, b"only");
        let tree = MerkleTree::build(&[d]);
        assert_eq!(tree.height(), 0);
        assert_eq!(tree.root(), d);
        assert!(tree.verify_leaf(0, &d));
        assert!(tree.proof(0).is_empty());
    }

    #[test]
    fn uniform_constructor() {
        let d = leaf_digest(0, 0, &[0; 16]);
        let tree = MerkleTree::uniform(16, d);
        assert_eq!(tree.len(), 16);
        assert!(tree.verify_leaf(15, &d));
    }

    #[test]
    fn domain_separation_leaf_vs_node() {
        // An interior node value must not verify as a leaf of a 2-level tree.
        let l = leaves(2);
        let tree = MerkleTree::build(&l);
        let root = tree.root();
        // Trying to use the root itself as a "leaf" with an empty proof
        // against itself is the classic confusion attack; the tag prevents
        // nothing here (empty proof trivially matches), but using a node as
        // a leaf one level down must fail:
        assert!(!tree.verify_leaf(0, &root));
    }

    #[test]
    #[should_panic(expected = "at least one leaf")]
    fn empty_build_panics() {
        MerkleTree::build(&[]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_leaf_panics() {
        MerkleTree::build(&leaves(3)).leaf(3);
    }

    /// Cached verification returns the exact verdict of the uncached walk
    /// for random trees, access patterns, updates and tampered leaves,
    /// while never hashing more levels than the tree height.
    #[test]
    fn cached_verify_is_verdict_equivalent() {
        let mut state = 0xcac4_e000_0000_0001u64;
        let mut next = move || crate::test_rng::splitmix64(&mut state);
        for round in 0..64 {
            let n = 1 + (next() % 63) as usize;
            let mut tree = MerkleTree::build(&leaves(n));
            let mut cache = NodeCache::new(1 + (next() % 16) as usize);
            let mut current: Vec<Digest> = (0..n).map(|i| tree.leaf(i)).collect();
            for op in 0..48 {
                let idx = (next() % n as u64) as usize;
                match next() % 3 {
                    0 => {
                        // Update through the cached path.
                        let d = leaf_digest(idx as u64, next(), &[op as u8; 16]);
                        let hops = tree.update_leaf_cached(idx, d, &mut cache);
                        assert!(hops <= tree.height().max(1));
                        current[idx] = d;
                    }
                    1 => {
                        // Clean read: must verify both ways.
                        let r = tree.verify_leaf_cached(idx, &current[idx], &mut cache);
                        assert!(r.verified, "round {round} op {op}");
                        assert!(r.levels_hashed <= tree.height());
                        assert!(tree.verify_leaf(idx, &current[idx]));
                    }
                    _ => {
                        // Tampered read: must fail both ways.
                        let mut bad = current[idx];
                        bad[(next() % 32) as usize] ^= 1 << (next() % 8);
                        let r = tree.verify_leaf_cached(idx, &bad, &mut cache);
                        assert_eq!(r.verified, tree.verify_leaf(idx, &bad));
                        assert!(!r.verified, "round {round} op {op}");
                    }
                }
            }
            assert!(cache.len() <= cache.capacity());
        }
    }

    /// A hot working set converges to short walks: after warm-up, repeated
    /// reads of the same leaf stop at a cached ancestor.
    #[test]
    fn cached_verify_hits_after_warmup() {
        let tree = MerkleTree::build(&leaves(256)); // height 8
        let mut cache = NodeCache::new(32);
        let leaf = tree.leaf(7);
        let cold = tree.verify_leaf_cached(7, &leaf, &mut cache);
        assert!(cold.verified && !cold.cache_hit);
        assert_eq!(cold.levels_hashed, tree.height());
        let warm = tree.verify_leaf_cached(7, &leaf, &mut cache);
        assert!(warm.verified && warm.cache_hit);
        assert!(warm.levels_hashed < cold.levels_hashed);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    /// Updates keep cached ancestors coherent: a cached verify after an
    /// update must accept the new leaf and reject the old one.
    #[test]
    fn cache_stays_coherent_across_updates() {
        let mut tree = MerkleTree::build(&leaves(64));
        let mut cache = NodeCache::new(16);
        let old = tree.leaf(5);
        // Warm the cache on leaf 5's path.
        assert!(tree.verify_leaf_cached(5, &old, &mut cache).verified);
        let new = leaf_digest(5, 99, &[0xEE; 16]);
        let charged = tree.update_leaf_cached(5, new, &mut cache);
        assert!(
            charged < tree.height(),
            "warmed path must stop at a cached ancestor (charged {charged})"
        );
        let r = tree.verify_leaf_cached(5, &new, &mut cache);
        assert!(r.verified && r.cache_hit);
        assert!(!tree.verify_leaf_cached(5, &old, &mut cache).verified);
        assert_eq!(tree.root(), {
            // The cached-update tree root equals a scratch uncached tree's.
            let mut scratch = MerkleTree::build(&leaves(64));
            scratch.update_leaf(5, new);
            scratch.root()
        });
    }

    /// Eviction is deterministic: two caches fed the identical access
    /// sequence are identical in hits, misses and evictions.
    #[test]
    fn cache_eviction_is_deterministic() {
        let tree = MerkleTree::build(&leaves(128));
        let run = || {
            let mut cache = NodeCache::new(4);
            let mut state = 0x0dde_7e12_3456_789au64;
            for _ in 0..200 {
                let idx = (crate::test_rng::splitmix64(&mut state) % 128) as usize;
                tree.verify_leaf_cached(idx, &tree.leaf(idx), &mut cache);
            }
            (cache.hits(), cache.misses(), cache.evictions(), cache.len())
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(a.2 > 0, "a 4-entry cache under 128 leaves must evict");
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_cache_rejected() {
        NodeCache::new(0);
    }

    /// Randomized: any single flipped bit in any leaf of any tree size is
    /// detected by path verification.
    #[test]
    fn any_single_bit_flip_is_detected() {
        let mut state = 0xfeed_beef_cafe_f00du64;
        let mut next = move || crate::test_rng::splitmix64(&mut state);
        for _ in 0..256 {
            let n = 1 + (next() % 31) as usize;
            let init = leaves(n);
            let idx = (next() % n as u64) as usize;
            let byte = (next() % 32) as usize;
            let bit = (next() % 8) as u8;
            let tree = MerkleTree::build(&init);
            let mut tampered = init[idx];
            tampered[byte] ^= 1 << bit;
            assert!(
                !tree.verify_leaf(idx, &tampered),
                "n={n} idx={idx} byte={byte} bit={bit}"
            );
        }
    }

    /// Parallel builds are bit-identical to the serial build for every
    /// thread count, including tree sizes that cross the parallel level
    /// threshold and non-power-of-two leaf counts.
    #[test]
    fn parallel_build_matches_serial_for_any_thread_count() {
        for n in [1usize, 5, 1023, 2048, 2049, 4096] {
            let init = leaves(n);
            let serial = MerkleTree::build_with_threads(&init, 1);
            for threads in [2, 3, 4, 8, 13] {
                let par = MerkleTree::build_with_threads(&init, threads);
                assert_eq!(par.root(), serial.root(), "n={n} threads={threads}");
                assert_eq!(par.nodes, serial.nodes, "n={n} threads={threads}");
            }
            // The auto-sizing entry point too.
            assert_eq!(MerkleTree::build(&init).nodes, serial.nodes, "n={n}");
        }
    }

    /// Bulk parallel verification returns element-wise exactly what the
    /// per-leaf walk returns, tampered leaves included.
    #[test]
    fn verify_all_matches_per_leaf() {
        let init = leaves(600);
        let tree = MerkleTree::build(&init);
        let mut candidates = init.clone();
        candidates[17][3] ^= 1;
        candidates[599][0] ^= 0x80;
        let bulk = tree.verify_all(&candidates);
        assert_eq!(bulk.len(), 600);
        for (i, ok) in bulk.iter().enumerate() {
            assert_eq!(*ok, tree.verify_leaf(i, &candidates[i]), "leaf {i}");
        }
        assert!(!bulk[17] && !bulk[599]);
        assert!(bulk[0] && bulk[18]);
    }

    #[test]
    #[should_panic(expected = "more candidates than leaves")]
    fn verify_all_rejects_excess_candidates() {
        MerkleTree::build(&leaves(2)).verify_all(&leaves(3));
    }

    /// Randomized: arbitrary update sequences keep every leaf verifiable.
    #[test]
    fn updates_keep_all_leaves_verifiable() {
        let mut state = 0x0123_4567_89ab_cdefu64;
        let mut next = move || crate::test_rng::splitmix64(&mut state);
        for _ in 0..64 {
            let mut tree = MerkleTree::build(&leaves(16));
            let mut current: Vec<Digest> = (0..16).map(|i| tree.leaf(i)).collect();
            let ops = 1 + (next() % 39) as usize;
            for _ in 0..ops {
                let idx = (next() % 16) as usize;
                let ts = next() % 100;
                let d = leaf_digest(idx as u64, ts, &[idx as u8; 16]);
                tree.update_leaf(idx, d);
                current[idx] = d;
            }
            for (i, d) in current.iter().enumerate() {
                assert!(tree.verify_leaf(i, d));
            }
        }
    }
}
