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
//! Every preimage the tree hashes is short and laid out on the stack
//! with its padding: a leaf over a 16-byte block is one SHA-256 block,
//! an interior node two. A build hashes them in pairs, two leaves or
//! two sibling nodes per compression call, so the SHA-NI backend
//! interleaves two independent streams.
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

use crate::ctr::BLOCK_BYTES;
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

/// Bytes of a leaf preimage ahead of the data: tag, index, time-stamp.
const LEAF_HEADER: usize = 17;
/// A leaf preimage over one 16-byte block: one padded SHA-256 block.
const BLOCK_LEAF: usize = LEAF_HEADER + BLOCK_BYTES;
/// An interior-node preimage: two padded SHA-256 blocks.
const NODE: usize = 1 + 2 * 32;
/// Preimages shorter than this fit one stack tail with their padding.
const STACK_PREIMAGE: usize = 120;

/// The leaf preimage `LEAF_TAG ‖ index ‖ timestamp ‖ data` at the front
/// of a zeroed stack tail, ready for padding.
fn leaf_preimage(block_index: u64, timestamp: u64, data: &[u8]) -> [u8; 128] {
    let mut tail = [0u8; 128];
    tail[0] = LEAF_TAG;
    tail[1..9].copy_from_slice(&block_index.to_be_bytes());
    tail[9..LEAF_HEADER].copy_from_slice(&timestamp.to_be_bytes());
    tail[LEAF_HEADER..LEAF_HEADER + data.len()].copy_from_slice(data);
    tail
}

/// Hash a leaf's raw block content (with its time-stamp tag) into a digest.
///
/// The tag is bound into the leaf so that a replayed (old-tag) block fails
/// verification even if the raw bytes were once genuine. A preimage that
/// fits one stack tail (every protection block does) is padded in place
/// and compressed in one call; longer data streams.
pub fn leaf_digest(block_index: u64, timestamp: u64, data: &[u8]) -> Digest {
    let n = LEAF_HEADER + data.len();
    if n < STACK_PREIMAGE {
        let tail = leaf_preimage(block_index, timestamp, data);
        return Sha256::new().finish(tail, n, n as u64 * 8);
    }
    let mut h = Sha256::new();
    h.update(&leaf_preimage(block_index, timestamp, &[])[..LEAF_HEADER]);
    h.update(data);
    h.finalize()
}

/// Leaf digests of a run of 16-byte blocks: `out[i]` is
/// [`leaf_digest`]`(i, tags[i], block i)`. Adjacent leaves are hashed in
/// pairs from stack preimages, two per compression call; an odd last
/// leaf is hashed alone.
///
/// # Panics
/// Panics unless `blocks` holds exactly one 16-byte block per tag and
/// `out` one slot per tag.
pub fn leaf_digests(blocks: &[u8], tags: &[u64], out: &mut [Digest]) {
    assert_eq!(
        blocks.len(),
        tags.len() * BLOCK_BYTES,
        "one 16-byte block per tag"
    );
    assert_eq!(out.len(), tags.len(), "one digest slot per tag");
    let leaf =
        |i: usize| leaf_preimage(i as u64, tags[i], &blocks[i * BLOCK_BYTES..][..BLOCK_BYTES]);
    let hasher = Sha256::new();
    let mut pairs = out.chunks_exact_mut(2);
    for (p, pair) in (&mut pairs).enumerate() {
        let mut tails = [leaf(2 * p), leaf(2 * p + 1)];
        let hashers = [hasher.clone(), hasher.clone()];
        Sha256::finish_pair(hashers, &mut tails, BLOCK_LEAF, BLOCK_LEAF as u64 * 8, pair);
    }
    if let [last] = pairs.into_remainder() {
        *last = hasher.finish(leaf(tags.len() - 1), BLOCK_LEAF, BLOCK_LEAF as u64 * 8);
    }
}

/// The node preimage `NODE_TAG ‖ left ‖ right` at the front of a zeroed
/// stack tail, ready for padding.
fn node_preimage(left: &Digest, right: &Digest) -> [u8; 128] {
    let mut tail = [0u8; 128];
    tail[0] = NODE_TAG;
    tail[1..33].copy_from_slice(left);
    tail[33..NODE].copy_from_slice(right);
    tail
}

/// Hash two children into their parent. The preimage is always 65
/// bytes, so its two padded blocks are compressed in one call.
fn node_digest(left: &Digest, right: &Digest) -> Digest {
    Sha256::new().finish(node_preimage(left, right), NODE, NODE as u64 * 8)
}

/// Hash two sibling parents at once from their four children
/// `[left0, right0, left1, right1]` into `parents`.
fn node_digest_pair(children: &[Digest], parents: &mut [Digest]) {
    let mut tails = [
        node_preimage(&children[0], &children[1]),
        node_preimage(&children[2], &children[3]),
    ];
    let hashers = [Sha256::new(), Sha256::new()];
    Sha256::finish_pair(hashers, &mut tails, NODE, NODE as u64 * 8, parents);
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

impl MerkleTree {
    /// Build a tree over `leaves` leaf digests (padded internally to the
    /// next power of two with the digest of an empty leaf), copied into
    /// the leaf level of [`MerkleTree::from_fn`]'s node array.
    ///
    /// # Panics
    /// Panics if `initial` is empty.
    pub fn build(initial: &[Digest]) -> Self {
        Self::from_fn(initial.len(), |level| level.copy_from_slice(initial))
    }

    /// Build a tree over `leaves` leaves whose digests `fill` writes,
    /// straight into the leaf level of the node array (for blocks in
    /// memory, [`leaf_digests`] hashes them there in pairs). The padding
    /// leaves up to the next power of two hold the digest of an empty
    /// leaf, and the interior levels are then hashed in place.
    ///
    /// # Panics
    /// Panics if `leaves` is zero.
    pub fn from_fn(leaves: usize, fill: impl FnOnce(&mut [Digest])) -> Self {
        assert!(leaves > 0, "MerkleTree needs at least one leaf");
        let capacity = leaves.next_power_of_two();
        let mut nodes = vec![[0u8; 32]; 2 * capacity];
        let (real, pad) = nodes[capacity..].split_at_mut(leaves);
        fill(real);
        pad.fill(sha256(&[LEAF_TAG]));
        // Node `i`'s children `2i` and `2i + 1` sit above it in the
        // array, so a descending pass hashes every child before its
        // parent. It hashes the siblings `(i - 1, i)` of one level
        // together, from their four children, and the root last.
        for i in (3..capacity).rev().step_by(2) {
            let (upper, lower) = nodes.split_at_mut(2 * (i - 1));
            node_digest_pair(&lower[..4], &mut upper[i - 1..]);
        }
        if capacity > 1 {
            nodes[1] = node_digest(&nodes[2], &nodes[3]);
        }
        MerkleTree {
            nodes,
            capacity,
            leaves,
        }
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

    /// Leaf digests are the spec's `SHA-256(0x00 ‖ index ‖ timestamp ‖
    /// data)` at every data length, on both sides of the stack-preimage
    /// limit, and the paired hasher gives the same leaves for even and
    /// odd runs of 16-byte blocks.
    #[test]
    fn leaf_digests_match_the_spec() {
        let data: Vec<u8> = (0..=255u8).rev().cycle().take(150).collect();
        for len in 0..=data.len() {
            let mut preimage = vec![LEAF_TAG];
            preimage.extend_from_slice(&(len as u64).to_be_bytes());
            preimage.extend_from_slice(&7u64.to_be_bytes());
            preimage.extend_from_slice(&data[..len]);
            assert_eq!(
                leaf_digest(len as u64, 7, &data[..len]),
                sha256(&preimage),
                "{len} bytes"
            );
        }
        for n in [1usize, 2, 3, 8, 9] {
            let tags: Vec<u64> = (0..n as u64).map(|i| 3 * i + 1).collect();
            let mut out = vec![[0u8; 32]; n];
            leaf_digests(&data[..16 * n], &tags, &mut out);
            for (i, d) in out.iter().enumerate() {
                assert_eq!(
                    *d,
                    leaf_digest(i as u64, tags[i], &data[16 * i..16 * i + 16])
                );
            }
        }
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
        // The authenticated path, root excluded, is now cached.
        let path = tree.height() as usize - 1;
        assert_eq!(cache.len(), path);
        let warm = tree.verify_leaf_cached(7, &leaf, &mut cache);
        assert!(warm.verified && warm.cache_hit);
        assert_eq!(warm.levels_hashed, 1, "the leaf's parent is cached");
        assert_eq!(cache.len(), path, "a hit re-caches the same path");
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
    /// sequence return the identical result for every access.
    #[test]
    fn cache_eviction_is_deterministic() {
        let tree = MerkleTree::build(&leaves(128));
        let run = || {
            let mut cache = NodeCache::new(4);
            let mut state = 0x0dde_7e12_3456_789au64;
            let walks: Vec<CachedVerify> = (0..200)
                .map(|_| {
                    let idx = (crate::test_rng::splitmix64(&mut state) % 128) as usize;
                    tree.verify_leaf_cached(idx, &tree.leaf(idx), &mut cache)
                })
                .collect();
            (walks, cache.len())
        };
        let (walks, len) = run();
        assert_eq!((walks.clone(), len), run());
        assert_eq!(len, 4);
        // Without eviction nodes 2 and 3 would anchor every walk after
        // the first miss in each half of the tree.
        let misses = walks.iter().filter(|w| !w.cache_hit).count();
        assert!(misses > 2, "a 4-entry cache under 128 leaves must evict");
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
