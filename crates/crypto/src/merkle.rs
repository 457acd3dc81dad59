//! Binary Merkle trees with membership proofs.
//!
//! Used by the Merkle signature scheme ([`crate::mss`]) and by the SSI
//! layer's verifiable data registry to commit to document sets.
//!
//! Leaf and interior hashes are domain-separated (`0x00` / `0x01`
//! prefixes) to prevent second-preimage tricks that reinterpret interior
//! nodes as leaves.

use crate::sha256::{Digest, Sha256};

/// Hashes a leaf value.
pub fn leaf_hash(data: &[u8]) -> Digest {
    Sha256::digest_parts(&[&[0x00], data])
}

/// Hashes two child digests into their parent.
pub fn node_hash(left: &Digest, right: &Digest) -> Digest {
    Sha256::digest_parts(&[&[0x01], left, right])
}

/// A complete binary Merkle tree over a list of leaf values.
///
/// A node left without a partner at any level is promoted unchanged to
/// the next level (no duplicate-leaf pairing, which is a known
/// second-preimage footgun).
///
/// # Example
///
/// ```
/// use autosec_crypto::MerkleTree;
/// let tree = MerkleTree::from_leaves(&[b"a".as_ref(), b"b".as_ref(), b"c".as_ref()]);
/// let proof = tree.prove(1).unwrap();
/// assert!(proof.verify(&tree.root(), b"b"));
/// assert!(!proof.verify(&tree.root(), b"x"));
/// ```
#[derive(Debug, Clone)]
pub struct MerkleTree {
    /// levels\[0\] = leaf hashes, last level = [root].
    levels: Vec<Vec<Digest>>,
}

/// Which side a sibling sits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// Sibling is the left child; our node is right.
    Left,
    /// Sibling is the right child; our node is left.
    Right,
}

/// A membership proof: sibling hashes from leaf to root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MerkleProof {
    leaf_index: usize,
    /// Sibling digest at each level, bottom-up; `None` when the node was
    /// promoted without a sibling.
    siblings: Vec<Option<(Side, Digest)>>,
}

impl MerkleTree {
    /// Builds a tree over raw leaf values.
    ///
    /// # Panics
    ///
    /// Panics if `leaves` is empty.
    pub fn from_leaves(leaves: &[&[u8]]) -> Self {
        assert!(!leaves.is_empty(), "merkle tree needs at least one leaf");
        let hashed: Vec<Digest> = leaves.iter().map(|l| leaf_hash(l)).collect();
        Self::from_leaf_hashes(hashed)
    }

    /// Builds a tree over pre-hashed leaves.
    ///
    /// # Panics
    ///
    /// Panics if `leaf_hashes` is empty.
    pub fn from_leaf_hashes(leaf_hashes: Vec<Digest>) -> Self {
        assert!(
            !leaf_hashes.is_empty(),
            "merkle tree needs at least one leaf"
        );
        let mut levels = vec![leaf_hashes];
        while levels.last().expect("nonempty").len() > 1 {
            let prev = levels.last().expect("nonempty");
            let mut next = Vec::with_capacity(prev.len().div_ceil(2));
            for pair in prev.chunks(2) {
                if pair.len() == 2 {
                    next.push(node_hash(&pair[0], &pair[1]));
                } else {
                    next.push(pair[0]); // promote
                }
            }
            levels.push(next);
        }
        Self { levels }
    }

    /// The root digest.
    pub fn root(&self) -> Digest {
        self.levels.last().expect("nonempty")[0]
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.levels[0].len()
    }

    /// Generates a membership proof for leaf `index`; `None` if out of
    /// range.
    pub fn prove(&self, index: usize) -> Option<MerkleProof> {
        if index >= self.leaf_count() {
            return None;
        }
        let mut siblings = Vec::new();
        let mut idx = index;
        for level in &self.levels[..self.levels.len() - 1] {
            let sib = if idx.is_multiple_of(2) {
                level.get(idx + 1).map(|d| (Side::Right, *d))
            } else {
                Some((Side::Left, level[idx - 1]))
            };
            siblings.push(sib);
            idx /= 2;
        }
        Some(MerkleProof {
            leaf_index: index,
            siblings,
        })
    }
}

impl MerkleProof {
    /// Proof depth (tree height).
    pub fn depth(&self) -> usize {
        self.siblings.len()
    }

    /// Verifies that `leaf_value` is a member under `root`.
    pub fn verify(&self, root: &Digest, leaf_value: &[u8]) -> bool {
        self.verify_leaf_hash(root, &leaf_hash(leaf_value))
    }

    /// Verifies from a pre-computed leaf hash.
    pub fn verify_leaf_hash(&self, root: &Digest, leaf: &Digest) -> bool {
        let mut acc = *leaf;
        for sib in &self.siblings {
            acc = match sib {
                Some((Side::Left, d)) => node_hash(d, &acc),
                Some((Side::Right, d)) => node_hash(&acc, d),
                None => acc, // promoted node
            };
        }
        acc == *root
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("leaf-{i}").into_bytes()).collect()
    }

    #[test]
    fn single_leaf_root_is_leaf_hash() {
        let tree = MerkleTree::from_leaves(&[b"only".as_ref()]);
        assert_eq!(tree.root(), leaf_hash(b"only"));
        let p = tree.prove(0).unwrap();
        assert!(p.verify(&tree.root(), b"only"));
    }

    #[test]
    fn all_proofs_verify_for_various_sizes() {
        for n in [1usize, 2, 3, 4, 5, 7, 8, 9, 16, 31, 33] {
            let data = leaves(n);
            let refs: Vec<&[u8]> = data.iter().map(|v| v.as_slice()).collect();
            let tree = MerkleTree::from_leaves(&refs);
            for (i, leaf) in data.iter().enumerate() {
                let p = tree.prove(i).unwrap();
                assert!(p.verify(&tree.root(), leaf), "n={n} i={i}");
                assert_eq!(p.leaf_index, i);
            }
        }
    }

    #[test]
    fn wrong_leaf_fails() {
        let data = leaves(8);
        let refs: Vec<&[u8]> = data.iter().map(|v| v.as_slice()).collect();
        let tree = MerkleTree::from_leaves(&refs);
        let p = tree.prove(3).unwrap();
        assert!(!p.verify(&tree.root(), b"leaf-4"));
    }

    #[test]
    fn wrong_root_fails() {
        let data = leaves(4);
        let refs: Vec<&[u8]> = data.iter().map(|v| v.as_slice()).collect();
        let tree = MerkleTree::from_leaves(&refs);
        let p = tree.prove(0).unwrap();
        let mut bad_root = tree.root();
        bad_root[0] ^= 1;
        assert!(!p.verify(&bad_root, b"leaf-0"));
    }

    #[test]
    fn out_of_range_proof_is_none() {
        let tree = MerkleTree::from_leaves(&[b"a".as_ref(), b"b".as_ref()]);
        assert!(tree.prove(2).is_none());
    }

    #[test]
    fn leaf_and_node_domains_differ() {
        // A leaf containing what looks like two digests must not equal the
        // interior hash of those digests.
        let a = leaf_hash(b"x");
        let b = leaf_hash(b"y");
        let mut cat = Vec::new();
        cat.extend_from_slice(&a);
        cat.extend_from_slice(&b);
        assert_ne!(leaf_hash(&cat), node_hash(&a, &b));
    }

    #[test]
    fn order_matters() {
        let t1 = MerkleTree::from_leaves(&[b"a".as_ref(), b"b".as_ref()]);
        let t2 = MerkleTree::from_leaves(&[b"b".as_ref(), b"a".as_ref()]);
        assert_ne!(t1.root(), t2.root());
    }

    #[test]
    fn depth_grows_logarithmically() {
        let data = leaves(16);
        let refs: Vec<&[u8]> = data.iter().map(|v| v.as_slice()).collect();
        let tree = MerkleTree::from_leaves(&refs);
        assert_eq!(tree.prove(0).unwrap().depth(), 4);
    }
}
