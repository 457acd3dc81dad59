//! SHA-256 (FIPS 180-4), streaming and one-shot.
//!
//! Besides the [`Sha256`] hasher, the module has a crate-private
//! fixed-layout path for messages of at most 55 bytes, which pad to
//! exactly one block: the caller lays each message out as a `WordBlock`,
//! and `digest_blocks` compresses several independent ones once each
//! from the initial state, with no streaming buffer. On the SHA
//! extensions the lanes' rounds are issued back to back so that their
//! latencies overlap; elsewhere each lane runs the portable `compress`.
//! The WOTS chains in [`crate::ots`] use it, and the tests check it
//! against the portable function on random blocks.

/// Round constants: first 32 bits of the fractional parts of the cube
/// roots of the first 64 primes.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// A 32-byte SHA-256 digest.
pub type Digest = [u8; 32];

/// Streaming SHA-256 hasher.
///
/// # Example
///
/// ```
/// use autosec_crypto::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(h.finalize(), Sha256::digest(b"abc"));
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    length_bytes: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Self {
            state: H0,
            buffer: [0u8; 64],
            buffered: 0,
            length_bytes: 0,
        }
    }

    /// One-shot convenience: digest of `data`.
    pub fn digest(data: &[u8]) -> Digest {
        let mut h = Self::new();
        h.update(data);
        h.finalize()
    }

    /// One-shot digest of the concatenation of several parts, without
    /// allocating a joined buffer.
    pub fn digest_parts(parts: &[&[u8]]) -> Digest {
        let mut h = Self::new();
        for p in parts {
            h.update(p);
        }
        h.finalize()
    }

    /// Absorbs more input.
    pub fn update(&mut self, mut data: &[u8]) {
        self.length_bytes = self
            .length_bytes
            .checked_add(data.len() as u64)
            .expect("SHA-256 input exceeds 2^64 bytes");
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered < 64 {
                return;
            }
            compress_blocks(&mut self.state, std::slice::from_ref(&self.buffer));
            self.buffered = 0;
        }
        let (blocks, rest) = data.as_chunks::<64>();
        compress_blocks(&mut self.state, blocks);
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    /// Finishes and returns the digest, consuming the hasher state.
    pub fn finalize(mut self) -> Digest {
        // Padding: 0x80, zeros, 64-bit big-endian bit length — one block,
        // or two when fewer than 9 bytes are left in the buffered one.
        let rem = self.buffered;
        let mut blocks = [[0u8; 64]; 2];
        blocks[0][..rem].copy_from_slice(&self.buffer[..rem]);
        blocks[0][rem] = 0x80;
        let used = if rem < 56 { 1 } else { 2 };
        blocks[used - 1][56..].copy_from_slice(&self.length_bytes.wrapping_mul(8).to_be_bytes());
        compress_blocks(&mut self.state, &blocks[..used]);
        let mut out = [0u8; 32];
        for (i, w) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&w.to_be_bytes());
        }
        out
    }
}

/// A message of at most 55 bytes laid out as its one padded block, in
/// big-endian words (message, `0x80`, zeros, 64-bit bit length).
pub(crate) type WordBlock = [u32; 16];

/// The SHA-256 state words; a digest is their big-endian bytes.
pub(crate) type State = [u32; 8];

/// Pads `msg` (at most 55 bytes) into one [`WordBlock`].
pub(crate) fn one_block(msg: &[u8]) -> WordBlock {
    assert!(msg.len() <= 55, "{} bytes do not fit one block", msg.len());
    let mut bytes = [0u8; 64];
    bytes[..msg.len()].copy_from_slice(msg);
    bytes[msg.len()] = 0x80;
    bytes[56..].copy_from_slice(&(msg.len() as u64 * 8).to_be_bytes());
    block_words(&bytes)
}

/// The digest bytes of `state`.
pub(crate) fn state_digest(state: &State) -> Digest {
    let mut out = [0u8; 32];
    for (chunk, w) in out.chunks_exact_mut(4).zip(state) {
        chunk.copy_from_slice(&w.to_be_bytes());
    }
    out
}

/// The state words of `digest`.
pub(crate) fn digest_state(digest: &Digest) -> State {
    std::array::from_fn(|i| u32::from_be_bytes(digest[i * 4..i * 4 + 4].try_into().unwrap()))
}

/// The digests, as state words, of `N` independent one-block messages:
/// each block is compressed once from `H0`. On the SHA extensions the
/// lanes run interleaved; otherwise each runs the portable [`compress`].
pub(crate) fn digest_blocks<const N: usize>(blocks: &[WordBlock; N]) -> [State; N] {
    #[cfg(target_arch = "x86_64")]
    if let Some(states) = shani::digest_blocks(blocks) {
        return states;
    }
    blocks.map(|block| {
        let mut state = H0;
        compress_words(&mut state, &block);
        state
    })
}

/// Compresses whole blocks into `state`: on the SHA extensions when the
/// CPU has them, otherwise with the portable [`compress`].
fn compress_blocks(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    if blocks.is_empty() {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if shani::compress_blocks(state, blocks) {
        return;
    }
    for block in blocks {
        compress(state, block);
    }
}

/// The big-endian message words of `block`.
fn block_words(block: &[u8; 64]) -> WordBlock {
    std::array::from_fn(|i| u32::from_be_bytes(block[i * 4..i * 4 + 4].try_into().unwrap()))
}

/// The portable FIPS 180-4 compression function.
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    compress_words(state, &block_words(block));
}

/// [`compress`] on a block already decoded into message words.
fn compress_words(state: &mut [u32; 8], block: &WordBlock) {
    let mut w = [0u32; 64];
    w[..16].copy_from_slice(block);
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// The compression function on the x86-64 SHA extensions: whole blocks
/// into a state for [`super::compress_blocks`], and independent
/// one-block lanes from `H0` for [`super::digest_blocks`], whose rounds
/// are interleaved lane by lane. Both share one round loop, and the
/// crypto tests check both against the portable `compress`. This module
/// holds all of the crate's `unsafe` code.
#[cfg(target_arch = "x86_64")]
mod shani {
    use std::arch::x86_64::*;
    use std::sync::OnceLock;

    use super::{State, WordBlock, H0, K};

    /// Whether this CPU has every feature the functions below enable,
    /// detected on first use and then read from a cache.
    fn detected() -> bool {
        static DETECTED: OnceLock<bool> = OnceLock::new();
        *DETECTED.get_or_init(|| {
            is_x86_feature_detected!("sha")
                && is_x86_feature_detected!("sse2")
                && is_x86_feature_detected!("ssse3")
                && is_x86_feature_detected!("sse4.1")
        })
    }

    /// Compresses `blocks` into `state` and returns `true` if the CPU
    /// has the SHA extensions; returns `false`, leaving `state`
    /// untouched, if it does not.
    pub(super) fn compress_blocks(state: &mut [u32; 8], blocks: &[[u8; 64]]) -> bool {
        let detected = detected();
        if detected {
            // SAFETY: every feature `compress_blocks_ni` enables was
            // detected on this CPU.
            unsafe { compress_blocks_ni(state, blocks) };
        }
        detected
    }

    /// The digests of `N` one-block messages as state words, or `None`
    /// if the CPU lacks the SHA extensions.
    pub(super) fn digest_blocks<const N: usize>(blocks: &[WordBlock; N]) -> Option<[State; N]> {
        // SAFETY: every feature `digest_blocks_ni` enables was detected
        // on this CPU.
        detected().then(|| unsafe { digest_blocks_ni(blocks) })
    }

    /// Four rounds' message words: the next schedule quad from the
    /// previous four (`w[t-16..t-12]` … `w[t-4..t]`).
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let partial = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
        _mm_sha256msg2_epu32(partial, w3)
    }

    /// `state` as the `{A,B,E,F}` and `{C,D,G,H}` registers (lanes named
    /// high to low) that `sha256rnds2` works on.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn load_state(state: &[u32; 8]) -> (__m128i, __m128i) {
        // SAFETY: `state` is 32 bytes, so both 16-byte unaligned loads
        // are in bounds.
        let (dcba, hgfe) = unsafe {
            let p = state.as_ptr().cast::<__m128i>();
            (_mm_loadu_si128(p), _mm_loadu_si128(p.add(1)))
        };
        let cdab = _mm_shuffle_epi32(dcba, 0xb1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
        (
            _mm_alignr_epi8(cdab, efgh, 8),
            _mm_blend_epi16(efgh, cdab, 0xf0),
        )
    }

    /// The inverse of [`load_state`].
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn store_state(state: &mut [u32; 8], abef: __m128i, cdgh: __m128i) {
        let feba = _mm_shuffle_epi32(abef, 0x1b);
        let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
        let dcba = _mm_blend_epi16(feba, dchg, 0xf0);
        let hgfe = _mm_alignr_epi8(dchg, feba, 8);
        // SAFETY: as in `load_state`, both 16-byte stores are in bounds
        // of the 32-byte `state`.
        unsafe {
            let p = state.as_mut_ptr().cast::<__m128i>();
            _mm_storeu_si128(p, dcba);
            _mm_storeu_si128(p.add(1), hgfe);
        }
    }

    /// The 64 rounds of one block in each of `N` lanes, without the
    /// final feed-forward addition. `w` holds each lane's first four
    /// message quads; the lanes' instructions are issued quad by quad,
    /// back to back, so their latencies overlap.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    #[inline]
    fn rounds<const N: usize>(
        abef: &mut [__m128i; N],
        cdgh: &mut [__m128i; N],
        mut w: [[__m128i; 4]; N],
    ) {
        for quad in 0..16 {
            // SAFETY: `quad < 16`, so `K[4 * quad..4 * quad + 4]` is in
            // bounds of the 64-entry table.
            let k = unsafe { _mm_loadu_si128(K.as_ptr().add(4 * quad).cast()) };
            for lane in 0..N {
                // `w[lane]` is a window that ends in this quad's message
                // words: the first four quads rotate through it, and
                // each later one is scheduled from the four before it.
                // Rotating values, not indexing a ring, keeps the
                // window in registers.
                let w = &mut w[lane];
                *w = if quad < 4 {
                    [w[1], w[2], w[3], w[0]]
                } else {
                    [w[1], w[2], w[3], schedule(w[0], w[1], w[2], w[3])]
                };
                let wk = _mm_add_epi32(w[3], k);
                cdgh[lane] = _mm_sha256rnds2_epu32(cdgh[lane], abef[lane], wk);
                abef[lane] =
                    _mm_sha256rnds2_epu32(abef[lane], cdgh[lane], _mm_shuffle_epi32(wk, 0x0e));
            }
        }
    }

    /// # Safety
    ///
    /// Callable only on a CPU with every feature it enables; calling it
    /// elsewhere is undefined behaviour.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn compress_blocks_ni(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
        // Byte-swaps each 32-bit lane: message words are big-endian.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        let (mut abef, mut cdgh) = load_state(state);
        for block in blocks {
            // SAFETY: a block is 64 bytes, so the four 16-byte unaligned
            // loads at offsets 0, 16, 32 and 48 are in bounds.
            let w = unsafe {
                let p = block.as_ptr().cast::<__m128i>();
                [0, 1, 2, 3].map(|i| _mm_shuffle_epi8(_mm_loadu_si128(p.add(i)), bswap))
            };
            let (mut abef_out, mut cdgh_out) = ([abef], [cdgh]);
            rounds(&mut abef_out, &mut cdgh_out, [w]);
            abef = _mm_add_epi32(abef_out[0], abef);
            cdgh = _mm_add_epi32(cdgh_out[0], cdgh);
        }
        store_state(state, abef, cdgh);
    }

    /// # Safety
    ///
    /// As for [`compress_blocks_ni`].
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn digest_blocks_ni<const N: usize>(blocks: &[WordBlock; N]) -> [State; N] {
        let (abef0, cdgh0) = load_state(&H0);
        let mut w = [[_mm_setzero_si128(); 4]; N];
        for (quads, block) in w.iter_mut().zip(blocks) {
            for (i, quad) in quads.iter_mut().enumerate() {
                // SAFETY: a block is 16 words, so the 4-word unaligned
                // loads at words 0, 4, 8 and 12 are in bounds.
                *quad = unsafe { _mm_loadu_si128(block.as_ptr().add(4 * i).cast()) };
            }
        }
        let (mut abef, mut cdgh) = ([abef0; N], [cdgh0; N]);
        rounds(&mut abef, &mut cdgh, w);
        let mut states = [[0u32; 8]; N];
        for (lane, state) in states.iter_mut().enumerate() {
            store_state(
                state,
                _mm_add_epi32(abef[lane], abef0),
                _mm_add_epi32(cdgh[lane], cdgh0),
            );
        }
        states
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::to_hex;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    #[test]
    fn nist_empty() {
        assert_eq!(
            to_hex(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn nist_abc() {
        assert_eq!(
            to_hex(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn nist_two_block() {
        assert_eq!(
            to_hex(&Sha256::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            to_hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_matches_oneshot_at_all_split_points() {
        let data: Vec<u8> = (0u8..=255).cycle().take(300).collect();
        let want = Sha256::digest(&data);
        for split in [0, 1, 55, 56, 63, 64, 65, 127, 128, 200, 300] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), want, "split at {split}");
        }
    }

    #[test]
    fn digest_parts_equals_concat() {
        assert_eq!(
            Sha256::digest_parts(&[b"ab", b"", b"c"]),
            Sha256::digest(b"abc")
        );
    }

    #[test]
    fn padding_boundary_lengths() {
        // Lengths around the 56-byte padding boundary must all work.
        for len in 50..70usize {
            let data = vec![0x5a; len];
            let d1 = Sha256::digest(&data);
            let mut h = Sha256::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), d1, "len {len}");
        }
    }

    #[test]
    fn portable_compress_matches_nist_vectors() {
        // The vectors above run on whichever path this CPU selects; feed
        // their padded blocks straight to the portable function too.
        fn portable_digest(msg: &[u8]) -> String {
            let mut padded = msg.to_vec();
            padded.push(0x80);
            while padded.len() % 64 != 56 {
                padded.push(0);
            }
            padded.extend_from_slice(&(msg.len() as u64 * 8).to_be_bytes());
            let mut state = H0;
            for block in padded.as_chunks::<64>().0 {
                compress(&mut state, block);
            }
            to_hex(&state.map(u32::to_be_bytes).concat())
        }
        assert_eq!(
            portable_digest(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            portable_digest(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn selected_compress_matches_portable_on_random_blocks() {
        // Whichever path this CPU selects (the SHA extensions on an
        // x86-64 that has them), it must agree with the portable
        // function state for state, one block or many at once.
        let mut rng = StdRng::seed_from_u64(42);
        for n in [1usize, 2, 3, 8] {
            for _ in 0..64 {
                let state: [u32; 8] = std::array::from_fn(|_| rng.next_u32());
                let mut blocks = vec![[0u8; 64]; n];
                for b in &mut blocks {
                    rng.fill_bytes(b);
                }
                let mut want = state;
                for b in &blocks {
                    compress(&mut want, b);
                }
                let mut got = state;
                compress_blocks(&mut got, &blocks);
                assert_eq!(got, want, "{n} block(s)");
            }
        }
    }

    /// The portable digest state of one [`WordBlock`] from `H0`.
    fn portable_block_state(block: &WordBlock) -> State {
        let mut bytes = [0u8; 64];
        for (chunk, w) in bytes.chunks_exact_mut(4).zip(block) {
            chunk.copy_from_slice(&w.to_be_bytes());
        }
        let mut state = H0;
        compress(&mut state, &bytes);
        state
    }

    #[test]
    fn digest_blocks_match_portable_compress_in_every_lane() {
        // Random words, not only well-padded blocks: the lane path must
        // agree with the portable function on any block, lane by lane,
        // whether the lanes hold equal or differing blocks.
        let mut rng = StdRng::seed_from_u64(16);
        for _ in 0..256 {
            let a: WordBlock = std::array::from_fn(|_| rng.next_u32());
            let b: WordBlock = std::array::from_fn(|_| rng.next_u32());
            let (want_a, want_b) = (portable_block_state(&a), portable_block_state(&b));
            assert_eq!(digest_blocks(&[a]), [want_a]);
            assert_eq!(digest_blocks(&[a, b]), [want_a, want_b]);
            assert_eq!(digest_blocks(&[b, a]), [want_b, want_a]);
            assert_eq!(digest_blocks(&[a, a]), [want_a, want_a]);
        }
    }

    #[test]
    fn one_block_path_matches_the_hasher_up_to_55_bytes() {
        let mut rng = StdRng::seed_from_u64(55);
        for len in 0..=55usize {
            let mut msg = vec![0u8; len];
            rng.fill_bytes(&mut msg);
            let [state] = digest_blocks(&[one_block(&msg)]);
            assert_eq!(state_digest(&state), Sha256::digest(&msg), "len {len}");
            assert_eq!(digest_state(&state_digest(&state)), state);
        }
    }

    #[test]
    #[should_panic(expected = "56 bytes do not fit one block")]
    fn one_block_rejects_a_message_that_needs_two() {
        one_block(&[0u8; 56]);
    }

    #[test]
    fn oneshot_streaming_and_parts_agree_on_random_inputs() {
        let mut rng = StdRng::seed_from_u64(1234);
        // 0..=300 covers every padding remainder; 55, 56, 63 and 64 (one
        // or two final blocks) stay pinned if the range ever shrinks.
        let lengths = (0..=300usize).chain([55, 56, 63, 64]);
        for len in lengths {
            let mut data = vec![0u8; len];
            rng.fill_bytes(&mut data);
            let want = Sha256::digest(&data);

            let mut h = Sha256::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), want, "byte-at-a-time, len {len}");

            let cut = rng.gen_range(0..=len);
            let cut2 = rng.gen_range(cut..=len);
            let parts: [&[u8]; 3] = [&data[..cut], &data[cut..cut2], &data[cut2..]];
            assert_eq!(Sha256::digest_parts(&parts), want, "parts, len {len}");
        }
    }
}
