//! SHA-256, implemented from scratch per FIPS 180-4.
//!
//! Used for request/batch digests, state-machine digests, checkpoint
//! identity, and as the compression function underneath HMAC and the
//! simulated signature scheme. Verified against the NIST test vectors in the
//! unit tests below.
//!
//! The compression function runs on the x86-64 SHA extensions when the CPU
//! has them, and in portable code everywhere else; the tests check that the
//! two agree. The path is chosen by run-time CPU detection alone.

/// Round constants: the first 32 bits of the fractional parts of the cube
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

/// Initial hash values: the first 32 bits of the fractional parts of the
/// square roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// ```
/// use bft_crypto::hash::Hasher;
/// let mut h = Hasher::new();
/// h.update(b"abc");
/// let digest = h.finalize();
/// assert_eq!(digest[0], 0xba);
/// ```
#[derive(Clone)]
pub struct Hasher {
    state: [u32; 8],
    /// Total message length in bytes.
    len: u64,
    /// Buffered partial block.
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Hasher {
    fn default() -> Self {
        Self::new()
    }
}

impl Hasher {
    /// A fresh hasher.
    pub fn new() -> Self {
        Hasher {
            state: H0,
            len: 0,
            buf: [0u8; 64],
            buf_len: 0,
        }
    }

    /// Absorb `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.len += data.len() as u64;
        let mut data = data;
        // fill pending buffer first
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                compress(&mut self.state, &self.buf);
                self.buf_len = 0;
            }
        }
        // whole blocks straight from input
        let mut blocks = data.chunks_exact(64);
        for block in &mut blocks {
            let block = block.try_into().expect("chunks_exact(64)");
            compress(&mut self.state, block);
        }
        // stash the tail
        let tail = blocks.remainder();
        if !tail.is_empty() {
            self.buf[..tail.len()].copy_from_slice(tail);
            self.buf_len = tail.len();
        }
    }

    /// Finish and produce the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        // padding: 0x80, zeros, 8-byte big-endian bit length
        let bit_len = self.len * 8;
        self.buf[self.buf_len] = 0x80;
        self.buf[self.buf_len + 1..].fill(0);
        if self.buf_len >= 56 {
            compress(&mut self.state, &self.buf);
            self.buf = [0u8; 64];
        }
        self.buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &self.buf);

        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// Compress one block into `state`, on the CPU's SHA extensions when it has
/// them and in portable code otherwise. Both give the same result.
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    #[cfg(target_arch = "x86_64")]
    if shani::compress(state, block) {
        return;
    }
    compress_portable(state, block);
}

/// The FIPS 180-4 compression function in portable code: the only path on
/// CPUs without the SHA extensions, and the reference the tests compare the
/// accelerated path against.
fn compress_portable(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for i in 0..16 {
        w[i] = u32::from_be_bytes([
            block[4 * i],
            block[4 * i + 1],
            block[4 * i + 2],
            block[4 * i + 3],
        ]);
    }
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
        let ch = (e & f) ^ (!e & g);
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

/// The compression function on the x86-64 SHA extensions (SHA-NI). This
/// module holds the crate's only `unsafe` code.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod shani {
    use std::arch::x86_64::*;

    use super::K;

    /// Compress one block into `state`. On a CPU without the SHA
    /// extensions, or without the SSE levels the kernel's shuffles and
    /// blends need, return false and leave `state` as it was. `std` caches
    /// the feature detection, so the check is a few loads.
    pub(super) fn compress(state: &mut [u32; 8], block: &[u8; 64]) -> bool {
        let available = is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1");
        if available {
            // SAFETY: the detection above has just confirmed that the CPU
            // supports every feature `compress_sha` is compiled for (sha,
            // sse2, ssse3, sse4.1).
            unsafe { compress_sha(state, block) };
        }
        available
    }

    /// Four rounds: the two `sha256rnds2` steps over `w + K[4i..4i + 4]`.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, i: usize) {
        // SAFETY: the indexing checks that `K[4 * i..4 * i + 4]` is inside
        // `K`; it is 16 bytes, and `loadu` needs no alignment.
        let k = unsafe { _mm_loadu_si128(K[4 * i..4 * i + 4].as_ptr().cast()) };
        let wk = _mm_add_epi32(w, k);
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }

    /// The message schedule: the next four words from the previous 16.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
        _mm_sha256msg2_epu32(t, w3)
    }

    /// One block on the SHA extensions. Calling it needs `unsafe` outside
    /// functions compiled for the same features; [`compress`] checks that
    /// the CPU has them first.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn compress_sha(state: &mut [u32; 8], block: &[u8; 64]) {
        // Byte order within each 32-bit word: SHA-256 reads words big-endian.
        let be = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

        // SAFETY: both halves of `state` are 16 bytes inside the array, and
        // `loadu` needs no alignment.
        let (dcba, hgfe) = unsafe {
            (
                _mm_loadu_si128(state[..4].as_ptr().cast()),
                _mm_loadu_si128(state[4..].as_ptr().cast()),
            )
        };
        // The round instruction keeps the state as (A, B, E, F) and
        // (C, D, G, H), highest lane first.
        let cdab = _mm_shuffle_epi32(dcba, 0xB1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);
        let (abef_in, cdgh_in) = (abef, cdgh);

        // SAFETY: the four 16-byte loads cover exactly the 64-byte block;
        // `loadu` needs no alignment.
        let [mut w0, mut w1, mut w2, mut w3] = unsafe {
            let p = block.as_ptr().cast::<__m128i>();
            [p, p.add(1), p.add(2), p.add(3)].map(|q| _mm_shuffle_epi8(_mm_loadu_si128(q), be))
        };
        rounds4(&mut abef, &mut cdgh, w0, 0);
        rounds4(&mut abef, &mut cdgh, w1, 1);
        rounds4(&mut abef, &mut cdgh, w2, 2);
        rounds4(&mut abef, &mut cdgh, w3, 3);
        for i in 1..4 {
            w0 = schedule(w0, w1, w2, w3);
            rounds4(&mut abef, &mut cdgh, w0, 4 * i);
            w1 = schedule(w1, w2, w3, w0);
            rounds4(&mut abef, &mut cdgh, w1, 4 * i + 1);
            w2 = schedule(w2, w3, w0, w1);
            rounds4(&mut abef, &mut cdgh, w2, 4 * i + 2);
            w3 = schedule(w3, w0, w1, w2);
            rounds4(&mut abef, &mut cdgh, w3, 4 * i + 3);
        }

        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
        let feba = _mm_shuffle_epi32(abef, 0x1B);
        let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
        let dcba = _mm_blend_epi16(feba, dchg, 0xF0);
        let hgef = _mm_alignr_epi8(dchg, feba, 8);
        // SAFETY: both halves of `state` are 16 bytes inside the array, and
        // `storeu` needs no alignment.
        unsafe {
            _mm_storeu_si128(state[..4].as_mut_ptr().cast(), dcba);
            _mm_storeu_si128(state[4..].as_mut_ptr().cast(), hgef);
        }
    }
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Hasher::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// SHA-256 of `data` with FIPS 180-4 padding written out separately and
    /// every block compressed by the portable function alone.
    fn sha256_portable(data: &[u8]) -> [u8; 32] {
        let mut padded = data.to_vec();
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        for block in padded.chunks_exact(64) {
            compress_portable(&mut state, block.try_into().unwrap());
        }
        let mut out = [0u8; 32];
        for (i, word) in state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    proptest! {
        // enough cases that every length mod 64, and so every padding
        // layout, is drawn
        #![proptest_config(ProptestConfig { cases: 1024, ..ProptestConfig::default() })]

        /// The dispatching hasher (the SHA extensions where the CPU has
        /// them) agrees with the portable compression function over random
        /// lengths and random `update` split points.
        #[test]
        fn hasher_matches_portable_reference(
            data in prop::collection::vec(any::<u8>(), 0..=1024),
            cuts in prop::collection::vec(0usize..=1024, 0..6),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (data.len() + 1)).collect();
            cuts.sort_unstable();
            let mut h = Hasher::new();
            let mut from = 0;
            for cut in cuts.into_iter().chain([data.len()]) {
                h.update(&data[from..cut]);
                from = cut;
            }
            prop_assert_eq!(h.finalize(), sha256_portable(&data));
        }

        /// Both compression functions map a random state and block to the
        /// same state. On a CPU without the SHA extensions the dispatching
        /// function is the portable one, and this compares it with itself.
        #[test]
        fn compression_functions_agree(
            state in prop::collection::vec(any::<u32>(), 8),
            block in prop::collection::vec(any::<u8>(), 64),
        ) {
            let state: [u32; 8] = state.try_into().unwrap();
            let block: [u8; 64] = block.try_into().unwrap();
            let (mut fast, mut portable) = (state, state);
            compress(&mut fast, &block);
            compress_portable(&mut portable, &block);
            prop_assert_eq!(fast, portable);
        }
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // NIST FIPS 180-4 / de-facto standard test vectors.
    #[test]
    fn empty_string() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc() {
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_message() {
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&sha256(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for chunk in [1usize, 3, 63, 64, 65, 100] {
            let mut h = Hasher::new();
            for c in data.chunks(chunk) {
                h.update(c);
            }
            assert_eq!(h.finalize(), sha256(&data), "chunk size {chunk}");
        }
    }

    #[test]
    fn exactly_one_block() {
        // 55 bytes fits padding in one block; 56 forces a second block.
        for len in [55usize, 56, 57, 63, 64, 65, 119, 120] {
            let data = vec![0x5au8; len];
            let d = sha256(&data);
            // compare against incremental in odd chunks
            let mut h = Hasher::new();
            for c in data.chunks(7) {
                h.update(c);
            }
            assert_eq!(h.finalize(), d, "len {len}");
        }
    }
}
