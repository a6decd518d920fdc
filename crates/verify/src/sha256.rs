//! A minimal, dependency-free SHA-256 (FIPS 180-4).
//!
//! Every digest in the workspace goes through one compression entry.
//! It runs the x86-64 SHA extensions when the running CPU has them (the
//! crate's one `unsafe` item) and the plain reference algorithm, small
//! enough to audit by eye, everywhere else. The reference stays the
//! oracle: the tests hold the hardware body to it on random blocks and
//! on every message length of 0–3 blocks, so a root or certificate has
//! the same bytes on every CPU.

/// Round constants: the first 32 bits of the fractional parts of the
/// cube roots of the first 64 primes.
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

/// Streaming SHA-256 state.
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Sha256 {
        Sha256::new()
    }
}

impl Sha256 {
    /// Fresh hasher (FIPS 180-4 initial state: the first 32 bits of the
    /// fractional parts of the square roots of the first 8 primes).
    pub fn new() -> Sha256 {
        Sha256 {
            state: [
                0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
                0x5be0cd19,
            ],
            buf: [0u8; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorb `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = rest.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }
        while rest.len() >= 64 {
            let (block, tail) = rest.split_at(64);
            self.compress(block.try_into().expect("64-byte block"));
            rest = tail;
        }
        if !rest.is_empty() {
            self.buf[..rest.len()].copy_from_slice(rest);
            self.buf_len = rest.len();
        }
    }

    /// Finish: pad, absorb the length, return the 32-byte digest. The
    /// `0x80`, the zero fill and the bit length are written into the
    /// buffered block directly: one compression, or two when fewer than
    /// nine bytes of the block are free.
    pub fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.total_len.wrapping_mul(8);
        let mut block = self.buf;
        block[self.buf_len] = 0x80;
        block[self.buf_len + 1..].fill(0);
        if self.buf_len >= 56 {
            self.compress(&block);
            block = [0u8; 64];
        }
        block[56..].copy_from_slice(&bit_len.to_be_bytes());
        self.compress(&block);
        let mut out = [0u8; 32];
        for (i, w) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&w.to_be_bytes());
        }
        out
    }

    /// The one compression entry: the SHA-NI body when the CPU has it,
    /// the scalar one otherwise. Both compute the same state.
    fn compress(&mut self, block: &[u8; 64]) {
        #[cfg(target_arch = "x86_64")]
        if compress_sha_ni(&mut self.state, block) {
            return;
        }
        compress_scalar(&mut self.state, block);
    }
}

/// The reference compression function (FIPS 180-4 §6.2.2): the fallback
/// on CPUs without the SHA extensions, and the oracle the hardware body
/// is tested against.
fn compress_scalar(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes(chunk.try_into().expect("4-byte word"));
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
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// The compression function on the x86-64 SHA extensions, or `false`
/// (with `state` untouched) on a CPU without them. The state travels as
/// the pair `ABEF`/`CDGH`; each `sha256rnds2` runs two rounds.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
fn compress_sha_ni(state: &mut [u32; 8], block: &[u8; 64]) -> bool {
    use std::arch::x86_64::*;

    /// # Safety
    /// The running CPU must have `sha`, `sse4.1` and `ssse3`.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn rounds(state: &mut [u32; 8], block: &[u8; 64]) {
        // Byte order within each 32-bit lane: big-endian message words.
        let be = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        let dcba = _mm_loadu_si128(state.as_ptr().cast());
        let hgfe = _mm_loadu_si128(state.as_ptr().cast::<__m128i>().add(1));
        let cdab = _mm_shuffle_epi32(dcba, 0xb1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);
        let (abef_in, cdgh_in) = (abef, cdgh);
        // `w0..w3`: the message words of the four groups before group `i`
        // (the block's own while `i < 4`); later groups are scheduled.
        let m = block.as_ptr().cast::<__m128i>();
        let mut w0 = _mm_shuffle_epi8(_mm_loadu_si128(m), be);
        let mut w1 = _mm_shuffle_epi8(_mm_loadu_si128(m.add(1)), be);
        let mut w2 = _mm_shuffle_epi8(_mm_loadu_si128(m.add(2)), be);
        let mut w3 = _mm_shuffle_epi8(_mm_loadu_si128(m.add(3)), be);
        for i in 0..16 {
            let w = if i < 4 {
                w0
            } else {
                let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
                _mm_sha256msg2_epu32(t, w3)
            };
            let kw = _mm_add_epi32(w, _mm_loadu_si128(K.as_ptr().add(4 * i).cast()));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, kw);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(kw, 0x0e));
            (w0, w1, w2, w3) = (w1, w2, w3, w);
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
        let feba = _mm_shuffle_epi32(abef, 0x1b);
        let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
        let out = state.as_mut_ptr().cast::<__m128i>();
        _mm_storeu_si128(out, _mm_blend_epi16(feba, dchg, 0xf0));
        _mm_storeu_si128(out.add(1), _mm_alignr_epi8(dchg, feba, 8));
    }

    let detected = is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("sse4.1")
        && is_x86_feature_detected!("ssse3");
    if detected {
        // SAFETY: `sha`, `sse4.1` and `ssse3` were detected on the running
        // CPU just above (`sse2` is x86-64 baseline); `rounds` reads and
        // writes only inside `state` (two 16-byte halves), `block` and `K`.
        unsafe { rounds(state, block) };
    }
    detected
}

/// One-shot digest.
pub fn digest(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Lower-case hex rendering of a digest.
pub fn hex(d: &[u8; 32]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(64);
    for &b in d {
        s.push(char::from(DIGITS[usize::from(b >> 4)]));
        s.push(char::from(DIGITS[usize::from(b & 0xf)]));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The SHA-NI body's output, or `None` (said on stderr, so a CPU
    /// without the SHA extensions skips the hardware half visibly).
    fn sha_ni(state: &[u32; 8], block: &[u8; 64]) -> Option<[u32; 8]> {
        #[cfg(target_arch = "x86_64")]
        {
            let mut s = *state;
            if compress_sha_ni(&mut s, block) {
                return Some(s);
            }
        }
        eprintln!("SHA-NI half skipped: this CPU has no SHA extensions");
        None
    }

    fn state_bytes(state: &[u32; 8]) -> [u8; 32] {
        let mut out = [0u8; 32];
        for (o, w) in out.chunks_exact_mut(4).zip(state) {
            o.copy_from_slice(&w.to_be_bytes());
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The hardware compression equals the scalar oracle on random
        /// chaining states and random blocks.
        #[test]
        fn sha_ni_compression_matches_the_scalar_oracle(
            words in prop::collection::vec(0..=u64::MAX, 12..13),
        ) {
            let state: [u32; 8] = std::array::from_fn(|i| (words[i / 2] >> (32 * (i % 2))) as u32);
            let bytes: Vec<u8> = words[4..].iter().flat_map(|w| w.to_le_bytes()).collect();
            let block: [u8; 64] = bytes.try_into().expect("64 bytes");
            let mut scalar = state;
            compress_scalar(&mut scalar, &block);
            if let Some(ni) = sha_ni(&state, &block) {
                prop_assert_eq!(ni, scalar);
            }
        }
    }

    /// `digest` (whichever body `compress` picks here) equals FIPS
    /// padding run through the scalar oracle, and through the SHA-NI
    /// body, at every length of 0–3 data blocks and past the 56-byte
    /// boundary of each.
    #[test]
    fn digest_is_the_same_under_both_compressions() {
        let data: Vec<u8> = (0..200u16).map(|i| (i * 29 % 256) as u8).collect();
        let hardware = sha_ni(&[0; 8], &[0; 64]).is_some();
        for len in 0..=data.len() {
            let mut padded = data[..len].to_vec();
            padded.push(0x80);
            while padded.len() % 64 != 56 {
                padded.push(0);
            }
            padded.extend_from_slice(&(8 * len as u64).to_be_bytes());
            let blocks = || {
                padded
                    .chunks_exact(64)
                    .map(|b| <&[u8; 64]>::try_from(b).unwrap())
            };
            let mut scalar = Sha256::new().state;
            blocks().for_each(|b| compress_scalar(&mut scalar, b));
            assert_eq!(digest(&data[..len]), state_bytes(&scalar), "length {len}");
            if hardware {
                let ni = blocks().fold(Sha256::new().state, |s, b| sha_ni(&s, b).unwrap());
                assert_eq!(ni, scalar, "length {len}");
            }
        }
    }

    /// The nibble table renders every byte as `format!("{b:02x}")` does.
    #[test]
    fn hex_renders_every_byte_like_format() {
        for chunk in 0..8u8 {
            let d: [u8; 32] = std::array::from_fn(|i| 32 * chunk + i as u8);
            let want: String = d.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(hex(&d), want);
        }
    }

    // FIPS 180-4 / NIST CAVP known-answer vectors.
    #[test]
    fn empty_string() {
        assert_eq!(
            hex(&digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc() {
        assert_eq!(
            hex(&digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_message() {
        assert_eq!(
            hex(&digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        for _ in 0..1000 {
            h.update(&[b'a'; 1000]);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    /// The padding written into the block matches FIPS 180-4's padding
    /// absorbed byte by byte, at every length of the last block (both
    /// sides of the 56-byte boundary, and none).
    #[test]
    fn padding_matches_bytewise_padding_at_every_length() {
        let data: Vec<u8> = (0..200u16).map(|i| (i * 13 % 251) as u8).collect();
        for len in 0..=data.len() {
            let mut h = Sha256::new();
            h.update(&data[..len]);
            h.update(&[0x80]);
            while h.buf_len != 56 {
                h.update(&[0]);
            }
            h.update(&(8 * len as u64).to_be_bytes());
            let want = h.state.map(u32::to_be_bytes).concat();
            assert_eq!(digest(&data[..len])[..], want[..], "length {len}");
        }
    }

    #[test]
    fn streaming_matches_one_shot_at_every_split() {
        let data: Vec<u8> = (0..200u16).map(|i| (i * 7 % 251) as u8).collect();
        let reference = digest(&data);
        for split in 0..data.len() {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), reference, "split at {split}");
        }
    }
}
