//! Content digests for the hardening-as-a-service artifact cache.
//!
//! Artifact entries are *content-addressed*: keyed by a digest over the
//! tool version, the input image bytes, the canonical config and the op,
//! and each entry carries a digest of its own payload. A 256-bit
//! cryptographic digest makes accidental collisions a non-concern, so
//! "equal key" can soundly be read as "equal input".
//!
//! The implementation is an in-tree SHA-256 (FIPS 180-4); the workspace
//! builds offline, so no external hashing crate is available. Whole
//! 64-byte blocks go through the x86-64 SHA extensions when the CPU
//! reports them at run time, and through a portable compression
//! function otherwise; the two agree bit for bit, so keys and on-disk
//! entries do not depend on the host.

/// A 256-bit content digest.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// The raw digest bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Lowercase hex rendering (the on-disk cache file name).
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for b in self.0 {
            s.push(char::from_digit((b >> 4) as u32, 16).unwrap_or('0'));
            s.push(char::from_digit((b & 0xF) as u32, 16).unwrap_or('0'));
        }
        s
    }

    /// Parses the [`Digest::to_hex`] rendering.
    pub fn from_hex(s: &str) -> Option<Digest> {
        let s = s.trim();
        if s.len() != 64 {
            return None;
        }
        let mut out = [0u8; 32];
        for (i, chunk) in s.as_bytes().chunks(2).enumerate() {
            let hi = (chunk[0] as char).to_digit(16)?;
            let lo = (chunk[1] as char).to_digit(16)?;
            out[i] = ((hi << 4) | lo) as u8;
        }
        Some(Digest(out))
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_hex())
    }
}

impl std::fmt::Debug for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Digest({})", self.to_hex())
    }
}

/// Cache-relevant tool identity. Bump the trailing tag whenever the
/// pipeline's analysis or code generation changes in a way that can
/// alter hardened output for the same (image, config) pair; stale
/// cache entries from older tool revisions then miss by key instead of
/// serving wrong bytes.
pub const TOOL_VERSION: &str = concat!("redfat-", env!("CARGO_PKG_VERSION"), "+cache5");

/// SHA-256 of a small fixed image hardened by this [`TOOL_VERSION`]
/// (the `emitted_bytes_are_pinned_to_the_tool_version` test). A change
/// that moves it changes emitted bytes: bump the tag above, then re-pin.
#[cfg(test)]
const PINNED_PROBE_DIGEST: &str =
    "2ad37dd27d79f817fc77578d7de034f6b70ef339463c70f022b5134ff49fc3c3";

/// Further pins of the same test, over more of the emitted code: the
/// probe unoptimized and as a profiling binary, the rip-relative image
/// with elimination off, and all stand-ins under two configs.
#[cfg(test)]
const PINNED_DIGESTS: [(&str, &str); 5] = [
    (
        "probe unoptimized",
        "0f07ce739f80ca2bf24fa17414a7594a89ed21ee858f1690b63497b6b856c368",
    ),
    (
        "probe profile",
        "cbd50683f57bf8ea0bff45b515edd7a7c3af4bc3a937f49105660ec35fa3f12e",
    ),
    (
        "riprel no-elim",
        "2f75d4623f55862b22dc1b9aa9f5421091fdc361204e3e000884a37428aaefa4",
    ),
    (
        "stand-ins default",
        "02a8895451c09e94e3150279bdc80dbe41ad7aa487b804c9a9fd7075bec43acc",
    ),
    (
        "stand-ins unoptimized",
        "47c30821db6a59c24e4243df30f2ed1b417f640649075e6b69a71b0b23eb5c61",
    ),
];

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

/// Incremental SHA-256 hasher.
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_bytes: u64,
}

impl Default for Sha256 {
    fn default() -> Sha256 {
        Sha256::new()
    }
}

/// A compression function over whole 64-byte blocks: the dispatching
/// [`compress_blocks`] or the portable [`compress_portable`].
type Compress = fn(&mut [u32; 8], &[[u8; 64]]);

impl Sha256 {
    /// Fresh hasher with the FIPS 180-4 initial state.
    pub fn new() -> Sha256 {
        Sha256 {
            state: [
                0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
                0x5be0cd19,
            ],
            buf: [0; 64],
            buf_len: 0,
            total_bytes: 0,
        }
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.absorb(data, compress_blocks);
    }

    /// Absorbs a little-endian `u64`: eight bytes, no length prefix.
    /// Structured fields enter a digest this way; a variable-length
    /// field needs its length absorbed in front of it to keep adjacent
    /// fields from aliasing across their boundary.
    pub fn update_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    /// Finalizes and returns the digest.
    pub fn finalize(self) -> Digest {
        self.finish(compress_blocks)
    }

    /// [`Sha256::update`] through the compression function `compress`:
    /// tops up a partly filled buffer, hands every further whole block
    /// to `compress` in one call and keeps the tail.
    fn absorb(&mut self, data: &[u8], compress: Compress) {
        self.total_bytes = self.total_bytes.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(rest.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len < 64 {
                // Still partial, so `data` is used up.
                return;
            }
            compress(&mut self.state, std::slice::from_ref(&self.buf));
            self.buf_len = 0;
        }
        let (blocks, tail) = rest.as_chunks::<64>();
        if !blocks.is_empty() {
            compress(&mut self.state, blocks);
        }
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// [`Sha256::finalize`] through the compression function `compress`.
    fn finish(mut self, compress: Compress) -> Digest {
        // Padding: 0x80, zeros, then the message length in bits as a
        // big-endian u64 in the last 8 bytes of a block. It takes a
        // second block when the buffered tail leaves fewer than 9 bytes.
        let bit_len = self.total_bytes.wrapping_mul(8);
        let mut pad = [[0u8; 64]; 2];
        let n = self.buf_len;
        pad[0][..n].copy_from_slice(&self.buf[..n]);
        pad[0][n] = 0x80;
        let used = if n < 56 { 1 } else { 2 };
        pad[used - 1][56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &pad[..used]);
        let mut out = [0u8; 32];
        for (i, w) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&w.to_be_bytes());
        }
        Digest(out)
    }
}

/// Compresses `blocks` into `state`: with the x86-64 SHA extensions
/// when the CPU reports them at run time, else with the portable
/// [`compress`]. Both compute FIPS 180-4's compression function, so
/// the digest does not depend on the CPU.
#[allow(unsafe_code)]
fn compress_blocks(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    #[cfg(target_arch = "x86_64")]
    if shani::detected() {
        // SAFETY: `shani::detected` has just confirmed, through
        // `is_x86_feature_detected!`, that this CPU supports sha, sse2,
        // ssse3 and sse4.1: every feature `shani::compress_blocks` is
        // compiled with, and its only precondition.
        unsafe { shani::compress_blocks(state, blocks) };
        return;
    }
    compress_portable(state, blocks);
}

/// The portable compression of whole blocks: the fallback on CPUs
/// without SHA extensions and the reference the tests hold the
/// hardware path to.
fn compress_portable(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    for block in blocks {
        compress(state, block);
    }
}

fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
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

/// The SHA-NI compression path (Intel SHA extensions). The state lives
/// in two registers, ABEF and CDGH, the order `sha256rnds2` works on;
/// each `sha256rnds2` runs two rounds, and `sha256msg1`/`sha256msg2`
/// extend the message schedule four words at a time.
#[cfg(target_arch = "x86_64")]
mod shani {
    use super::K;
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_extract_epi32, _mm_set_epi32,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    };

    /// Whether this CPU supports every feature [`compress_blocks`] is
    /// compiled with.
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    /// The four big-endian message words `4 * i .. 4 * i + 4` of
    /// `block`, word `4 * i` in the lowest lane.
    macro_rules! words {
        ($block:expr, $i:expr) => {{
            let (w, _) = $block.as_chunks::<4>();
            let be = |j: usize| u32::from_be_bytes(w[4 * $i + j]) as i32;
            _mm_set_epi32(be(3), be(2), be(1), be(0))
        }};
    }

    /// Rounds `4 * i .. 4 * i + 4` on message words `w`.
    macro_rules! rounds4 {
        ($abef:ident, $cdgh:ident, $w:expr, $i:expr) => {{
            let k = _mm_set_epi32(
                K[4 * $i + 3] as i32,
                K[4 * $i + 2] as i32,
                K[4 * $i + 1] as i32,
                K[4 * $i] as i32,
            );
            let wk = _mm_add_epi32($w, k);
            $cdgh = _mm_sha256rnds2_epu32($cdgh, $abef, wk);
            $abef = _mm_sha256rnds2_epu32($abef, $cdgh, _mm_shuffle_epi32::<0x0E>(wk));
        }};
    }

    /// The next four schedule words from the previous sixteen, oldest
    /// group first.
    macro_rules! schedule {
        ($w0:expr, $w1:expr, $w2:expr, $w3:expr) => {{
            let t = _mm_add_epi32(
                _mm_sha256msg1_epu32($w0, $w1),
                _mm_alignr_epi8::<4>($w3, $w2),
            );
            _mm_sha256msg2_epu32(t, $w3)
        }};
    }

    /// Compresses `blocks` into `state`.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress_blocks(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
        let s = |i: usize| state[i] as i32;
        let dcba = _mm_set_epi32(s(3), s(2), s(1), s(0));
        let hgfe = _mm_set_epi32(s(7), s(6), s(5), s(4));
        let cdab = _mm_shuffle_epi32::<0xB1>(dcba);
        let efgh = _mm_shuffle_epi32::<0x1B>(hgfe);
        let mut abef: __m128i = _mm_alignr_epi8::<8>(cdab, efgh);
        let mut cdgh: __m128i = _mm_blend_epi16::<0xF0>(efgh, cdab);

        for block in blocks {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let mut w0 = words!(block, 0);
            let mut w1 = words!(block, 1);
            let mut w2 = words!(block, 2);
            let mut w3 = words!(block, 3);
            rounds4!(abef, cdgh, w0, 0);
            rounds4!(abef, cdgh, w1, 1);
            rounds4!(abef, cdgh, w2, 2);
            rounds4!(abef, cdgh, w3, 3);
            for group in (4..16).step_by(4) {
                w0 = schedule!(w0, w1, w2, w3);
                rounds4!(abef, cdgh, w0, group);
                w1 = schedule!(w1, w2, w3, w0);
                rounds4!(abef, cdgh, w1, group + 1);
                w2 = schedule!(w2, w3, w0, w1);
                rounds4!(abef, cdgh, w2, group + 2);
                w3 = schedule!(w3, w0, w1, w2);
                rounds4!(abef, cdgh, w3, group + 3);
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32::<0x1B>(abef);
        let dchg = _mm_shuffle_epi32::<0xB1>(cdgh);
        let dcba = _mm_blend_epi16::<0xF0>(feba, dchg);
        let hgef = _mm_alignr_epi8::<8>(dchg, feba);
        let out = [
            _mm_extract_epi32::<0>(dcba),
            _mm_extract_epi32::<1>(dcba),
            _mm_extract_epi32::<2>(dcba),
            _mm_extract_epi32::<3>(dcba),
            _mm_extract_epi32::<0>(hgef),
            _mm_extract_epi32::<1>(hgef),
            _mm_extract_epi32::<2>(hgef),
            _mm_extract_epi32::<3>(hgef),
        ];
        for (s, v) in state.iter_mut().zip(out) {
            *s = v as u32;
        }
    }
}

/// One-shot digest of a byte string.
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use redfat_elf::Image;

    /// Both compression paths, named: on a CPU without SHA extensions
    /// the dispatching one runs the portable code too.
    const PATHS: [(&str, Compress); 2] = [
        ("portable", compress_portable),
        ("dispatch", compress_blocks),
    ];

    /// The digest of `parts`, absorbed in order through `compress`.
    fn digest_with(compress: Compress, parts: &[&[u8]]) -> Digest {
        let mut h = Sha256::new();
        for part in parts {
            h.absorb(part, compress);
        }
        h.finish(compress)
    }

    /// `n` seeded pseudo-random bytes (splitmix64).
    fn seeded_bytes(seed: u64, n: usize) -> Vec<u8> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    #[test]
    fn known_answers() {
        let vectors: [(&[u8], &str); 3] = [
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
        ];
        for (data, want) in vectors {
            assert_eq!(sha256(data).to_hex(), want);
            for (name, compress) in PATHS {
                assert_eq!(digest_with(compress, &[data]).to_hex(), want, "{name}");
            }
        }
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 7 + 3) as u8).collect();
        for split in [0, 1, 63, 64, 65, 128, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "split {split}");
        }
    }

    #[test]
    fn million_a() {
        // FIPS 180-4 long known-answer: 1,000,000 x 'a'.
        let chunk: &[u8] = &[b'a'; 1000];
        for (name, compress) in PATHS {
            assert_eq!(
                digest_with(compress, &[chunk; 1000]).to_hex(),
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
                "{name}"
            );
        }
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn hardware_path_matches_portable_reference() {
        if !shani::detected() {
            eprintln!("skipped: this CPU lacks the SHA extensions, so no hardware path runs");
            return;
        }
        // Detected, so the dispatch runs the hardware path.
        for len in 0..=300 {
            let data = seeded_bytes(len as u64, len);
            let want = digest_with(compress_portable, &[&data]);
            for split in [0, 1, len / 3, len / 2, len.saturating_sub(1), len] {
                let (head, tail) = data.split_at(split.min(len));
                let got = digest_with(compress_blocks, &[head, tail]);
                assert_eq!(got, want, "length {len}, split {split}");
            }
        }
    }

    #[test]
    fn hex_roundtrip() {
        let d = sha256(b"roundtrip");
        assert_eq!(Digest::from_hex(&d.to_hex()), Some(d));
        assert_eq!(Digest::from_hex("xyz"), None);
        assert_eq!(Digest::from_hex(""), None);
    }

    /// A fixed probe image: two stores through a `malloc` pointer (one
    /// batch, one merged check), then a store through a pointer loaded
    /// from the heap (a second full check).
    fn probe_image() -> Image {
        use redfat_elf::{ImageKind, SegFlags, Segment};
        use redfat_emu::syscalls;
        use redfat_vm::layout;
        use redfat_x86::{Asm, Mem, Reg, Width};
        let mut a = Asm::new(layout::CODE_BASE);
        a.mov_ri(Width::W64, Reg::Rdi, 64);
        a.mov_ri(Width::W64, Reg::Rax, syscalls::MALLOC as i64);
        a.syscall();
        a.mov_rr(Width::W64, Reg::Rbx, Reg::Rax);
        a.mov_mr(Width::W64, Mem::base(Reg::Rbx), Reg::Rbx);
        a.mov_mr(Width::W64, Mem::base_disp(Reg::Rbx, 8), Reg::Rdi);
        a.mov_rm(Width::W64, Reg::Rdx, Mem::base(Reg::Rbx));
        a.mov_mr(Width::W64, Mem::bis(Reg::Rdx, Reg::Rdi, 1, -16), Reg::Rdi);
        a.mov_ri(Width::W64, Reg::Rdi, 0);
        a.mov_ri(Width::W64, Reg::Rax, syscalls::EXIT as i64);
        a.syscall();
        let p = a.finish().expect("probe assembles");
        Image {
            kind: ImageKind::Exec,
            entry: layout::CODE_BASE,
            segments: vec![Segment::new(p.base, SegFlags::RX, p.bytes)],
            symbols: vec![],
        }
    }

    /// The digest of `images`' serialized bytes, each preceded by its
    /// length.
    fn digest_of(images: impl IntoIterator<Item = Image>) -> String {
        let mut h = Sha256::new();
        for image in images {
            let bytes = image.to_bytes();
            h.update_u64(bytes.len() as u64);
            h.update(&bytes);
        }
        h.finalize().to_hex()
    }

    #[test]
    fn emitted_bytes_are_pinned_to_the_tool_version() {
        use crate::{harden, instrument_profile, HardenConfig, LowFatPolicy};
        // Caches key artifacts by TOOL_VERSION, so bytes that change
        // under the same tag would be served stale from an old cache.
        let probe = probe_image();
        let hardened = harden(&probe, &HardenConfig::default()).expect("probe hardens");
        assert!(hardened.stats.batches > 0, "the probe gets trampolines");
        assert_eq!(
            sha256(&hardened.image.to_bytes()).to_hex(),
            PINNED_PROBE_DIGEST,
            "emitted bytes changed: bump TOOL_VERSION"
        );

        let unoptimized = HardenConfig::unoptimized(LowFatPolicy::All);
        let no_elim = HardenConfig {
            elim: false,
            elim_flow: false,
            elim_redundant: false,
            ..HardenConfig::default()
        };
        let stand_ins = |config: &HardenConfig| {
            let hardened = redfat_workloads::spec::all()
                .into_iter()
                .map(|w| harden(&w.image(), config).expect("stand-in hardens").image);
            digest_of(hardened)
        };
        let harden_one = |image: &Image, config: &HardenConfig| {
            digest_of([harden(image, config).expect("hardens").image])
        };
        let actual = [
            harden_one(&probe, &unoptimized),
            digest_of([instrument_profile(&probe).expect("instruments").image]),
            harden_one(&redfat_workloads::riprel::image(), &no_elim),
            stand_ins(&HardenConfig::default()),
            stand_ins(&unoptimized),
        ];
        let moved: Vec<String> = PINNED_DIGESTS
            .iter()
            .zip(&actual)
            .filter(|((_, pinned), actual)| pinned != actual)
            .map(|((name, _), actual)| format!("{name}: {actual}"))
            .collect();
        assert!(
            moved.is_empty(),
            "emitted bytes changed: bump TOOL_VERSION\n{}",
            moved.join("\n")
        );
    }
}
