//! AES-GCM on x86_64 AES-NI + PCLMULQDQ: the backend
//! [`crate::gcm::AesGcm`] runs on when the CPU has the instructions.
//!
//! * **CTR** encrypts eight counter blocks per pass, interleaving
//!   their `aesenc` rounds so the eight independent dependency chains
//!   hide the instruction's latency. Leftover blocks go one at a time.
//! * **GHASH** works in the byte-reflected domain: every block is
//!   byte-reversed (`pshufb`), so GCM's bit-reflected field elements
//!   become ordinary polynomials that `pclmulqdq` multiplies directly,
//!   up to a one-bit left shift of the 256-bit product. Groups of up
//!   to eight blocks are folded against precomputed `H⁸..H¹` with one
//!   shift-and-reduce per group (Gueron–Kounavis, Intel's
//!   "Carry-Less Multiplication and Its Usage for Computing the GCM
//!   Mode"):
//!
//!   ```text
//!   Y' = (Y ^ C1)·Hⁿ  ^  C2·Hⁿ⁻¹  ^ … ^  Cn·H        (n ≤ 8)
//!   ```
//!
//!   Each product is a schoolbook four-`pclmulqdq` multiplication;
//!   the unreduced halves of all n products are XORed together first,
//!   since shifting and reducing are linear.
//!
//! Neither half indexes memory by data, so the whole backend is
//! constant-time (the bitsliced fallback's GHASH tables are not).
//!
//! Soundness: the `#[target_feature]` functions are sound to run only
//! on a CPU with those features, so Rust makes calling one from code
//! compiled without them `unsafe`. The only such calls are the three
//! in [`HwGcm`], whose constructor takes a [`HwSupport`], and a
//! `HwSupport` exists only after `is_x86_feature_detected!` has
//! confirmed every feature the functions enable. Blocks move between
//! memory and registers as `[u8; 16]` ↔ `u128` ↔ `__m128i` (two
//! transmutes between same-size plain-data types); there are no raw
//! pointers.

use core::arch::x86_64::{
    __m128i, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_clmulepi64_si128, _mm_insert_epi32,
    _mm_or_si128, _mm_set_epi8, _mm_setzero_si128, _mm_shuffle_epi8, _mm_slli_epi32,
    _mm_slli_si128, _mm_srli_epi32, _mm_srli_si128, _mm_xor_si128,
};

use crate::aes::KeySchedule;

/// Proof that the running CPU has AES-NI, PCLMULQDQ, SSSE3 and
/// SSE4.1. Only [`HwSupport::detect`] can build one.
#[derive(Clone, Copy)]
pub(crate) struct HwSupport(());

impl HwSupport {
    /// `Some` when every instruction the backend uses is available.
    pub(crate) fn detect() -> Option<HwSupport> {
        let ok = is_x86_feature_detected!("aes")
            && is_x86_feature_detected!("pclmulqdq")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1");
        ok.then_some(HwSupport(()))
    }
}

/// Per-key state: the AES round keys as AES-NI consumes them, and
/// the powers of the hash subkey in the byte-reflected domain. Kept
/// as plain `u128`s so the volatile wipe needs no SIMD.
// lint:secret
struct HwKeys {
    /// Round key `r` as 16 bytes (little-endian `u128`).
    round_keys: [u128; 15],
    /// `h_powers[k]` is `H^(k+1)`, byte-reflected.
    h_powers: [u128; 8],
    /// 10 for AES-128, 14 for AES-256.
    rounds: usize,
}

impl HwKeys {
    fn wipe(&mut self) {
        crate::ct::zeroize_u128(&mut self.round_keys);
        crate::ct::zeroize_u128(&mut self.h_powers);
    }
}

impl Drop for HwKeys {
    fn drop(&mut self) {
        self.wipe();
    }
}

/// The hardware AES-GCM core: CTR keystream and tag over an expanded
/// key. The key state sits behind a `Box` so moving the cipher never
/// copies it.
pub(crate) struct HwGcm {
    keys: Box<HwKeys>,
}

impl HwGcm {
    /// Load the shared key schedule and precompute `H¹..H⁸`.
    pub(crate) fn new(_cpu: HwSupport, schedule: &KeySchedule) -> Self {
        let mut keys = Box::new(HwKeys {
            round_keys: [0; 15],
            h_powers: [0; 8],
            rounds: schedule.rounds,
        });
        for (rk, w) in keys
            .round_keys
            .iter_mut()
            .zip(schedule.words.chunks_exact(4))
        {
            *rk = u128::from(w[0])
                | (u128::from(w[1]) << 32)
                | (u128::from(w[2]) << 64)
                | (u128::from(w[3]) << 96);
        }
        // SAFETY: `_cpu` proves the CPU has every enabled feature.
        unsafe { init_h_powers(&mut keys) };
        HwGcm { keys }
    }

    /// XOR the GCM keystream for counters `2, 3, …` into `data`.
    pub(crate) fn ctr_xor(&self, nonce: &[u8; 12], data: &mut [u8]) {
        // SAFETY: an `HwGcm` is only built from a `HwSupport`.
        unsafe { ctr_xor(&self.keys, nonce, data) }
    }

    /// The GCM tag over `aad` and `ciphertext`.
    pub(crate) fn tag(&self, nonce: &[u8; 12], aad: &[u8], ciphertext: &[u8]) -> [u8; 16] {
        // SAFETY: an `HwGcm` is only built from a `HwSupport`.
        unsafe { tag(&self.keys, nonce, aad, ciphertext) }
    }
}

#[inline]
fn to_m128(x: u128) -> __m128i {
    // SAFETY: same size, every bit pattern valid on both sides.
    unsafe { core::mem::transmute::<u128, __m128i>(x) }
}

#[inline]
fn from_m128(x: __m128i) -> u128 {
    // SAFETY: as in `to_m128`.
    unsafe { core::mem::transmute::<__m128i, u128>(x) }
}

/// A block in memory order (x86_64 is little-endian).
#[inline]
fn load(block: &[u8; 16]) -> __m128i {
    to_m128(u128::from_le_bytes(*block))
}

#[inline]
fn store(x: __m128i) -> [u8; 16] {
    from_m128(x).to_le_bytes()
}

/// Load a short final block, zero-padded.
#[inline]
fn load_partial(bytes: &[u8]) -> __m128i {
    let mut padded = [0u8; 16];
    let n = bytes.len().min(16);
    padded[..n].copy_from_slice(&bytes[..n]);
    load(&padded)
}

#[inline]
fn round_keys(keys: &HwKeys) -> [__m128i; 15] {
    keys.round_keys.map(to_m128)
}

/// Reverse the 16 bytes of a block.
#[inline]
#[target_feature(enable = "ssse3")]
fn bswap(x: __m128i) -> __m128i {
    _mm_shuffle_epi8(
        x,
        _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
    )
}

/// Counter block `nonce || be32(counter)` from the nonce block with
/// a zero counter field.
#[inline]
#[target_feature(enable = "sse4.1")]
fn counter_block(base: __m128i, counter: u32) -> __m128i {
    // Lane 3 holds bytes 12..16 little-endian, so the big-endian
    // counter goes in byte-swapped.
    _mm_insert_epi32::<3>(base, counter.swap_bytes() as i32)
}

/// One block through the cipher.
#[inline]
#[target_feature(enable = "aes")]
fn encrypt_block(rk: &[__m128i; 15], rounds: usize, block: __m128i) -> __m128i {
    let mut b = _mm_xor_si128(block, rk[0]);
    for k in &rk[1..rounds] {
        b = _mm_aesenc_si128(b, *k);
    }
    _mm_aesenclast_si128(b, rk[rounds])
}

/// Eight independent blocks through the cipher, round by round, so
/// each `aesenc` overlaps the other seven's latency.
#[inline]
#[target_feature(enable = "aes")]
fn encrypt8(rk: &[__m128i; 15], rounds: usize, mut b: [__m128i; 8]) -> [__m128i; 8] {
    for block in b.iter_mut() {
        *block = _mm_xor_si128(*block, rk[0]);
    }
    for k in &rk[1..rounds] {
        for block in b.iter_mut() {
            *block = _mm_aesenc_si128(*block, *k);
        }
    }
    for block in b.iter_mut() {
        *block = _mm_aesenclast_si128(*block, rk[rounds]);
    }
    b
}

/// Unreduced product pieces `(lo, mid, hi)` of `a·b`: the full
/// 256-bit product is `hi·x¹²⁸ ^ mid·x⁶⁴ ^ lo`.
#[inline]
#[target_feature(enable = "pclmulqdq")]
fn clmul(a: __m128i, b: __m128i) -> [__m128i; 3] {
    [
        _mm_clmulepi64_si128::<0x00>(a, b),
        _mm_xor_si128(
            _mm_clmulepi64_si128::<0x10>(a, b),
            _mm_clmulepi64_si128::<0x01>(a, b),
        ),
        _mm_clmulepi64_si128::<0x11>(a, b),
    ]
}

/// Sum of two unreduced products.
#[inline]
#[target_feature(enable = "sse2")]
fn xor3(a: [__m128i; 3], b: [__m128i; 3]) -> [__m128i; 3] {
    [
        _mm_xor_si128(a[0], b[0]),
        _mm_xor_si128(a[1], b[1]),
        _mm_xor_si128(a[2], b[2]),
    ]
}

/// Fold the middle term in, shift the 256-bit product left by one
/// (the byte-reflected domain's off-by-one), and reduce modulo
/// `x¹²⁸ + x⁷ + x² + x + 1`.
#[inline]
#[target_feature(enable = "sse2")]
fn reduce([lo, mid, hi]: [__m128i; 3]) -> __m128i {
    let lo = _mm_xor_si128(lo, _mm_slli_si128::<8>(mid));
    let hi = _mm_xor_si128(hi, _mm_srli_si128::<8>(mid));

    // Shift hi:lo left by one bit, carrying across 32-bit lanes and
    // from the top of `lo` into the bottom of `hi`.
    let lo_carry = _mm_srli_epi32::<31>(lo);
    let hi_carry = _mm_srli_epi32::<31>(hi);
    let lo = _mm_or_si128(_mm_slli_epi32::<1>(lo), _mm_slli_si128::<4>(lo_carry));
    let hi = _mm_or_si128(
        _mm_or_si128(_mm_slli_epi32::<1>(hi), _mm_slli_si128::<4>(hi_carry)),
        _mm_srli_si128::<12>(lo_carry),
    );

    // First phase: multiply the low half by x⁶³ + x⁶² + x⁵⁷.
    let a = _mm_xor_si128(
        _mm_xor_si128(_mm_slli_epi32::<31>(lo), _mm_slli_epi32::<30>(lo)),
        _mm_slli_epi32::<25>(lo),
    );
    let spill = _mm_srli_si128::<4>(a);
    let lo = _mm_xor_si128(lo, _mm_slli_si128::<12>(a));

    // Second phase: fold the rest back with right shifts by 1, 2, 7.
    let b = _mm_xor_si128(
        _mm_xor_si128(_mm_srli_epi32::<1>(lo), _mm_srli_epi32::<2>(lo)),
        _mm_xor_si128(_mm_srli_epi32::<7>(lo), spill),
    );
    _mm_xor_si128(hi, _mm_xor_si128(lo, b))
}

/// `H = E(K, 0¹²⁸)`, then `H¹..H⁸` by repeated multiplication.
#[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
fn init_h_powers(keys: &mut HwKeys) {
    let h = bswap(encrypt_block(
        &round_keys(keys),
        keys.rounds,
        _mm_setzero_si128(),
    ));
    let mut power = h;
    for slot in keys.h_powers.iter_mut() {
        *slot = from_m128(power);
        power = reduce(clmul(power, h));
    }
}

/// Fold `data`, zero-padded to whole blocks, into the GHASH state `y`
/// (byte-reflected): eight blocks per reduction, then the remaining
/// blocks and the padded tail as one shorter group.
#[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
fn ghash_absorb(h: &[__m128i; 8], mut y: __m128i, data: &[u8]) -> __m128i {
    let (blocks, tail) = data.as_chunks::<16>();
    let (groups, rest) = blocks.as_chunks::<8>();
    for group in groups {
        let mut acc = clmul(_mm_xor_si128(bswap(load(&group[0])), y), h[7]);
        for (block, hp) in group[1..].iter().zip(h[..7].iter().rev()) {
            acc = xor3(acc, clmul(bswap(load(block)), *hp));
        }
        y = reduce(acc);
    }
    let n = rest.len() + usize::from(!tail.is_empty());
    if n > 0 {
        let last = rest
            .iter()
            .map(load)
            .chain((!tail.is_empty()).then(|| load_partial(tail)));
        let mut acc = [_mm_setzero_si128(); 3];
        for (i, (x, hp)) in last.zip(h[..n].iter().rev()).enumerate() {
            let mut x = bswap(x);
            if i == 0 {
                x = _mm_xor_si128(x, y);
            }
            acc = xor3(acc, clmul(x, *hp));
        }
        y = reduce(acc);
    }
    y
}

#[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
fn ctr_xor(keys: &HwKeys, nonce: &[u8; 12], data: &mut [u8]) {
    let rk = round_keys(keys);
    let rounds = keys.rounds;
    let base = load_partial(nonce);
    let mut counter = 2u32;
    let (blocks, tail) = data.as_chunks_mut::<16>();
    let (groups, rest) = blocks.as_chunks_mut::<8>();
    for group in groups {
        let mut ctrs = [_mm_setzero_si128(); 8];
        for (i, c) in ctrs.iter_mut().enumerate() {
            *c = counter_block(base, counter.wrapping_add(i as u32));
        }
        counter = counter.wrapping_add(8);
        for (block, ks) in group.iter_mut().zip(encrypt8(&rk, rounds, ctrs)) {
            *block = store(_mm_xor_si128(load(block), ks));
        }
    }
    for block in rest {
        let ks = encrypt_block(&rk, rounds, counter_block(base, counter));
        counter = counter.wrapping_add(1);
        *block = store(_mm_xor_si128(load(block), ks));
    }
    if !tail.is_empty() {
        let ks = store(encrypt_block(&rk, rounds, counter_block(base, counter)));
        for (b, k) in tail.iter_mut().zip(ks) {
            *b ^= k;
        }
    }
}

#[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
fn tag(keys: &HwKeys, nonce: &[u8; 12], aad: &[u8], ciphertext: &[u8]) -> [u8; 16] {
    let h = keys.h_powers.map(to_m128);
    let mut len_block = [0u8; 16];
    len_block[0..8].copy_from_slice(&((aad.len() as u64) * 8).to_be_bytes());
    len_block[8..16].copy_from_slice(&((ciphertext.len() as u64) * 8).to_be_bytes());
    let mut y = ghash_absorb(&h, _mm_setzero_si128(), aad);
    y = ghash_absorb(&h, y, ciphertext);
    y = ghash_absorb(&h, y, &len_block);

    let j0 = counter_block(load_partial(nonce), 1);
    let mask = encrypt_block(&round_keys(keys), keys.rounds, j0);
    store(_mm_xor_si128(bswap(y), mask))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_state_is_wiped_on_drop() {
        let Some(cpu) = HwSupport::detect() else {
            return;
        };
        let schedule = crate::aes::expand_key(&[0x3cu8; 32]).unwrap();
        let gcm = HwGcm::new(cpu, &schedule);
        crate::ct::assert_wipes(*gcm.keys, HwKeys::wipe, |k| {
            k.round_keys
                .iter()
                .chain(k.h_powers.iter())
                .map(|w| w.to_le_bytes().to_vec())
                .collect()
        });
    }
}
