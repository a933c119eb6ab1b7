//! MurmurHash3 (Austin Appleby, public domain algorithm), implemented from
//! the reference `smhasher` description.
//!
//! The paper uses "the fast MurMur3 hash for calculating the position of a
//! grid cell" (§IV-A1). Grid-cell keys are single `u64`s, for which the
//! 64-bit finaliser `fmix64` — the avalanche core of MurmurHash3 — is the
//! exact-width fast path; the full x64/128-bit variant is provided for
//! arbitrary byte strings (used by tests and available to downstream users
//! hashing richer keys).

/// MurmurHash3's 64-bit finaliser (`fmix64`).
///
/// Full-avalanche mixing: every input bit affects every output bit with
/// probability ~1/2. This is the per-key hash used for grid-cell slots.
#[inline]
pub fn fmix64(mut k: u64) -> u64 {
    k ^= k >> 33;
    k = k.wrapping_mul(0xff51_afd7_ed55_8ccd);
    k ^= k >> 33;
    k = k.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    k ^= k >> 33;
    k
}

/// MurmurHash3 x64 128-bit for arbitrary byte strings.
///
/// Returns the two 64-bit halves `(h1, h2)`.
pub fn murmur3_x64_128(data: &[u8], seed: u32) -> (u64, u64) {
    const C1: u64 = 0x87c3_7b91_1142_53d5;
    const C2: u64 = 0x4cf5_ad43_2745_937f;

    let nblocks = data.len() / 16;
    let mut h1 = seed as u64;
    let mut h2 = seed as u64;

    // Body: 16-byte blocks.
    for i in 0..nblocks {
        let b = &data[i * 16..i * 16 + 16];
        let mut k1 = u64::from_le_bytes(b[0..8].try_into().unwrap());
        let mut k2 = u64::from_le_bytes(b[8..16].try_into().unwrap());

        k1 = k1.wrapping_mul(C1);
        k1 = k1.rotate_left(31);
        k1 = k1.wrapping_mul(C2);
        h1 ^= k1;
        h1 = h1.rotate_left(27);
        h1 = h1.wrapping_add(h2);
        h1 = h1.wrapping_mul(5).wrapping_add(0x52dc_e729);

        k2 = k2.wrapping_mul(C2);
        k2 = k2.rotate_left(33);
        k2 = k2.wrapping_mul(C1);
        h2 ^= k2;
        h2 = h2.rotate_left(31);
        h2 = h2.wrapping_add(h1);
        h2 = h2.wrapping_mul(5).wrapping_add(0x3849_5ab5);
    }

    // Tail: up to 15 remaining bytes.
    let tail = &data[nblocks * 16..];
    let mut k1: u64 = 0;
    let mut k2: u64 = 0;
    for (i, &byte) in tail.iter().enumerate() {
        if i < 8 {
            k1 |= (byte as u64) << (8 * i);
        } else {
            k2 |= (byte as u64) << (8 * (i - 8));
        }
    }
    if tail.len() > 8 {
        k2 = k2.wrapping_mul(C2);
        k2 = k2.rotate_left(33);
        k2 = k2.wrapping_mul(C1);
        h2 ^= k2;
    }
    if !tail.is_empty() {
        k1 = k1.wrapping_mul(C1);
        k1 = k1.rotate_left(31);
        k1 = k1.wrapping_mul(C2);
        h1 ^= k1;
    }

    // Finalisation.
    h1 ^= data.len() as u64;
    h2 ^= data.len() as u64;
    h1 = h1.wrapping_add(h2);
    h2 = h2.wrapping_add(h1);
    h1 = fmix64(h1);
    h2 = fmix64(h2);
    h1 = h1.wrapping_add(h2);
    h2 = h2.wrapping_add(h1);
    (h1, h2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    #[test]
    fn fmix64_matches_reference_vectors() {
        // fmix64(0) = 0 is a fixed point of the canonical smhasher fmix64.
        assert_eq!(fmix64(0), 0);
        // fmix64 is a bijection; distinct inputs may never collide.
        assert_ne!(fmix64(1), fmix64(2));
        assert_ne!(fmix64(u64::MAX), fmix64(u64::MAX - 1));
    }

    #[test]
    fn murmur128_known_answer_empty() {
        // Reference: MurmurHash3_x64_128("", seed=0) = 0x00000000…00 (both
        // halves zero).
        assert_eq!(murmur3_x64_128(b"", 0), (0, 0));
    }

    #[test]
    fn murmur128_known_answer_strings() {
        // Cross-checked against the published mmh3 reference digest for
        // "foo" (6145f501578671e2877dba2be487af7e, little-endian h1‖h2).
        let (h1, h2) = murmur3_x64_128(b"foo", 0);
        let mut digest = [0u8; 16];
        digest[..8].copy_from_slice(&h1.to_le_bytes());
        digest[8..].copy_from_slice(&h2.to_le_bytes());
        let hex: String = digest.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, "6145f501578671e2877dba2be487af7e");

        let (h1, h2) = murmur3_x64_128(b"The quick brown fox jumps over the lazy dog", 0);
        assert_eq!(h1, 0xe34b_bc7b_bc07_1b6c, "h1 = {h1:#x}");
        assert_eq!(h2, 0x7a43_3ca9_c49a_9347, "h2 = {h2:#x}");
    }

    #[test]
    fn murmur128_seed_changes_output() {
        let a = murmur3_x64_128(b"satellite", 0);
        let b = murmur3_x64_128(b"satellite", 1);
        assert_ne!(a, b);
    }

    #[test]
    fn fmix64_avalanche_quality() {
        // Flipping one input bit should flip ~32 of the 64 output bits.
        let base = fmix64(0x0123_4567_89ab_cdef);
        let mut total_flips = 0u32;
        for bit in 0..64 {
            let flipped = fmix64(0x0123_4567_89ab_cdef ^ (1u64 << bit));
            total_flips += (base ^ flipped).count_ones();
        }
        let avg = total_flips as f64 / 64.0;
        assert!((avg - 32.0).abs() < 4.0, "avg flips = {avg}");
    }

    #[test]
    fn dense_cell_keys_spread_across_slots() {
        // The whole point of hashing cell keys: consecutive cells must not
        // map to consecutive slots. Simulate a 16×16×16 block of cells and
        // check slot occupancy in a 8192-slot table is well spread.
        let slots = 8192u64;
        let mut used = HashSet::new();
        for x in 0..16u64 {
            for y in 0..16u64 {
                for z in 0..16u64 {
                    let key = (x << 42) | (y << 21) | z;
                    used.insert(fmix64(key) % slots);
                }
            }
        }
        // 4096 keys into 8192 slots: expect ≥ ~3100 distinct slots
        // (birthday-problem expectation ≈ 8192·(1−e^(−0.5)) ≈ 3223).
        assert!(used.len() > 3000, "only {} distinct slots", used.len());
    }

    proptest! {
        #[test]
        fn fmix64_is_injective_on_samples(a in any::<u64>(), b in any::<u64>()) {
            // fmix64 is bijective; distinct inputs hash differently.
            prop_assume!(a != b);
            prop_assert_ne!(fmix64(a), fmix64(b));
        }

        #[test]
        fn murmur128_is_deterministic(data in proptest::collection::vec(any::<u8>(), 0..64),
                                      seed in any::<u32>()) {
            prop_assert_eq!(murmur3_x64_128(&data, seed), murmur3_x64_128(&data, seed));
        }

        #[test]
        fn murmur128_tail_bytes_matter(data in proptest::collection::vec(any::<u8>(), 1..40)) {
            // Changing the last byte must change the hash.
            let mut altered = data.clone();
            *altered.last_mut().unwrap() = altered.last().unwrap().wrapping_add(1);
            prop_assert_ne!(murmur3_x64_128(&data, 7), murmur3_x64_128(&altered, 7));
        }
    }
}
