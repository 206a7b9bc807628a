//! Shared seeded-generation helpers for every workload driver.
//!
//! Before this module each driver (`churn.rs`, `ycsb.rs`, `tenant.rs`, the
//! serving stack) carried its own copy of the same three primitives: a
//! per-tenant seed derivation, a hot/cold bounded draw, and the YCSB key
//! scheme. They are deduplicated here with their **exact RNG draw orders
//! preserved** — the golden fixtures pin byte-identical streams, so a
//! helper that consumed randomness in a different order would shift every
//! figure even though the distribution is unchanged.

use twob_sim::{SimRng, Zipfian};

/// Weyl-sequence increment (2^32 · golden ratio) used to derive
/// per-tenant seeds from one base seed.
pub const TENANT_SEED_STRIDE: u64 = 0x9E37_79B9;

/// Derives a per-tenant seed from a base seed, spacing tenants along a
/// Weyl sequence so neighbouring tenants get decorrelated streams while
/// the whole fleet stays a pure function of `(base, tenant)`.
pub fn tenant_seed(base: u64, tenant: u16) -> u64 {
    base.wrapping_add(u64::from(tenant) * TENANT_SEED_STRIDE)
}

/// A seeded per-tenant RNG: [`tenant_seed`] fed to [`SimRng::seed_from`].
pub fn tenant_rng(base: u64, tenant: u16) -> SimRng {
    SimRng::seed_from(tenant_seed(base, tenant))
}

/// The YCSB key string for a rank (`user<rank>`, zero-padded to 12).
pub fn key_for(rank: u64) -> Vec<u8> {
    let digits = rank.checked_ilog10().map_or(1, |log| log as usize + 1);
    let mut key = vec![b'0'; 4 + digits.max(12)];
    key[..4].copy_from_slice(b"user");
    let mut rest = rank;
    for digit in key.iter_mut().rev().take(digits) {
        *digit = b'0' + (rest % 10) as u8;
        rest /= 10;
    }
    key
}

/// Draws a Zipfian-ranked YCSB key: one `zipf.sample` draw, nothing else.
pub fn zipf_key(zipf: &Zipfian, rng: &mut SimRng) -> Vec<u8> {
    key_for(zipf.sample(rng))
}

/// A random value of exactly `len` bytes: one `fill_bytes` draw.
pub fn payload(rng: &mut SimRng, len: usize) -> Vec<u8> {
    let mut value = vec![0u8; len];
    rng.fill_bytes(&mut value);
    value
}

/// Hot/cold bounded draw over `[0, total)`: with probability
/// `hot_probability` the draw is confined to the hottest
/// `total · hot_fraction` items (at least one).
///
/// Draw order is load-bearing: one `chance` draw, then exactly one
/// bounded draw — the order `ChurnWorkload` has always used.
pub fn hot_cold_draw(rng: &mut SimRng, total: u64, hot_fraction: f64, hot_probability: f64) -> u64 {
    let hot = ((total as f64 * hot_fraction) as u64).max(1);
    if rng.chance(hot_probability) {
        rng.next_u64_below(hot)
    } else {
        rng.next_u64_below(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_seeds_follow_weyl_stride() {
        assert_eq!(tenant_seed(7, 0), 7);
        assert_eq!(tenant_seed(7, 1), 7 + TENANT_SEED_STRIDE);
        assert_eq!(tenant_seed(7, 3), 7u64.wrapping_add(3 * TENANT_SEED_STRIDE));
        // Wrapping, never panicking, near u64::MAX.
        let _ = tenant_seed(u64::MAX, u16::MAX);
    }

    #[test]
    fn tenant_rng_streams_are_decorrelated_but_reproducible() {
        let a: Vec<u64> = {
            let mut r = tenant_rng(11, 4);
            (0..8).map(|_| r.next_u64_below(1 << 30)).collect()
        };
        let a2: Vec<u64> = {
            let mut r = tenant_rng(11, 4);
            (0..8).map(|_| r.next_u64_below(1 << 30)).collect()
        };
        let b: Vec<u64> = {
            let mut r = tenant_rng(11, 5);
            (0..8).map(|_| r.next_u64_below(1 << 30)).collect()
        };
        assert_eq!(a, a2);
        assert_ne!(a, b);
    }

    #[test]
    fn key_scheme_is_ycsb_shaped() {
        assert_eq!(key_for(0), b"user000000000000".to_vec());
        assert_eq!(key_for(42), b"user000000000042".to_vec());
    }

    #[test]
    fn key_for_matches_the_formatted_key() {
        let formatted = |rank: u64| format!("user{rank:012}").into_bytes();
        for rank in [0, 9, 10, 999_999_999_999, 1_000_000_000_000, u64::MAX] {
            assert_eq!(key_for(rank), formatted(rank), "{rank}");
        }
        let mut rng = SimRng::seed_from(12);
        for _ in 0..10_000 {
            // Every digit count, from 1 to 20.
            let rank = rng.next_u64_below(u64::MAX) >> rng.next_u64_below(64);
            assert_eq!(key_for(rank), formatted(rank), "{rank}");
        }
    }

    #[test]
    fn hot_cold_draw_concentrates_and_stays_in_bounds() {
        let mut rng = SimRng::seed_from(9);
        let mut hot_hits = 0u64;
        for _ in 0..10_000 {
            let x = hot_cold_draw(&mut rng, 1000, 0.2, 0.8);
            assert!(x < 1000);
            if x < 200 {
                hot_hits += 1;
            }
        }
        // 80 % targeted + 20 % uniform spillover ≈ 84 %.
        assert!(hot_hits > 7_000, "hot set drew only {hot_hits}/10000");
    }

    #[test]
    fn hot_cold_draw_consumes_exactly_two_draws() {
        // The helper must stay in lock-step with an inline copy of the
        // historical draw order, or seeded streams shift.
        let mut a = SimRng::seed_from(31);
        let mut b = SimRng::seed_from(31);
        for _ in 0..1000 {
            let x = hot_cold_draw(&mut a, 384, 0.2, 0.8);
            let hot = ((384f64 * 0.2) as u64).max(1);
            let y = if b.chance(0.8) {
                b.next_u64_below(hot)
            } else {
                b.next_u64_below(384)
            };
            assert_eq!(x, y);
        }
    }
}
