//! Robustness properties of the abbreviation matcher: it must never
//! panic, whatever names arrive. Cases come from a seeded local PRNG
//! (no property-testing framework in the offline build).

/// Minimal SplitMix64 string generator for deterministic cases.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next()) * u128::from(n)) >> 64) as u64
    }

    fn string(&mut self, charset: &[u8], min: usize, max: usize) -> String {
        let len = min + self.below((max - min + 1) as u64) as usize;
        (0..len)
            .map(|_| charset[self.below(charset.len() as u64) as usize] as char)
            .collect()
    }
}

const CASES: usize = 256;

/// The abbreviation matcher is total and symmetric in trivial cases.
#[test]
fn abbreviation_matcher_is_total() {
    let mut rng = Mix(0xABB);
    for _ in 0..CASES {
        let a = rng.string(b"abcdefghijklmnopqrstuvwxyz", 0, 10);
        let b = rng.string(
            b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz ",
            0,
            16,
        );
        let _ = hoiho_geodb::is_abbreviation(&a, &b, &Default::default());
        // A name always abbreviates itself (when alphabetic, single word).
        if !b.is_empty() && b.chars().all(|c| c.is_ascii_alphabetic()) {
            assert!(hoiho_geodb::is_abbreviation(
                &b.to_ascii_lowercase(),
                &b,
                &Default::default()
            ));
        }
    }
}
