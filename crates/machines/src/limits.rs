//! Measurement limits: how much of a working set is actually simulated.
//!
//! The paper's sweeps reach 128 MB working sets. Simulating every word of
//! every cell would cost billions of trace events without changing any
//! steady-state bandwidth, so benchmarks cap the *simulated* prefix of each
//! pass. The caps are chosen so that (a) priming still fills the largest
//! cache completely (`tests/zoo.rs` asserts both caps cover every zoo
//! machine's largest cache) and (b) the measured prefix runs long enough
//! to reach steady state. Results remain deterministic.

/// Caps on the simulated portion of a benchmark pass (in 64-bit words).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MeasureLimits {
    /// Maximum words simulated in the measured pass.
    pub max_measure_words: u64,
    /// Maximum words simulated in the priming pass. Must be at least the
    /// largest cache of the machine (numa2s's 8 MiB L3 = 1 Mi words).
    pub max_prime_words: u64,
}

impl MeasureLimits {
    /// Default limits: measure ≤ 256 Ki words (2 MiB), prime ≤ 2 Mi words
    /// (16 MiB) — twice the largest zoo cache (numa2s's 8 MiB L3).
    pub fn new() -> Self {
        MeasureLimits {
            max_measure_words: 256 * 1024,
            max_prime_words: 2 * 1024 * 1024,
        }
    }

    /// Small limits (measure ≤ 32 Ki words, prime ≤ 1 Mi words = 8 MiB), the
    /// caps `gasnub sweep` and `gasnub serve` run at. The prime cap equals
    /// the largest zoo cache (numa2s's 8 MiB L3): it still fills it, but
    /// leaves no room to evict the measured region from it.
    pub fn fast() -> Self {
        MeasureLimits {
            max_measure_words: 32 * 1024,
            max_prime_words: 1024 * 1024,
        }
    }

    /// Words actually simulated in the measured pass for a working set of
    /// `ws_words`.
    pub fn measure_words(&self, ws_words: u64) -> u64 {
        ws_words.min(self.max_measure_words)
    }

    /// Words actually simulated in the priming pass.
    pub fn prime_words(&self, ws_words: u64) -> u64 {
        ws_words.min(self.max_prime_words)
    }
}

impl Default for MeasureLimits {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caps_apply_only_above_threshold() {
        let l = MeasureLimits::new();
        assert_eq!(l.measure_words(100), 100);
        assert_eq!(l.measure_words(u64::MAX), l.max_measure_words);
        assert_eq!(l.prime_words(100), 100);
        assert_eq!(l.prime_words(u64::MAX), l.max_prime_words);
    }

    #[test]
    fn default_equals_new() {
        assert_eq!(MeasureLimits::default(), MeasureLimits::new());
    }
}
