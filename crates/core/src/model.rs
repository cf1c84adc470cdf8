//! DMPC model parameters.

/// Parameters of a DMPC deployment for a graph with `n` vertices and at most
/// `m_max` live edges (the paper's "m is the maximum number of edges
/// throughout the update sequence").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DmpcParams {
    /// Number of vertices.
    pub n: usize,
    /// Maximum number of live edges at any time.
    pub m_max: usize,
    /// Memory multiplier: machine capacity is `s_multiplier * ceil(sqrt(N))`
    /// words. The paper's algorithms need a constant-factor headroom over
    /// `sqrt(N)`: a structural broadcast is ~16 words to each of ~sqrt(N)
    /// machines, and the coordinator's update-history is ~2 sqrt(N) entries.
    /// 32 covers every algorithm here and is the default.
    pub s_multiplier: usize,
}

impl DmpcParams {
    /// Parameters with the default memory multiplier.
    pub fn new(n: usize, m_max: usize) -> Self {
        DmpcParams {
            n,
            m_max,
            s_multiplier: 32,
        }
    }

    /// Overrides the memory multiplier (used by the memory-ablation bench).
    pub fn with_multiplier(mut self, s_multiplier: usize) -> Self {
        assert!(s_multiplier >= 1);
        self.s_multiplier = s_multiplier;
        self
    }

    /// Input size `N = n + m_max`.
    pub fn input_size(&self) -> usize {
        self.n + self.m_max
    }

    /// `ceil(sqrt(N))` — the model's base memory unit.
    pub fn sqrt_n(&self) -> usize {
        (self.input_size() as f64).sqrt().ceil() as usize
    }

    /// Machine memory / per-round send & receive cap `S`, in words.
    pub fn capacity_words(&self) -> usize {
        self.s_multiplier * self.sqrt_n()
    }

    /// Number of storage machines so that total memory is `Theta(N)`:
    /// `ceil(N / sqrt(N)) = O(sqrt(N))` machines.
    pub fn storage_machines(&self) -> usize {
        self.input_size().div_ceil(self.sqrt_n()).max(1)
    }

    /// Number of machines needed to hold one record per vertex
    /// (`O(n / sqrt(N))`, the paper's statistics machines).
    pub fn stats_machines(&self) -> usize {
        self.n.div_ceil(self.sqrt_n()).max(1)
    }

    /// The heavy/light degree threshold `tau = ceil(sqrt(2 * m_max))` from
    /// Section 3 (a vertex is *heavy* iff its degree exceeds `tau`).
    pub fn heavy_threshold(&self) -> usize {
        ((2.0 * self.m_max.max(1) as f64).sqrt()).ceil() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_quantities() {
        let p = DmpcParams::new(100, 300);
        assert_eq!(p.input_size(), 400);
        assert_eq!(p.sqrt_n(), 20);
        assert_eq!(p.capacity_words(), 640);
        assert_eq!(p.storage_machines(), 20);
        assert_eq!(p.stats_machines(), 5);
        // tau = ceil(sqrt(600)) = 25
        assert_eq!(p.heavy_threshold(), 25);
    }

    #[test]
    fn multiplier_scales_capacity() {
        let p = DmpcParams::new(64, 192).with_multiplier(2);
        assert_eq!(p.capacity_words(), 2 * p.sqrt_n());
    }

    #[test]
    fn machine_count_is_theta_sqrt_n() {
        for k in [6, 8, 10, 12, 14] {
            let n = 1usize << k;
            let p = DmpcParams::new(n, 3 * n);
            let mu = p.storage_machines();
            let sq = p.sqrt_n();
            assert!(mu <= sq + 1, "mu={mu} sqrt={sq}");
            assert!(mu + 1 >= sq / 2);
        }
    }
}
