//! Order statistics over wall-clock samples.

/// Quantile `q` in `[0, 1]` of `values`, interpolating linearly between
/// the two nearest ranks. 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Deterministic 64-bit LCG: the only source of workload randomness, so a
/// seed fixes the inputs.
pub struct Lcg(u64);

impl Lcg {
    /// A generator for `seed` (mixed so nearby seeds diverge at once).
    pub fn new(seed: u64) -> Lcg {
        let mut g = Lcg(seed ^ 0x9e37_79b9_7f4a_7c15);
        g.next();
        g
    }

    /// Next raw value.
    pub fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.next() as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Exponentially distributed with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -(1.0 - self.unit()).ln() * mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn lcg_repeats_per_seed() {
        let a: Vec<u64> = (0..4)
            .map(|_| 0)
            .scan(Lcg::new(7), |g, _| Some(g.next()))
            .collect();
        let b: Vec<u64> = (0..4)
            .map(|_| 0)
            .scan(Lcg::new(7), |g, _| Some(g.next()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(Lcg::new(7).next(), Lcg::new(8).next());
    }
}
