//! Samplers for the distributions the synthetic corpus and attacks need.
//!
//! * [`Zipf`] — exact table-based Zipf/zeta sampler over a finite rank space
//!   (the word-frequency law the ham/spam language models use);
//! * [`AliasSampler`] — Walker's alias method for arbitrary finite
//!   categorical distributions (strata and topic mixtures);
//! * [`LogNormalLen`] — truncated log-normal integer lengths (message token
//!   counts);
//! * [`bernoulli_subset`] — i.i.d. coin-flip subset selection (the focused
//!   attack's per-token guessing process, §3.3 of the paper).

use rand::Rng;
use std::sync::Arc;

/// Exact Zipf sampler over ranks `0..n` with exponent `s`:
/// `P(rank = k) ∝ 1 / (k+1)^s`.
///
/// Implemented with a precomputed cumulative table and a guide table
/// (Chen & Asau's cut-point method): `m`, a power of two up to `n / 2`,
/// equal slices of `[0, 1)`, each remembering the first rank whose
/// cumulative mass reaches the slice's lower edge. A draw `u` picks its
/// slice by one exact multiply (`u · m` is exact for a power-of-two `m`)
/// and finishes with a binary search over only that slice's ranks, about
/// `n / m + 1` of them on average. The result is the same index a binary
/// search over the whole table returns, for every `u`. Construction is
/// one O(n) sweep; the guide costs at most half a `u32` per rank. The
/// tables live behind an `Arc`, so a clone shares them.
#[derive(Debug, Clone)]
pub struct Zipf {
    table: Arc<ZipfTable>,
}

#[derive(Debug)]
struct ZipfTable {
    s: f64,
    cdf: Vec<f64>,
    /// `guide[j]` is the first rank with `cdf >= j / m` for `j < m`, and
    /// `guide[m] = n`: slice `j`'s ranks are `guide[j]..=guide[j + 1]`.
    guide: Vec<u32>,
}

impl Zipf {
    /// Build a sampler over `n` ranks with exponent `s` (`s ≥ 0`, `n ≥ 1`).
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n >= 1, "Zipf needs at least one rank");
        assert!(u32::try_from(n).is_ok(), "Zipf ranks must fit a u32");
        assert!(s >= 0.0 && s.is_finite(), "Zipf exponent must be finite and >= 0");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        // Guard against floating error leaving the last entry below 1.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        // The largest power of two up to n / 2 (1 for n ≤ 4): two to four
        // ranks per slice, and the guide's m + 1 entries cost at most half
        // a u32 per rank, plus one.
        let m = if n > 4 { 1usize << (n / 2).ilog2() } else { 1 };
        let mut guide = Vec::with_capacity(m + 1);
        let mut rank = 0usize;
        for j in 0..m {
            let edge = j as f64 / m as f64;
            while rank < n && cdf[rank] < edge {
                rank += 1;
            }
            guide.push(rank as u32);
        }
        guide.push(n as u32);
        Self {
            table: Arc::new(ZipfTable { s, cdf, guide }),
        }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.table.cdf.len()
    }

    /// True if the rank space is a single element.
    pub fn is_empty(&self) -> bool {
        self.table.cdf.is_empty()
    }

    /// The exponent `s` this sampler was built with.
    pub fn exponent(&self) -> f64 {
        self.table.s
    }

    /// The cumulative table: entry `k` is `P(rank ≤ k)`, the last is 1.
    pub fn cdf(&self) -> &[f64] {
        &self.table.cdf
    }

    /// Probability mass of rank `k`.
    pub fn pmf(&self, k: usize) -> f64 {
        let cdf = &self.table.cdf;
        assert!(k < cdf.len());
        if k == 0 {
            cdf[0]
        } else {
            cdf[k] - cdf[k - 1]
        }
    }

    /// The rank a uniform draw `u` maps to: the first `k` with
    /// `cdf[k] >= u`, clamped to the last rank. Equal to
    /// `cdf.partition_point(|&c| c < u).min(n - 1)` for every `u`.
    #[inline]
    pub fn rank_of(&self, u: f64) -> usize {
        let ZipfTable { cdf, guide, .. } = &*self.table;
        let m = guide.len() - 1;
        // Exact: scaling by a power of two only moves the exponent. The
        // saturating cast sends negative and NaN draws to slice 0.
        let j = ((u * m as f64) as usize).min(m - 1);
        let lo = guide[j] as usize;
        let hi = guide[j + 1] as usize;
        // Ranks below `lo` are below slice j's lower edge ≤ u, and ranks
        // from `hi` on reach the next edge > u (or `hi` is n).
        (lo + cdf[lo..hi].partition_point(|&c| c < u)).min(cdf.len() - 1)
    }

    /// Draw a rank in `0..n` (rank 0 is the most frequent).
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.rank_of(rng.random())
    }
}

/// Walker alias-method sampler for a fixed categorical distribution.
///
/// O(n) construction, O(1) sampling. Weights need not be normalized; they
/// must be non-negative, finite, and not all zero.
#[derive(Debug, Clone)]
pub struct AliasSampler {
    prob: Vec<f64>,
    alias: Vec<usize>,
}

impl AliasSampler {
    /// Build from unnormalized non-negative weights.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "AliasSampler needs at least one weight");
        let n = weights.len();
        let total: f64 = weights.iter().sum();
        assert!(
            total > 0.0 && total.is_finite(),
            "weights must be finite, non-negative, not all zero"
        );
        assert!(
            weights.iter().all(|&w| w >= 0.0 && w.is_finite()),
            "weights must be finite and non-negative"
        );
        let mut prob: Vec<f64> = weights.iter().map(|&w| w * n as f64 / total).collect();
        let mut alias = vec![0usize; n];
        let mut small: Vec<usize> = Vec::new();
        let mut large: Vec<usize> = Vec::new();
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
            alias[s] = l;
            prob[l] = (prob[l] + prob[s]) - 1.0;
            if prob[l] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // Remaining entries are 1 up to rounding.
        for i in large.into_iter().chain(small) {
            prob[i] = 1.0;
        }
        Self { prob, alias }
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// True if there is exactly zero categories (never: construction forbids it).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draw a category index.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let i = rng.random_range(0..self.prob.len());
        if rng.random::<f64>() < self.prob[i] {
            i
        } else {
            self.alias[i]
        }
    }
}

/// Truncated log-normal sampler for integer lengths (message token counts).
///
/// `exp(μ + σZ)` rounded to the nearest integer and clamped to
/// `[min_len, max_len]`. `Z` is standard normal via Box–Muller.
#[derive(Debug, Clone, Copy)]
pub struct LogNormalLen {
    mu: f64,
    sigma: f64,
    min_len: usize,
    max_len: usize,
}

impl LogNormalLen {
    /// Construct with location `mu`, scale `sigma`, truncation bounds.
    pub fn new(mu: f64, sigma: f64, min_len: usize, max_len: usize) -> Self {
        assert!(sigma >= 0.0 && sigma.is_finite());
        assert!(min_len >= 1 && min_len <= max_len);
        Self {
            mu,
            sigma,
            min_len,
            max_len,
        }
    }

    /// Convenience: the distribution whose median is `median` with shape `sigma`.
    pub fn with_median(median: f64, sigma: f64, min_len: usize, max_len: usize) -> Self {
        Self::new(median.ln(), sigma, min_len, max_len)
    }

    /// Draw one length.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let z = standard_normal(rng);
        let v = (self.mu + self.sigma * z).exp();
        let v = v.round();
        if !v.is_finite() || v >= self.max_len as f64 {
            return self.max_len;
        }
        (v as usize).clamp(self.min_len, self.max_len)
    }
}

/// One standard-normal variate via the Box–Muller transform.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid u1 == 0 which would take ln(0).
    let u1: f64 = loop {
        let u: f64 = rng.random();
        if u > 0.0 {
            break u;
        }
    };
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Select each element of `items` independently with probability `p`.
///
/// This is exactly the paper's focused-attack knowledge model (§3.3): "the
/// attacker correctly guesses each word in the target with probability p".
pub fn bernoulli_subset<'a, T, R: Rng + ?Sized>(items: &'a [T], p: f64, rng: &mut R) -> Vec<&'a T> {
    assert!((0.0..=1.0).contains(&p), "probability must be in [0,1]");
    items.iter().filter(|_| rng.random::<f64>() < p).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256pp;

    #[test]
    fn zipf_pmf_sums_to_one() {
        let z = Zipf::new(1000, 1.1);
        let total: f64 = (0..1000).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zipf_rank_zero_is_most_likely() {
        let z = Zipf::new(5000, 1.0);
        assert!(z.pmf(0) > z.pmf(1));
        assert!(z.pmf(1) > z.pmf(100));
        assert!(z.pmf(100) > z.pmf(4999));
    }

    #[test]
    fn zipf_empirical_matches_pmf() {
        let z = Zipf::new(50, 1.2);
        let mut rng = Xoshiro256pp::new(1);
        let n = 200_000;
        let mut counts = vec![0usize; 50];
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        for k in [0usize, 1, 5, 20] {
            let emp = counts[k] as f64 / n as f64;
            let exp = z.pmf(k);
            assert!(
                (emp - exp).abs() < 0.01 + 0.1 * exp,
                "rank {k}: emp {emp} vs pmf {exp}"
            );
        }
    }

    #[test]
    fn zipf_s_zero_is_uniform() {
        let z = Zipf::new(10, 0.0);
        for k in 0..10 {
            assert!((z.pmf(k) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn zipf_guide_equals_binary_search() {
        let mut rng = Xoshiro256pp::new(9);
        let tables = [
            (1, 1.0),
            (2, 0.5),
            (3, 1.2),
            (10, 0.0),
            (1000, 1.1),
            (4097, 2.5),
        ];
        for (n, s) in tables {
            let z = Zipf::new(n, s);
            let cdf = z.cdf();
            let want = |u: f64| cdf.partition_point(|&c| c < u).min(n - 1);
            let mut probes = vec![0.0, -0.0, -1.0, 1.0, 2.0, f64::NAN, 1.0f64.next_down()];
            for &c in cdf {
                probes.extend([c, c.next_up(), c.next_down()]);
            }
            probes.extend((0..5_000).map(|_| rng.random::<f64>()));
            for u in probes {
                assert_eq!(z.rank_of(u), want(u), "n = {n}, s = {s}, u = {u:e}");
            }
        }
    }

    #[test]
    fn zipf_guide_is_at_most_half_a_word_per_rank() {
        for n in [2usize, 3, 4, 5, 1_500, 8_000, 61_000] {
            let m = Zipf::new(n, 1.0).table.guide.len();
            assert!(m <= n / 2 + 1, "{m} guide entries for {n} ranks");
            assert!((m - 1).is_power_of_two());
        }
    }

    #[test]
    fn alias_matches_weights() {
        let w = [1.0, 2.0, 3.0, 4.0];
        let a = AliasSampler::new(&w);
        let mut rng = Xoshiro256pp::new(2);
        let n = 400_000;
        let mut counts = [0usize; 4];
        for _ in 0..n {
            counts[a.sample(&mut rng)] += 1;
        }
        for i in 0..4 {
            let emp = counts[i] as f64 / n as f64;
            let exp = w[i] / 10.0;
            assert!((emp - exp).abs() < 0.005, "cat {i}: {emp} vs {exp}");
        }
    }

    #[test]
    fn alias_handles_degenerate_one_hot() {
        let a = AliasSampler::new(&[0.0, 0.0, 5.0]);
        let mut rng = Xoshiro256pp::new(3);
        for _ in 0..1000 {
            assert_eq!(a.sample(&mut rng), 2);
        }
    }

    #[test]
    #[should_panic]
    fn alias_rejects_all_zero() {
        let _ = AliasSampler::new(&[0.0, 0.0]);
    }

    #[test]
    fn lognormal_respects_bounds() {
        let d = LogNormalLen::with_median(120.0, 0.8, 30, 600);
        let mut rng = Xoshiro256pp::new(4);
        for _ in 0..10_000 {
            let v = d.sample(&mut rng);
            assert!((30..=600).contains(&v));
        }
    }

    #[test]
    fn lognormal_median_roughly_right() {
        let d = LogNormalLen::with_median(120.0, 0.6, 1, 100_000);
        let mut rng = Xoshiro256pp::new(5);
        let mut v: Vec<usize> = (0..20_001).map(|_| d.sample(&mut rng)).collect();
        v.sort_unstable();
        let med = v[10_000] as f64;
        assert!((med - 120.0).abs() < 12.0, "median {med}");
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = Xoshiro256pp::new(6);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn bernoulli_subset_rate() {
        let items: Vec<u32> = (0..10_000).collect();
        let mut rng = Xoshiro256pp::new(7);
        let picked = bernoulli_subset(&items, 0.3, &mut rng);
        let rate = picked.len() as f64 / items.len() as f64;
        assert!((rate - 0.3).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn bernoulli_subset_extremes() {
        let items = [1, 2, 3];
        let mut rng = Xoshiro256pp::new(8);
        assert!(bernoulli_subset(&items, 0.0, &mut rng).is_empty());
        assert_eq!(bernoulli_subset(&items, 1.0, &mut rng).len(), 3);
    }
}
