//! Sum-tree weighted sampler.
//!
//! Complements the [alias table](crate::alias): draws cost `O(log n)` but
//! weights can be *updated* in `O(log n)`, which the static alias table
//! cannot do. Used (a) as an independent oracle in differential tests of
//! the alias method, and (b) for the adaptive-importance extension where
//! `p_i ∝ ‖∇f_i(w_t)‖` estimates are refreshed during training (paper
//! Eq. 11 — the "completely impractical" exact scheme becomes practical at
//! small scale, making a useful ablation).
//!
//! The tree is heap-ordered over `cap = n.next_power_of_two()` leaves:
//! leaf `i` is `tree[cap + i]` (padding leaves hold 0), node `k` holds
//! `tree[2k] + tree[2k+1]`, and the total mass is `tree[1]`. An update
//! rewrites its leaf and recomputes each ancestor from its two children,
//! so every node is a pure function of the leaf weights: two samplers
//! holding the same weights hold bitwise-equal trees and draw
//! bit-identically, whatever their update histories. Checkpoint restore
//! relies on this.

use crate::error::SamplingError;
use crate::rng::Xoshiro256pp;

/// A dynamic weighted sampler over `n` outcomes backed by a sum tree.
#[derive(Debug, Clone)]
pub struct SumTreeSampler {
    /// Heap-ordered sums: `tree[1]` is the root, the leaves are the
    /// upper half; `tree[0]` unused.
    tree: Vec<f64>,
    /// Number of outcomes; leaves past it are zero padding.
    n: usize,
    /// Tree nodes written since construction (the cost tests' counter).
    #[cfg(test)]
    pub(crate) writes: u64,
}

impl SumTreeSampler {
    /// Builds the sampler from non-negative weights in `O(n)`.
    pub fn new(weights: &[f64]) -> Result<Self, SamplingError> {
        if weights.is_empty() {
            return Err(SamplingError::EmptyWeights);
        }
        for (i, &w) in weights.iter().enumerate() {
            if !w.is_finite() || w < 0.0 {
                return Err(SamplingError::InvalidWeight { index: i, value: w });
            }
        }
        let cap = weights.len().next_power_of_two();
        let mut s = Self {
            tree: vec![0.0; 2 * cap],
            n: weights.len(),
            #[cfg(test)]
            writes: 0,
        };
        for (i, &w) in weights.iter().enumerate() {
            s.set(cap + i, w);
        }
        for k in (1..cap).rev() {
            s.set(k, s.tree[2 * k] + s.tree[2 * k + 1]);
        }
        if s.total() <= 0.0 {
            return Err(SamplingError::ZeroMass);
        }
        Ok(s)
    }

    /// The single write path, so tests can count node writes.
    #[inline]
    fn set(&mut self, k: usize, v: f64) {
        #[cfg(test)]
        {
            self.writes += 1;
        }
        self.tree[k] = v;
    }

    /// Index of leaf 0 (the number of leaves, padding included).
    #[inline]
    fn cap(&self) -> usize {
        self.tree.len() / 2
    }

    /// Number of outcomes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when there are no outcomes (unreachable through `new`).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Total weight mass.
    pub fn total(&self) -> f64 {
        self.tree[1]
    }

    /// Current weights of all outcomes.
    pub fn weights(&self) -> &[f64] {
        &self.tree[self.cap()..self.cap() + self.n]
    }

    /// Current weight of outcome `i`.
    pub fn weight(&self, i: usize) -> f64 {
        self.weights()[i]
    }

    /// Sum of weights over `0..=i-1` (`i` outcomes), read off the tree:
    /// the left siblings along leaf `i`'s path to the root.
    #[cfg(test)]
    fn prefix_sum(&self, i: usize) -> f64 {
        if i == self.cap() {
            return self.total();
        }
        let mut k = self.cap() + i;
        let mut s = 0.0;
        while k > 1 {
            if k & 1 == 1 {
                s += self.tree[k - 1];
            }
            k /= 2;
        }
        s
    }

    /// Sets the weight of outcome `i` to `w` in `O(log n)`.
    pub fn update(&mut self, i: usize, w: f64) -> Result<(), SamplingError> {
        if !w.is_finite() || w < 0.0 {
            return Err(SamplingError::InvalidWeight { index: i, value: w });
        }
        assert!(i < self.n, "outcome {i} out of range 0..{}", self.n);
        let mut k = self.cap() + i;
        let mut v = w;
        self.set(k, v);
        while k > 1 {
            // `v` is node k; IEEE addition commutes, so adding the
            // sibling yields exactly the parent's `left + right`.
            v += self.tree[k ^ 1];
            k /= 2;
            self.set(k, v);
        }
        Ok(())
    }

    /// Draws one outcome proportionally to current weights.
    pub fn sample(&self, rng: &mut Xoshiro256pp) -> usize {
        debug_assert!(self.total() > 0.0, "sampler mass became zero");
        self.descend(rng.next_f64() * self.total())
    }

    /// The outcome whose cumulative-mass interval `[prefix_i, prefix_i +
    /// w_i)` holds `target`, found by descending from the root.
    ///
    /// The walk goes left whenever the right subtree's mass is 0, so the
    /// rounding residue of `target -= left` (or a target at or past the
    /// total) can never reach a padding leaf or a zero-weight outcome:
    /// every subtree it enters has positive mass.
    fn descend(&self, mut target: f64) -> usize {
        let cap = self.cap();
        let mut k = 1;
        while k < cap {
            let left = self.tree[2 * k];
            if target < left || self.tree[2 * k + 1] == 0.0 {
                k *= 2;
            } else {
                target -= left;
                k = 2 * k + 1;
            }
        }
        k - cap
    }

    /// The normalized probability of outcome `i` under current weights.
    pub fn probability(&self, i: usize) -> f64 {
        self.weight(i) / self.total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn prefix_sums_match_naive() {
        let w = [0.5, 1.5, 0.0, 3.0, 2.0];
        let f = SumTreeSampler::new(&w).unwrap();
        let mut acc = 0.0;
        for i in 0..=w.len() {
            assert!((f.prefix_sum(i) - acc).abs() < 1e-12, "prefix {i}");
            if i < w.len() {
                acc += w[i];
            }
        }
    }

    #[test]
    fn total_mass() {
        let f = SumTreeSampler::new(&[1.0, 2.0, 3.0]).unwrap();
        assert!((f.total() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn sampling_matches_distribution() {
        let w = [4.0, 1.0, 3.0, 2.0];
        let f = SumTreeSampler::new(&w).unwrap();
        let mut rng = Xoshiro256pp::new(17);
        let mut counts = [0usize; 4];
        let draws = 200_000;
        for _ in 0..draws {
            counts[f.sample(&mut rng)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let freq = c as f64 / draws as f64;
            let expect = w[i] / 10.0;
            assert!(
                (freq - expect).abs() < 0.01,
                "outcome {i}: {freq} vs {expect}"
            );
        }
    }

    #[test]
    fn update_changes_distribution() {
        let mut f = SumTreeSampler::new(&[1.0, 1.0]).unwrap();
        f.update(0, 0.0).unwrap();
        let mut rng = Xoshiro256pp::new(23);
        for _ in 0..5_000 {
            assert_eq!(f.sample(&mut rng), 1);
        }
        assert_eq!(f.weight(0), 0.0);
        assert!((f.probability(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn update_rejects_bad_weight() {
        let mut f = SumTreeSampler::new(&[1.0]).unwrap();
        assert!(f.update(0, -2.0).is_err());
        assert!(f.update(0, f64::INFINITY).is_err());
    }

    #[test]
    fn zero_weight_never_sampled() {
        let f = SumTreeSampler::new(&[0.0, 5.0, 0.0]).unwrap();
        let mut rng = Xoshiro256pp::new(31);
        for _ in 0..10_000 {
            assert_eq!(f.sample(&mut rng), 1);
        }
    }

    #[test]
    fn construction_errors() {
        assert!(SumTreeSampler::new(&[]).is_err());
        assert!(SumTreeSampler::new(&[0.0]).is_err());
        assert!(SumTreeSampler::new(&[f64::NAN]).is_err());
    }

    #[test]
    fn total_tracks_updates() {
        let mut f = SumTreeSampler::new(&[1.0, 2.0, 3.0]).unwrap();
        for i in 0..3 {
            f.update(i, (i + 2) as f64).unwrap();
        }
        assert!((f.total() - f.prefix_sum(3)).abs() < 1e-12);
        assert!((f.total() - 9.0).abs() < 1e-12);
    }

    #[test]
    fn descend_never_returns_padding_or_zero_weight() {
        // n = 6 pads to 8 leaves; outcome 1 and the trailing two are 0.
        // Integer weights keep every prefix sum exact.
        let w = [1.0, 0.0, 2.0, 3.0, 0.0, 0.0];
        let f = SumTreeSampler::new(&w).unwrap();
        let total = f.total();
        assert_eq!(total, 6.0);
        let last_positive_before = |k: usize| (0..k).rev().find(|&j| w[j] > 0.0);
        let first_positive_from = |k: usize| (k..w.len()).find(|&j| w[j] > 0.0);
        assert_eq!(f.descend(0.0), 0);
        let mut prefix = 0.0;
        for k in 1..=w.len() {
            prefix += w[k - 1];
            if prefix > 0.0 {
                assert_eq!(
                    Some(f.descend(prefix.next_down())),
                    last_positive_before(k),
                    "just below prefix boundary {k}"
                );
            }
            if prefix < total {
                assert_eq!(
                    Some(f.descend(prefix)),
                    first_positive_from(k),
                    "at prefix boundary {k}"
                );
            }
        }
        assert_eq!(f.descend(total.next_down()), 3);
        // Residue at or past the total must not walk into the padding.
        assert_eq!(f.descend(total), 3);
        assert_eq!(f.descend(2.0 * total), 3);
    }

    #[test]
    fn non_power_of_two_sizes() {
        for n in [1usize, 2, 3, 5, 7, 13, 100, 257] {
            let w: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            let f = SumTreeSampler::new(&w).unwrap();
            let mut rng = Xoshiro256pp::new(n as u64);
            for _ in 0..1000 {
                let s = f.sample(&mut rng);
                assert!(s < n, "n={n} sample={s}");
            }
        }
    }

    fn weight() -> impl Strategy<Value = f64> {
        prop_oneof![1 => Just(0.0), 3 => 0.0f64..10.0]
    }

    fn weights_with_mass(n: usize) -> impl Strategy<Value = Vec<f64>> {
        prop::collection::vec(weight(), n).prop_filter("needs mass", |w| w.iter().any(|&x| x > 0.0))
    }

    type Histories = (Vec<f64>, Vec<f64>, Vec<Vec<(usize, f64)>>, Vec<f64>);

    /// Two starting weight vectors, two random update histories, and the
    /// final weights both histories are driven to.
    fn histories() -> impl Strategy<Value = Histories> {
        (1usize..40).prop_flat_map(|n| {
            let history = prop::collection::vec((0..n, weight()), 0..64);
            (
                weights_with_mass(n),
                weights_with_mass(n),
                prop::collection::vec(history, 2),
                weights_with_mass(n),
            )
        })
    }

    fn bits(f: &SumTreeSampler) -> Vec<u64> {
        f.tree.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The checkpoint-restore exactness contract: samplers that reach
        /// the same weights through different update histories hold
        /// bitwise-equal trees and draw identical streams, equal to a
        /// sampler built from those weights directly.
        #[test]
        fn state_is_a_pure_function_of_the_weights(
            (start_a, start_b, hist, last) in histories(),
            seed in 0u64..1_000,
        ) {
            let mut a = SumTreeSampler::new(&start_a).unwrap();
            let mut b = SumTreeSampler::new(&start_b).unwrap();
            for &(i, w) in &hist[0] {
                a.update(i, w).unwrap();
            }
            for &(i, w) in &hist[1] {
                b.update(i, w).unwrap();
            }
            for (i, &w) in last.iter().enumerate() {
                a.update(i, w).unwrap();
            }
            for (i, &w) in last.iter().enumerate().rev() {
                b.update(i, w).unwrap();
            }
            let fresh = SumTreeSampler::new(&last).unwrap();
            for (label, f) in [("a", &a), ("b", &b)] {
                prop_assert_eq!(bits(f), bits(&fresh), "{} tree differs from new()", label);
                prop_assert_eq!(f.total().to_bits(), fresh.total().to_bits());
                let mut r1 = Xoshiro256pp::new(seed);
                let mut r2 = Xoshiro256pp::new(seed);
                let got: Vec<usize> = (0..256).map(|_| f.sample(&mut r1)).collect();
                let want: Vec<usize> = (0..256).map(|_| fresh.sample(&mut r2)).collect();
                prop_assert_eq!(got, want, "{} draw stream differs from new()", label);
            }
        }
    }
}
