//! Interchangeable representative-selection algorithms.
//!
//! The paper: "Users could select any clustering algorithm (e.g.
//! K-Medoid, K-Furthest, K-Random selection). Bahmani and Mueller \[3\]
//! compared K-Medoid and K-Furthest clustering and observed that the
//! accuracy of traces is very close for these clustering algorithms."
//!
//! All three are provided behind one trait so the ablation bench can swap
//! them. Selection operates on an arbitrary point set with a caller-
//! supplied distance; outputs are *indices* of the selected
//! representatives. All algorithms are deterministic ([`KRandom`] takes an
//! explicit seed) so experiments are reproducible.

use xrand::Xoshiro256;

/// A representative-selection algorithm over a point set.
pub trait ClusterAlgorithm {
    /// Select up to `k` representative indices out of `n` points with the
    /// given pairwise distance function. Returns fewer than `k` indices
    /// only when `n < k`. The result is sorted and duplicate-free.
    fn select(&self, n: usize, k: usize, dist: &dyn Fn(usize, usize) -> f64) -> Vec<usize>;

    /// Short name for reports.
    fn name(&self) -> &'static str;
}

/// Farthest-point (maximin) selection — the paper's "K-Furthest". Greedy:
/// start from point 0, repeatedly add the point maximizing its minimum
/// distance to the already-selected set. O(k·n) distance evaluations.
#[derive(Debug, Clone, Copy, Default)]
pub struct KFarthest;

impl ClusterAlgorithm for KFarthest {
    fn select(&self, n: usize, k: usize, dist: &dyn Fn(usize, usize) -> f64) -> Vec<usize> {
        if n == 0 || k == 0 {
            return Vec::new();
        }
        let mut selected = vec![0usize];
        // min distance from each point to the selected set
        let mut min_d: Vec<f64> = (0..n).map(|i| dist(0, i)).collect();
        while selected.len() < k.min(n) {
            let (next, &d) = min_d
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("NaN distance"))
                .expect("non-empty");
            if d == 0.0 {
                // All remaining points coincide with a selected one; more
                // representatives add nothing.
                break;
            }
            selected.push(next);
            for (i, d) in min_d.iter_mut().enumerate() {
                *d = d.min(dist(next, i));
            }
        }
        selected.sort_unstable();
        selected.dedup();
        selected
    }

    fn name(&self) -> &'static str {
        "k-farthest"
    }
}

/// K-medoids via PAM-style swap refinement seeded with farthest-point.
/// Cost = Σ distance(point, nearest medoid); swaps until no improving swap
/// exists or the iteration cap hits. The paper cites K³ complexity — fine,
/// because Chameleon only ever clusters at most 2K+1 items per tree node.
#[derive(Debug, Clone, Copy)]
pub struct KMedoids {
    /// Refinement iteration cap.
    pub max_iters: usize,
}

impl Default for KMedoids {
    fn default() -> Self {
        KMedoids { max_iters: 16 }
    }
}

impl KMedoids {
    fn cost(n: usize, medoids: &[usize], dist: &dyn Fn(usize, usize) -> f64) -> f64 {
        (0..n)
            .map(|i| {
                medoids
                    .iter()
                    .map(|&m| dist(m, i))
                    .fold(f64::INFINITY, f64::min)
            })
            .sum()
    }
}

impl ClusterAlgorithm for KMedoids {
    fn select(&self, n: usize, k: usize, dist: &dyn Fn(usize, usize) -> f64) -> Vec<usize> {
        if n == 0 || k == 0 {
            return Vec::new();
        }
        let mut medoids = KFarthest.select(n, k, dist);
        let mut cost = Self::cost(n, &medoids, dist);
        for _ in 0..self.max_iters {
            let mut improved = false;
            for mi in 0..medoids.len() {
                for candidate in 0..n {
                    if medoids.contains(&candidate) {
                        continue;
                    }
                    let mut trial = medoids.clone();
                    trial[mi] = candidate;
                    let trial_cost = Self::cost(n, &trial, dist);
                    if trial_cost + 1e-12 < cost {
                        medoids = trial;
                        cost = trial_cost;
                        improved = true;
                    }
                }
            }
            if !improved {
                break;
            }
        }
        medoids.sort_unstable();
        medoids.dedup();
        medoids
    }

    fn name(&self) -> &'static str {
        "k-medoids"
    }
}

/// Uniform random selection with an explicit seed (reproducible baseline).
#[derive(Debug, Clone, Copy)]
pub struct KRandom {
    /// RNG seed.
    pub seed: u64,
}

impl Default for KRandom {
    fn default() -> Self {
        KRandom { seed: 0x5eed }
    }
}

impl ClusterAlgorithm for KRandom {
    fn select(&self, n: usize, k: usize, _dist: &dyn Fn(usize, usize) -> f64) -> Vec<usize> {
        if n == 0 || k == 0 {
            return Vec::new();
        }
        let mut rng = Xoshiro256::seed_from_u64(self.seed);
        let mut out: Vec<usize> = rng.sample_indices(n, k.min(n));
        out.sort_unstable();
        out
    }

    fn name(&self) -> &'static str {
        "k-random"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Points on a line at the given coordinates.
    fn line_dist(coords: &[f64]) -> impl Fn(usize, usize) -> f64 + '_ {
        move |a, b| (coords[a] - coords[b]).abs()
    }

    #[test]
    fn farthest_picks_extremes() {
        let coords = [0.0, 1.0, 2.0, 100.0];
        let sel = KFarthest.select(4, 2, &line_dist(&coords));
        assert_eq!(sel, vec![0, 3], "seed plus the farthest point");
    }

    #[test]
    fn farthest_stops_early_when_points_coincide() {
        let coords = [0.0, 0.0, 0.0, 5.0];
        let sel = KFarthest.select(4, 3, &line_dist(&coords));
        // Only two distinct locations exist; a third pick adds nothing.
        assert_eq!(sel.len(), 2);
    }

    #[test]
    fn all_algorithms_respect_k_and_n() {
        let coords: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let algos: Vec<Box<dyn ClusterAlgorithm>> = vec![
            Box::new(KFarthest),
            Box::new(KMedoids::default()),
            Box::new(KRandom::default()),
        ];
        for algo in &algos {
            for k in [1, 3, 10, 20] {
                let sel = algo.select(10, k, &line_dist(&coords));
                assert!(sel.len() <= k.min(10), "{} k={k}", algo.name());
                assert!(!sel.is_empty(), "{} k={k}", algo.name());
                let mut sorted = sel.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted, sel, "{}: sorted+deduped", algo.name());
                assert!(sel.iter().all(|&i| i < 10), "{}", algo.name());
            }
        }
    }

    #[test]
    fn empty_input() {
        let d = |_: usize, _: usize| 0.0;
        assert!(KFarthest.select(0, 3, &d).is_empty());
        assert!(KMedoids::default().select(0, 3, &d).is_empty());
        assert!(KRandom::default().select(0, 3, &d).is_empty());
        assert!(KFarthest.select(5, 0, &d).is_empty());
    }

    #[test]
    fn medoids_finds_cluster_centers() {
        // Two tight clusters around 0 and 100: medoids must pick one point
        // from each.
        let coords = [0.0, 1.0, 2.0, 99.0, 100.0, 101.0];
        let sel = KMedoids::default().select(6, 2, &line_dist(&coords));
        assert_eq!(sel.len(), 2);
        let (low, high) = (sel[0], sel[1]);
        assert!(coords[low] <= 2.0, "one medoid in the low cluster");
        assert!(coords[high] >= 99.0, "one medoid in the high cluster");
        // And they should be the true centers (1.0 and 100.0).
        assert_eq!(coords[low], 1.0);
        assert_eq!(coords[high], 100.0);
    }

    #[test]
    fn medoids_better_or_equal_cost_than_farthest() {
        let coords = [0.0, 0.5, 1.0, 10.0, 10.5, 11.0, 50.0];
        let d = line_dist(&coords);
        let f = KFarthest.select(7, 3, &d);
        let m = KMedoids::default().select(7, 3, &d);
        let cost = |sel: &[usize]| {
            (0..7)
                .map(|i| sel.iter().map(|&s| d(s, i)).fold(f64::INFINITY, f64::min))
                .sum::<f64>()
        };
        assert!(cost(&m) <= cost(&f) + 1e-9);
    }

    #[test]
    fn random_deterministic_per_seed() {
        let d = |_: usize, _: usize| 1.0;
        let a = KRandom { seed: 42 }.select(20, 5, &d);
        let b = KRandom { seed: 42 }.select(20, 5, &d);
        assert_eq!(a, b);
        let c = KRandom { seed: 43 }.select(20, 5, &d);
        // Different seeds *almost certainly* differ; tolerate collision by
        // only checking set validity.
        assert_eq!(c.len(), 5);
    }
}

#[cfg(test)]
mod props {
    use super::*;
    use xrand::Xoshiro256;

    /// Selection invariants for all algorithms over random point sets.
    #[test]
    fn selection_invariants() {
        let mut rng = Xoshiro256::seed_from_u64(0xA160);
        for _case in 0..200 {
            let n = rng.range_usize(1, 40);
            let k = rng.range_usize(1, 10);
            let coords: Vec<f64> = (0..n).map(|_| rng.f64_unit() * 1e6).collect();
            let d = |a: usize, b: usize| (coords[a] - coords[b]).abs();
            for algo in [
                &KFarthest as &dyn ClusterAlgorithm,
                &KMedoids::default(),
                &KRandom::default(),
            ] {
                let sel = algo.select(n, k, &d);
                assert!(!sel.is_empty());
                assert!(sel.len() <= k.min(n));
                assert!(
                    sel.windows(2).all(|w| w[0] < w[1]),
                    "{} strictly sorted",
                    algo.name()
                );
                assert!(sel.iter().all(|&i| i < n));
            }
        }
    }

    /// Farthest-point selection covers spread data: with k >= distinct
    /// cluster count, every well-separated cluster gets a pick.
    #[test]
    fn farthest_covers_separated_clusters() {
        let mut rng = Xoshiro256::seed_from_u64(0xC07E);
        for _case in 0..200 {
            let len = rng.range_usize(2, 5);
            let centers: Vec<u32> = (0..len).map(|_| rng.below(8) as u32).collect();
            let mut distinct: Vec<u32> = centers.clone();
            distinct.sort_unstable();
            distinct.dedup();
            // Build points at center*1000 + tiny jitter by index.
            let coords: Vec<f64> = centers
                .iter()
                .enumerate()
                .map(|(i, &c)| c as f64 * 1000.0 + i as f64 * 0.001)
                .collect();
            let d = |a: usize, b: usize| (coords[a] - coords[b]).abs();
            let sel = KFarthest.select(coords.len(), distinct.len(), &d);
            let mut covered: Vec<u32> = sel.iter().map(|&i| centers[i]).collect();
            covered.sort_unstable();
            covered.dedup();
            assert_eq!(covered, distinct);
        }
    }
}
