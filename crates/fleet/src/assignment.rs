//! Interval-tree data assignment across the fleet.
//!
//! Follows the `select_data_for_clients` exemplar (SNIPPETS.md, psyche):
//! the client order is deterministically shuffled, then each client in
//! shuffled order claims the next contiguous run of global sample indices
//! (`[sum, sum + num)`), until the whole space is covered. The result is an
//! exact cover of `[0, total)` — every global sample belongs to exactly one
//! client — and each client's range is one lookup by id.
//!
//! The shuffle matters: under the blocked label layout of
//! [`fedmigr_data::SyntheticWorld`], contiguous ranges are non-IID (a few
//! dominant classes per client), and shuffling the *claim order* decouples
//! a client's id (and therefore its LAN) from which classes it holds.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// An exact-cover assignment of global sample ranges to fleet clients.
#[derive(Clone, Debug)]
pub struct FleetAssignment {
    /// `(start, len)` per client id.
    per_client: Vec<(u64, u64)>,
}

impl FleetAssignment {
    /// Builds the assignment for `num_clients` clients. Each client claims
    /// `base_samples ± jitter` samples (at least one), where the jitter is
    /// hash-derived per client in `[0, base_samples / 4]`, so fleet data
    /// sizes are heterogeneous but deterministic in `seed`.
    ///
    /// # Panics
    /// Panics when `num_clients` or `base_samples` is zero.
    pub fn build(num_clients: usize, base_samples: usize, seed: u64) -> Self {
        assert!(num_clients > 0, "assignment needs at least one client");
        assert!(base_samples > 0, "clients need at least one sample");
        let mut order: Vec<u32> = (0..num_clients as u32).collect();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA551_6E00);
        order.shuffle(&mut rng);
        let jitter_span = (base_samples / 4) as u64;
        let mut per_client = vec![(0u64, 0u64); num_clients];
        let mut sum = 0u64;
        for &id in &order {
            let num = if jitter_span == 0 {
                base_samples as u64
            } else {
                let delta = rng.random_range(0..=2 * jitter_span) as i64 - jitter_span as i64;
                ((base_samples as i64 + delta).max(1)) as u64
            };
            per_client[id as usize] = (sum, num);
            sum += num;
        }
        Self { per_client }
    }

    /// Number of clients.
    pub fn num_clients(&self) -> usize {
        self.per_client.len()
    }

    /// The `(start, len)` global range of `client`.
    pub fn range_of(&self, client: u32) -> (u64, u64) {
        self.per_client[client as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl FleetAssignment {
        /// The cover in ascending start order as `(start, end, client)`
        /// half-open triples.
        fn intervals(&self) -> impl Iterator<Item = (u64, u64, u32)> {
            let mut cover: Vec<_> =
                self.per_client.iter().zip(0..).map(|(&(s, len), c)| (s, s + len, c)).collect();
            cover.sort_unstable();
            cover.into_iter()
        }

        /// Total number of assigned samples (the cover is `[0, total)`).
        fn total_samples(&self) -> u64 {
            self.per_client.iter().map(|&(_, len)| len).sum()
        }

        /// The client whose range holds global `sample`.
        ///
        /// # Panics
        /// Panics when `sample >= total_samples()`.
        fn client_of(&self, sample: u64) -> u32 {
            let owner = self.per_client.iter().position(|&(s, len)| (s..s + len).contains(&sample));
            owner.expect("sample outside the assigned space") as u32
        }
    }

    #[test]
    fn assignment_is_deterministic() {
        let a = FleetAssignment::build(50, 16, 9);
        let b = FleetAssignment::build(50, 16, 9);
        assert_eq!(a.total_samples(), b.total_samples());
        for s in 0..a.total_samples() {
            assert_eq!(a.client_of(s), b.client_of(s));
        }
    }

    #[test]
    fn shuffle_decouples_id_from_position() {
        let a = FleetAssignment::build(64, 10, 3);
        let first_owner = a.intervals().next().unwrap().2;
        let in_id_order = a.intervals().map(|(_, _, c)| c).collect::<Vec<_>>();
        let mut sorted = in_id_order.clone();
        sorted.sort_unstable();
        assert_ne!(in_id_order, sorted, "claim order must be shuffled");
        let _ = first_owner;
    }

    proptest! {
        /// The tentpole contract: for random fleets, the interval
        /// assignment covers every global sample exactly once — intervals
        /// are contiguous, disjoint, jointly exhaustive, and `client_of`
        /// agrees with `range_of` everywhere.
        #[test]
        fn exact_cover_for_random_fleets(
            num_clients in 1usize..200,
            base in 1usize..40,
            seed in any::<u64>(),
        ) {
            let a = FleetAssignment::build(num_clients, base, seed);
            // Intervals tile [0, total) with no gaps or overlaps.
            let mut expect_start = 0u64;
            let mut seen = vec![false; num_clients];
            for (start, end, client) in a.intervals() {
                prop_assert_eq!(start, expect_start);
                prop_assert!(end > start);
                prop_assert!(!seen[client as usize], "client appears twice");
                seen[client as usize] = true;
                let (cs, cl) = a.range_of(client);
                prop_assert_eq!((cs, cs + cl), (start, end));
                expect_start = end;
            }
            prop_assert_eq!(expect_start, a.total_samples());
            prop_assert!(seen.iter().all(|&s| s), "every client owns a range");
            // Point queries agree with the owning range on every boundary
            // and interior sample.
            for (start, end, client) in a.intervals() {
                prop_assert_eq!(a.client_of(start), client);
                prop_assert_eq!(a.client_of(end - 1), client);
                let mid = start + (end - start) / 2;
                prop_assert_eq!(a.client_of(mid), client);
            }
            // Per-client sizes sum to the total and respect the jitter band.
            let sum: u64 = (0..num_clients as u32).map(|c| a.range_of(c).1).sum();
            prop_assert_eq!(sum, a.total_samples());
            for c in 0..num_clients as u32 {
                let (_, len) = a.range_of(c);
                prop_assert!(len >= 1);
                prop_assert!(len <= (base + base / 4) as u64);
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside the assigned space")]
    fn out_of_range_query_panics() {
        let a = FleetAssignment::build(3, 4, 1);
        let _ = a.client_of(a.total_samples());
    }
}
