use std::io;

use fedmigr_telemetry::wire::{bad, Codec, Wire};
use rand::Rng;

/// One experience tuple `z = (s_t, a_t, r_t, s_{t+1})`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Transition {
    /// State features at decision time.
    pub state: Vec<f32>,
    /// Destination client chosen (index into the action space).
    pub action: usize,
    /// Reward observed after executing the action (Eq. 17/18).
    pub reward: f32,
    /// State features after the environment step.
    pub next_state: Vec<f32>,
    /// Whether this transition ended the episode.
    pub done: bool,
}

fedmigr_telemetry::wire_fields!(Transition: state, action, reward, next_state, done);

/// Prioritized experience replay over a sum-tree.
///
/// Sampling probability follows Eq. (26): `P(z) = p_z^ξ / Σ_j p_j^ξ`, where
/// the priority `p_z` combines TD error and action-gradient magnitude
/// (Eq. 25, applied by the agent via [`PrioritizedReplay::update_priority`]).
/// Importance-sampling weights follow Eq. (29), normalized by the batch
/// maximum. A ring buffer bounds memory: the oldest transition is evicted
/// once `capacity` is reached.
pub struct PrioritizedReplay {
    capacity: usize,
    xi: f64,
    beta: f64,
    items: Vec<Transition>,
    tree: Vec<f64>,
    next_slot: usize,
    max_priority: f64,
    /// Total number of `push` calls over the buffer's lifetime.
    pushes: u64,
    /// Push counter value at which each occupied slot was last written —
    /// the basis of the age distribution in [`ReplayHealth`].
    inserted_at: Vec<u64>,
}

/// Point-in-time health summary of a [`PrioritizedReplay`] buffer: how
/// full it is, how skewed prioritized sampling currently is, and how stale
/// its contents are (ages are measured in pushes: the most recent
/// transition has age 0, one pushed `n` insertions ago has age `n`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReplayHealth {
    /// Stored transitions.
    pub occupancy: usize,
    /// Buffer capacity.
    pub capacity: usize,
    /// Lifetime number of insertions (≥ occupancy; the excess counts
    /// evictions).
    pub pushes: u64,
    /// Max/min stored sampling-weight ratio (1.0 = uniform); see
    /// [`PrioritizedReplay::priority_spread`].
    pub priority_spread: f64,
    /// Mean age of stored transitions, in pushes.
    pub mean_age: f64,
    /// Age of the oldest stored transition, in pushes (0 when empty).
    pub max_age: u64,
}

impl PrioritizedReplay {
    /// Creates a buffer. `xi` is the prioritization exponent (0 = uniform
    /// sampling); `beta` the importance-sampling exponent.
    pub fn new(capacity: usize, xi: f64, beta: f64) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        assert!(xi >= 0.0 && beta >= 0.0);
        Self {
            capacity,
            xi,
            beta,
            items: Vec::with_capacity(capacity),
            tree: vec![0.0; 2 * capacity],
            next_slot: 0,
            max_priority: 1.0,
            pushes: 0,
            inserted_at: Vec::with_capacity(capacity),
        }
    }

    /// Number of stored transitions.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Adds a transition with the current maximum priority so new
    /// experience is sampled at least once soon.
    pub fn push(&mut self, t: Transition) {
        let slot = self.next_slot;
        if self.items.len() < self.capacity {
            self.items.push(t);
            self.inserted_at.push(self.pushes);
        } else {
            self.items[slot] = t;
            self.inserted_at[slot] = self.pushes;
        }
        self.pushes += 1;
        self.set_weight(slot, self.max_priority.powf(self.xi));
        self.next_slot = (slot + 1) % self.capacity;
    }

    /// Current buffer health: occupancy, sampling skew, and the age
    /// distribution of stored transitions.
    pub fn health(&self) -> ReplayHealth {
        let newest = self.pushes.saturating_sub(1);
        let ages = self.inserted_at.iter().map(|&at| newest - at);
        let (mut sum, mut max) = (0u64, 0u64);
        for age in ages {
            sum += age;
            max = max.max(age);
        }
        ReplayHealth {
            occupancy: self.items.len(),
            capacity: self.capacity,
            pushes: self.pushes,
            priority_spread: self.priority_spread(),
            mean_age: if self.items.is_empty() {
                0.0
            } else {
                sum as f64 / self.items.len() as f64
            },
            max_age: max,
        }
    }

    /// Updates the priority `p_z` of a transition after replaying it.
    pub fn update_priority(&mut self, idx: usize, priority: f64) {
        assert!(idx < self.items.len(), "index out of range");
        let p = priority.max(1e-6);
        self.max_priority = self.max_priority.max(p);
        self.set_weight(idx, p.powf(self.xi));
    }

    /// Samples `batch` transitions. Returns `(index, &transition,
    /// importance_weight)` triples; weights are normalized so the largest in
    /// the batch is 1 (Eq. 29).
    pub fn sample<R: Rng>(&self, batch: usize, rng: &mut R) -> Vec<(usize, &Transition, f64)> {
        assert!(!self.items.is_empty(), "cannot sample from an empty buffer");
        let total = self.tree[1];
        let n = self.items.len() as f64;
        let mut out = Vec::with_capacity(batch);
        let mut max_w = 0.0f64;
        let mut picks = Vec::with_capacity(batch);
        for _ in 0..batch {
            let target = rng.random::<f64>() * total;
            let idx = self.locate(target);
            let prob = self.tree[self.capacity + idx] / total;
            let w = (n * prob).powf(-self.beta);
            max_w = max_w.max(w);
            picks.push((idx, w));
        }
        for (idx, w) in picks {
            out.push((idx, &self.items[idx], w / max_w));
        }
        out
    }

    /// Ratio of the largest to the smallest stored sampling weight — a
    /// diagnostic for how skewed prioritized sampling currently is (1.0 =
    /// uniform). An empty buffer has no spread, so this returns the neutral
    /// 1.0 instead of panicking on `max()/min()` of nothing; the same guard
    /// covers an all-zero tree (possible before any priority update when
    /// `xi` drives weights to zero).
    pub fn priority_spread(&self) -> f64 {
        let leaves = &self.tree[self.capacity..self.capacity + self.items.len()];
        let mut max = f64::NEG_INFINITY;
        let mut min = f64::INFINITY;
        for &w in leaves {
            max = max.max(w);
            min = min.min(w);
        }
        if leaves.is_empty() || min <= 0.0 {
            return 1.0;
        }
        max / min
    }

    fn set_weight(&mut self, idx: usize, weight: f64) {
        let mut node = self.capacity + idx;
        self.tree[node] = weight;
        while node > 1 {
            node /= 2;
            self.tree[node] = self.tree[2 * node] + self.tree[2 * node + 1];
        }
    }

    /// Descends the sum-tree to the leaf covering cumulative mass `target`.
    fn locate(&self, mut target: f64) -> usize {
        let mut node = 1usize;
        while node < self.capacity {
            let left = 2 * node;
            if target <= self.tree[left] || self.tree[left + 1] == 0.0 {
                node = left;
            } else {
                target -= self.tree[left];
                node = left + 1;
            }
        }
        (node - self.capacity).min(self.items.len().saturating_sub(1))
    }
}

/// The stored transitions plus exactly the bookkeeping needed to resume
/// sampling bit-for-bit: the leaf weights (`p^ξ`, one per item), the ring
/// cursor, the running maximum priority, the lifetime push count and each
/// slot's insertion stamp. Only the sum-tree's leaves cross the wire; its
/// internal nodes are re-summed on read. Capacity, ξ and β are
/// configuration: a snapshot that does not fit is a mismatch.
impl Wire for PrioritizedReplay {
    fn wire(&mut self, c: &mut Codec<'_>) -> io::Result<()> {
        self.items.wire(c)?;
        let (n, first_leaf) = (self.items.len(), self.capacity);
        if n > first_leaf {
            return Err(bad("replay snapshot larger than capacity"));
        }
        if c.reading() {
            self.tree.fill(0.0);
        }
        c.in_place(&mut self.tree[first_leaf..first_leaf + n], "replay weights/items mismatch")?;
        self.next_slot.wire(c)?;
        self.max_priority.wire(c)?;
        self.pushes.wire(c)?;
        self.inserted_at.wire(c)?;
        if self.inserted_at.len() != n {
            return Err(bad("replay ages/items mismatch"));
        }
        if c.reading() {
            for node in (1..first_leaf).rev() {
                self.tree[node] = self.tree[2 * node] + self.tree[2 * node + 1];
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedmigr_telemetry::wire;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn t(reward: f32) -> Transition {
        Transition { state: vec![0.0; 4], action: 0, reward, next_state: vec![0.0; 4], done: false }
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let mut buf = PrioritizedReplay::new(3, 0.6, 0.4);
        for i in 0..5 {
            buf.push(t(i as f32));
        }
        assert_eq!(buf.len(), 3);
        let rewards: Vec<f32> = buf.items.iter().map(|x| x.reward).collect();
        // Slots 0 and 1 were overwritten by items 3 and 4.
        assert_eq!(rewards, vec![3.0, 4.0, 2.0]);
    }

    #[test]
    fn high_priority_items_sampled_more() {
        let mut buf = PrioritizedReplay::new(8, 1.0, 0.0);
        for i in 0..8 {
            buf.push(t(i as f32));
        }
        for i in 0..8 {
            buf.update_priority(i, if i == 3 { 100.0 } else { 1.0 });
        }
        let mut rng = StdRng::seed_from_u64(1);
        let mut hits = 0;
        let mut total = 0;
        for _ in 0..200 {
            for (idx, _, _) in buf.sample(4, &mut rng) {
                total += 1;
                if idx == 3 {
                    hits += 1;
                }
            }
        }
        let frac = hits as f64 / total as f64;
        assert!(frac > 0.7, "priority-100 item sampled only {frac} of the time");
    }

    #[test]
    fn xi_zero_is_uniform() {
        let mut buf = PrioritizedReplay::new(4, 0.0, 0.0);
        for i in 0..4 {
            buf.push(t(i as f32));
        }
        buf.update_priority(0, 1000.0);
        let mut rng = StdRng::seed_from_u64(2);
        let mut counts = [0usize; 4];
        for _ in 0..400 {
            for (idx, _, _) in buf.sample(2, &mut rng) {
                counts[idx] += 1;
            }
        }
        let max = *counts.iter().max().unwrap() as f64;
        let min = *counts.iter().min().unwrap() as f64;
        assert!(max / min < 1.6, "counts too skewed for uniform: {counts:?}");
        // With xi = 0 every stored weight is p^0 = 1, so the spread is 1.
        assert_eq!(buf.priority_spread(), 1.0);
    }

    #[test]
    fn priority_spread_is_neutral_on_empty_buffer() {
        // Regression: max()/min() over zero leaves must not panic.
        let buf = PrioritizedReplay::new(4, 0.6, 0.4);
        assert_eq!(buf.priority_spread(), 1.0);
    }

    #[test]
    fn priority_spread_tracks_skew() {
        let mut buf = PrioritizedReplay::new(4, 1.0, 0.0);
        for i in 0..4 {
            buf.push(t(i as f32));
        }
        for i in 0..4 {
            buf.update_priority(i, 1.0);
        }
        assert!((buf.priority_spread() - 1.0).abs() < 1e-12);
        buf.update_priority(2, 8.0);
        assert!((buf.priority_spread() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn health_tracks_occupancy_and_ages() {
        let mut buf = PrioritizedReplay::new(3, 0.6, 0.4);
        assert_eq!(buf.health().occupancy, 0);
        assert_eq!(buf.health().mean_age, 0.0);
        for i in 0..3 {
            buf.push(t(i as f32));
        }
        let h = buf.health();
        assert_eq!((h.occupancy, h.capacity, h.pushes), (3, 3, 3));
        // Ages are 2, 1, 0 pushes for the three slots.
        assert_eq!(h.max_age, 2);
        assert!((h.mean_age - 1.0).abs() < 1e-12);
        // Two evictions later the oldest survivor was pushed 2 pushes ago.
        buf.push(t(3.0));
        buf.push(t(4.0));
        let h = buf.health();
        assert_eq!((h.occupancy, h.pushes, h.max_age), (3, 5, 2));
    }

    #[test]
    fn importance_weights_are_normalized_and_downweight_frequent() {
        let mut buf = PrioritizedReplay::new(4, 1.0, 1.0);
        for i in 0..4 {
            buf.push(t(i as f32));
        }
        buf.update_priority(0, 10.0);
        for i in 1..4 {
            buf.update_priority(i, 1.0);
        }
        let mut rng = StdRng::seed_from_u64(3);
        let samples = buf.sample(64, &mut rng);
        let mut w_hot = f64::MAX;
        let mut w_cold: f64 = 0.0;
        for (idx, _, w) in &samples {
            assert!(*w <= 1.0 + 1e-12);
            if *idx == 0 {
                w_hot = w_hot.min(*w);
            } else {
                w_cold = w_cold.max(*w);
            }
        }
        assert!(w_hot < w_cold, "frequent item should carry smaller IS weight");
    }

    #[test]
    fn state_round_trip_resumes_the_exact_stream() {
        let mut live = PrioritizedReplay::new(4, 0.8, 0.5);
        for i in 0..6 {
            live.push(t(i as f32));
        }
        live.update_priority(1, 9.0);
        // Into a buffer that already holds other contents, as a rollback does.
        let mut resumed = PrioritizedReplay::new(4, 0.8, 0.5);
        resumed.push(t(-1.0));
        resumed.update_priority(0, 3.0);
        wire::decode(&wire::encode(&mut live), &mut resumed).unwrap();
        assert_eq!(resumed.tree, live.tree);
        assert_eq!(resumed.health(), live.health());
        let mut ra = StdRng::seed_from_u64(5);
        let mut rb = StdRng::seed_from_u64(5);
        for _ in 0..20 {
            let a: Vec<(usize, f64)> =
                live.sample(3, &mut ra).into_iter().map(|(i, _, w)| (i, w)).collect();
            let b: Vec<(usize, f64)> =
                resumed.sample(3, &mut rb).into_iter().map(|(i, _, w)| (i, w)).collect();
            assert_eq!(a, b);
            live.push(t(9.0));
            resumed.push(t(9.0));
        }
    }

    #[test]
    fn import_rejects_oversized_snapshot() {
        let mut big = PrioritizedReplay::new(8, 0.6, 0.4);
        for i in 0..6 {
            big.push(t(i as f32));
        }
        let snap = wire::encode(&mut big);
        let err = wire::decode(&snap, &mut PrioritizedReplay::new(4, 0.6, 0.4)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("larger than capacity"), "{err}");
        // Ragged: one leaf weight fewer than there are items.
        let items = wire::encode(&mut big.items).len();
        let mut ragged = snap.clone();
        ragged[items] -= 1;
        ragged.drain(items + 8..items + 16);
        let err = wire::decode(&ragged, &mut PrioritizedReplay::new(8, 0.6, 0.4)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("weights/items"), "{err}");
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn sampling_empty_panics() {
        let buf = PrioritizedReplay::new(4, 0.5, 0.5);
        let mut rng = StdRng::seed_from_u64(0);
        let _ = buf.sample(1, &mut rng);
    }
}
