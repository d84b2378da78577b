//! Dormant client stubs and the activation pool.
//!
//! A fleet client spends almost its whole life as a [`ClientStub`]: a
//! compact record of *who it is* (id, LAN, device tier), *what data it
//! holds* (a global sample range plus the exact label marginal, in closed
//! form), and *what survives dormancy* (its batch-order RNG stream, its
//! migration counter, its participation count). Everything heavy — the
//! materialized dataset and the model — exists only while the client is
//! activated for a round, so peak memory scales with participants-per-round
//! rather than fleet size.
//!
//! A dormant client keeps **no model**: fleet mode uses standard
//! cross-device semantics (sampled participants receive the current global
//! model, train, and report back), so re-activation installs the global
//! model rather than resurrecting stale local weights.

use std::io;

use fedmigr_data::{Dataset, SyntheticWorld};
use fedmigr_net::DeviceTier;
use fedmigr_telemetry::wire::{Codec, Wire};

use crate::{FleetAssignment, FleetTopology};

/// What survives a client's retirement back to a stub.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DormantState {
    /// Raw batch-order RNG state, once the client has been activated at
    /// least once (`None` = never activated; the first activation seeds the
    /// stream from [`ClientStub::seed`]).
    pub rng: Option<[u64; 4]>,
    /// Foreign models hosted so far.
    pub migrations_received: u64,
    /// Rounds this client participated in.
    pub participations: u64,
}

fedmigr_telemetry::wire_fields!(DormantState: rng, migrations_received, participations);

/// A dormant fleet client — everything needed to activate it, in ~100
/// bytes.
#[derive(Clone, Debug)]
pub struct ClientStub {
    /// Client id (also its index in the pool).
    pub id: u32,
    /// LAN the client lives in.
    pub lan: u32,
    /// Device tier (compute speed class).
    pub tier: DeviceTier,
    /// Start of the client's global sample range.
    pub start: u64,
    /// Length of the client's global sample range.
    pub len: u64,
    /// Exact label marginal of the range (sums to 1).
    pub marginal: Vec<f32>,
    /// Seed of the client's private RNG streams.
    pub seed: u64,
    /// State carried across dormancy.
    pub dormant: DormantState,
}

/// The fleet's client population: a [`SyntheticWorld`] to regenerate data
/// from, the interval assignment, and one stub per client.
pub struct ClientPool {
    world: SyntheticWorld,
    stubs: Vec<ClientStub>,
}

impl ClientPool {
    /// Builds the pool: one stub per client of `topo`, with sample ranges
    /// from `assignment` and label marginals computed in closed form from
    /// `world`. Device tiers alternate by id parity, matching
    /// `ClientCompute::testbed_mix`.
    ///
    /// # Panics
    /// Panics when the assignment and topology disagree on fleet size.
    pub fn new(
        world: SyntheticWorld,
        assignment: FleetAssignment,
        topo: &FleetTopology,
        seed: u64,
    ) -> Self {
        assert_eq!(
            assignment.num_clients(),
            topo.num_clients(),
            "assignment/topology fleet size mismatch"
        );
        let stubs = (0..assignment.num_clients() as u32)
            .map(|id| {
                let (start, len) = assignment.range_of(id);
                let counts = world.class_counts_in(start, len);
                let marginal: Vec<f32> =
                    counts.iter().map(|&c| c as f32 / len.max(1) as f32).collect();
                ClientStub {
                    id,
                    lan: topo.lan_of(id as usize) as u32,
                    tier: if id % 2 == 0 { DeviceTier::Tx2 } else { DeviceTier::Nx },
                    start,
                    len,
                    marginal,
                    seed: stub_seed(seed, id),
                    dormant: DormantState::default(),
                }
            })
            .collect();
        Self { world, stubs }
    }

    /// Fleet size `K`.
    pub fn len(&self) -> usize {
        self.stubs.len()
    }

    /// Whether the pool is empty (it never is — construction requires a
    /// topology with clients).
    pub fn is_empty(&self) -> bool {
        self.stubs.is_empty()
    }

    /// The stub of client `id`.
    pub fn stub(&self, id: usize) -> &ClientStub {
        &self.stubs[id]
    }

    /// The world samples are regenerated from.
    pub fn world(&self) -> &SyntheticWorld {
        &self.world
    }

    /// Materializes client `id`'s dataset from its stub range —
    /// deterministic, so activate/retire/activate yields identical bytes.
    pub fn materialize(&self, id: usize) -> Dataset {
        let stub = &self.stubs[id];
        self.world.materialize(stub.start, stub.len)
    }

    /// Retires client `id` back to its stub, banking the state that
    /// survives dormancy.
    pub fn retire(&mut self, id: usize, rng: [u64; 4], migrations_received: u64) {
        let d = &mut self.stubs[id].dormant;
        d.rng = Some(rng);
        d.migrations_received = migrations_received;
        d.participations += 1;
    }
}

/// A stub crosses the wire as what survives dormancy; who it is and what
/// data it holds are rebuilt from configuration.
impl Wire for ClientStub {
    fn wire(&mut self, c: &mut Codec<'_>) -> io::Result<()> {
        self.dormant.wire(c)
    }
}

/// Every stub's [`DormantState`], in id order. The fleet size is
/// configuration: a snapshot of another fleet is a mismatch.
impl Wire for ClientPool {
    fn wire(&mut self, c: &mut Codec<'_>) -> io::Result<()> {
        c.in_place(&mut self.stubs, "checkpoint client count")
    }
}

/// Per-client activation seed, decorrelated from the fleet seed.
fn stub_seed(seed: u64, id: u32) -> u64 {
    let mut z = seed ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FleetTopologyConfig;
    use fedmigr_data::SyntheticConfig;
    use fedmigr_telemetry::wire;

    fn pool(k: usize, per_lan: usize) -> ClientPool {
        let world = SyntheticWorld::new(&SyntheticConfig::c10_like(4, 5), 8);
        let assignment = FleetAssignment::build(k, 12, 5);
        let topo = FleetTopology::new(FleetTopologyConfig::uniform(k / per_lan, per_lan, 5));
        ClientPool::new(world, assignment, &topo, 5)
    }

    #[test]
    fn stub_marginals_match_materialized_data_exactly() {
        let p = pool(20, 5);
        for id in [0usize, 7, 19] {
            let stub = p.stub(id);
            let ds = p.materialize(id);
            assert_eq!(ds.len() as u64, stub.len);
            let all: Vec<usize> = (0..ds.len()).collect();
            let marginal = fedmigr_data::distribution::label_distribution(&ds, &all);
            for (&q, &m) in marginal.iter().zip(&stub.marginal) {
                assert!((m as f64 - q).abs() < 1e-6);
            }
            let sum: f32 = stub.marginal.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn materialization_is_repeatable() {
        let p = pool(12, 4);
        let a = p.materialize(3);
        let b = p.materialize(3);
        assert_eq!(a.full_batch().0, b.full_batch().0);
        assert_eq!(a.full_batch().1, b.full_batch().1);
    }

    #[test]
    fn retire_banks_dormant_state_and_round_trips() {
        let mut p = pool(8, 4);
        assert_eq!(p.stub(2).dormant, DormantState::default());
        p.retire(2, [1, 2, 3, 4], 5);
        p.retire(2, [9, 9, 9, 9], 6);
        let d = &p.stub(2).dormant;
        assert_eq!(d.rng, Some([9, 9, 9, 9]));
        assert_eq!(d.migrations_received, 6);
        assert_eq!(d.participations, 2);
        let snap = wire::encode(&mut p);
        let mut q = pool(8, 4);
        q.retire(5, [7, 7, 7, 7], 1);
        wire::decode(&snap, &mut q).unwrap();
        assert_eq!(q.stub(2).dormant, p.stub(2).dormant);
        assert_eq!(q.stub(5).dormant, DormantState::default());
        // A fleet of another size refuses the snapshot.
        let err = wire::decode(&snap, &mut pool(12, 4)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn tiers_alternate_like_testbed_mix() {
        let p = pool(8, 4);
        assert_eq!(p.stub(0).tier, DeviceTier::Tx2);
        assert_eq!(p.stub(1).tier, DeviceTier::Nx);
        assert_eq!(p.stub(6).tier, DeviceTier::Tx2);
    }

    #[test]
    #[should_panic(expected = "fleet size mismatch")]
    fn mismatched_sizes_are_rejected() {
        let world = SyntheticWorld::new(&SyntheticConfig::c10_like(4, 5), 8);
        let assignment = FleetAssignment::build(10, 12, 5);
        let topo = FleetTopology::new(FleetTopologyConfig::uniform(2, 4, 5));
        let _ = ClientPool::new(world, assignment, &topo, 5);
    }
}
