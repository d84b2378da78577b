//! Property-based tests of the event-driven flow transport: exact byte
//! conservation across retransmissions, seeded determinism, freedom from
//! starvation under saturation, and — end to end — byte-identity of the
//! lockstep transport with the seeded baselines plus liveness of flow runs
//! under network stress.

use fedmigr::core::{Experiment, RunConfig, Scheme};
use fedmigr::data::{partition_shards, SyntheticConfig, SyntheticDataset};
use fedmigr::net::{
    ClientCompute, DeviceTier, FlowConfig, FlowSim, Topology, TopologyConfig, TransportConfig,
};
use fedmigr::nn::zoo::{self, NetScale};
use proptest::prelude::*;

/// A single shared link with `n` competing flows of assorted sizes, plus
/// optional loss — the canonical contention scenario.
fn contended_sim(
    cfg: FlowConfig,
    capacity: f64,
    loss: f64,
    sizes: &[u64],
) -> (FlowSim, Vec<fedmigr::net::FlowOutcome>) {
    let mut sim = FlowSim::new(cfg);
    let link = sim.add_link(capacity, loss, 0.005, None);
    for &bytes in sizes {
        sim.add_flow(&[link], bytes);
    }
    sim.run();
    let outcomes = sim.outcomes();
    (sim, outcomes)
}

proptest! {
    /// Wire bytes decompose exactly into delivered + retransmitted bytes
    /// for every flow, lossy or not, completed or failed; a completed flow
    /// delivered its whole payload.
    #[test]
    fn bytes_are_conserved_across_retransmits(
        seed in 0u64..500,
        loss in 0.0f64..0.45,
        sizes in prop::collection::vec(1u64..2_000_000, 1..8),
    ) {
        let (_, outcomes) =
            contended_sim(FlowConfig::standard(seed), 2_000_000.0, loss, &sizes);
        for (o, &bytes) in outcomes.iter().zip(&sizes) {
            prop_assert_eq!(o.payload_bytes, bytes);
            prop_assert_eq!(o.wire_bytes, o.delivered_bytes + o.retransmit_bytes);
            if o.completed {
                prop_assert_eq!(o.delivered_bytes, bytes);
            } else {
                prop_assert!(o.delivered_bytes < bytes);
            }
            prop_assert!(o.finish.is_finite() && o.finish >= 0.0);
        }
    }

    /// Identical `(config, links, flows)` yield bit-identical outcomes: the
    /// loss schedule is a pure hash and the event loop holds no ambient
    /// state (no clocks, no global RNG).
    #[test]
    fn flow_simulations_are_deterministic(
        seed in 0u64..500,
        loss in 0.0f64..0.4,
        sizes in prop::collection::vec(1u64..1_000_000, 1..6),
    ) {
        let cfg = FlowConfig::standard(seed);
        let (sa, a) = contended_sim(cfg, 1_500_000.0, loss, &sizes);
        let (sb, b) = contended_sim(cfg, 1_500_000.0, loss, &sizes);
        prop_assert_eq!(sa.makespan().to_bits(), sb.makespan().to_bits());
        for (oa, ob) in a.iter().zip(&b) {
            prop_assert_eq!(oa.completed, ob.completed);
            prop_assert_eq!(oa.finish.to_bits(), ob.finish.to_bits());
            prop_assert_eq!(oa.wire_bytes, ob.wire_bytes);
            prop_assert_eq!(oa.retransmits, ob.retransmits);
            prop_assert_eq!(oa.timeouts, ob.timeouts);
            prop_assert_eq!(oa.queue_delay.to_bits(), ob.queue_delay.to_bits());
        }
    }

    /// No starvation under saturation: when many flows pile onto one live
    /// (loss-free) link, fair share drains every flow together, and no flow
    /// strikes out on timeouts merely because the link is busy.
    #[test]
    fn saturation_never_starves_a_flow(
        seed in 0u64..300,
        sizes in prop::collection::vec(50_000u64..1_500_000, 4..12),
    ) {
        // Deliberately undersized link: total demand takes many seconds.
        let (_, outcomes) = contended_sim(FlowConfig::standard(seed), 400_000.0, 0.0, &sizes);
        let total: u64 = sizes.iter().sum();
        let lower_bound = total as f64 / 400_000.0;
        for o in &outcomes {
            prop_assert!(o.completed, "flow starved: {o:?}");
            prop_assert_eq!(o.timeouts, 0);
            // Busy-link waiting is accounted as queue delay, not failure.
            prop_assert!(o.finish <= 4.0 * lower_bound + 60.0);
        }
    }
}

fn tiny_experiment(seed: u64) -> Experiment {
    let data = SyntheticDataset::generate(&SyntheticConfig {
        num_classes: 4,
        train_per_class: 16,
        test_per_class: 8,
        channels: 1,
        hw: 8,
        noise_std: 0.8,
        class_sep: 1.0,
        atom_bank: 6,
        atoms_per_class: 2,
        private_frac: 0.5,
        seed,
    });
    let parts = partition_shards(&data.train, 4, 1, seed);
    Experiment::new(
        data.train,
        data.test,
        parts,
        Topology::new(&TopologyConfig::default_edge(vec![2, 2], seed)),
        ClientCompute::homogeneous(4, DeviceTier::Tx2),
        zoo::mini_resnet(1, 8, 4, 1, NetScale::Small, seed),
    )
}

/// The lockstep transport is byte-identical to the pre-flow baseline: an
/// explicit `TransportConfig::Lockstep` reproduces the default run bit for
/// bit — loss, accuracy, traffic and simulated time.
#[test]
fn lockstep_transport_is_byte_identical_to_seeded_baseline() {
    for seed in [3u64, 11] {
        let mut base = RunConfig::new(Scheme::fedmigr(9), 8);
        base.agg_interval = 4;
        base.batch_size = 16;
        let mut lockstep = base.clone();
        lockstep.transport = TransportConfig::Lockstep;
        let a = tiny_experiment(seed).run(&base);
        let b = tiny_experiment(seed).run(&lockstep);
        assert_eq!(a.records.len(), b.records.len());
        for (ra, rb) in a.records.iter().zip(&b.records) {
            assert_eq!(ra.train_loss, rb.train_loss);
            assert_eq!(ra.test_accuracy, rb.test_accuracy);
            assert_eq!(ra.traffic, rb.traffic);
            assert_eq!(ra.sim_time, rb.sim_time);
            assert_eq!(ra.retransmits, 0);
            assert_eq!(ra.late_uploads, 0);
        }
        assert!(!b.transport_stats.any());
        assert_eq!(b.transport, "lockstep");
    }
}

/// Flow-transport runs under composed network stress and churn never stall:
/// every epoch completes, stats are populated, and the run stays seeded-
/// deterministic.
#[test]
fn stressed_flow_runs_complete_every_round() {
    for (seed, stress) in [(5u64, 0.3), (8, 0.5)] {
        let mut cfg = RunConfig::new(Scheme::fedmigr(9), 8);
        cfg.agg_interval = 4;
        cfg.batch_size = 16;
        cfg.transport = TransportConfig::flow(seed);
        cfg.fault.seed = 17;
        cfg.fault = cfg.fault.with_network_stress(stress);
        let a = tiny_experiment(seed).run(&cfg);
        assert_eq!(a.epochs(), 8, "stress {stress} stalled the run");
        assert!(a.transport_stats.any());
        assert!(a.transport_stats.flows > 0);
        let b = tiny_experiment(seed).run(&cfg);
        assert_eq!(a.transport_stats, b.transport_stats);
        assert_eq!(a.final_accuracy(), b.final_accuracy());
        assert_eq!(a.sim_time(), b.sim_time());
    }
}
