use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Speed class of a C2C link, matching Fig. 8's fast/moderate/slow split.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LinkClass {
    /// Intra-LAN or otherwise high-bandwidth link.
    Fast,
    /// Mid-speed cross-LAN link.
    Moderate,
    /// Congested/low-bandwidth cross-LAN link (may be slower than C2S).
    Slow,
}

/// Configuration for building a [`Topology`].
#[derive(Clone, Debug)]
pub struct TopologyConfig {
    /// Number of clients in each LAN; the sum is the client count `K`.
    pub lan_sizes: Vec<usize>,
    /// C2S (WAN) bandwidth in bytes/second. The paper's test-bed uses a
    /// ~50 Mbps WAN link, i.e. 6.25e6 B/s.
    pub c2s_bandwidth: f64,
    /// Bandwidth of intra-LAN C2C links (bytes/second).
    pub lan_bandwidth: f64,
    /// Bandwidth of `Moderate` cross-LAN C2C links (bytes/second).
    pub cross_moderate_bandwidth: f64,
    /// Bandwidth of `Slow` cross-LAN C2C links (bytes/second).
    pub cross_slow_bandwidth: f64,
    /// Probability that a cross-LAN link is `Slow` (rest are `Moderate`).
    pub slow_fraction: f64,
    /// Aggregate capacity of the inter-LAN backbone in bytes/second. Only
    /// the event-driven flow transport uses it: concurrent cross-LAN
    /// transfers share this capacity on top of their per-pair link rates.
    /// The lockstep path ignores it.
    pub backbone_bandwidth: f64,
    /// Relative amplitude of per-epoch multiplicative bandwidth jitter in
    /// `[0, 1)`; 0 disables time variation.
    pub jitter: f64,
    /// One-way propagation latency of the WAN (C2S) path in seconds.
    pub c2s_latency: f64,
    /// One-way propagation latency of C2C paths in seconds (LAN paths are
    /// treated as latency-free relative to this).
    pub c2c_latency: f64,
    /// Seed for link-class assignment and jitter.
    pub seed: u64,
}

impl TopologyConfig {
    /// The paper's simulation defaults: 50 Mbps WAN, 400 Mbps LAN,
    /// 100 Mbps moderate / 16 Mbps slow cross-LAN links, 30% slow.
    pub fn default_edge(lan_sizes: Vec<usize>, seed: u64) -> Self {
        Self {
            lan_sizes,
            c2s_bandwidth: 6.25e6,
            lan_bandwidth: 5.0e7,
            cross_moderate_bandwidth: 1.25e7,
            cross_slow_bandwidth: 2.0e6,
            slow_fraction: 0.3,
            backbone_bandwidth: 2.5e7,
            jitter: 0.0,
            c2s_latency: 0.0,
            c2c_latency: 0.0,
            seed,
        }
    }

    /// Three LANs of sizes 4/3/3 — the paper's CIFAR-10 simulation layout.
    pub fn c10_sim(seed: u64) -> Self {
        Self::default_edge(vec![4, 3, 3], seed)
    }

    /// Five LANs of 4 clients each — the paper's CIFAR-100 layout.
    pub fn c100_sim(seed: u64) -> Self {
        Self::default_edge(vec![4; 5], seed)
    }
}

/// A static MEC topology: clients grouped into LANs behind one edge server,
/// with a seeded bandwidth matrix for client-to-client links.
#[derive(Clone, Debug)]
pub struct Topology {
    lan_of: Vec<usize>,
    c2s_bandwidth: f64,
    backbone_bandwidth: f64,
    c2c_bandwidth: Vec<f64>,
    link_class: Vec<LinkClass>,
    c2s_latency: f64,
    c2c_latency: f64,
    jitter: f64,
    seed: u64,
    k: usize,
}

impl Topology {
    /// Builds a topology from `config`.
    ///
    /// # Panics
    /// Panics if there are no clients or any bandwidth is non-positive.
    pub fn new(config: &TopologyConfig) -> Self {
        let k: usize = config.lan_sizes.iter().sum();
        assert!(k > 0, "topology needs at least one client");
        assert!(
            config.c2s_bandwidth > 0.0
                && config.lan_bandwidth > 0.0
                && config.cross_moderate_bandwidth > 0.0
                && config.cross_slow_bandwidth > 0.0
                && config.backbone_bandwidth > 0.0,
            "bandwidths must be positive"
        );
        assert!((0.0..1.0).contains(&config.jitter), "jitter must be in [0, 1)");
        let mut lan_of = Vec::with_capacity(k);
        for (lan, &size) in config.lan_sizes.iter().enumerate() {
            lan_of.extend(std::iter::repeat_n(lan, size));
        }
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut c2c = vec![0.0f64; k * k];
        let mut class = vec![LinkClass::Fast; k * k];
        for i in 0..k {
            for j in (i + 1)..k {
                let (bw, cls) = if lan_of[i] == lan_of[j] {
                    (config.lan_bandwidth, LinkClass::Fast)
                } else if rng.random::<f64>() < config.slow_fraction {
                    (config.cross_slow_bandwidth, LinkClass::Slow)
                } else {
                    (config.cross_moderate_bandwidth, LinkClass::Moderate)
                };
                c2c[i * k + j] = bw;
                c2c[j * k + i] = bw;
                class[i * k + j] = cls;
                class[j * k + i] = cls;
            }
        }
        assert!(config.c2s_latency >= 0.0 && config.c2c_latency >= 0.0);
        Self {
            lan_of,
            c2s_bandwidth: config.c2s_bandwidth,
            backbone_bandwidth: config.backbone_bandwidth,
            c2c_bandwidth: c2c,
            link_class: class,
            c2s_latency: config.c2s_latency,
            c2c_latency: config.c2c_latency,
            jitter: config.jitter,
            seed: config.seed,
            k,
        }
    }

    /// Number of clients `K`.
    pub fn num_clients(&self) -> usize {
        self.k
    }

    /// LAN index of client `i`.
    pub fn lan_of(&self, i: usize) -> usize {
        self.lan_of[i]
    }

    /// Whether clients `i` and `j` share a LAN (a migration between them is
    /// a *local* migration in the paper's terms).
    pub fn same_lan(&self, i: usize, j: usize) -> bool {
        self.lan_of[i] == self.lan_of[j]
    }

    /// C2S (WAN) bandwidth in bytes/second, with per-epoch jitter applied.
    pub fn c2s_bandwidth(&self, epoch: usize) -> f64 {
        self.c2s_bandwidth * self.jitter_factor(epoch, usize::MAX)
    }

    /// Aggregate inter-LAN backbone capacity in bytes/second, with
    /// per-epoch jitter applied. Shared by all concurrent cross-LAN flows
    /// under the flow transport.
    pub fn backbone_bandwidth(&self, epoch: usize) -> f64 {
        self.backbone_bandwidth * self.jitter_factor(epoch, usize::MAX - 1)
    }

    /// C2C bandwidth between clients `i` and `j` at `epoch`, in
    /// bytes/second, or `None` for the degenerate `i == j` "link" (a
    /// self-transfer costs nothing; callers should skip it).
    pub fn try_c2c_bandwidth(&self, i: usize, j: usize, epoch: usize) -> Option<f64> {
        if i == j {
            return None;
        }
        Some(self.c2c_bandwidth[i * self.k + j] * self.jitter_factor(epoch, i * self.k + j))
    }

    /// C2C bandwidth between clients `i` and `j` at `epoch`, in
    /// bytes/second.
    ///
    /// # Panics
    /// Panics if `i == j`, which indicates a bookkeeping bug upstream; use
    /// [`Self::try_c2c_bandwidth`] on paths where that can occur.
    pub fn c2c_bandwidth(&self, i: usize, j: usize, epoch: usize) -> f64 {
        self.try_c2c_bandwidth(i, j, epoch).expect("self-transfer has no link")
    }

    /// One-way propagation latency of the C2S path in seconds.
    pub fn c2s_latency(&self) -> f64 {
        self.c2s_latency
    }

    /// One-way propagation latency of the `i -> j` path in seconds
    /// (zero for intra-LAN links).
    pub fn c2c_latency(&self, i: usize, j: usize) -> f64 {
        if self.same_lan(i, j) {
            0.0
        } else {
            self.c2c_latency
        }
    }

    /// Speed class of the `i -> j` link.
    pub fn link_class(&self, i: usize, j: usize) -> LinkClass {
        assert_ne!(i, j, "self-link has no class");
        self.link_class[i * self.k + j]
    }

    /// Deterministic multiplicative jitter in `[1 - jitter, 1 + jitter]`
    /// derived from `(seed, epoch, link)`.
    fn jitter_factor(&self, epoch: usize, link: usize) -> f64 {
        if self.jitter == 0.0 {
            return 1.0;
        }
        let mut x = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(epoch as u64)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            .wrapping_add(link as u64);
        x ^= x >> 30;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        let unit = (x >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        1.0 + self.jitter * (2.0 * unit - 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        Topology::new(&TopologyConfig::c10_sim(42))
    }

    #[test]
    fn lan_membership_matches_sizes() {
        let t = topo();
        assert_eq!(t.num_clients(), 10);
        assert_eq!(t.lan_of(0), 0);
        assert_eq!(t.lan_of(3), 0);
        assert_eq!(t.lan_of(4), 1);
        assert_eq!(t.lan_of(7), 2);
        assert!(t.same_lan(0, 3));
        assert!(!t.same_lan(3, 4));
    }

    #[test]
    fn intra_lan_links_are_fast_and_faster_than_wan() {
        let t = topo();
        assert_eq!(t.link_class(0, 1), LinkClass::Fast);
        assert!(t.c2c_bandwidth(0, 1, 0) > t.c2s_bandwidth(0));
    }

    #[test]
    fn cross_lan_links_are_moderate_or_slow_and_symmetric() {
        let t = topo();
        for i in 0..4 {
            for j in 4..10 {
                let cls = t.link_class(i, j);
                assert!(cls == LinkClass::Moderate || cls == LinkClass::Slow);
                assert_eq!(t.c2c_bandwidth(i, j, 3), t.c2c_bandwidth(j, i, 3));
            }
        }
    }

    #[test]
    fn slow_fraction_produces_some_slow_links() {
        let t = Topology::new(&TopologyConfig::default_edge(vec![1; 20], 7));
        let mut slow = 0;
        let mut total = 0;
        for i in 0..20 {
            for j in (i + 1)..20 {
                total += 1;
                if t.link_class(i, j) == LinkClass::Slow {
                    slow += 1;
                }
            }
        }
        let frac = slow as f64 / total as f64;
        assert!(frac > 0.15 && frac < 0.45, "slow fraction {frac}");
    }

    #[test]
    fn jitter_varies_with_epoch_but_is_bounded() {
        let mut cfg = TopologyConfig::c10_sim(1);
        cfg.jitter = 0.2;
        let t = Topology::new(&cfg);
        let base = Topology::new(&TopologyConfig::c10_sim(1)).c2c_bandwidth(0, 5, 0);
        let mut distinct = std::collections::HashSet::new();
        for e in 0..10 {
            let bw = t.c2c_bandwidth(0, 5, e);
            assert!(bw >= base * 0.8 - 1.0 && bw <= base * 1.2 + 1.0);
            distinct.insert(bw.to_bits());
        }
        assert!(distinct.len() > 5, "jitter should vary across epochs");
    }

    #[test]
    fn deterministic_in_seed() {
        let a = Topology::new(&TopologyConfig::c10_sim(9));
        let b = Topology::new(&TopologyConfig::c10_sim(9));
        for i in 0..10 {
            for j in 0..10 {
                if i != j {
                    assert_eq!(a.link_class(i, j), b.link_class(i, j));
                }
            }
        }
    }

    #[test]
    fn latency_applies_to_cross_lan_paths_only() {
        let mut cfg = TopologyConfig::c10_sim(2);
        cfg.c2s_latency = 0.05;
        cfg.c2c_latency = 0.02;
        let t = Topology::new(&cfg);
        assert_eq!(t.c2s_latency(), 0.05);
        assert_eq!(t.c2c_latency(0, 1), 0.0, "intra-LAN path has no WAN latency");
        assert_eq!(t.c2c_latency(0, 5), 0.02);
    }

    #[test]
    #[should_panic(expected = "self-transfer")]
    fn self_transfer_panics() {
        let _ = topo().c2c_bandwidth(2, 2, 0);
    }
}
