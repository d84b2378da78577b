/// The resource budgets `B_c` (computation, sample-passes) and `B_b`
/// (bandwidth, bytes) of the FLMM problem (Eq. 16). Infinite budgets model
/// unconstrained runs.
#[derive(Clone, Copy, Debug)]
pub struct ResourceBudget {
    /// Computation budget `B_c` in sample-passes.
    pub compute: f64,
    /// Bandwidth budget `B_b` in bytes.
    pub bandwidth: f64,
}

impl ResourceBudget {
    /// An unconstrained budget.
    pub fn unlimited() -> Self {
        Self { compute: f64::INFINITY, bandwidth: f64::INFINITY }
    }

    /// A bandwidth-only budget (compute unconstrained) — the Fig. 9 sweep.
    pub fn bandwidth_only(bytes: f64) -> Self {
        Self { compute: f64::INFINITY, bandwidth: bytes }
    }
}

/// Traffic totals split the way the paper reports them.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TrafficBreakdown {
    /// Client<->server bytes over the WAN (model distribution, uploads).
    pub c2s: u64,
    /// Client->client bytes within a LAN (local migrations).
    pub c2c_local: u64,
    /// Client->client bytes across LANs (global migrations).
    pub c2c_global: u64,
}

impl TrafficBreakdown {
    /// All bytes moved.
    pub fn total(&self) -> u64 {
        self.c2s + self.c2c_local + self.c2c_global
    }
}

/// Accumulates resource consumption against a [`ResourceBudget`].
#[derive(Clone, Debug)]
pub struct ResourceMeter {
    budget: ResourceBudget,
    traffic: TrafficBreakdown,
    /// Retransmission overhead put on the wire by the flow transport.
    /// Charged against the bandwidth budget but kept out of the payload
    /// [`TrafficBreakdown`], so payload totals stay comparable across
    /// transports. Always zero under the lockstep transport.
    overhead: u64,
    /// Simulated transfer seconds (queueing + retransmits included) under
    /// the flow transport; zero under lockstep, where transfers are priced
    /// at nominal latency and the meter has nothing extra to say.
    transfer_seconds: f64,
    compute_cost: f64,
}

impl ResourceMeter {
    /// Creates a meter against `budget`.
    pub fn new(budget: ResourceBudget) -> Self {
        Self {
            budget,
            traffic: TrafficBreakdown::default(),
            overhead: 0,
            transfer_seconds: 0.0,
            compute_cost: 0.0,
        }
    }

    /// Records C2S traffic (counted against the bandwidth budget).
    pub fn record_c2s(&mut self, bytes: u64) {
        self.traffic.c2s += bytes;
        count_bytes("c2s", bytes);
    }

    /// Records a C2C transfer; `local` marks intra-LAN migrations.
    pub fn record_c2c(&mut self, bytes: u64, local: bool) {
        if local {
            self.traffic.c2c_local += bytes;
            count_bytes("c2c_local", bytes);
        } else {
            self.traffic.c2c_global += bytes;
            count_bytes("c2c_global", bytes);
        }
    }

    /// Records retransmission overhead bytes from the flow transport.
    /// Counted against the bandwidth budget (the bytes really crossed the
    /// wire) but not against the payload traffic breakdown.
    pub fn record_overhead(&mut self, bytes: u64) {
        self.overhead += bytes;
        count_bytes("overhead", bytes);
    }

    /// Records the simulated duration of a communication phase (queueing
    /// and retransmission time included) under the flow transport.
    pub fn record_transfer_seconds(&mut self, seconds: f64) {
        assert!(seconds >= 0.0 && seconds.is_finite(), "bad phase duration {seconds}");
        self.transfer_seconds += seconds;
    }

    /// Records computation cost in sample-passes.
    pub fn record_compute(&mut self, cost: f64) {
        self.compute_cost += cost;
    }

    /// Traffic accumulated so far.
    pub fn traffic(&self) -> TrafficBreakdown {
        self.traffic
    }

    /// Every byte charged against the bandwidth budget: payload traffic
    /// plus retransmission overhead.
    fn billed_bytes(&self) -> u64 {
        self.traffic.total() + self.overhead
    }

    /// Computation cost accumulated so far.
    pub fn compute_cost(&self) -> f64 {
        self.compute_cost
    }

    /// Remaining bandwidth budget (fraction of `B_b`), clamped to `[0, 1]`;
    /// 1 for unlimited budgets. This is part of the DRL state `G_t`.
    pub fn bandwidth_remaining_frac(&self) -> f64 {
        if self.budget.bandwidth.is_infinite() {
            return 1.0;
        }
        (1.0 - self.billed_bytes() as f64 / self.budget.bandwidth).clamp(0.0, 1.0)
    }

    /// Remaining compute budget fraction, clamped to `[0, 1]`.
    pub fn compute_remaining_frac(&self) -> f64 {
        if self.budget.compute.is_infinite() {
            return 1.0;
        }
        (1.0 - self.compute_cost / self.budget.compute).clamp(0.0, 1.0)
    }

    /// Whether either budget is exhausted (`min G_T <= 0`, Eq. 18).
    pub fn exhausted(&self) -> bool {
        self.billed_bytes() as f64 >= self.budget.bandwidth
            || self.compute_cost >= self.budget.compute
    }

    /// The configured budget.
    pub fn budget(&self) -> ResourceBudget {
        self.budget
    }
}

// A meter crosses the wire as its accumulated consumption (the budget is
// rebuilt from config). A restore overwrites the fields directly — never
// through the `record_*` paths — so it does not double-count into the
// telemetry byte counters.
fedmigr_telemetry::wire_fields!(ResourceMeter: traffic, overhead, transfer_seconds, compute_cost);
fedmigr_telemetry::wire_fields!(TrafficBreakdown: c2s, c2c_local, c2c_global);

/// Mirrors every meter charge into the `fedmigr_net_bytes_total{path}`
/// telemetry counter. Side-channel only: the meter's own totals (which feed
/// budgets and `RunMetrics`) are the `TrafficBreakdown` fields above.
fn count_bytes(path: &'static str, bytes: u64) {
    fedmigr_telemetry::metrics::add("fedmigr_net_bytes_total", &[("path", path)], bytes);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_totals() {
        let t = TrafficBreakdown { c2s: 10, c2c_local: 5, c2c_global: 3 };
        assert_eq!(t.total(), 18);
    }

    #[test]
    fn meter_tracks_and_exhausts() {
        let mut m = ResourceMeter::new(ResourceBudget { compute: 100.0, bandwidth: 100.0 });
        m.record_c2s(40);
        m.record_c2c(20, true);
        m.record_compute(50.0);
        assert!(!m.exhausted());
        assert!((m.bandwidth_remaining_frac() - 0.4).abs() < 1e-12);
        assert!((m.compute_remaining_frac() - 0.5).abs() < 1e-12);
        m.record_c2c(40, false);
        assert!(m.exhausted());
        assert_eq!(m.bandwidth_remaining_frac(), 0.0);
    }

    #[test]
    fn overhead_bytes_bill_the_budget_but_not_the_breakdown() {
        let mut m = ResourceMeter::new(ResourceBudget { compute: f64::INFINITY, bandwidth: 100.0 });
        m.record_c2s(60);
        m.record_overhead(30);
        m.record_transfer_seconds(1.5);
        assert_eq!(m.traffic().total(), 60, "payload breakdown excludes overhead");
        assert_eq!(m.overhead, 30);
        assert!((m.bandwidth_remaining_frac() - 0.1).abs() < 1e-12);
        assert!(!m.exhausted());
        m.record_overhead(10);
        assert!(m.exhausted(), "overhead must exhaust the budget like payload");
        assert!((m.transfer_seconds - 1.5).abs() < 1e-12);
    }

    #[test]
    fn unlimited_budget_never_exhausts() {
        let mut m = ResourceMeter::new(ResourceBudget::unlimited());
        m.record_c2s(u64::MAX / 2);
        m.record_compute(1e18);
        assert!(!m.exhausted());
        assert_eq!(m.bandwidth_remaining_frac(), 1.0);
    }
}
