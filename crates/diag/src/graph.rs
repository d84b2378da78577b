//! Migration-graph analytics.
//!
//! Every executed (or attempted) client-to-client transfer in a round is
//! one [`MigrationEdge`]; the round's edge list plus the executed source
//! permutation yields degree-concentration and cycle statistics that show
//! *how* a policy circulates models — FedMigr's learned policy tends to
//! concentrate on a few productive links (the paper's Fig. 8), while
//! RandMigr spreads uniformly.

use fedmigr_telemetry::record::{Fault, Field, Out};
use fedmigr_telemetry::record_fields;
use fedmigr_telemetry::trace::JsonValue;

/// How a transfer was ultimately carried (mirrors the runner's delivery
/// fallback chain).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EdgeOutcome {
    /// Delivered on the direct C2C path, first try.
    #[default]
    Direct,
    /// Delivered on the direct path after bounded retries.
    DirectRetry,
    /// Delivered through a same-LAN relay peer.
    Relay,
    /// Delivered by bouncing through the server.
    C2sBounce,
    /// Every fallback failed; the model stayed at the source.
    Cancelled,
}

impl EdgeOutcome {
    /// Stable lower-snake name used in the flight recording.
    pub fn name(self) -> &'static str {
        match self {
            EdgeOutcome::Direct => "direct",
            EdgeOutcome::DirectRetry => "direct_retry",
            EdgeOutcome::Relay => "relay",
            EdgeOutcome::C2sBounce => "c2s_bounce",
            EdgeOutcome::Cancelled => "cancelled",
        }
    }

    /// Parses a [`Self::name`] string back.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "direct" => EdgeOutcome::Direct,
            "direct_retry" => EdgeOutcome::DirectRetry,
            "relay" => EdgeOutcome::Relay,
            "c2s_bounce" => EdgeOutcome::C2sBounce,
            "cancelled" => EdgeOutcome::Cancelled,
            _ => return None,
        })
    }

    /// Whether the model actually arrived at the destination.
    pub fn delivered(self) -> bool {
        self != EdgeOutcome::Cancelled
    }
}

impl Field for EdgeOutcome {
    fn emit(&mut self, out: &mut Out<'_>) {
        out.string(self.name());
    }
    fn absorb(v: &JsonValue) -> Result<Self, Fault> {
        v.as_str().and_then(Self::parse).ok_or_else(Fault::missing)
    }
}

/// One attempted model migration.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MigrationEdge {
    /// Sending client.
    pub src: usize,
    /// Receiving client.
    pub dst: usize,
    /// Wire bytes of the (possibly compressed) model payload.
    pub bytes: u64,
    /// Virtual seconds the transfer (including fallbacks) took.
    pub time_s: f64,
    /// Path the transfer ended on.
    pub outcome: EdgeOutcome,
}
record_fields!(MigrationEdge: src, dst, bytes, time_s, outcome);

/// Round-level migration-graph statistics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GraphSnapshot {
    /// Edges attempted this round.
    pub attempted: usize,
    /// Edges that delivered a model.
    pub delivered: usize,
    /// Edges that needed any fallback (retry/relay/bounce).
    pub fallbacks: usize,
    /// Herfindahl–Hirschman concentration of out-degree over delivered
    /// edges (`1/k`..`1`; higher = traffic concentrated on few senders;
    /// 0 when nothing delivered).
    pub out_concentration: f64,
    /// Same for in-degree (receivers).
    pub in_concentration: f64,
    /// Cycles of length ≥ 2 in the executed source permutation — how many
    /// closed loops the round's model circulation formed.
    pub cycles: usize,
}
record_fields!(GraphSnapshot: attempted, delivered, fallbacks, out_concentration, in_concentration,
    cycles);

impl GraphSnapshot {
    /// Analyzes one round's edges plus the executed `src_of` map
    /// (`src_of[i]` = which slot client `i`'s post-round model came from).
    pub fn measure(edges: &[MigrationEdge], src_of: &[usize]) -> Self {
        let attempted = edges.len();
        let delivered = edges.iter().filter(|e| e.outcome.delivered()).count();
        let fallbacks = edges.iter().filter(|e| e.outcome != EdgeOutcome::Direct).count();
        let mut out_deg = vec![0usize; src_of.len()];
        let mut in_deg = vec![0usize; src_of.len()];
        for e in edges.iter().filter(|e| e.outcome.delivered()) {
            if e.src < out_deg.len() && e.dst < in_deg.len() {
                out_deg[e.src] += 1;
                in_deg[e.dst] += 1;
            }
        }
        GraphSnapshot {
            attempted,
            delivered,
            fallbacks,
            out_concentration: hhi(&out_deg),
            in_concentration: hhi(&in_deg),
            cycles: permutation_cycles(src_of),
        }
    }
}

/// Herfindahl–Hirschman index of a degree histogram: the sum of squared
/// shares. 0 when the histogram is empty.
fn hhi(deg: &[usize]) -> f64 {
    let total: usize = deg.iter().sum();
    if total == 0 {
        return 0.0;
    }
    deg.iter().map(|&d| (d as f64 / total as f64).powi(2)).sum()
}

/// Counts cycles of length ≥ 2 in the functional graph `i → src_of[i]`.
///
/// The runner's post-migration state maps every slot to the slot its model
/// came from, so a length-2 cycle is a swap, a length-k cycle a rotation;
/// fixed points (`src_of[i] == i`, i.e. no migration) are not counted.
pub fn permutation_cycles(src_of: &[usize]) -> usize {
    let n = src_of.len();
    // Standard functional-graph walk: colors 0 = unseen, 1 = on current
    // path, 2 = finished. Each walk that re-enters its own path closes at
    // most one new cycle.
    let mut color = vec![0u8; n];
    let mut cycles = 0;
    for start in 0..n {
        if color[start] != 0 {
            continue;
        }
        let mut path = Vec::new();
        let mut cur = start;
        loop {
            if src_of[cur] >= n {
                // Defensive: treat an out-of-range source as a terminal.
                color[cur] = 2;
                break;
            }
            match color[cur] {
                0 => {
                    color[cur] = 1;
                    path.push(cur);
                    cur = src_of[cur];
                }
                1 => {
                    // Found a new cycle; count it unless it is a fixed point.
                    let len = path.len() - path.iter().position(|&p| p == cur).unwrap();
                    if len >= 2 {
                        cycles += 1;
                    }
                    break;
                }
                _ => break,
            }
        }
        for p in path {
            color[p] = 2;
        }
    }
    cycles
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(src: usize, dst: usize, outcome: EdgeOutcome) -> MigrationEdge {
        MigrationEdge { src, dst, bytes: 100, time_s: 1.0, outcome }
    }

    #[test]
    fn outcome_names_round_trip() {
        for o in [
            EdgeOutcome::Direct,
            EdgeOutcome::DirectRetry,
            EdgeOutcome::Relay,
            EdgeOutcome::C2sBounce,
            EdgeOutcome::Cancelled,
        ] {
            assert_eq!(EdgeOutcome::parse(o.name()), Some(o));
        }
        assert_eq!(EdgeOutcome::parse("bogus"), None);
        assert!(!EdgeOutcome::Cancelled.delivered());
        assert!(EdgeOutcome::Relay.delivered());
    }

    #[test]
    fn cycle_counting() {
        assert_eq!(permutation_cycles(&[0, 1, 2]), 0, "identity has no cycles");
        assert_eq!(permutation_cycles(&[1, 0, 2]), 1, "one swap");
        assert_eq!(permutation_cycles(&[1, 2, 0]), 1, "one 3-rotation");
        assert_eq!(permutation_cycles(&[1, 0, 3, 2]), 2, "two swaps");
        // Non-permutation functional graph (duplication after a cancelled
        // transfer): 0→1→2→1 closes one 2-cycle, slot 3 self-loops.
        assert_eq!(permutation_cycles(&[1, 2, 1, 3]), 1);
        assert_eq!(permutation_cycles(&[]), 0);
    }

    #[test]
    fn degree_concentration_spans_uniform_to_hub() {
        // Uniform circulation: 4 edges, every client sends and receives once.
        let uniform = vec![
            edge(0, 1, EdgeOutcome::Direct),
            edge(1, 2, EdgeOutcome::Direct),
            edge(2, 3, EdgeOutcome::Direct),
            edge(3, 0, EdgeOutcome::Direct),
        ];
        let s = GraphSnapshot::measure(&uniform, &[3, 0, 1, 2]);
        assert!((s.out_concentration - 0.25).abs() < 1e-12, "uniform HHI = 1/k");
        assert_eq!(s.cycles, 1);
        assert_eq!(s.fallbacks, 0);

        // Hub: one sender fans out to everyone.
        let hub = vec![
            edge(0, 1, EdgeOutcome::Direct),
            edge(0, 2, EdgeOutcome::Relay),
            edge(0, 3, EdgeOutcome::Cancelled),
        ];
        let s = GraphSnapshot::measure(&hub, &[0, 0, 0, 3]);
        assert_eq!(s.attempted, 3);
        assert_eq!(s.delivered, 2);
        assert_eq!(s.fallbacks, 2, "relay and cancelled both count as fallbacks");
        assert!((s.out_concentration - 1.0).abs() < 1e-12, "single sender HHI = 1");
        assert_eq!(s.cycles, 0);
    }

    #[test]
    fn empty_round_is_zero() {
        assert_eq!(
            GraphSnapshot::measure(&[], &[0, 1]),
            GraphSnapshot {
                attempted: 0,
                delivered: 0,
                fallbacks: 0,
                out_concentration: 0.0,
                in_concentration: 0.0,
                cycles: 0,
            }
        );
    }
}
