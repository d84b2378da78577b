//! Human-readable rendering of a flight recording (`fedmigr_report`).

use std::collections::BTreeMap;
use std::fmt::Write;

use crate::flight::FlightRecording;

/// Renders the full report: run identity, convergence curve, EMD
/// trajectory, client-drift table, DRL introspection, migration-graph
/// summary and phase breakdown.
pub fn render_report(rec: &FlightRecording) -> String {
    let mut out = String::new();
    let h = &rec.header;
    let _ = writeln!(out, "flight recording v{}", h.version);
    let _ = writeln!(
        out,
        "run: {} | {} clients | {} epochs budgeted, {} recorded | seed {} | agg every {} | codec {}",
        h.scheme,
        h.clients,
        h.epochs,
        rec.rounds.len(),
        h.seed,
        h.agg_interval,
        h.codec,
    );
    if let Some(s) = &rec.summary {
        let _ = writeln!(
            out,
            "outcome: final acc {:.4}, best acc {:.4}, {:.2} MB, {:.2} sim-h, {} local + {} global migrations{}{}",
            s.final_accuracy,
            s.best_accuracy,
            s.total_bytes as f64 / 1e6,
            s.sim_time / 3600.0,
            s.migrations_local,
            s.migrations_global,
            if s.target_reached { ", target reached" } else { "" },
            if s.budget_exhausted { ", budget exhausted" } else { "" },
        );
    }

    convergence_section(&mut out, rec);
    emd_section(&mut out, rec);
    drift_section(&mut out, rec);
    drl_section(&mut out, rec);
    graph_section(&mut out, rec);
    phase_section(&mut out, rec);
    out
}

/// Picks ≤ `max` indices spread evenly over `0..n`, always keeping the
/// first and last.
fn sample_indices(n: usize, max: usize) -> Vec<usize> {
    if n <= max {
        return (0..n).collect();
    }
    let mut idx: Vec<usize> = (0..max).map(|i| i * (n - 1) / (max - 1)).collect();
    idx.dedup();
    idx
}

fn convergence_section(out: &mut String, rec: &FlightRecording) {
    let evals: Vec<_> = rec.rounds.iter().filter(|r| r.test_accuracy.is_some()).collect();
    let _ = writeln!(out, "\n== convergence ==");
    if evals.is_empty() {
        let _ = writeln!(out, "(no evaluation rounds recorded)");
        return;
    }
    let _ =
        writeln!(out, "{:>6} {:>10} {:>9} {:>10} {:>10}", "epoch", "loss", "acc", "MB", "sim-h");
    for &i in &sample_indices(evals.len(), 12) {
        let r = evals[i];
        let _ = writeln!(
            out,
            "{:>6} {:>10.4} {:>9.4} {:>10.2} {:>10.2}",
            r.epoch,
            r.train_loss,
            r.test_accuracy.unwrap_or(0.0),
            (r.c2s_bytes + r.c2c_local_bytes + r.c2c_global_bytes) as f64 / 1e6,
            r.sim_time / 3600.0,
        );
    }
}

fn emd_section(out: &mut String, rec: &FlightRecording) {
    let _ = writeln!(out, "\n== virtual-dataset EMD trajectory ==");
    if rec.rounds.is_empty() {
        let _ = writeln!(out, "(no rounds recorded)");
        return;
    }
    let _ = writeln!(out, "{:>6} {:>10} {:>10} {:>13}", "epoch", "mean", "max", "train-hist");
    for &i in &sample_indices(rec.rounds.len(), 12) {
        let r = &rec.rounds[i];
        let _ = writeln!(
            out,
            "{:>6} {:>10.4} {:>10.4} {:>13.4}",
            r.epoch, r.emd.mean, r.emd.max, r.train_emd.mean
        );
    }
    let _ = writeln!(
        out,
        "run-mean EMD {:.4} (final {:.4}); training-history EMD {:.4} — never reset by aggregation, what migration alone buys",
        rec.mean_emd_over_run(),
        rec.final_emd_mean(),
        rec.mean_train_emd_over_run(),
    );
}

fn drift_section(out: &mut String, rec: &FlightRecording) {
    let Some(r) = rec.rounds.iter().rev().find(|r| r.drift.is_some()) else {
        return;
    };
    let d = r.drift.as_ref().expect("filtered on is_some");
    let _ = writeln!(out, "\n== client drift (epoch {}) ==", r.epoch);
    let _ = writeln!(out, "{:>7} {:>12} {:>9} {:>12}", "client", "|w_i-w_g|", "cos", "divergence");
    for i in 0..d.dist.len() {
        let _ = writeln!(
            out,
            "{:>7} {:>12.4} {:>9.3} {:>12.4}",
            i, d.dist[i], d.cosine[i], d.divergence[i]
        );
    }
    let _ = writeln!(
        out,
        "mean dist {:.4} (max {:.4}), mean cosine {:.3}, mean divergence {:.4}",
        d.mean_dist, d.max_dist, d.mean_cosine, d.mean_divergence
    );
}

fn drl_section(out: &mut String, rec: &FlightRecording) {
    let with_drl: Vec<_> =
        rec.rounds.iter().filter_map(|r| r.drl.as_ref().map(|d| (r.epoch, d))).collect();
    let Some(&(last_epoch, last)) = with_drl.last() else {
        return;
    };
    let (first_epoch, first) = with_drl[0];
    let _ = writeln!(out, "\n== DDPG introspection ==");
    let _ = writeln!(
        out,
        "policy entropy {:.3} -> {:.3} nats (epochs {}..{}), saturation {:.3} -> {:.3}",
        first.mean_entropy,
        last.mean_entropy,
        first_epoch,
        last_epoch,
        first.mean_saturation,
        last.mean_saturation,
    );
    let _ = writeln!(
        out,
        "critic: mean Q {:.4}, mean |TD| {:.4} (max {:.4}), grad norms critic {:.4} / actor {:.4}",
        last.mean_q, last.mean_abs_td, last.max_abs_td, last.critic_grad_norm, last.actor_grad_norm,
    );
    let _ = writeln!(
        out,
        "replay: {}/{} filled, priority spread {:.2}x, mean age {:.1} (max {:.0}) pushes",
        last.replay_occupancy,
        last.replay_capacity,
        last.replay_priority_spread,
        last.replay_mean_age,
        last.replay_max_age,
    );
}

fn graph_section(out: &mut String, rec: &FlightRecording) {
    let _ = writeln!(out, "\n== migration graph ==");
    let (mut attempted, mut delivered, mut fallbacks, mut cycles) = (0usize, 0usize, 0usize, 0);
    let mut outcomes: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut bytes = 0u64;
    for r in &rec.rounds {
        attempted += r.graph.attempted;
        delivered += r.graph.delivered;
        fallbacks += r.graph.fallbacks;
        cycles += r.graph.cycles;
        for e in &r.migrations {
            *outcomes.entry(e.outcome.name()).or_default() += 1;
            if e.outcome.delivered() {
                bytes += e.bytes;
            }
        }
    }
    if attempted == 0 {
        let _ = writeln!(out, "(no migrations attempted)");
        return;
    }
    let _ = writeln!(
        out,
        "{attempted} attempted, {delivered} delivered ({fallbacks} via fallback), {:.2} MB moved, {cycles} circulation cycles",
        bytes as f64 / 1e6,
    );
    let paths: Vec<String> = outcomes.iter().map(|(k, v)| format!("{k} {v}")).collect();
    let _ = writeln!(out, "paths: {}", paths.join(", "));
    let migratory: Vec<_> = rec.rounds.iter().filter(|r| r.graph.delivered > 0).collect();
    if !migratory.is_empty() {
        let mean = |f: fn(&crate::graph::GraphSnapshot) -> f64| {
            migratory.iter().map(|r| f(&r.graph)).sum::<f64>() / migratory.len() as f64
        };
        let _ = writeln!(
            out,
            "degree concentration (HHI, mean over migratory rounds): out {:.3}, in {:.3}",
            mean(|g| g.out_concentration),
            mean(|g| g.in_concentration),
        );
    }
}

fn phase_section(out: &mut String, rec: &FlightRecording) {
    let Some(r) = rec.rounds.last() else {
        return;
    };
    let total = r.phase.train_s + r.phase.c2s_s + r.phase.migration_s + r.phase.backoff_s;
    if total <= 0.0 {
        return;
    }
    let _ = writeln!(out, "\n== phase breakdown (virtual time) ==");
    for (name, secs) in [
        ("train", r.phase.train_s),
        ("c2s", r.phase.c2s_s),
        ("migration", r.phase.migration_s),
        ("backoff", r.phase.backoff_s),
    ] {
        let _ = writeln!(out, "{name:>10}: {secs:>10.1}s ({:>5.1}%)", 100.0 * secs / total);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emd::EmdSnapshot;
    use crate::flight::{FlightHeader, FlightSummary, PhaseSeconds, RoundRecord, FLIGHT_VERSION};
    use crate::graph::{EdgeOutcome, GraphSnapshot, MigrationEdge};

    #[test]
    fn sampling_keeps_ends() {
        assert_eq!(sample_indices(3, 12), vec![0, 1, 2]);
        let idx = sample_indices(100, 12);
        assert_eq!(*idx.first().unwrap(), 0);
        assert_eq!(*idx.last().unwrap(), 99);
        assert!(idx.len() <= 12);
    }

    #[test]
    fn report_covers_every_section() {
        let header = FlightHeader {
            version: FLIGHT_VERSION,
            scheme: "FedMigr".into(),
            clients: 2,
            epochs: 2,
            seed: 7,
            agg_interval: 2,
            codec: "identity".into(),
        };
        let round = RoundRecord {
            epoch: 1,
            train_loss: 2.0,
            test_accuracy: Some(0.4),
            sim_time: 100.0,
            c2s_bytes: 1000,
            phase: PhaseSeconds { train_s: 60.0, c2s_s: 30.0, migration_s: 10.0, backoff_s: 0.0 },
            emd: EmdSnapshot { per_client: vec![0.3, 0.1], mean: 0.2, max: 0.3 },
            drift: Some(crate::drift::DriftSnapshot {
                dist: vec![1.0, 2.0],
                cosine: vec![0.5, -0.5],
                divergence: vec![0.1, 0.2],
                mean_dist: 1.5,
                max_dist: 2.0,
                mean_cosine: 0.0,
                mean_divergence: 0.15,
            }),
            drl: Some(crate::drl_probe::DrlSnapshot {
                mean_entropy: 1.0,
                mean_saturation: 0.5,
                replay_capacity: 8,
                ..Default::default()
            }),
            graph: GraphSnapshot {
                attempted: 1,
                delivered: 1,
                fallbacks: 0,
                out_concentration: 1.0,
                in_concentration: 1.0,
                cycles: 0,
            },
            migrations: vec![MigrationEdge {
                src: 0,
                dst: 1,
                bytes: 500,
                time_s: 1.0,
                outcome: EdgeOutcome::Direct,
            }],
            ..Default::default()
        };
        let rec = FlightRecording {
            header,
            rounds: vec![round],
            summary: Some(FlightSummary {
                epochs_run: 1,
                final_accuracy: 0.4,
                best_accuracy: 0.4,
                total_bytes: 1000,
                sim_time: 100.0,
                migrations_local: 1,
                migrations_global: 0,
                final_emd_mean: 0.2,
                target_reached: false,
                budget_exhausted: false,
            }),
            tolerances: None,
        };
        let text = render_report(&rec);
        for needle in [
            "flight recording v1",
            "FedMigr",
            "== convergence ==",
            "== virtual-dataset EMD trajectory ==",
            "== client drift (epoch 1) ==",
            "== DDPG introspection ==",
            "== migration graph ==",
            "paths: direct 1",
            "== phase breakdown",
        ] {
            assert!(text.contains(needle), "report missing {needle:?}:\n{text}");
        }
    }

    #[test]
    fn empty_recording_reports_gracefully() {
        let rec = FlightRecording {
            header: FlightHeader {
                version: FLIGHT_VERSION,
                scheme: "FedAvg".into(),
                clients: 2,
                epochs: 0,
                seed: 0,
                agg_interval: 1,
                codec: "identity".into(),
            },
            rounds: vec![],
            summary: None,
            tolerances: None,
        };
        let text = render_report(&rec);
        assert!(text.contains("(no evaluation rounds recorded)"));
        assert!(text.contains("(no rounds recorded)"));
    }
}
