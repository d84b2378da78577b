//! `fedbench compare <a.json> <b.json>`: the A/A check of two runs of one
//! commit, and the parent-vs-change table of two commits.

use std::fmt::Write as _;

use crate::report::{MetricResult, Report};
use crate::spec::Better;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// `b` is better than `a` by more than the bound, and their quartile
    /// ranges do not touch.
    Better,
    /// The medians are within the bound of each other, and so is the spread.
    Within,
    /// `b` is worse than `a` by more than the bound, and their quartile
    /// ranges do not touch.
    Worse,
    /// The medians differ by more than the bound but the quartile ranges
    /// overlap, or they agree but either side's spread exceeds the bound:
    /// the runs cannot tell.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By what share of `a` the metric got worse from `a` to `b` (negative: better).
fn worse_by(a: &MetricResult, b: &MetricResult) -> f64 {
    let change = (b.value() - a.value()) / a.value().abs();
    match a.better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

pub fn verdict(a: &MetricResult, b: &MetricResult) -> Verdict {
    let worse_by = worse_by(a, b);
    let overlap = a.summary.q1 <= b.summary.q3 && b.summary.q1 <= a.summary.q3;
    if !worse_by.is_finite() {
        Verdict::Unresolved
    } else if worse_by.abs() > a.bound {
        match (overlap, worse_by > 0.0) {
            (true, _) => Verdict::Unresolved,
            (false, true) => Verdict::Worse,
            (false, false) => Verdict::Better,
        }
    } else if a.summary.spread().max(b.summary.spread()) > a.bound {
        Verdict::Unresolved
    } else {
        Verdict::Within
    }
}

/// The comparison table and whether any metric came out `worse`. Quick
/// results, and results of different workload sets, are refused.
pub fn compare(a: &Report, b: &Report) -> Result<(String, bool), String> {
    if a.quick || b.quick {
        return Err("a --quick result is for the harness's own tests and is not comparable".into());
    }
    let names = |r: &Report| r.workloads.iter().map(|w| w.name.clone()).collect::<Vec<_>>();
    if names(a) != names(b) {
        return Err(format!("workloads differ: {:?} vs {:?}", names(a), names(b)));
    }
    let mut out = String::new();
    let mut any_worse = false;
    let _ = writeln!(
        out,
        "{:<15} {:<17} {:>12} {:>12} {:>8} {:>6}  verdict",
        "workload", "metric", "a", "b", "change", "bound"
    );
    for (wa, wb) in a.workloads.iter().zip(&b.workloads) {
        for ma in &wa.end_to_end {
            let mb = wb
                .end_to_end
                .iter()
                .find(|m| m.name == ma.name)
                .ok_or(format!("{}: {} is missing from b", wa.name, ma.name))?;
            let v = verdict(ma, mb);
            any_worse |= v == Verdict::Worse;
            let _ = writeln!(
                out,
                "{:<15} {:<17} {:>12.4} {:>12.4} {:>+7.2}% {:>5.0}%  {}",
                wa.name,
                ma.name,
                ma.value(),
                mb.value(),
                100.0 * (mb.value() - ma.value()) / ma.value().abs(),
                100.0 * ma.bound,
                v.as_str()
            );
        }
        // failed_share has bound 0: any rise is a regression.
        if wa.failed != 0 || wb.failed != 0 {
            let worse = wb.failed_share() > wa.failed_share();
            any_worse |= worse;
            let _ = writeln!(
                out,
                "{:<15} {:<17} {:>12.4} {:>12.4} {:>8} {:>5.0}%  {}",
                wa.name,
                "failed_share",
                wa.failed_share(),
                wb.failed_share(),
                "",
                0.0,
                if worse { "worse" } else { "within" }
            );
        }
        if a.seed == b.seed {
            let same = wa.csv_digests == wb.csv_digests;
            let _ = writeln!(
                out,
                "{:<15} csv digests {}",
                wa.name,
                if same {
                    "identical: same simulated runs"
                } else {
                    "DIFFER: the simulation changed"
                }
            );
        }
    }
    Ok((out, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::tests::{metric, report};
    use crate::report::WorkloadResult;
    use crate::stats::Summary;

    fn lower(values: &[f64]) -> MetricResult {
        metric("cpu_ms_per_round", Better::Lower, 0.10, values)
    }

    fn higher(values: &[f64]) -> MetricResult {
        metric("rounds_per_s", Better::Higher, 0.10, values)
    }

    #[test]
    fn verdicts_follow_direction_bound_and_quartiles() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let shifted = |f: f64| base.map(|v| v * f);
        // Tight runs, small move: within, whichever way the metric improves.
        assert_eq!(verdict(&lower(&base), &lower(&shifted(1.05))), Verdict::Within);
        assert_eq!(verdict(&higher(&base), &higher(&shifted(0.95))), Verdict::Within);
        // Tight runs, large move: the direction decides.
        assert_eq!(verdict(&lower(&base), &lower(&shifted(1.2))), Verdict::Worse);
        assert_eq!(verdict(&lower(&base), &lower(&shifted(0.8))), Verdict::Better);
        assert_eq!(verdict(&higher(&base), &higher(&shifted(1.2))), Verdict::Better);
        assert_eq!(verdict(&higher(&base), &higher(&shifted(0.8))), Verdict::Worse);
        // Medians 15% apart but quartile ranges overlap: the runs cannot tell.
        let noisy_a = [80.0, 100.0, 120.0, 90.0, 110.0];
        let noisy_b = [95.0, 115.0, 135.0, 105.0, 125.0];
        assert_eq!(verdict(&lower(&noisy_a), &lower(&noisy_b)), Verdict::Unresolved);
        assert_eq!(verdict(&lower(&noisy_b), &lower(&noisy_a)), Verdict::Unresolved);
        // Same median, spread beyond the bound: not "within" either.
        assert_eq!(verdict(&lower(&noisy_a), &lower(&noisy_a)), Verdict::Unresolved);
    }

    #[test]
    fn exact_metrics_are_judged_by_the_bound_alone() {
        let exact = |v: f64| MetricResult { summary: Summary::exact(v, 4), ..lower(&[v]) };
        assert_eq!(verdict(&exact(9.0), &exact(9.0)), Verdict::Within);
        assert_eq!(verdict(&exact(9.0), &exact(9.5)), Verdict::Within);
        assert_eq!(verdict(&exact(9.0), &exact(10.0)), Verdict::Worse);
        assert_eq!(verdict(&exact(9.0), &exact(8.0)), Verdict::Better);
        assert_eq!(verdict(&exact(0.0), &exact(1.0)), Verdict::Unresolved);
    }

    fn one(name: &str, m: MetricResult, digest: &str) -> WorkloadResult {
        WorkloadResult {
            name: name.into(),
            attempted: 5,
            end_to_end: vec![m],
            csv_digests: [(7, digest.to_string())].into(),
            ..WorkloadResult::default()
        }
    }

    #[test]
    fn compare_flags_worse_and_reports_digests() {
        let base = [100.0, 101.0, 99.0];
        let a = report(false, vec![one("dense_train", lower(&base), "aa")]);
        let (table, worse) = compare(&a, &a).unwrap();
        assert!(!worse);
        assert!(table.contains("within") && table.contains("identical"));

        let slow = report(false, vec![one("dense_train", lower(&base.map(|v| v * 1.3)), "bb")]);
        let (table, worse) = compare(&a, &slow).unwrap();
        assert!(worse);
        assert!(table.contains("+30.00%") && table.contains("worse") && table.contains("DIFFER"));
        let (table, worse) = compare(&slow, &a).unwrap();
        assert!(!worse && table.contains("better"));

        // Same speed, but one of b's runs failed a check.
        let mut flaky = a.clone();
        flaky.workloads[0].failed = 1;
        let (table, worse) = compare(&a, &flaky).unwrap();
        assert!(worse && table.contains("failed_share"));
        assert!(!compare(&flaky, &a).unwrap().1);
    }

    #[test]
    fn compare_refuses_quick_and_mismatched_results() {
        let a = report(false, vec![one("dense_train", lower(&[1.0]), "aa")]);
        let quick = report(true, a.workloads.clone());
        assert!(compare(&a, &quick).unwrap_err().contains("quick"));
        assert!(compare(&quick, &a).is_err());
        let other = report(false, vec![one("dense_comm", lower(&[1.0]), "aa")]);
        assert!(compare(&a, &other).unwrap_err().contains("workloads differ"));
        let renamed = report(false, vec![one("dense_train", higher(&[1.0]), "aa")]);
        assert!(compare(&a, &renamed).unwrap_err().contains("missing"));
    }
}
