//! End-to-end tests of the `fedmigr` front door: the built binary, driven
//! the way a user or a CI script drives it.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Every flag of `fedmigr run`.
const RUN_FLAGS: [&str; 41] = [
    "--scheme",
    "--partition",
    "--classes",
    "--samples",
    "--lans",
    "--epochs",
    "--agg",
    "--lr",
    "--batch",
    "--eval",
    "--participation",
    "--codec",
    "--dp-eps",
    "--target",
    "--dropout",
    "--net-stress",
    "--transport",
    "--attack",
    "--checkpoint-every",
    "--checkpoint-dir",
    "--resume",
    "--kill-at",
    "--watchdog",
    "--spike-factor",
    "--max-rollbacks",
    "--fault-seed",
    "--fleet",
    "--fleet-clients",
    "--fleet-lans",
    "--sample-frac",
    "--top-m",
    "--seed",
    "--csv",
    "--diag",
    "--flight-out",
    "--timeline-out",
    "--log-level",
    "--trace-out",
    "--metrics-out",
    "--profile-out",
    "--profile-alloc",
];

const SUBCOMMANDS: [&str; 7] = ["run", "bench", "perf", "report", "diff", "netview", "validate"];

/// A tiny federation: two epochs over a handful of samples per class.
const TINY: [&str; 8] = ["--epochs", "2", "--samples", "6", "--eval", "1", "--agg", "1"];

fn fedmigr(args: &[&str]) -> Output {
    fedmigr_env(args, &[])
}

fn fedmigr_env(args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_fedmigr"));
    cmd.args(args).env_remove("FEDMIGR_LOG");
    for (key, value) in env {
        cmd.env(key, value);
    }
    cmd.output().expect("the fedmigr binary runs")
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("exited, not signalled")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A fresh scratch directory for one test.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fedmigr-cli-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

/// The per-epoch CSV of a tiny run with `flags`.
fn tiny_csv(dir: &std::path::Path, name: &str, flags: &[&str]) -> Vec<u8> {
    let csv = dir.join(name);
    let mut args = TINY.to_vec();
    args.extend_from_slice(flags);
    args.extend(["--csv", csv.to_str().unwrap()]);
    let out = fedmigr(&args);
    assert_eq!(code(&out), 0, "{flags:?}: {}", stderr(&out));
    std::fs::read(csv).expect("the run wrote its CSV")
}

#[test]
fn help_lists_every_flag_and_every_subcommand() {
    for args in [&["--help"][..], &["run", "--help"]] {
        let out = fedmigr(args);
        assert_eq!(code(&out), 0);
        let help = String::from_utf8(out.stdout).unwrap();
        for flag in RUN_FLAGS {
            assert!(help.contains(&format!("    {flag} ")), "{args:?}: {flag} missing");
        }
        if args.len() == 1 {
            for sub in SUBCOMMANDS {
                assert!(help.contains(&format!("    {sub} ")), "subcommand {sub} missing");
            }
        }
    }
    for sub in &SUBCOMMANDS[1..] {
        let out = fedmigr(&[sub, "--help"]);
        assert_eq!(code(&out), 0, "{sub} --help");
        assert!(String::from_utf8(out.stdout).unwrap().contains(&format!("fedmigr {sub}")));
    }
}

#[test]
fn unknown_missing_and_bad_values_exit_2() {
    for (args, says) in [
        (&["--epochs", "2", "--no-such-flag"][..], "unknown flag \"--no-such-flag\""),
        (&["--epochs"], "flag --epochs needs a value"),
        (&["--epochs", "many"], "bad value \"many\" for --epochs"),
        (&["--scheme", "fedbest"], "unknown scheme \"fedbest\""),
        (&["--dropout", "1.5"], "--dropout must be in [0, 1)"),
        (&["--partition", "zipf"], "unknown partition \"zipf\""),
        (&["--partition", "dominant:most"], "bad numeric suffix in \"dominant:most\""),
        (&["--epochs", "2", "--batch", "0"], "batch_size must be at least 1"),
        (&["--epochs", "2", "--samples", "0"], "--samples must be at least 1"),
        (&["--epochs", "2", "--lans", "0"], "--lans needs a client"),
        (&["--epochs", "2", "--classes", "0"], "one sample per client"),
        (&["--epochs", "2", "--samples", "1", "--lans", "20"], "one sample per client"),
        (&["--epochs", "2", "--samples", "2", "--partition", "missing:0.5"], "leaves client"),
        (&["--epochs", "2", "--lans", "1", "--partition", "missing:0.5"], "two clients"),
        (&["--partition", "missing:1.5"], "\"missing:1.5\" is out of range"),
        (&["--partition", "dominant:1.5"], "\"dominant:1.5\" is out of range"),
        (&["--partition", "dirichlet:0"], "\"dirichlet:0\" is out of range"),
        (&["run", "extra"], "unexpected argument \"extra\""),
        (&["bench"], "no experiment given"),
        (&["bench", "fig99_nothing"], "unknown experiment \"fig99_nothing\""),
        (&["netview"], "no timeline given"),
        (&["validate", "t.jsonl", "--mode", "sparse"], "bad value \"sparse\" for --mode"),
    ] {
        let out = fedmigr(args);
        assert_eq!(code(&out), 2, "{args:?}");
        assert!(stderr(&out).contains(says), "{args:?}: {}", stderr(&out));
    }
}

#[test]
fn fleet_rules_are_usage_errors_naming_the_rule() {
    for (flags, rule) in [
        (&["--codec", "int8"][..], "fleet mode requires the identity codec"),
        (&["--transport", "flow"], "fleet mode requires the lockstep transport"),
        (&["--dropout", "0.1"], "fleet mode does not support fault injection"),
        (&["--attack", "signflip:0.2"], "fleet mode does not support Byzantine attacks"),
        (&["--watchdog"], "fleet mode does not support the divergence watchdog"),
        (&["--participation", "0.5"], "leave participation at 1.0"),
        (&["--scheme", "fedswap"], "fleet mode supports FedAvg, FedProx and FedMigr"),
        (&["--checkpoint-every", "3", "--agg", "2"], "a multiple of agg_interval"),
        (&["--sample-frac", "0"], "fleet sample_frac must be in (0, 1]"),
        (&["--top-m", "0"], "fleet top_m must be positive"),
        (&["--fleet-clients", "0"], "one client per LAN"),
        (&["--fleet-lans", "0"], "at least one LAN"),
        (&["--fleet-lans", "30"], "one client per LAN"),
        (&["--samples", "0"], "--samples must be at least 1"),
        (&["--batch", "0"], "batch_size must be at least 1"),
    ] {
        let mut args = vec!["--fleet", "--fleet-clients", "20"];
        args.extend_from_slice(flags);
        let out = fedmigr(&args);
        assert_eq!(code(&out), 2, "--fleet {flags:?}: {}", stderr(&out));
        assert!(stderr(&out).contains(rule), "--fleet {flags:?}: {}", stderr(&out));
    }
}

#[test]
fn flag_order_does_not_change_the_run() {
    let dir = scratch("order");
    let attack = ["--attack", "signflip:0.2", "--fault-seed", "5"];
    let a = tiny_csv(&dir, "a.csv", &attack);
    let b = tiny_csv(&dir, "b.csv", &["--fault-seed", "5", "--attack", "signflip:0.2"]);
    assert_eq!(a, b, "--attack reads --fault-seed wherever it comes");
    let seeded = ["--seed", "9", "--scheme", "fedmigr", "--transport", "flow"];
    let c = tiny_csv(&dir, "c.csv", &seeded);
    let d = tiny_csv(&dir, "d.csv", &["--transport", "flow", "--scheme", "fedmigr", "--seed", "9"]);
    assert_eq!(c, d, "--scheme fedmigr and --transport flow read --seed wherever it comes");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn diag_changes_no_run_state() {
    // `--diag` observes a run: the snapshot the run leaves is the same bytes
    // with it and without it, for a scheme that migrates and one that swaps.
    let dir = scratch("diag-state");
    for scheme in ["randmigr", "fedswap"] {
        let latest = |diag: &[&str]| {
            let ckpt = dir.join(format!("{scheme}{}", diag.len()));
            let mut args = vec!["--scheme", scheme, "--epochs", "4", "--samples", "6", "--agg"];
            args.extend(["2", "--checkpoint-dir", ckpt.to_str().unwrap()]);
            args.extend_from_slice(diag);
            let out = fedmigr(&args);
            assert_eq!(code(&out), 0, "{scheme} {diag:?}: {}", stderr(&out));
            std::fs::read(ckpt.join("latest.fmrs")).expect("the run left a checkpoint")
        };
        assert!(latest(&[]) == latest(&["--diag"]), "{scheme}: --diag moved the run state");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn attack_runs_report_their_defenses() {
    let out = fedmigr(&["--epochs", "3", "--samples", "6", "--eval", "1", "--attack", "nan:0.3"]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.lines().any(|l| l.starts_with("defenses: ")), "{stdout}");
}

#[test]
fn diff_exits_1_on_a_regression_and_2_on_a_usage_error() {
    let dir = scratch("diff");
    let report = |median_ns: u64| {
        format!(
            "{{\"version\": 1, \"quick\": true, \"benchmarks\": [{{\"name\": \"kernel\", \
             \"median_ns\": {median_ns}, \"min_ns\": {median_ns}, \"repeats\": 3}}]}}\n"
        )
    };
    let (base, slow) = (dir.join("base.json"), dir.join("slow.json"));
    std::fs::write(&base, report(1_000_000)).unwrap();
    std::fs::write(&slow, report(10_000_000)).unwrap();
    let (base, slow) = (base.to_str().unwrap(), slow.to_str().unwrap());
    assert_eq!(code(&fedmigr(&["diff", base, base])), 0);
    assert_eq!(code(&fedmigr(&["diff", base, slow])), 1);
    assert_eq!(code(&fedmigr(&["diff", base])), 2);
    assert_eq!(code(&fedmigr(&["diff", base, slow, slow])), 2);
    assert_eq!(code(&fedmigr(&["diff", "--strict", base, slow])), 2);
    assert_eq!(code(&fedmigr(&["diff", base, "/nonexistent/current.json"])), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_malformed_fedmigr_log_is_reported_once_and_never_fatal() {
    let dir = scratch("env");
    let csv = dir.join("run.csv");
    let mut args = TINY.to_vec();
    args.extend(["--csv", csv.to_str().unwrap()]);
    for extra in [&[][..], &["--log-level", "warn"]] {
        let mut args = args.clone();
        args.extend_from_slice(extra);
        let out = fedmigr_env(&args, &[("FEDMIGR_LOG", "loudest")]);
        assert_eq!(code(&out), 0, "{extra:?}: {}", stderr(&out));
        assert_eq!(stderr(&out).matches("FEDMIGR_LOG").count(), 1, "{extra:?}: {}", stderr(&out));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn log_level_precedence_is_flag_env_default() {
    // The run's progress line is an `info` record on the `cli` target.
    let progress = |args: &[&str], env: &[(&str, &str)]| {
        let mut all = TINY.to_vec();
        all.extend_from_slice(args);
        let out = fedmigr_env(&all, env);
        assert_eq!(code(&out), 0, "{args:?} {env:?}: {}", stderr(&out));
        stderr(&out).contains("running FedMigr on")
    };
    assert!(progress(&[], &[]), "the default filter is info");
    assert!(!progress(&[], &[("FEDMIGR_LOG", "warn")]), "FEDMIGR_LOG replaces the default");
    assert!(progress(&["--log-level", "info"], &[("FEDMIGR_LOG", "warn")]), "the flag wins");
    assert!(!progress(&["--log-level", "cli=off"], &[]), "per-target overrides apply");
}

#[test]
fn a_shared_flag_that_cannot_do_its_job_exits_2() {
    let dir = scratch("obs");
    let csv = dir.join("run.csv");
    let unwritable = "/nonexistent-dir/fedmigr/out";
    let mut args = TINY.to_vec();
    args.extend(["--csv", csv.to_str().unwrap(), "--metrics-out", unwritable]);
    let out = fedmigr(&args);
    assert_eq!(code(&out), 2, "{}", stderr(&out));
    assert!(stderr(&out).contains("failed to write --metrics-out"), "{}", stderr(&out));
    assert!(csv.exists(), "the results are written before the failure is reported");
    for args in [
        &["--epochs", "2", "--trace-out", unwritable][..],
        &["bench", "table1_motivation", "--trace-out", unwritable],
        &["--log-level", "loudest"],
        &["bench", "table1_motivation", "--log-level", "loudest"],
    ] {
        let out = fedmigr(args);
        assert_eq!(code(&out), 2, "{args:?}: {}", stderr(&out));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_checkpoint_that_cannot_be_resumed_exits_2_before_any_world_is_built() {
    let dir = scratch("resume");
    let ckpt = dir.join("run");
    let mut args = TINY.to_vec();
    args.extend(["--checkpoint-dir", ckpt.to_str().unwrap()]);
    assert_eq!(code(&fedmigr(&args)), 0);
    let good = std::fs::read(ckpt.join("latest.fmrs")).expect("the run wrote latest.fmrs");
    let truncated = dir.join("truncated.fmrs");
    std::fs::write(&truncated, &good[..good.len() / 2]).unwrap();
    let flipped = dir.join("flipped.fmrs");
    let mut bytes = good.clone();
    bytes[good.len() / 2] ^= 0x10;
    std::fs::write(&flipped, bytes).unwrap();
    let (missing, latest) = (dir.join("missing/latest.fmrs"), ckpt.join("latest.fmrs"));
    for (path, seed, why) in [
        (&missing, "7", "No such file"),
        (&truncated, "7", "checksum mismatch"),
        (&flipped, "7", "checksum mismatch"),
        (&latest, "8", "run checkpoint seed mismatch"),
    ] {
        let path = path.to_str().unwrap();
        let mut args = TINY.to_vec();
        args.extend(["--seed", seed, "--resume", path]);
        let out = fedmigr(&args);
        let err = stderr(&out);
        assert_eq!(code(&out), 2, "{path}: {err}");
        assert!(err.starts_with(&format!("error: cannot resume from {path}: ")), "{path}: {err}");
        assert!(err.contains(why), "{path}: {err}");
        assert!(!err.contains("running") && out.stdout.is_empty(), "{path}: a run started");
    }
    // The checkpoint itself resumes.
    let mut args = TINY.to_vec();
    args.extend(["--resume", latest.to_str().unwrap()]);
    assert_eq!(code(&fedmigr(&args)), 0);
    let _ = std::fs::remove_dir_all(&dir);
}
