//! Runs one child process to completion and reports its wall time, CPU
//! time and peak resident set, via `wait4(2)`.
//!
//! `wait4` is declared by hand because no `libc` crate is vendored. The
//! struct layouts are the LP64 Linux ones (the only platform the repo's CI
//! and container use); the build fails elsewhere instead of reading garbage.

use std::fs::File;
use std::io;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("fedbench reads child rusage through the LP64 Linux wait4 ABI");

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage`: two timevals, then 14 longs of which only the first
/// (`ru_maxrss`, kilobytes) is read.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// What one finished child cost.
#[derive(Clone, Copy, Debug)]
pub struct ChildRun {
    /// Spawn to exit, seconds.
    pub wall_s: f64,
    /// User plus system CPU seconds, all threads.
    pub cpu_s: f64,
    /// Peak resident set, megabytes (10^6 bytes).
    pub peak_rss_mb: f64,
    /// Exit code; `None` when a signal killed the child.
    pub exit_code: Option<i32>,
}

impl ChildRun {
    pub fn succeeded(&self) -> bool {
        self.exit_code == Some(0)
    }
}

/// Spawns `bin args…` with stdout discarded and stderr written to
/// `stderr_to`, and blocks until it has exited. A child that panics or is
/// killed is a result (`exit_code` 101 / `None`), not an error; only failing
/// to spawn or reap is.
pub fn run(bin: &Path, args: &[String], stderr_to: &Path) -> io::Result<ChildRun> {
    let stderr = File::create(stderr_to)?;
    let start = Instant::now();
    let child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(stderr)
        .spawn()?;
    let pid = i32::try_from(child.id()).expect("pids fit in pid_t");
    let mut status = 0i32;
    let mut usage = Rusage {
        ru_utime: Timeval { tv_sec: 0, tv_usec: 0 },
        ru_stime: Timeval { tv_sec: 0, tv_usec: 0 },
        ru_maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are live, writable and laid out as
        // the kernel's `int` and `struct rusage`; `pid` is our own unreaped
        // child, so the call cannot reap anything else.
        let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if reaped == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    // `child` was reaped above; std must not wait on (or signal) the pid again.
    drop(child);
    let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 / 1e6;
    Ok(ChildRun {
        wall_s,
        cpu_s: secs(&usage.ru_utime) + secs(&usage.ru_stime),
        peak_rss_mb: usage.ru_maxrss as f64 * 1024.0 / 1e6,
        // WIFEXITED / WEXITSTATUS.
        exit_code: (status & 0x7f == 0).then_some((status >> 8) & 0xff),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sh(script: &str) -> ChildRun {
        let err = std::env::temp_dir().join(format!("fedbench-child-{}.err", std::process::id()));
        let run = run(Path::new("/bin/sh"), &["-c".into(), script.into()], &err).unwrap();
        let _ = std::fs::remove_file(err);
        run
    }

    #[test]
    fn reports_exit_codes_signals_and_rusage() {
        let ok = sh("exit 0");
        assert!(ok.succeeded());
        assert!(ok.wall_s > 0.0 && ok.peak_rss_mb > 0.1, "{ok:?}");
        assert_eq!(sh("exit 101").exit_code, Some(101));
        let killed = sh("kill -9 $$");
        assert_eq!(killed.exit_code, None);
        assert!(!killed.succeeded());
        // A busy loop shows up as CPU time.
        let busy = sh("i=0; while [ $i -lt 200000 ]; do i=$((i+1)); done");
        assert!(busy.cpu_s > 0.0 && busy.cpu_s <= busy.wall_s * 4.0, "{busy:?}");
    }

    #[test]
    fn missing_binary_is_an_error() {
        let err = std::env::temp_dir().join("fedbench-child-missing.err");
        assert!(run(Path::new("/nonexistent/fedmigr"), &[], &err).is_err());
        let _ = std::fs::remove_file(err);
    }
}
