//! Kernel accounting: FLOPs, bytes moved, and wall time per named numeric
//! kernel.
//!
//! Every hot kernel in `fedmigr-tensor` / `fedmigr-nn` opens a [`scope`]
//! guard declaring its arithmetic work (FLOPs) and memory traffic (bytes
//! read + written). The guard times the kernel body and folds the totals
//! into the calling thread's [`ledger`], under that thread's kernel switch;
//! a worker's totals join its caller's when `fedmigr_telemetry::fan_out`
//! joins it. Runners [`snapshot`] their own ledger around each phase span
//! and attribute the deltas to phases, which is what turns "naive matmul
//! dominates local_train" into a measured number.
//!
//! Determinism contract: accounting is observation-only. Counters never
//! influence kernel results, so seeded runs are byte-identical with
//! accounting on or off (asserted by `tests/telemetry_e2e.rs`).
//!
//! Cost contract: with the thread's kernel switch off, a kernel call costs
//! one thread-local load and a branch.
//!
//! Nesting: only the outermost live scope on a thread accrues wall time, so
//! summed kernel seconds never double-count a kernel that calls another
//! (e.g. an optimizer step that scales a tensor). FLOPs and bytes are
//! always credited to the kernel that declared them. A worker's [`worker`]
//! span is the busy time its kernel time is a share of.
//!
//! [`ledger`]: fedmigr_telemetry::ledger

pub use fedmigr_telemetry::ledger::{scope, snapshot, worker, KScope, Kernel, KernelSnapshot};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;
    use fedmigr_telemetry::fan_out;
    use fedmigr_telemetry::ledger::{with_switches, Switches};

    fn matmul_2x3x4() {
        drop(Tensor::ones(&[2, 3]).matmul(&Tensor::ones(&[3, 4])));
    }

    // The test thread's ledger is its own: every count below is this test's.
    #[test]
    fn scopes_accumulate_and_merge_across_threads() {
        // Off, the default, kernels and busy spans record nothing.
        matmul_2x3x4();
        drop((scope(Kernel::Im2col, 100, 200), worker()));
        assert_eq!(snapshot(), KernelSnapshot::default());

        let on = Switches { kcount: true, ..Switches::default() };
        let snap = with_switches(on, || {
            matmul_2x3x4();
            drop(scope(Kernel::Im2col, 100, 200));
            {
                let _outer = scope(Kernel::Optimizer, 10, 20);
                let _inner = scope(Kernel::Pool, 1, 2);
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            // Workers' scopes and busy spans join this thread's ledger when
            // fan_out joins them.
            let mut items = [0u8; 9];
            fan_out(&mut items, |_, part| {
                let _busy = worker();
                part.iter().map(|_| drop(scope(Kernel::Col2im, 7, 8))).collect::<Vec<()>>()
            });
            snapshot()
        });
        // A tensor kernel declares its work: 2·m·n·k FLOPs for a matmul.
        let mm = snap.get(Kernel::Matmul);
        assert_eq!((mm.calls, mm.flops), (1, 2 * 2 * 3 * 4));
        let im2col = snap.get(Kernel::Im2col);
        assert_eq!((im2col.calls, im2col.flops, im2col.bytes), (1, 100, 200));
        // A nested scope keeps its flops but cedes wall time to the outer one.
        let inner = snap.get(Kernel::Pool);
        assert_eq!((inner.calls, inner.flops, inner.nanos), (1, 1, 0));
        assert!(snap.get(Kernel::Optimizer).nanos > 0);
        let col2im = snap.get(Kernel::Col2im);
        assert_eq!((col2im.calls, col2im.flops, col2im.bytes), (9, 63, 72));
        // The workers' busy spans enclose their kernel scopes.
        assert!(snap.busy_nanos() >= col2im.nanos && snap.busy_nanos() > 0);

        // Deltas subtract field-wise.
        let later = with_switches(on, || {
            drop(scope(Kernel::Im2col, 50, 0));
            snapshot()
        });
        let d = later.delta(&snap);
        assert_eq!(d.get(Kernel::Im2col).flops, 50);
        assert_eq!(d.get(Kernel::Col2im).calls, 0);
    }
}
