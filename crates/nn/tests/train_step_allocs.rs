//! A ceiling on the heap allocations one batch-32 C10-CNN training step
//! makes: every activation, cache and gradient buffer of the step is a
//! fresh allocation, so a new one shows up here before it shows up in a
//! profile.
//!
//! The counting allocator counts per thread, so the test harness's own
//! threads cannot move the number.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fedmigr_nn::zoo::{self, NetScale};
use fedmigr_nn::Sgd;
use fedmigr_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Allocation requests (alloc, zeroed alloc, realloc) the step may make:
/// the measured count. Lower it when a change removes some.
const CEILING: u64 = 63;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts the calling thread's allocation requests and forwards every call
/// to the system allocator.
struct CountingAlloc;

fn count() {
    // `try_with`: a thread being torn down has no counter left to bump.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialized
// thread-local `Cell` without a destructor, so bumping it never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn a_batch_32_train_step_stays_under_its_allocation_ceiling() {
    let mut model = zoo::c10_cnn(3, 8, NetScale::Small, 7);
    let mut rng = StdRng::seed_from_u64(7);
    let x = Tensor::randn(&[32, 3, 8, 8], 1.0, &mut rng);
    let labels: Vec<usize> = (0..32).map(|i| i % 10).collect();
    let mut opt = Sgd::new(0.01);
    // A warm-up step, so any buffer a layer keeps across steps is counted
    // once at most.
    model.train_step(&x, &labels, &mut opt);
    let before = ALLOCS.with(Cell::get);
    let loss = model.train_step(&x, &labels, &mut opt);
    let allocs = ALLOCS.with(Cell::get) - before;
    assert!(loss.is_finite());
    println!("batch-32 C10-CNN train_step allocations: {allocs}");
    assert!(allocs <= CEILING, "a batch-32 train_step made {allocs} allocations, over {CEILING}");
}
