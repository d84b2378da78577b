//! Property tests for checkpoint corruption handling: a snapshot with any
//! bit flipped or any suffix truncated must be rejected with
//! `io::ErrorKind::InvalidData` — never silently loaded into a model.

use std::io;

use fedmigr_nn::checkpoint::{from_bytes, to_bytes};
use fedmigr_nn::zoo;
use proptest::prelude::*;

fn snapshot() -> Vec<u8> {
    let mut model = zoo::mlp(5, &[6], 3, 42);
    to_bytes(&mut model)
}

proptest! {
    #[test]
    fn bit_flips_are_always_rejected(pos in 0usize..1000, bit in 0u8..8) {
        let clean = snapshot();
        let pos = pos % clean.len();
        let mut corrupt = clean.clone();
        corrupt[pos] ^= 1 << bit;
        let before = {
            let mut m = zoo::mlp(5, &[6], 3, 7);
            m.params()
        };
        let mut target = zoo::mlp(5, &[6], 3, 7);
        let err = from_bytes(&mut target, &corrupt)
            .expect_err("bit-flipped checkpoint must not load");
        prop_assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Rejection must leave the target model untouched.
        prop_assert_eq!(target.params(), before);
    }

    #[test]
    fn truncations_are_always_rejected(keep in 0usize..1000) {
        let clean = snapshot();
        let keep = keep % clean.len(); // Strictly shorter than the original.
        let mut target = zoo::mlp(5, &[6], 3, 7);
        let err = from_bytes(&mut target, &clean[..keep])
            .expect_err("truncated checkpoint must not load");
        prop_assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}

#[test]
fn clean_snapshot_still_loads() {
    let mut a = zoo::mlp(5, &[6], 3, 42);
    let mut b = zoo::mlp(5, &[6], 3, 7);
    from_bytes(&mut b, &snapshot()).unwrap();
    assert_eq!(a.params(), b.params());
}
