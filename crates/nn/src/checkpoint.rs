//! Model checkpointing: save/load parameter snapshots to disk.
//!
//! The file is a [`Container`] — `FEDMIGR2` magic, format version, payload,
//! trailing CRC-32 — whose payload is the model's name followed by the
//! model itself (`Model: Wire`, its parameter vector). Loading verifies the
//! checksum, the name and the parameter count before the first parameter
//! is overwritten, so a corrupt or mismatched checkpoint cannot be silently
//! loaded into the wrong architecture. (`FEDMIGR1` was the same content in
//! a hand-rolled frame: `u32` name length, no version field.)

use std::fs;
use std::io;
use std::path::Path;

use fedmigr_telemetry::wire::{bad, Container, Wire};

use crate::Model;

const MODEL_FILE: Container =
    Container { magic: b"FEDMIGR2", version: 1, what: "model checkpoint" };

/// Serializes a model snapshot to bytes.
pub fn to_bytes(model: &mut Model) -> Vec<u8> {
    MODEL_FILE.seal(|c| {
        model.name().to_string().wire(c)?;
        model.wire(c)
    })
}

/// Restores a snapshot produced by [`to_bytes`] into `model`.
///
/// Returns an error if the frame is malformed, the model name differs, or
/// the parameter count does not match the target architecture.
pub fn from_bytes(model: &mut Model, bytes: &[u8]) -> io::Result<()> {
    MODEL_FILE.open(bytes, |c| {
        let mut name = String::new();
        name.wire(c)?;
        if name != model.name() {
            return Err(bad(&format!("checkpoint is for model {name:?}, not {:?}", model.name())));
        }
        model.wire(c)
    })
}

/// Saves a model snapshot to `path`.
pub fn save(model: &mut Model, path: impl AsRef<Path>) -> io::Result<()> {
    fs::write(path, to_bytes(model))
}

/// Loads a snapshot from `path` into `model`.
pub fn load(model: &mut Model, path: impl AsRef<Path>) -> io::Result<()> {
    from_bytes(model, &fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::{self, NetScale};

    #[test]
    fn round_trips_through_bytes() {
        let mut a = zoo::c10_cnn(1, 8, NetScale::Small, 3);
        let snapshot = to_bytes(&mut a);
        let mut b = zoo::c10_cnn(1, 8, NetScale::Small, 99);
        assert_ne!(a.params(), b.params());
        from_bytes(&mut b, &snapshot).unwrap();
        assert_eq!(a.params(), b.params());
    }

    #[test]
    fn round_trips_through_a_file() {
        let dir = std::env::temp_dir().join("fedmigr-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.fmck");
        let mut a = zoo::mlp(6, &[4], 3, 1);
        save(&mut a, &path).unwrap();
        let mut b = zoo::mlp(6, &[4], 3, 2);
        load(&mut b, &path).unwrap();
        assert_eq!(a.params(), b.params());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn rejects_wrong_architecture() {
        let mut a = zoo::mlp(6, &[4], 3, 1);
        let snapshot = to_bytes(&mut a);
        let mut other_name = zoo::c10_cnn(1, 8, NetScale::Small, 1);
        assert!(from_bytes(&mut other_name, &snapshot).is_err());
        let mut other_size = zoo::mlp(6, &[8], 3, 1);
        // Same name "MLP" but different parameter count.
        assert!(from_bytes(&mut other_size, &snapshot).is_err());
    }

    #[test]
    fn rejects_garbage() {
        let mut m = zoo::mlp(2, &[], 2, 0);
        assert!(from_bytes(&mut m, b"nonsense").is_err());
        assert!(from_bytes(&mut m, b"FEDMIGR2\xff\xff\xff\xff").is_err());
    }
}
