//! Wire compression for federated model transfers.
//!
//! Half of FedMigr's claim is *communication* savings, yet an uncompressed
//! parameter vector costs 4 bytes per weight on every hop. Real edge-FL
//! deployments compress what goes on the wire; this crate provides the
//! pluggable codec layer the simulator charges transfers through:
//!
//! * [`WireCodec`] / [`Codec`] — deterministic, seeded encoders producing a
//!   [`CompressedBlob`] with *exact* byte accounting, and the matching
//!   decoders: identity, uniform int8/int4 quantization with per-chunk
//!   scale/zero-point, stochastic-rounding quantization, top-k magnitude
//!   sparsification, and composed sparsify-then-quantize.
//! * [`ErrorFeedback`] — per-stream residual state: lossy codecs accumulate
//!   the quantization error of each transmission and re-inject it into the
//!   next one, the standard trick (1-bit SGD, EF-SGD) that keeps compressed
//!   training unbiased over time.
//! * [`Compressor`] — the run-level orchestrator the experiment runner
//!   drives: one residual lane per client for egress transfers (uploads and
//!   C2C migrations), per-receiver unicast lanes plus a shared broadcast
//!   lane for server egress (error compensation on *both* directions, the
//!   DoubleSqueeze scheme), and cumulative [`CompressionStats`].
//! * [`CodecConfig`] — the serializable knob `RunConfig::codec` exposes.
//!
//! Every codec's encoded size is a pure function of the input length, never
//! of the values, so byte accounting (budgets, transfer times, DRL reward
//! costs) stays deterministic; the *stochastic* codec consumes no shared RNG
//! stream — its rounding noise is seeded per transmission from the run seed
//! and a transmission counter, exactly like the attack model's hash-based
//! corruption. The identity codec reproduces the uncompressed wire format
//! bit-for-bit (`8 + 4n` bytes), so a run configured with it is
//! byte-identical to one that never heard of this crate.

mod codec;
mod compressor;
mod feedback;
mod sparse;
mod stats;

pub use codec::{Codec, CompressedBlob, WireCodec, CHUNK};
pub use compressor::Compressor;
pub use feedback::ErrorFeedback;
pub use stats::CompressionStats;

/// Selects the wire codec (and error-feedback policy) of a run.
#[derive(Clone, Debug, Default, PartialEq)]
pub enum CodecConfig {
    /// Uncompressed `u64 length || f32 LE` — byte-identical to the
    /// pre-compression wire format.
    #[default]
    Identity,
    /// Uniform affine quantization to `bits` (4 or 8) with per-chunk
    /// min/scale, deterministic round-to-nearest.
    Uniform {
        /// Code width in bits (4 or 8).
        bits: u8,
        /// Maintain per-client error-feedback residuals.
        error_feedback: bool,
    },
    /// Uniform affine quantization with *stochastic* rounding: unbiased in
    /// expectation, seeded per transmission.
    Stochastic {
        /// Code width in bits (4 or 8).
        bits: u8,
        /// Base seed of the rounding noise (mixed with the run seed and a
        /// transmission counter).
        seed: u64,
        /// Maintain per-client error-feedback residuals.
        error_feedback: bool,
    },
    /// Top-k magnitude sparsification: the `frac` largest-|v| coordinates
    /// travel as (index, value) pairs, the rest decode to zero.
    TopK {
        /// Fraction of coordinates kept, in (0, 1].
        frac: f64,
        /// Maintain per-client error-feedback residuals.
        error_feedback: bool,
    },
    /// Sparsify-then-quantize: top-k selection, then the surviving values
    /// are uniformly quantized to `bits`.
    TopKUniform {
        /// Fraction of coordinates kept, in (0, 1].
        frac: f64,
        /// Code width in bits (4 or 8).
        bits: u8,
        /// Maintain per-client error-feedback residuals.
        error_feedback: bool,
    },
}

impl CodecConfig {
    /// int8 uniform quantization with error feedback (the workhorse).
    pub fn int8() -> Self {
        CodecConfig::Uniform { bits: 8, error_feedback: true }
    }

    /// int4 uniform quantization with error feedback.
    pub fn int4() -> Self {
        CodecConfig::Uniform { bits: 4, error_feedback: true }
    }

    /// int8 stochastic-rounding quantization with error feedback.
    pub fn stochastic8(seed: u64) -> Self {
        CodecConfig::Stochastic { bits: 8, seed, error_feedback: true }
    }

    /// Top-`frac` magnitude sparsification with error feedback.
    pub fn topk(frac: f64) -> Self {
        CodecConfig::TopK { frac, error_feedback: true }
    }

    /// Top-`frac` sparsification composed with int8 quantization, with
    /// error feedback.
    pub fn topk_int8(frac: f64) -> Self {
        CodecConfig::TopKUniform { frac, bits: 8, error_feedback: true }
    }

    /// The same codec with error feedback disabled (ablation).
    pub fn without_feedback(mut self) -> Self {
        match &mut self {
            CodecConfig::Identity => {}
            CodecConfig::Uniform { error_feedback, .. }
            | CodecConfig::Stochastic { error_feedback, .. }
            | CodecConfig::TopK { error_feedback, .. }
            | CodecConfig::TopKUniform { error_feedback, .. } => *error_feedback = false,
        }
        self
    }

    /// Whether per-client error-feedback residuals are maintained.
    pub fn error_feedback(&self) -> bool {
        match self {
            CodecConfig::Identity => false,
            CodecConfig::Uniform { error_feedback, .. }
            | CodecConfig::Stochastic { error_feedback, .. }
            | CodecConfig::TopK { error_feedback, .. }
            | CodecConfig::TopKUniform { error_feedback, .. } => *error_feedback,
        }
    }

    /// Display name, e.g. `"int8+ef"`, `"top10%"`, `"identity"`.
    pub fn name(&self) -> String {
        let ef = |on: &bool| if *on { "+ef" } else { "" };
        match self {
            CodecConfig::Identity => "identity".into(),
            CodecConfig::Uniform { bits, error_feedback } => {
                format!("int{bits}{}", ef(error_feedback))
            }
            CodecConfig::Stochastic { bits, error_feedback, .. } => {
                format!("stoch{bits}{}", ef(error_feedback))
            }
            CodecConfig::TopK { frac, error_feedback } => {
                format!("top{:.0}%{}", 100.0 * frac, ef(error_feedback))
            }
            CodecConfig::TopKUniform { frac, bits, error_feedback } => {
                format!("top{:.0}%+int{bits}{}", 100.0 * frac, ef(error_feedback))
            }
        }
    }

    /// Parses a codec spec as accepted on command lines:
    /// `identity | int8 | int4 | stoch8 | topk:<frac> | topk-int8:<frac>`,
    /// each (except identity) optionally suffixed `,noef` to disable error
    /// feedback. Returns `None` on an unknown spec.
    pub fn parse(spec: &str) -> Option<Self> {
        let (base, noef) = match spec.strip_suffix(",noef") {
            Some(b) => (b, true),
            None => (spec, false),
        };
        let cfg = match base {
            "identity" | "none" => CodecConfig::Identity,
            "int8" => CodecConfig::int8(),
            "int4" => CodecConfig::int4(),
            "stoch8" => CodecConfig::stochastic8(0),
            _ => {
                let (kind, frac) = base.split_once(':')?;
                let frac: f64 = frac.parse().ok()?;
                if !(frac > 0.0 && frac <= 1.0) {
                    return None;
                }
                match kind {
                    "topk" => CodecConfig::topk(frac),
                    "topk-int8" => CodecConfig::topk_int8(frac),
                    _ => return None,
                }
            }
        };
        Some(if noef { cfg.without_feedback() } else { cfg })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_identity() {
        assert_eq!(CodecConfig::default(), CodecConfig::Identity);
        assert!(!CodecConfig::default().error_feedback());
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(CodecConfig::Identity.name(), "identity");
        assert_eq!(CodecConfig::int8().name(), "int8+ef");
        assert_eq!(CodecConfig::int4().without_feedback().name(), "int4");
        assert_eq!(CodecConfig::topk(0.1).name(), "top10%+ef");
        assert_eq!(CodecConfig::topk_int8(0.25).name(), "top25%+int8+ef");
        assert_eq!(CodecConfig::stochastic8(3).name(), "stoch8+ef");
    }

    #[test]
    fn parse_round_trips_the_cli_grammar() {
        assert_eq!(CodecConfig::parse("identity"), Some(CodecConfig::Identity));
        assert_eq!(CodecConfig::parse("int8"), Some(CodecConfig::int8()));
        assert_eq!(CodecConfig::parse("int4,noef"), Some(CodecConfig::int4().without_feedback()));
        assert_eq!(CodecConfig::parse("topk:0.1"), Some(CodecConfig::topk(0.1)));
        assert_eq!(CodecConfig::parse("topk-int8:0.2"), Some(CodecConfig::topk_int8(0.2)));
        assert_eq!(CodecConfig::parse("stoch8"), Some(CodecConfig::stochastic8(0)));
        assert_eq!(CodecConfig::parse("topk:1.5"), None);
        assert_eq!(CodecConfig::parse("gzip"), None);
    }
}
