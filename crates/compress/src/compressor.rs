//! The run-level compression orchestrator.
//!
//! The experiment runner owns exactly one [`Compressor`] per run. Client
//! egress (uploads, C2C migrations) goes through [`Compressor::transmit`],
//! which applies that client's error-feedback residual; server egress goes
//! through [`Compressor::transmit_down`] (per-receiver unicast lanes) and
//! [`Compressor::broadcast`] (one shared lane — one encode fans out to all
//! receivers). Error compensation on *both* directions matters: the global
//! model is re-broadcast every round, and without a server-side residual
//! its quantization error is a fresh random step each time, which
//! random-walks training; compensated, consecutive broadcasts cancel each
//! other's error (the DoubleSqueeze scheme of Tang et al., 2019). All
//! paths share one transmission counter so stochastic rounding noise is
//! unique per transfer yet reproducible from the run seed — no shared RNG
//! stream is consumed.

use std::borrow::Cow;
use std::io;
use std::time::Instant;

use fedmigr_telemetry::metrics;
use fedmigr_telemetry::wire::{self, Wire};

use crate::codec::{Codec, Scratch, WireCodec};
use crate::feedback::{compensate, sq_error, update, ErrorFeedback, LANES_MISMATCH};
use crate::stats::CompressionStats;
use crate::CodecConfig;

/// Splitmix-style finalizer decorrelating (base seed, sequence) pairs.
fn mix(seed: u64, seq: u64) -> u64 {
    let mut z = seed ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stateful wire compressor for one run: a codec, per-lane error-feedback
/// residuals, a transmission counter, and cumulative stats.
#[derive(Clone, Debug)]
pub struct Compressor {
    codec: Codec,
    /// The codec's display name, the `codec` label of its series.
    name: String,
    feedback: Option<ErrorFeedback>,
    down_feedback: Option<ErrorFeedback>,
    base_seed: u64,
    seq: u64,
    stats: CompressionStats,
    /// Buffers of the serial transfers (batch workers bring their own).
    buffers: Buffers,
}

/// What one worker reuses from transfer to transfer: the compensated
/// intent and the codec's scratch.
#[derive(Clone, Debug, Default)]
struct Buffers {
    intent: Vec<f32>,
    scratch: Scratch,
}

/// One transfer's round trip on a lane holding `residual` (`None` without
/// error feedback): compensates `values`, round-trips the intent under
/// `seed`, and overwrites the residual with what the wire lost. Returns
/// the decoded vector and Σ(intent − decoded)² over the finite terms, in
/// index order — the residual's squared norm when there is one.
fn trip(
    codec: &Codec,
    seed: u64,
    values: &[f32],
    residual: Option<&mut Vec<f32>>,
    buffers: &mut Buffers,
) -> (Vec<f32>, f64) {
    let intent = match residual.as_deref() {
        Some(r) => compensate(values, r, &mut buffers.intent),
        None => values,
    };
    let decoded = codec.round_trip(intent, seed, &mut buffers.scratch);
    let sq = match residual {
        Some(r) => update(r, intent, &decoded),
        None => sq_error(intent, &decoded),
    };
    (decoded, sq)
}

impl Compressor {
    /// Builds the compressor for `config` with `lanes` client-egress
    /// residual lanes (the server egress gets `lanes` unicast lanes plus
    /// one broadcast lane); `base_seed` (typically the run seed) drives
    /// stochastic rounding.
    pub fn new(config: &CodecConfig, lanes: usize, base_seed: u64) -> Self {
        let with_ef = config.error_feedback() && !matches!(config, CodecConfig::Identity);
        Self {
            codec: Codec::from_config(config),
            name: config.name(),
            feedback: with_ef.then(|| ErrorFeedback::new(lanes)),
            down_feedback: with_ef.then(|| ErrorFeedback::new(lanes + 1)),
            base_seed,
            seq: 0,
            stats: CompressionStats::default(),
            buffers: Buffers::default(),
        }
    }

    /// Whether transfers are bit-exact pass-throughs.
    pub fn is_identity(&self) -> bool {
        self.codec.is_lossless()
    }

    /// Exact wire size of one encoded model of `n` parameters.
    pub fn encoded_size(&self, n: usize) -> u64 {
        self.codec.encoded_size(n)
    }

    /// Cumulative stats so far.
    pub fn stats(&self) -> CompressionStats {
        self.stats
    }

    /// Client-egress transfer on `lane`: compensates with the lane's
    /// error-feedback residual, encodes, updates the residual with what the
    /// wire lost, and returns what the receiver decodes. Call only for
    /// transfers that actually complete — a cancelled transfer must not
    /// consume the residual.
    pub fn transmit(&mut self, lane: usize, values: &[f32]) -> Vec<f32> {
        self.send(false, lane, values.into())
    }

    /// Server-egress transfer of one payload to one `receiver`, compensated
    /// with that receiver's dedicated downlink residual lane (the server
    /// sends many distinct per-receiver streams, so each gets its own
    /// residual).
    pub fn transmit_down(&mut self, receiver: usize, values: &[f32]) -> Vec<f32> {
        self.send(true, receiver, values.into())
    }

    /// Server-egress broadcast: one encode, every receiver decodes the same
    /// blob, so one shared residual lane is well-defined. Callers use it
    /// when one payload fans out, charging the meter per receiver while the
    /// codec encodes once.
    pub fn broadcast(&mut self, values: &[f32]) -> Vec<f32> {
        let lane = self.down_feedback.as_ref().map_or(0, |ef| ef.lanes() - 1);
        self.send(true, lane, values.into())
    }

    fn send(&mut self, down: bool, lane: usize, values: Cow<'_, [f32]>) -> Vec<f32> {
        // Real (host) encode+decode time per completed transfer; a pure
        // telemetry observation that never feeds back into the run.
        let start = Instant::now();
        let decoded = self.send_inner(down, lane, values);
        self.observe_seconds(start.elapsed().as_secs_f64());
        decoded
    }

    fn send_inner(&mut self, down: bool, lane: usize, values: Cow<'_, [f32]>) -> Vec<f32> {
        let seq = self.seq;
        self.seq += 1;
        if self.is_identity() {
            // A pass-through hands an owned vector back as it came.
            self.count(values.len(), values.len() as u64 * 4 + 8, 0.0);
            return values.into_owned();
        }
        let fb = if down { &mut self.down_feedback } else { &mut self.feedback };
        let residual = fb.as_mut().map(|ef| ef.lane_mut(lane));
        let with_ef = residual.is_some();
        let seed = mix(self.base_seed, seq);
        let (decoded, sq) = trip(&self.codec, seed, &values, residual, &mut self.buffers);
        self.settle(with_ef, values.len(), sq);
        decoded
    }

    /// The stats of one completed transfer of `n` values, in transfer
    /// order: the residual norm when the lane has error feedback, and the
    /// distortion `sq` — one sum, since the two are the same.
    fn settle(&mut self, with_ef: bool, n: usize, sq: f64) {
        if with_ef {
            self.stats.residual_norm_sum += sq.sqrt();
            self.stats.ef_transmits += 1;
        }
        self.count(n, self.codec.encoded_size(n), sq);
    }

    /// Batched client-egress transfers: byte-identical to calling
    /// [`Compressor::transmit`] on each `(lane, values)` item in order, but
    /// with the transfers computed in parallel. Items may lend their values
    /// (`&[f32]`) or hand them over (`Vec<f32>`, which the identity codec
    /// passes back without a copy).
    ///
    /// Parallelism is sound because the serial data flow factors cleanly:
    /// sequence numbers are assigned in item order up front, and each
    /// transfer — compensation, round trip, residual update and its f64
    /// sum — reads and writes only its own lane's residual. With error
    /// feedback that needs the batch's lanes to be **distinct** (a batch
    /// that repeats one runs serially); without it a transfer touches no
    /// lane state at all. Only the `+=` of each transfer's sums into the
    /// stats replays serially, in item order.
    pub fn transmit_batch<V>(&mut self, items: Vec<(usize, V)>) -> Vec<Vec<f32>>
    where
        V: AsRef<[f32]> + Into<Vec<f32>> + Sync,
    {
        if self.is_identity() {
            return self.transmit_each(items);
        }
        let lanes: Vec<usize> = items.iter().map(|&(lane, _)| lane).collect();
        let residuals: Vec<Option<&mut Vec<f32>>> = match self.feedback.as_mut() {
            None => lanes.iter().map(|_| None).collect(),
            Some(ef) => match ef.distinct_lanes_mut(&lanes) {
                Some(residuals) => residuals.into_iter().map(Some).collect(),
                None => return self.transmit_each(items),
            },
        };
        let start = Instant::now();
        let seq0 = self.seq;
        let (codec, base_seed) = (&self.codec, self.base_seed);
        let mut jobs: Vec<(&[f32], Option<&mut Vec<f32>>)> =
            items.iter().map(|(_, v)| v.as_ref()).zip(residuals).collect();
        let done = fedmigr_telemetry::fan_out(&mut jobs, |first, part| {
            let mut buffers = Buffers::default();
            let run = |(j, (values, residual)): (usize, &mut (&[f32], Option<&mut Vec<f32>>))| {
                let seed = mix(base_seed, seq0 + (first + j) as u64);
                trip(codec, seed, values, residual.as_deref_mut(), &mut buffers)
            };
            part.iter_mut().enumerate().map(run).collect()
        });
        drop(jobs);
        self.seq += items.len() as u64;
        let with_ef = self.feedback.is_some();
        let decoded: Vec<Vec<f32>> = done
            .into_iter()
            .map(|(decoded, sq)| {
                self.settle(with_ef, decoded.len(), sq);
                decoded
            })
            .collect();
        // One host-time observation per item (averaged) so the per-codec
        // timing histogram keeps comparable counts to the serial path.
        let per_item = start.elapsed().as_secs_f64() / items.len() as f64;
        for _ in 0..items.len() {
            self.observe_seconds(per_item);
        }
        decoded
    }

    /// [`Compressor::transmit`] of each item in turn, handing owned values
    /// to the codec as they are.
    fn transmit_each<V: Into<Vec<f32>>>(&mut self, items: Vec<(usize, V)>) -> Vec<Vec<f32>> {
        let send = |(lane, v): (usize, V)| self.send(false, lane, Cow::Owned(v.into()));
        items.into_iter().map(send).collect()
    }

    /// What `transmit(lane, values)` *would* deliver for every `(lane,
    /// values)` item, in parallel, without updating the residual, the
    /// counter, or the stats: each is what the *next* transmit on its lane
    /// would deliver, so lanes may repeat. Used for hypothetical transfers
    /// (e.g. evaluation-time shadow uploads) so measurement reflects codec
    /// distortion without perturbing run state.
    pub fn preview_batch<V>(&self, items: Vec<(usize, V)>) -> Vec<Vec<f32>>
    where
        V: AsRef<[f32]> + Into<Vec<f32>> + Sync,
    {
        if self.is_identity() {
            return items.into_iter().map(|(_, v)| v.into()).collect();
        }
        let seed = mix(self.base_seed, self.seq);
        let residual = |lane| self.feedback.as_ref().map(|ef| ef.lane(lane));
        let mut jobs: Vec<(&[f32], Option<&[f32]>)> =
            items.iter().map(|(lane, v)| (v.as_ref(), residual(*lane))).collect();
        fedmigr_telemetry::fan_out(&mut jobs, |_, part| {
            let mut buffers = Buffers::default();
            let run = |&mut (values, residual): &mut (&[f32], Option<&[f32]>)| {
                let intent = match residual {
                    Some(r) => compensate(values, r, &mut buffers.intent),
                    None => values,
                };
                self.codec.round_trip(intent, seed, &mut buffers.scratch)
            };
            part.iter_mut().map(run).collect()
        })
    }

    fn count(&mut self, n: usize, wire: u64, sq: f64) {
        self.stats.encodes += 1;
        self.stats.uncompressed_bytes += 8 + 4 * n as u64;
        self.stats.compressed_bytes += wire;
        self.stats.sum_sq_error += sq;
        self.stats.coords += n as u64;
        let codec = self.name.as_str();
        metrics::add(
            "fedmigr_codec_bytes_total",
            &[("codec", codec), ("dir", "in")],
            8 + 4 * n as u64,
        );
        metrics::add("fedmigr_codec_bytes_total", &[("codec", codec), ("dir", "out")], wire);
    }

    fn observe_seconds(&self, seconds: f64) {
        metrics::observe("fedmigr_codec_transfer_seconds", &[("codec", &self.name)], seconds);
    }
}

/// What a compressor carries between transfers, in wire order: the residual
/// lanes of both directions (server egress last lane = broadcast), the
/// transmission counter that seeds stochastic rounding, and the cumulative
/// stats. The codec is rebuilt from `RunConfig`, not persisted, and with it
/// the lane structure: a snapshot with other lanes is a mismatch.
impl Wire for Compressor {
    fn wire(&mut self, c: &mut wire::Codec<'_>) -> io::Result<()> {
        c.in_place_opt(&mut self.feedback, LANES_MISMATCH)?;
        c.in_place_opt(&mut self.down_feedback, LANES_MISMATCH)?;
        self.seq.wire(c)?;
        self.stats.wire(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vals(n: usize) -> Vec<f32> {
        (0..n).map(|i| ((i * 31 % 17) as f32 - 8.0) * 0.1).collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// One item's [`Compressor::preview_batch`].
    fn preview(c: &Compressor, lane: usize, values: &[f32]) -> Vec<f32> {
        c.preview_batch(vec![(lane, values)]).pop().expect("one item in, one out")
    }

    /// Every lossy codec family, with and without error feedback.
    fn lossy_codecs() -> Vec<CodecConfig> {
        vec![
            CodecConfig::int8(),
            CodecConfig::int4(),
            CodecConfig::stochastic8(3),
            CodecConfig::topk(0.1),
            CodecConfig::topk_int8(0.25),
            CodecConfig::int8().without_feedback(),
            CodecConfig::topk_int8(0.25).without_feedback(),
        ]
    }

    /// Model-like vectors with the values the codecs treat specially mixed
    /// in: ties, signed zeros, and (when `poison`) a NaN and an infinity.
    fn payload(n: usize, salt: usize, poison: bool) -> Vec<f32> {
        let mut v: Vec<f32> =
            (0..n).map(|i| (((i + salt) * 31 % 23) as f32 - 11.0) * 0.07).collect();
        if poison && n > 9 {
            v[3] = f32::NAN;
            v[9] = f32::NEG_INFINITY;
            v[5] = -0.0;
        }
        v
    }

    #[test]
    fn identity_is_a_counted_pass_through() {
        let mut c = Compressor::new(&CodecConfig::Identity, 4, 7);
        let v = vals(100);
        assert!(c.is_identity());
        assert_eq!(c.transmit(0, &v), v);
        assert_eq!(c.transmit_down(0, &v), v);
        assert_eq!(c.broadcast(&v), v);
        let s = c.stats();
        assert_eq!(s.encodes, 3);
        assert_eq!(s.compressed_bytes, s.uncompressed_bytes);
        assert_eq!(s.saved(), 0);
        assert_eq!(s.sum_sq_error, 0.0);
        assert_eq!(s.ef_transmits, 0, "identity never touches residuals");
    }

    #[test]
    fn int8_saves_bytes_and_tracks_error() {
        let mut c = Compressor::new(&CodecConfig::int8(), 2, 7);
        let v = vals(1000);
        let d = c.transmit(0, &v);
        assert_eq!(d.len(), v.len());
        let s = c.stats();
        assert!(s.ratio() > 3.0, "int8 should approach 4x, got {}", s.ratio());
        assert!(s.mean_mse() > 0.0);
        assert_eq!(s.ef_transmits, 1);
    }

    #[test]
    fn error_feedback_reinjects_loss_on_the_same_lane() {
        let cfg = CodecConfig::int4();
        let v = vals(512);
        let mut with_ef = Compressor::new(&cfg, 1, 7);
        let mut no_ef = Compressor::new(&cfg.clone().without_feedback(), 1, 7);
        // Accumulate the same vector several times; with EF the *sum* of
        // deliveries tracks the sum of intents much more closely.
        let rounds = 8;
        let (mut sum_ef, mut sum_plain) = (vec![0.0f64; v.len()], vec![0.0f64; v.len()]);
        for _ in 0..rounds {
            for (s, x) in sum_ef.iter_mut().zip(with_ef.transmit(0, &v)) {
                *s += x as f64;
            }
            for (s, x) in sum_plain.iter_mut().zip(no_ef.transmit(0, &v)) {
                *s += x as f64;
            }
        }
        let err = |sum: &[f64]| -> f64 {
            sum.iter()
                .zip(&v)
                .map(|(&s, &t)| (s - rounds as f64 * t as f64).powi(2))
                .sum::<f64>()
                .sqrt()
        };
        assert!(
            err(&sum_ef) < err(&sum_plain) * 0.5,
            "EF accumulated error {} should beat plain {}",
            err(&sum_ef),
            err(&sum_plain)
        );
    }

    #[test]
    fn broadcast_and_unicast_downlinks_have_independent_residuals() {
        let cfg = CodecConfig::int4();
        let v = vals(512);
        let mut c = Compressor::new(&cfg, 2, 7);
        let b1 = c.broadcast(&v); // empty residual: plain Q(v)
        let b2 = c.broadcast(&v); // compensated by the broadcast residual
        let u1 = c.transmit_down(0, &v); // unicast lane 0 is still empty
        assert_eq!(b1, u1, "broadcast residual must not leak into unicast lane 0");
        assert_ne!(b2, u1, "second broadcast must be residual-compensated");
        // Consecutive broadcasts compensate each other: over several rounds
        // the *sum* of compensated broadcasts tracks the sum of intents far
        // better than stateless re-encodes, whose deterministic rounding
        // error just piles up.
        let rounds = 6;
        let mut stateless = Compressor::new(&cfg.clone().without_feedback(), 2, 7);
        let (mut sum_ef, mut sum_plain) = (vec![0.0f64; v.len()], vec![0.0f64; v.len()]);
        for round in 0..rounds {
            let b = match round {
                0 => b1.clone(),
                1 => b2.clone(),
                _ => c.broadcast(&v),
            };
            for (s, x) in sum_ef.iter_mut().zip(b) {
                *s += x as f64;
            }
            for (s, x) in sum_plain.iter_mut().zip(stateless.broadcast(&v)) {
                *s += x as f64;
            }
        }
        let err = |sum: &[f64]| -> f64 {
            sum.iter()
                .zip(&v)
                .map(|(&s, &t)| (s - rounds as f64 * t as f64).powi(2))
                .sum::<f64>()
                .sqrt()
        };
        assert!(
            err(&sum_ef) < err(&sum_plain) * 0.5,
            "compensated broadcasts {} should beat stateless {}",
            err(&sum_ef),
            err(&sum_plain)
        );
    }

    #[test]
    fn preview_leaves_state_untouched() {
        let mut c = Compressor::new(&CodecConfig::int8(), 1, 7);
        let v = vals(300);
        let before = c.stats();
        let p1 = preview(&c, 0, &v);
        let p2 = preview(&c, 0, &v);
        assert_eq!(p1, p2, "preview is deterministic");
        assert_eq!(c.stats(), before, "preview must not count");
        let t = c.transmit(0, &v);
        assert_eq!(p1, t, "preview predicts the next transmit exactly");
    }

    #[test]
    fn stochastic_transfers_differ_but_runs_reproduce() {
        let cfg = CodecConfig::stochastic8(3);
        let v = vals(400);
        let mut a = Compressor::new(&cfg, 1, 9);
        let mut b = Compressor::new(&cfg, 1, 9);
        let a1 = a.transmit(0, &v);
        let a2 = a.transmit(0, &v);
        assert_ne!(a1, a2, "successive transfers use fresh rounding noise");
        assert_eq!(a1, b.transmit(0, &v), "same seed, same sequence, same bits");
        assert_eq!(a2, b.transmit(0, &v));
    }

    #[test]
    fn state_round_trip_resumes_the_exact_stream() {
        let cfg = CodecConfig::stochastic8(3);
        let v = vals(400);
        let mut live = Compressor::new(&cfg, 2, 9);
        live.transmit(0, &v);
        live.broadcast(&v);
        live.transmit_down(1, &v);
        let mut resumed = Compressor::new(&cfg, 2, 9);
        wire::decode(&wire::encode(&mut live), &mut resumed).unwrap();
        for lane in [0usize, 1] {
            assert_eq!(live.transmit(lane, &v), resumed.transmit(lane, &v));
        }
        assert_eq!(live.broadcast(&v), resumed.broadcast(&v));
        assert_eq!(live.stats(), resumed.stats());
    }

    #[test]
    fn import_rejects_mismatched_lanes() {
        let cfg = CodecConfig::int8();
        let snap = wire::encode(&mut Compressor::new(&cfg, 2, 9));
        let no_ef = cfg.clone().without_feedback();
        for mut other in [Compressor::new(&cfg, 3, 9), Compressor::new(&no_ef, 2, 9)] {
            let err = wire::decode(&snap, &mut other).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("lanes mismatch"), "{err}");
        }
    }

    #[test]
    fn transmit_batch_is_bit_identical_to_serial() {
        for cfg in [vec![CodecConfig::Identity], lossy_codecs()].concat() {
            let lanes = 8;
            let mut serial = Compressor::new(&cfg, lanes, 9);
            let mut batched = Compressor::new(&cfg, lanes, 9);
            // Three rounds so residual state carried between batches
            // matters; the middle one is poisoned, the last is a partial
            // wave in scrambled lane order.
            for round in 0..3 {
                let order: Vec<usize> = match round {
                    2 => vec![6, 1, 4],
                    _ => (0..lanes).collect(),
                };
                let items: Vec<(usize, Vec<f32>)> =
                    order.iter().map(|&l| (l, payload(300 + 13 * l, round, round == 1))).collect();
                let expect: Vec<Vec<u32>> =
                    items.iter().map(|(l, v)| bits(&serial.transmit(*l, v))).collect();
                let got: Vec<Vec<u32>> =
                    batched.transmit_batch(items).iter().map(|d| bits(d)).collect();
                assert_eq!(got, expect, "codec {} round {round}", cfg.name());
                assert_eq!(
                    wire::encode(&mut serial),
                    wire::encode(&mut batched),
                    "codec {}",
                    cfg.name()
                );
            }
        }
    }

    #[test]
    fn transmit_batch_with_duplicate_lanes_falls_back_serially() {
        for cfg in lossy_codecs() {
            let mut serial = Compressor::new(&cfg, 2, 5);
            let mut batched = Compressor::new(&cfg, 2, 5);
            let items: Vec<(usize, Vec<f32>)> =
                [0, 0, 1].iter().enumerate().map(|(j, &l)| (l, payload(128, j, j == 1))).collect();
            let expect: Vec<Vec<u32>> =
                items.iter().map(|(l, v)| bits(&serial.transmit(*l, v))).collect();
            let got: Vec<Vec<u32>> =
                batched.transmit_batch(items).iter().map(|d| bits(d)).collect();
            assert_eq!(got, expect, "codec {}", cfg.name());
            assert_eq!(
                wire::encode(&mut serial),
                wire::encode(&mut batched),
                "codec {}",
                cfg.name()
            );
        }
    }

    #[test]
    fn preview_batch_equals_serial_previews_and_counts_nothing() {
        for cfg in [vec![CodecConfig::Identity], lossy_codecs()].concat() {
            let mut c = Compressor::new(&cfg, 4, 9);
            c.transmit_batch((0..4).map(|l| (l, payload(400, l, false))).collect());
            let before = wire::encode(&mut c);
            // Lanes may repeat: a preview consumes nothing.
            let items: Vec<(usize, Vec<f32>)> =
                [2, 0, 2, 3, 1].iter().map(|&l| (l, payload(400, 7 + l, l == 3))).collect();
            let expect: Vec<Vec<u32>> =
                items.iter().map(|(l, v)| bits(&preview(&c, *l, v))).collect();
            let got: Vec<Vec<u32>> = c.preview_batch(items).iter().map(|d| bits(d)).collect();
            assert_eq!(got, expect, "codec {}", cfg.name());
            assert_eq!(wire::encode(&mut c), before, "codec {}", cfg.name());
        }
    }

    #[test]
    fn scratch_carries_nothing_from_one_transmit_to_the_next() {
        for cfg in lossy_codecs() {
            let mut used = Compressor::new(&cfg, 2, 9);
            // A long poisoned transfer first, so every buffer holds more
            // than the next transfer needs.
            used.transmit(0, &payload(900, 1, true));
            used.transmit_down(1, &payload(700, 2, false));
            let mut fresh = Compressor::new(&cfg, 2, 9);
            wire::decode(&wire::encode(&mut used), &mut fresh).unwrap();
            for (lane, n) in [(1, 130), (0, 900), (0, 0)] {
                let v = payload(n, 3, false);
                assert_eq!(
                    bits(&used.transmit(lane, &v)),
                    bits(&fresh.transmit(lane, &v)),
                    "codec {} lane {lane} n {n}",
                    cfg.name()
                );
                assert_eq!(
                    wire::encode(&mut used),
                    wire::encode(&mut fresh),
                    "codec {}",
                    cfg.name()
                );
            }
        }
    }

    /// One transfer the slow way, from the definitions: allocate the
    /// intent, round-trip through a blob, build a fresh residual, and take
    /// the norm and the squared error in two further passes.
    fn reference_transmit(
        codec: &Codec,
        residual: Option<&mut Vec<f32>>,
        stats: &mut CompressionStats,
        seed: u64,
        values: &[f32],
    ) -> Vec<f32> {
        let intent: Vec<f32> = match &residual {
            Some(r) if r.len() == values.len() => {
                values.iter().zip(&**r).map(|(v, e)| v + e).collect()
            }
            _ => values.to_vec(),
        };
        let blob = codec.encode(&intent, seed);
        let decoded = codec.decode(&blob).unwrap();
        let finite = |e: f32| if e.is_finite() { e } else { 0.0 };
        if let Some(r) = residual {
            *r = intent.iter().zip(&decoded).map(|(a, b)| finite(a - b)).collect();
            stats.residual_norm_sum += r.iter().map(|&e| e as f64 * e as f64).sum::<f64>().sqrt();
            stats.ef_transmits += 1;
        }
        stats.sum_sq_error += intent
            .iter()
            .zip(&decoded)
            .map(|(a, b)| {
                let e = (a - b) as f64;
                if e.is_finite() {
                    e * e
                } else {
                    0.0
                }
            })
            .sum::<f64>();
        stats.encodes += 1;
        stats.coords += values.len() as u64;
        stats.uncompressed_bytes += 8 + 4 * values.len() as u64;
        stats.compressed_bytes += blob.wire_bytes();
        decoded
    }

    #[test]
    fn transmits_match_the_two_pass_reference_bit_for_bit() {
        for cfg in lossy_codecs() {
            let codec = Codec::from_config(&cfg);
            let mut c = Compressor::new(&cfg, 1, 9);
            let mut residual = cfg.error_feedback().then(Vec::new);
            let mut stats = CompressionStats::default();
            for (seq, poison) in [false, true, false, false].into_iter().enumerate() {
                let v = payload(1000, seq, poison);
                let expect = reference_transmit(
                    &codec,
                    residual.as_mut(),
                    &mut stats,
                    mix(9, seq as u64),
                    &v,
                );
                assert_eq!(bits(&c.transmit(0, &v)), bits(&expect), "codec {}", cfg.name());
            }
            assert_eq!(c.seq, 4);
            let mut lanes = residual.map(|r| vec![r]);
            assert_eq!(wire::encode(&mut c.feedback), wire::encode(&mut lanes), "{}", cfg.name());
            assert_eq!(wire::encode(&mut c.stats), wire::encode(&mut stats), "{}", cfg.name());
        }
    }

    #[test]
    fn encoded_size_matches_wire_exactly_for_every_codec() {
        for cfg in [
            CodecConfig::Identity,
            CodecConfig::int8(),
            CodecConfig::int4(),
            CodecConfig::stochastic8(1),
            CodecConfig::topk(0.1),
            CodecConfig::topk_int8(0.25),
        ] {
            // Without feedback the intent is the values themselves.
            let cfg = cfg.without_feedback();
            let codec = Codec::from_config(&cfg);
            let mut c = Compressor::new(&cfg, 1, 5);
            for n in [0usize, 1, 255, 256, 257, 1000] {
                let v = vals(n);
                let wire = codec.encode(&v, mix(5, c.seq)).wire_bytes();
                let before = c.stats().compressed_bytes;
                c.transmit(0, &v);
                let charged = c.stats().compressed_bytes - before;
                assert_eq!(
                    (charged, c.encoded_size(n)),
                    (wire, wire),
                    "codec {} n {n}",
                    cfg.name()
                );
            }
        }
    }
}
