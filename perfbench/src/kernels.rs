//! Kernels that call one layer's public function directly: the gossip
//! substrate's `ContinuousGossip::step` and the TCP runtime's frame codec.

use std::hint::black_box;
use std::io::Cursor;
use std::time::Instant;

use congos::{CongosConfig, GossipPayload, TAG_GROUP_GOSSIP};
use congos_gossip::{ContinuousGossip, GossipConfig};
use congos_harness::mem::bytes_allocated;
use congos_net::{decode_frame, encode_frame, WireFrame};
use congos_sim::{IdSet, ProcessId, Round};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Cost of one `ContinuousGossip::step` call.
#[derive(Clone, Copy, Debug, Default)]
pub struct StepCost {
    /// Median microseconds per call.
    pub us: f64,
    /// Heap bytes allocated per call.
    pub alloc_b: f64,
}

/// Active rumors each kernel instance forwards per step.
pub const STEP_ACTIVE_RUMORS: usize = 8;

/// Times `ContinuousGossip::step` for one member of a group of `n / 2`
/// processes (one side of a bit partition, as CONGOS's `GroupGossip[ℓ]`
/// lanes are), with `cfg`'s substrate fanout and [`STEP_ACTIVE_RUMORS`]
/// rumors of deadline `dline` in flight.
///
/// Every call runs in the same round, so the forwarding set stays constant
/// and no deadline fallback fires: the call measured is the steady-state
/// epidemic push (member collection, target sampling, batch clone).
pub fn gossip_step(n: usize, cfg: &CongosConfig, dline: u64, calls: usize, seed: u64) -> StepCost {
    let group = IdSet::from_iter(n, (0..n).step_by(2).map(ProcessId::new));
    let me = ProcessId::new(0);
    let mut g: ContinuousGossip<GossipPayload> = ContinuousGossip::new(
        me,
        n,
        GossipConfig::group(group, TAG_GROUP_GOSSIP).fanout(cfg.gossip_fanout),
    );
    for i in 0..STEP_ACTIVE_RUMORS {
        let mut dest = IdSet::empty(n);
        dest.insert(ProcessId::new((2 * i + 2) % n));
        let payload = GossipPayload::ProxyMeta {
            failed_proxies: Vec::new(),
        };
        g.inject_best_effort(Round::ZERO, payload, dline, dest);
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let now = Round(1);
    let batches = 9;
    let per_batch = calls.div_ceil(batches).max(1);
    let mut us = Vec::with_capacity(batches);
    let a0 = bytes_allocated();
    for _ in 0..batches {
        let t0 = Instant::now();
        for _ in 0..per_batch {
            black_box(g.step(black_box(now), &mut rng));
        }
        us.push(t0.elapsed().as_secs_f64() * 1e6 / per_batch as f64);
    }
    let alloc = bytes_allocated() - a0;
    StepCost {
        us: crate::stats::median(&mut us),
        alloc_b: alloc as f64 / (batches * per_batch) as f64,
    }
}

/// Cost of the frame codec over a set of envelopes.
#[derive(Clone, Copy, Debug, Default)]
pub struct CodecCost {
    /// Nanoseconds to encode one frame.
    pub encode_ns: f64,
    /// Nanoseconds to decode one frame.
    pub decode_ns: f64,
    /// Mean encoded frame size in bytes, length prefix included.
    pub frame_bytes: f64,
}

/// Decodes `count` back-to-back encoded frames, then times encoding and
/// decoding all of them `reps` times, and checks that every frame survives
/// the round trip.
///
/// # Errors
///
/// Returns a description of the first frame that fails to decode or to
/// round-trip.
pub fn codec(encoded: &[u8], count: usize, reps: usize) -> Result<CodecCost, String> {
    if count == 0 {
        return Err("no frames to measure".into());
    }
    let mut cur = Cursor::new(encoded);
    let frames = (0..count)
        .map(|_| decode_frame(&mut cur).map_err(|e| format!("decode: {e}")))
        .collect::<Result<Vec<WireFrame>, String>>()?;
    let mut buf = Vec::new();
    let mut encode = Vec::with_capacity(reps);
    let mut decode = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        buf.clear();
        let t0 = Instant::now();
        for f in &frames {
            encode_frame(&mut buf, black_box(f)).map_err(|e| format!("encode: {e}"))?;
        }
        encode.push(t0.elapsed().as_secs_f64() * 1e9 / frames.len() as f64);
        let mut cur = Cursor::new(&buf[..]);
        let t0 = Instant::now();
        for _ in 0..frames.len() {
            black_box(decode_frame(&mut cur).map_err(|e| format!("decode: {e}"))?);
        }
        decode.push(t0.elapsed().as_secs_f64() * 1e9 / frames.len() as f64);
    }
    let mut cur = Cursor::new(&buf[..]);
    for f in &frames {
        let back = decode_frame(&mut cur).map_err(|e| format!("decode: {e}"))?;
        if &back != f {
            return Err("a frame did not survive the encode/decode round trip".into());
        }
    }
    Ok(CodecCost {
        encode_ns: crate::stats::median(&mut encode),
        decode_ns: crate::stats::median(&mut decode),
        frame_bytes: buf.len() as f64 / frames.len() as f64,
    })
}
