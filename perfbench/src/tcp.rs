//! The TCP substrate: a localhost cluster through `congos_net::run_cluster`,
//! on [`Shape::tcp`].
//!
//! Its in-process twin is the simulator episode of the same shape and
//! seed ([`crate::sim::episode`]): both substrates run the same protocol
//! code with the same forked RNGs, so their `(wid, destination, round)`
//! delivery traces must be identical.

use std::io;
use std::time::Instant;

use congos::CongosInput;
use congos_adversary::InjectionLogEntry;
use congos_harness::mem;
use congos_net::{run_cluster, NetConfig, NetReport};
use congos_sim::{Metrics, Round, Topology, TopologySpec};

use crate::sim::{process_cpu_s, summarize, Episode};
use crate::workload::Shape;

/// First port of the range the cluster binds; the next ranges are tried
/// when a port is taken.
pub const BASE_PORT: u16 = 24_600;

/// Runs `rounds` rounds of the cluster, retrying on a few port ranges if
/// one is busy.
fn cluster(
    shape: &Shape,
    seed: u64,
    rounds: u64,
    injections: &[(u64, congos_sim::ProcessId, CongosInput)],
) -> io::Result<NetReport> {
    let mut last = None;
    for attempt in 0..8u16 {
        let cfg = NetConfig::new(shape.n, BASE_PORT + attempt * 16)
            .seed(seed)
            .rounds(rounds)
            .congos(shape.config.clone())
            .topology(TopologySpec::Complete);
        match run_cluster(cfg, injections.to_vec()) {
            Err(e) if e.kind() == io::ErrorKind::AddrInUse => last = Some(e),
            other => return other,
        }
    }
    Err(last.expect("at least one attempt"))
}

/// Seconds to bind and connect a cluster of `shape.n` nodes (a zero-round
/// `run_cluster`, which also tears the cluster down again).
pub fn setup_s(shape: &Shape, seed: u64) -> io::Result<f64> {
    let t0 = Instant::now();
    cluster(shape, seed, 0, &[])?;
    Ok(t0.elapsed().as_secs_f64())
}

/// One episode over sockets. The per-tag split and metered bytes are not
/// exposed by the socket substrate; the caller takes them from the twin.
pub fn episode(shape: &Shape, seed: u64) -> io::Result<(Episode, u64)> {
    let schedule = shape.schedule(seed);
    let injections: Vec<_> = schedule
        .iter()
        .map(|(round, source, spec)| (*round, *source, CongosInput::from(spec.clone())))
        .collect();
    let log: Vec<InjectionLogEntry> = schedule
        .into_iter()
        .map(|(round, source, spec)| InjectionLogEntry {
            round: Round(round),
            source,
            spec,
        })
        .collect();
    let c0 = process_cpu_s();
    let a0 = mem::bytes_allocated();
    let t0 = Instant::now();
    let report = cluster(shape, seed, shape.rounds, &injections)?;
    let wall_s = t0.elapsed().as_secs_f64();
    let alloc = mem::bytes_allocated() - a0;
    let cpu_s = process_cpu_s() - c0;
    let outputs: Vec<_> = report
        .deliveries
        .iter()
        .map(|o| (o.value.wid, o.process, o.round.as_u64()))
        .collect();
    let topology = Topology::build(TopologySpec::Complete, shape.n, seed);
    let (qod, latencies, mut counters, _) =
        summarize(&Metrics::new(), &outputs, &log, None, &topology);
    counters.msgs = report.messages;
    counters.alloc_bytes = alloc;
    let episode = Episode {
        rounds: shape.rounds,
        wall_s,
        cpu_s,
        counters,
        qod,
        latencies,
        ..Episode::default()
    };
    Ok((episode, report.topology_drops))
}
