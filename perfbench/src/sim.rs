//! Simulator episodes: one workload run from engine construction to QoD.
//!
//! These are the untraced episodes: the timed runs' and the traced run's
//! reference. The traced episode itself (`run::traced`) builds the same
//! engine through the delegating wrappers of [`crate::trace`].

use std::collections::HashMap;
use std::time::Instant;

use congos::{CongosInput, CongosMsg, CongosNode, DeliveredRumor};
use congos_adversary::{CrriAdversary, InjectionLogEntry};
use congos_harness::mem;
use congos_sim::{
    Adversary, Engine, EngineBackend, EngineConfig, LivenessLog, Metrics, Observer, ProcessId,
    Protocol, Topology,
};

use crate::workload::{Failures, Replay, Shape};

/// Per-tag `(tag, messages, bytes)` totals.
pub type TagCounts = Vec<(&'static str, u64, u64)>;

/// The adversary every simulator episode runs under.
pub type Crri = CrriAdversary<Failures, Replay>;

/// Quality-of-Delivery classification of one episode's pairs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Qod {
    /// Pairs whose source and destination stayed alive over the window.
    pub admissible: u64,
    /// Admissible pairs delivered by the deadline.
    pub on_time: u64,
    /// Admissible pairs delivered after the deadline.
    pub late: u64,
    /// Admissible pairs never delivered.
    pub missed: u64,
}

/// The counters that must repeat exactly for a given seed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Envelopes sent.
    pub msgs: u64,
    /// Metered payload bytes sent.
    pub bytes: u64,
    /// Protocol outputs delivered.
    pub deliveries: u64,
    /// Heap bytes allocated while the rounds ran.
    pub alloc_bytes: u64,
    /// Every `(wid, destination, round)` delivery, sorted.
    pub trace: Vec<(u64, usize, u64)>,
}

/// What one episode measured.
#[derive(Clone, Debug, Default)]
pub struct Episode {
    /// Rounds executed.
    pub rounds: u64,
    /// Wall seconds spent executing the rounds.
    pub wall_s: f64,
    /// Process CPU seconds (all threads) spent executing the rounds.
    pub cpu_s: f64,
    /// Deterministic counters.
    pub counters: Counters,
    /// QoD classification.
    pub qod: Qod,
    /// Rounds from injection to first delivery, per on-time pair.
    pub latencies: Vec<u64>,
    /// Crash events.
    pub crashes: u64,
    /// Restart events.
    pub restarts: u64,
    /// Injections that reached an alive process.
    pub injected: u64,
    /// Envelopes the topology dropped.
    pub topology_drops: u64,
    /// Per-tag message and byte totals.
    pub by_tag: TagCounts,
}

/// Process CPU time (user + system, every thread including exited ones),
/// in seconds, from `/proc/self/stat`; 0 where unavailable.
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, in clock ticks (USER_HZ = 100 on
    // Linux).
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (tick(11) + tick(12)) as f64 / 100.0
}

/// Builds the engine for one episode and returns it with its set-up time.
pub fn build_engine<P, F>(shape: &Shape, seed: u64, factory: F) -> (Engine<P>, f64)
where
    P: Protocol + 'static,
    F: Fn(ProcessId, usize, u64) -> P + 'static,
{
    let t0 = Instant::now();
    let engine = Engine::with_factory(EngineConfig::new(shape.n).seed(seed), factory);
    (engine, t0.elapsed().as_secs_f64())
}

/// The plain CONGOS factory for `shape`.
pub fn congos_factory(shape: &Shape) -> impl Fn(ProcessId, usize, u64) -> CongosNode + 'static {
    let cfg = shape.config.clone();
    move |id, n, _seed| CongosNode::with_config(id, n, cfg.clone())
}

/// The adversary of one episode.
pub fn adversary(shape: &Shape, seed: u64) -> Crri {
    CrriAdversary::new(shape.failures(), Replay::new(shape.schedule(seed)))
}

/// Runs `rounds` rounds of an already-built engine and returns their wall
/// seconds, CPU seconds and heap bytes allocated.
pub fn drive<P, A, O>(
    engine: &mut Engine<P>,
    rounds: u64,
    backend: EngineBackend,
    adv: &mut A,
    obs: &mut O,
) -> (f64, f64, u64)
where
    P: Protocol<Msg = CongosMsg, Input = CongosInput, Output = DeliveredRumor> + Send + 'static,
    A: Adversary<P>,
    O: Observer<P>,
{
    // The CPU reads allocate, so they stay outside the counted span.
    let c0 = process_cpu_s();
    let a0 = mem::bytes_allocated();
    let t0 = Instant::now();
    engine.run_observed_backend(backend, rounds, adv, obs);
    let wall = t0.elapsed().as_secs_f64();
    let alloc = mem::bytes_allocated() - a0;
    (wall, process_cpu_s() - c0, alloc)
}

/// Classifies every injected pair and gathers the deterministic counters.
pub fn summarize(
    metrics: &Metrics,
    outputs: &[(u64, ProcessId, u64)],
    injections: &[InjectionLogEntry],
    liveness: Option<&LivenessLog>,
    topology: &Topology,
) -> (Qod, Vec<u64>, Counters, TagCounts) {
    let mut first: HashMap<(u64, ProcessId), u64> = HashMap::new();
    for &(wid, p, round) in outputs {
        first
            .entry((wid, p))
            .and_modify(|r| *r = (*r).min(round))
            .or_insert(round);
    }
    let mut qod = Qod::default();
    let mut latencies = Vec::new();
    for entry in injections {
        let t = entry.round;
        let end = t + entry.spec.deadline;
        let alive = |p: ProcessId| liveness.is_none_or(|l| l.continuously_alive(p, t, end));
        for &d in &entry.spec.dest {
            if !alive(entry.source)
                || !alive(d)
                || !topology.reachable_within(entry.source, d, t, end)
            {
                continue;
            }
            qod.admissible += 1;
            match first.get(&(entry.spec.id, d)) {
                Some(&r) if r <= end.as_u64() => {
                    qod.on_time += 1;
                    latencies.push(r - t.as_u64());
                }
                Some(_) => qod.late += 1,
                None => qod.missed += 1,
            }
        }
    }
    let mut trace: Vec<(u64, usize, u64)> = outputs
        .iter()
        .map(|&(wid, p, round)| (wid, p.as_usize(), round))
        .collect();
    trace.sort_unstable();
    let by_tag = metrics
        .tags()
        .into_iter()
        .map(|tag| {
            let t = congos_sim::Tag(tag);
            (tag, metrics.total_of(t), metrics.total_bytes_of(t))
        })
        .collect();
    let counters = Counters {
        msgs: metrics.total(),
        bytes: metrics.total_bytes(),
        deliveries: outputs.len() as u64,
        alloc_bytes: 0,
        trace,
    };
    (qod, latencies, counters, by_tag)
}

/// Delivery records of an engine's output log.
fn outputs_of<P>(engine: &Engine<P>) -> Vec<(u64, ProcessId, u64)>
where
    P: Protocol<Output = DeliveredRumor> + 'static,
{
    engine
        .outputs()
        .iter()
        .map(|o| (o.value.wid, o.process, o.round.as_u64()))
        .collect()
}

/// One untraced episode of a simulator workload on `backend`.
pub fn episode(shape: &Shape, seed: u64, backend: EngineBackend) -> Episode {
    episode_then(shape, seed, backend, || ()).0
}

/// One untraced episode that also returns what `at_end` reads after the
/// last round, while the engine is still alive.
pub fn episode_then<T>(
    shape: &Shape,
    seed: u64,
    backend: EngineBackend,
    at_end: impl FnOnce() -> T,
) -> (Episode, T) {
    let (mut engine, _) = build_engine(shape, seed, congos_factory(shape));
    let mut adv = adversary(shape, seed);
    let (wall, cpu, alloc) = drive(
        &mut engine,
        shape.rounds,
        backend,
        &mut adv,
        &mut congos_sim::NullObserver,
    );
    let end = at_end();
    let ep = finish(shape, &engine, adv.workload().log(), wall, cpu, alloc);
    (ep, end)
}

/// Assembles an [`Episode`] from a finished engine.
pub fn finish<P>(
    shape: &Shape,
    engine: &Engine<P>,
    log: &[InjectionLogEntry],
    wall_s: f64,
    cpu_s: f64,
    alloc: u64,
) -> Episode
where
    P: Protocol<Output = DeliveredRumor> + 'static,
{
    let (qod, latencies, mut counters, by_tag) = summarize(
        engine.metrics(),
        &outputs_of(engine),
        log,
        Some(engine.liveness()),
        engine.topology(),
    );
    counters.alloc_bytes = alloc;
    let restarts = ProcessId::all(shape.n)
        .flat_map(|p| engine.liveness().events(p))
        .filter(|e| matches!(e, congos_sim::LivenessEvent::Restart(_)))
        .count() as u64;
    Episode {
        rounds: shape.rounds,
        wall_s,
        cpu_s,
        counters,
        qod,
        latencies,
        crashes: engine.liveness().crash_count() as u64,
        restarts,
        injected: engine.injections().iter().filter(|i| i.delivered).count() as u64,
        topology_drops: engine.metrics().topology_drops(),
        by_tag,
    }
}
