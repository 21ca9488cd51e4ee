//! The two kinds of run: timed (end-to-end metrics, tracing off) and
//! traced (per-layer metrics), and the report both print.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use congos::{
    ConfidentialityAuditor, CongosNode, FragStore, TAG_ALL_GOSSIP, TAG_GD, TAG_GROUP_GOSSIP,
    TAG_PROXY, TAG_SHOOT,
};
use congos_harness::{mem, percentile, Json};
use congos_sim::{Engine, EngineBackend, NullObserver};

use crate::kernels;
use crate::sim::{self, Crri, Episode};
use crate::stats::{grouped_percentile, median};
use crate::tcp;
use crate::trace::{self, TimedAdversary, Watch};
use crate::workload::{Shape, Size, Workload};

/// What a run is asked to do.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// The workload seed: every input is generated from it.
    pub seed: u64,
    /// Measurement budget of a timed run.
    pub seconds: f64,
    /// Full size, or the tiny size of the smoke tests.
    pub size: Size,
}

/// Fewest engine set-ups per batch. A timed
/// run takes a batch before its first episode and after each episode, so
/// that its samples span the run; `setup_s` is their median.
pub const SETUP_MIN: usize = 5;

/// Most set-ups per batch.
pub const SETUP_MAX: usize = 51;

/// Rounds over which the traced run steps an untraced and a `par:2` engine
/// in lockstep with the traced one, to keep the traced run short on
/// `churn`.
pub const LANE_ROUNDS: u64 = 1024;

/// Tolerance on a repeated episode's heap allocation: the larger of this
/// share and [`ALLOC_SLACK_BYTES`]. Message, byte and delivery counts must
/// repeat exactly; the allocated total can move by a few kilobytes between
/// episodes, because the standard library's per-process random hashing
/// decides where hash tables resize.
pub const ALLOC_TOLERANCE: f64 = 0.002;

/// Absolute slack on a repeated episode's heap allocation.
pub const ALLOC_SLACK_BYTES: f64 = 64.0 * 1024.0;

/// Whether two episodes' heap allocation agree within the tolerance.
pub fn same_alloc(a: f64, b: f64) -> bool {
    (a - b).abs() <= (ALLOC_TOLERANCE * a.max(b)).max(ALLOC_SLACK_BYTES)
}

/// One printed metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Its name in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// The outcome of one run.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Every correctness check passed.
    pub correct: bool,
    /// Operations attempted: admissible (rumor, destination) pairs.
    pub attempted: u64,
    /// Operations failed: admissible pairs delivered late or never, and
    /// in a traced run each confidentiality violation.
    pub failed: u64,
    /// The metrics, in the order they were measured.
    pub metrics: Vec<Metric>,
    /// A description of each failed check.
    pub problems: Vec<String>,
}

impl Report {
    fn new() -> Self {
        Report {
            correct: true,
            ..Report::default()
        }
    }

    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        if !value.is_finite() {
            self.check(false, || format!("metric {name} is not a finite number"));
        }
        self.metrics.push(Metric {
            name,
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        });
    }

    fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.correct = false;
            self.problems.push(problem());
        }
    }

    /// The value of metric `name`, if measured.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Counts an episode's pairs and checks QoD (Theorem 2: no admissible
    /// pair late or missed).
    fn qod(&mut self, what: &str, ep: &Episode) {
        self.attempted += ep.qod.admissible;
        self.failed += ep.qod.late + ep.qod.missed;
        self.check(ep.qod.late == 0 && ep.qod.missed == 0, || {
            format!("{what}: QoD violated: {:?}", ep.qod)
        });
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::object([("value", Json::from(m.value)), ("unit", Json::from(m.unit))]),
                )
            })
            .collect::<BTreeMap<String, Json>>();
        Json::object([
            ("correct", Json::from(self.correct)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::Object(metrics)),
        ])
        .to_string_compact()
    }
}

const MIB: f64 = 1024.0 * 1024.0;

/// Checks that `ep` repeats `reference`'s deterministic counters.
fn check_repeat(r: &mut Report, what: &str, reference: &Episode, ep: &Episode) {
    let (a, b) = (&reference.counters, &ep.counters);
    r.check(
        a.msgs == b.msgs
            && a.bytes == b.bytes
            && a.deliveries == b.deliveries
            && a.trace == b.trace,
        || {
            format!(
                "{what}: counters differ from the reference run: msgs {} vs {}, bytes {} vs {}, \
                 deliveries {} vs {}",
                b.msgs, a.msgs, b.bytes, a.bytes, b.deliveries, a.deliveries
            )
        },
    );
    r.check(
        same_alloc(a.alloc_bytes as f64, b.alloc_bytes as f64),
        || {
            format!(
                "{what}: allocated {} B against the reference run's {} B",
                b.alloc_bytes, a.alloc_bytes
            )
        },
    );
}

/// The in-process twin of the TCP cluster: the simulator episode of the
/// same shape and seed, watched for the envelopes a socket would carry
/// and encoding them as wire frames.
fn tcp_twin(shape: &Shape, seed: u64) -> (Episode, Watch<NullObserver>) {
    let (mut engine, _) = sim::build_engine(shape, seed, sim::congos_factory(shape));
    let mut adv = sim::adversary(shape, seed);
    let mut watch = Watch::new(NullObserver, 0..shape.rounds, 4096);
    let (wall, cpu, alloc) = sim::drive(
        &mut engine,
        shape.rounds,
        EngineBackend::Sequential,
        &mut adv,
        &mut watch,
    );
    let ep = sim::finish(shape, &engine, adv.workload().log(), wall, cpu, alloc);
    (ep, watch)
}

/// Checks a TCP cluster episode against the twin.
fn check_tcp(
    r: &mut Report,
    ep: &Episode,
    drops: u64,
    twin: &Episode,
    watch: &Watch<NullObserver>,
) {
    r.check(ep.counters.trace == twin.counters.trace, || {
        "tcp: the (wid, destination, round) delivery trace differs from the in-process twin"
            .to_string()
    });
    r.check(ep.counters.msgs == watch.delivered_remote, || {
        format!(
            "tcp: {} messages over sockets, the twin delivered {} between processes",
            ep.counters.msgs, watch.delivered_remote
        )
    });
    r.check(drops == 0, || {
        format!("tcp: {drops} topology drops on a complete graph")
    });
}

/// One batch of engine set-up times: at least [`SETUP_MIN`], and more
/// while a quarter second has not passed, up to [`SETUP_MAX`].
fn setup_batch(shape: &Shape, seed: u64, into: &mut Vec<f64>) {
    let start = Instant::now();
    let mut taken = 0;
    while taken < SETUP_MIN || (taken < SETUP_MAX && start.elapsed() < Duration::from_millis(250)) {
        into.push(sim::build_engine(shape, seed, sim::congos_factory(shape)).1);
        taken += 1;
    }
}

/// A timed run: run episodes until the budget is spent (at least one),
/// with set-up batches around them, and report the end-to-end metrics.
pub fn timed(o: &Options) -> Report {
    let shape = Shape::of(o.workload, o.size);
    let mut r = Report::new();
    let mut setups = Vec::new();
    setup_batch(&shape, o.seed, &mut setups);

    let budget = Duration::from_secs_f64(o.seconds);
    let start = Instant::now();
    let mut episodes: Vec<Episode> = Vec::new();
    let mut peak_rss = 0;
    loop {
        let ep = sim::episode(&shape, o.seed, EngineBackend::Sequential);
        r.qod(o.workload.name(), &ep);
        if let Some(first) = episodes.first() {
            check_repeat(&mut r, "repeated episode", first, &ep);
        }
        if episodes.is_empty() {
            // The high-water mark of one episode, however many follow.
            peak_rss = mem::peak_rss_bytes();
        }
        episodes.push(ep);
        let spent = start.elapsed();
        setup_batch(&shape, o.seed, &mut setups);
        if spent + spent / episodes.len() as u32 > budget {
            break;
        }
    }

    let first = &episodes[0];
    let rounds: u64 = episodes.iter().map(|e| e.rounds).sum();
    let cpu: f64 = episodes.iter().map(|e| e.cpu_s).sum();
    let mut latencies = first.latencies.clone();
    r.push("setup_s", median(&mut setups), "s");
    r.push(
        "rounds_per_s",
        median(
            &mut episodes
                .iter()
                .map(|e| e.rounds as f64 / e.wall_s)
                .collect::<Vec<_>>(),
        ),
        "rounds/s",
    );
    r.push("cpu_ms_per_round", cpu * 1e3 / rounds as f64, "ms");
    r.push(
        "alloc_mib",
        median(
            &mut episodes
                .iter()
                .map(|e| e.counters.alloc_bytes as f64 / MIB)
                .collect::<Vec<_>>(),
        ),
        "MiB",
    );
    r.push("peak_rss_mib", peak_rss as f64 / MIB, "MiB");
    r.push(
        "msgs_per_round",
        first.counters.msgs as f64 / first.rounds as f64,
        "msgs",
    );
    r.push(
        "bytes_per_round",
        first.counters.bytes as f64 / first.rounds as f64,
        "B",
    );
    r.push(
        "on_time_rate",
        first.qod.on_time as f64 / first.qod.admissible.max(1) as f64,
        "ratio",
    );
    r.push(
        "delivery_rounds_p50",
        grouped_percentile(&mut latencies, 50.0),
        "rounds",
    );
    r.push(
        "delivery_rounds_p95",
        grouped_percentile(&mut latencies, 95.0),
        "rounds",
    );
    eprintln!(
        "[{}] {} episode(s) of {} rounds, {} on-time pairs per episode",
        o.workload.name(),
        episodes.len(),
        first.rounds,
        first.qod.on_time
    );
    r
}

/// The gossip-kernel group sizes: the `pipeline` and `churn` groups
/// (`n / 2` of a bit partition), each with its workload's fanout and
/// shortest deadline class.
fn gossip_kernels(r: &mut Report, size: Size, seed: u64) {
    let calls = if size == Size::Tiny { 200 } else { 20_000 };
    for w in Workload::ALL {
        let shape = Shape::of(w, Size::Full);
        let cost = kernels::gossip_step(shape.n, &shape.config, shape.deadlines[0], calls, seed);
        let g = shape.n / 2;
        r.push(format!("gossip.step_us.g{g}"), cost.us, "us");
        r.push(format!("gossip.step_alloc_b.g{g}"), cost.alloc_b, "B");
    }
}

/// The TCP substrate, measured on [`Shape::tcp`] whatever the workload:
/// the twin's frames through the codec, the cluster's set-up, speed and
/// CPU per round, and that CPU less the twin's. Every cluster episode is
/// checked against the twin.
fn net_layer(r: &mut Report, size: Size, seed: u64) -> Result<(), String> {
    let shape = Shape::tcp(size);
    let reps = if size == Size::Tiny { 2 } else { 10 };
    let (twin, watch) = tcp_twin(&shape, seed);
    r.qod("tcp twin", &twin);
    let codec = kernels::codec(&watch.frames, watch.frame_count, 5 * reps)?;
    let mut setups = (0..5)
        .map(|_| tcp::setup_s(&shape, seed).map_err(|e| format!("tcp set-up: {e}")))
        .collect::<Result<Vec<f64>, String>>()?;
    let (mut cpu, mut wall, mut messages) = (0.0, 0.0, 0);
    for _ in 0..reps {
        let (ep, drops) = tcp::episode(&shape, seed).map_err(|e| format!("tcp episode: {e}"))?;
        check_tcp(r, &ep, drops, &twin, &watch);
        r.qod("tcp", &ep);
        cpu += ep.cpu_s;
        wall += ep.wall_s;
        messages = ep.counters.msgs;
    }
    let twin_cpu: f64 = (0..4 * reps)
        .map(|_| sim::episode(&shape, seed, EngineBackend::Sequential).cpu_s)
        .sum();
    let rounds = (reps as u64 * shape.rounds) as f64;
    r.push("net.encode_ns", codec.encode_ns, "ns");
    r.push("net.decode_ns", codec.decode_ns, "ns");
    r.push("net.frame_bytes", codec.frame_bytes, "B");
    r.push("net.setup_ms", median(&mut setups) * 1e3, "ms");
    r.push("net.rounds_per_s", rounds / wall, "rounds/s");
    r.push("net.cpu_ms_per_round", cpu * 1e3 / rounds, "ms");
    r.push(
        "net.substrate_cpu_ms_per_round",
        (cpu - twin_cpu / 4.0) * 1e3 / rounds,
        "ms",
    );
    r.push("net.messages", messages as f64, "count");
    Ok(())
}

/// An untraced engine that the traced run steps one round at a time, in
/// lockstep with the traced engine.
struct Lane {
    engine: Engine<CongosNode>,
    adv: Crri,
    backend: EngineBackend,
    /// Nanoseconds spent in its rounds.
    ns: u64,
}

impl Lane {
    fn new(shape: &Shape, seed: u64, backend: EngineBackend) -> Lane {
        Lane {
            engine: sim::build_engine(shape, seed, sim::congos_factory(shape)).0,
            adv: sim::adversary(shape, seed),
            backend,
            ns: 0,
        }
    }

    fn step(&mut self) {
        let t0 = Instant::now();
        self.engine
            .step_backend(self.backend, &mut self.adv, &mut NullObserver);
        self.ns += t0.elapsed().as_nanos() as u64;
    }
}

/// A traced run: an untraced reference episode, the same episode through
/// the delegating wrappers (with the confidentiality auditor attached)
/// stepped in lockstep with an untraced and a `par:2` engine, the layer
/// kernels and the TCP substrate.
pub fn traced(o: &Options) -> Result<Report, String> {
    let shape = Shape::of(o.workload, o.size);
    let seed = o.seed;
    let mut r = Report::new();

    // 1. The untraced reference, run alone. It fixes the counters the
    //    traced episode must repeat, the heap's live peak and the fragment
    //    store's figures (the store is process-wide), and it warms the
    //    process up for the timings that follow.
    let frag0 = FragStore::global().stats();
    let (reference, frag1) = sim::episode_then(&shape, seed, EngineBackend::Sequential, || {
        FragStore::global().stats()
    });
    r.qod("reference", &reference);
    let live_peak = mem::bytes_live_peak();

    // 2. The traced episode. For its first `LANE_ROUNDS` rounds an untraced
    //    sequential engine and a `par:2` engine take each round beside it,
    //    in an order that reverses every round, so that the host's speed
    //    changes and the heap's growth fall on all three alike. Each traced
    //    round's time and heap exclude the observer's.
    trace::reset();
    let (mut engine, _) =
        sim::build_engine(&shape, seed, trace::traced_factory(shape.config.clone()));
    trace::setup_done();
    let mut adv = TimedAdversary::new(sim::adversary(&shape, seed));
    let mut watch = Watch::new(ConfidentialityAuditor::new(shape.n), 0..0, 0);
    let lane_rounds = shape.rounds.min(LANE_ROUNDS);
    let mut lanes = Some((
        Lane::new(&shape, seed, EngineBackend::Sequential),
        Lane::new(&shape, seed, EngineBackend::Parallel { workers: 2 }),
    ));
    let (mut plain_ns, mut par2_ns) = (0, 0);
    let mut round_ns = Vec::with_capacity(shape.rounds as usize);
    let mut alloc = 0;
    for round in 0..shape.rounds {
        if round % 2 == 1 {
            if let Some((plain, par2)) = lanes.as_mut() {
                plain.step();
                par2.step();
            }
        }
        let (a0, t0, observed) = (mem::bytes_allocated(), Instant::now(), watch.ns);
        engine.step_observed(&mut adv, &mut watch);
        round_ns.push(t0.elapsed().as_nanos() as u64 - (watch.ns - observed));
        alloc += mem::bytes_allocated() - a0;
        if round % 2 == 0 {
            if let Some((plain, par2)) = lanes.as_mut() {
                par2.step();
                plain.step();
            }
        }
        if round + 1 == lane_rounds {
            if let Some((plain, par2)) = lanes.take() {
                (plain_ns, par2_ns) = (plain.ns, par2.ns);
            }
        }
    }
    let lane_traced_ns: u64 = round_ns[..lane_rounds as usize].iter().sum();
    let traced_ns: u64 = round_ns.iter().sum();
    let mut traced_ep = sim::finish(
        &shape,
        &engine,
        adv.inner.workload().log(),
        traced_ns as f64 / 1e9,
        0.0,
        alloc,
    );
    drop(engine);
    let t = trace::totals();
    traced_ep.counters.alloc_bytes = alloc - t.own_alloc - watch.alloc;
    r.qod("traced", &traced_ep);
    check_repeat(&mut r, "traced episode", &reference, &traced_ep);
    let leaks = watch.inner.report().violations.len();
    r.check(leaks == 0, || {
        format!(
            "Definition 2: the auditor reported {leaks} violation(s), first {:?}",
            watch.inner.report().violations.first()
        )
    });
    r.failed += leaks as u64;
    let s = t.stats;
    r.check(s.injected == traced_ep.injected, || {
        format!(
            "NodeStats summed over incarnations saw {} of {} injections",
            s.injected, traced_ep.injected
        )
    });

    let rounds = shape.rounds as f64;
    let per_round_ms = |ns: u64| ns as f64 / 1e6 / rounds;
    let engine_ms = per_round_ms(traced_ns - t.send_ns - t.compute_ns - adv.ns - t.new_restart_ns);
    let engine_alloc = traced_ep.counters.alloc_bytes as f64
        - (t.send_alloc + t.compute_alloc + adv.alloc + t.new_restart_alloc) as f64;
    r.push("sim.send_ms", per_round_ms(t.send_ns), "ms");
    r.push("sim.compute_ms", per_round_ms(t.compute_ns), "ms");
    r.push("sim.engine_ms", engine_ms, "ms");
    r.push(
        "sim.round_ms_p50",
        percentile(&round_ns, 50.0) as f64 / 1e6,
        "ms",
    );
    r.push(
        "sim.round_ms_p95",
        percentile(&round_ns, 95.0) as f64 / 1e6,
        "ms",
    );
    r.push("sim.send_alloc_mib", t.send_alloc as f64 / MIB, "MiB");
    r.push("sim.compute_alloc_mib", t.compute_alloc as f64 / MIB, "MiB");
    r.push("sim.engine_alloc_mib", engine_alloc / MIB, "MiB");
    r.push("sim.envelopes_delivered", watch.delivered as f64, "count");
    r.push(
        "sim.topology_drops",
        traced_ep.topology_drops as f64,
        "count",
    );
    r.push(
        "sim.par2_ms_per_round",
        (par2_ns as f64 - plain_ns as f64) / 1e6 / lane_rounds as f64,
        "ms",
    );

    r.push("adversary.decide_ms", per_round_ms(adv.ns), "ms");
    r.push("adversary.crashes", traced_ep.crashes as f64, "count");
    r.push("adversary.restarts", traced_ep.restarts as f64, "count");

    r.push("congos.new_setup_ms", t.new_setup_ns as f64 / 1e6, "ms");
    r.push("congos.new_restart_ms", t.new_restart_ns as f64 / 1e6, "ms");
    for tag in [
        TAG_PROXY,
        TAG_GD,
        TAG_GROUP_GOSSIP,
        TAG_ALL_GOSSIP,
        TAG_SHOOT,
    ] {
        let (m, b) = traced_ep
            .by_tag
            .iter()
            .find(|(name, _, _)| *name == tag.name())
            .map_or((0, 0), |&(_, m, b)| (m, b));
        r.push(
            format!("congos.msgs.{}", tag.name()),
            m as f64 / rounds,
            "msgs",
        );
        r.push(
            format!("congos.bytes.{}", tag.name()),
            b as f64 / rounds,
            "B",
        );
    }
    let outcomes = s.confirmed + s.fallbacks;
    r.push(
        "congos.confirm_rate",
        if outcomes == 0 {
            1.0
        } else {
            s.confirmed as f64 / outcomes as f64
        },
        "ratio",
    );
    r.push("congos.injected", s.injected as f64, "count");
    r.push("congos.fallbacks", s.fallbacks as f64, "count");
    r.push(
        "congos.gossip_fallbacks",
        s.gossip_fallbacks as f64,
        "count",
    );
    r.push("congos.direct", s.direct as f64, "count");

    gossip_kernels(&mut r, o.size, seed);

    let interns = (frag1.hits + frag1.misses) - (frag0.hits + frag0.misses);
    let hits = frag1.hits - frag0.hits;
    r.push(
        "fragstore.hit_rate",
        if interns == 0 {
            0.0
        } else {
            hits as f64 / interns as f64
        },
        "ratio",
    );
    r.push("fragstore.interns", interns as f64, "count");
    r.push("fragstore.live_bytes", frag1.live_bytes as f64, "count");

    net_layer(&mut r, o.size, seed)?;

    r.push("harness.live_peak_mib", live_peak as f64 / MIB, "MiB");
    r.push(
        "trace_overhead",
        lane_traced_ns as f64 / plain_ns as f64,
        "ratio",
    );
    r.push(
        "det.msgs_per_round",
        traced_ep.counters.msgs as f64 / rounds,
        "msgs",
    );
    r.push(
        "det.bytes_per_round",
        traced_ep.counters.bytes as f64 / rounds,
        "B",
    );
    r.push(
        "det.deliveries",
        traced_ep.counters.deliveries as f64,
        "count",
    );
    r.push(
        "det.alloc_mib",
        traced_ep.counters.alloc_bytes as f64 / MIB,
        "MiB",
    );
    Ok(r)
}
