//! Generic experiment runner with Quality-of-Delivery accounting.

use congos_adversary::predict::{CoalitionSpec, CoalitionTap, Sighting, SightingLog};
use congos_adversary::{
    CrriAdversary, FailurePlan, InjectionLogEntry, InjectionPlan, OneShot, PoissonWorkload,
    RumorSpec, StableGroupWorkload, Theorem1Workload,
};
use congos_sim::{Engine, EngineBackend, EngineConfig, Metrics, ProcessId, Round, TopologySpec};

use crate::system::GossipSystem;

/// Access to the injections a workload has emitted (for QoD accounting).
pub trait Logged {
    /// Entries emitted so far.
    fn entries(&self) -> &[InjectionLogEntry];
}

impl Logged for OneShot {
    fn entries(&self) -> &[InjectionLogEntry] {
        self.log()
    }
}

impl Logged for PoissonWorkload {
    fn entries(&self) -> &[InjectionLogEntry] {
        self.log()
    }
}

impl Logged for Theorem1Workload {
    fn entries(&self) -> &[InjectionLogEntry] {
        self.log()
    }
}

impl Logged for StableGroupWorkload {
    fn entries(&self) -> &[InjectionLogEntry] {
        self.log()
    }
}

/// Parameters of one run.
#[derive(Clone, Copy, Debug)]
pub struct RunSpec {
    /// Number of processes.
    pub n: usize,
    /// Master seed.
    pub seed: u64,
    /// Rounds to execute.
    pub rounds: u64,
    /// Execution backend (outcome-invariant; affects wall clock only).
    pub backend: EngineBackend,
    /// Communication topology (changes the measured outcome, unlike the
    /// backend: sparser topologies drop undeliverable links).
    pub topology: TopologySpec,
    /// Whether to sample the memory probe (peak-RSS + allocator counters)
    /// around the engine run. Cheap (two `/proc` reads and a handful of
    /// atomic loads); on by default. When off, [`RunOutcome::mem`] is
    /// zeroed.
    pub probe_mem: bool,
    /// When `Some(base_port)`, the run executes on the networked backend: a
    /// localhost TCP cluster on ports `base_port..base_port+n` instead of
    /// the in-process engine. Networked runs are failure-free and require
    /// an oblivious workload (see [`crate::netrun`]); only protocols with a
    /// wire codec support it ([`GossipSystem::net_run`]).
    pub net: Option<u16>,
    /// When `Some`, an observing coalition (the E13 source-prediction
    /// adversary) is attached to the run: its members record delivery
    /// metadata into [`RunOutcome::tap`]. The tap is an RNG-neutral
    /// observer on the engine path and an inbox-metadata recorder on the
    /// networked path; either way the measured execution is bit-identical
    /// to an untapped run.
    pub tap: Option<TapSpec>,
}

/// An observing coalition attached to a run (see [`RunSpec::tap`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TapSpec {
    /// Who observes: the deterministic coalition draw.
    pub coalition: CoalitionSpec,
    /// A process the coalition must not contain — normally the trial's
    /// rumor source (the adversary is *looking for* the source, so the
    /// source is not one of its observers).
    pub exclude: Option<ProcessId>,
}

impl TapSpec {
    /// The coalition members this spec resolves to for `n` processes.
    pub fn members(&self, n: usize) -> Vec<ProcessId> {
        self.coalition.members(n, self.exclude)
    }
}

impl RunSpec {
    /// Spec for `n` processes, `rounds` rounds, on the process-wide default
    /// backend (see [`default_backend`]) and default topology (see
    /// [`default_topology`]).
    pub fn new(n: usize, seed: u64, rounds: u64) -> Self {
        RunSpec {
            n,
            seed,
            rounds,
            backend: default_backend(),
            topology: default_topology(),
            probe_mem: true,
            net: default_net(),
            tap: None,
        }
    }

    /// Selects the execution backend (the measured outcome is identical on
    /// every backend; only wall-clock time changes).
    pub fn backend(mut self, backend: EngineBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Selects the communication topology.
    pub fn topology(mut self, topology: TopologySpec) -> Self {
        self.topology = topology;
        self
    }

    /// Enables or disables the memory probe (see [`RunSpec::probe_mem`]).
    pub fn probe_mem(mut self, enabled: bool) -> Self {
        self.probe_mem = enabled;
        self
    }

    /// Selects the networked backend on ports `base_port..base_port+n`
    /// (see [`RunSpec::net`]).
    pub fn net(mut self, base_port: u16) -> Self {
        self.net = Some(base_port);
        self
    }

    /// Attaches an observing coalition (see [`RunSpec::tap`]).
    pub fn tap(mut self, tap: TapSpec) -> Self {
        self.tap = Some(tap);
        self
    }
}

/// Parses the env var `var`; a malformed value is reported and ignored.
fn from_env<T: std::str::FromStr>(var: &str) -> Option<T>
where
    T::Err: std::fmt::Display,
{
    let value = std::env::var(var).ok()?;
    value
        .parse()
        .map_err(|e| eprintln!("ignoring {var}: {e}"))
        .ok()
}

static DEFAULT_BACKEND: std::sync::OnceLock<EngineBackend> = std::sync::OnceLock::new();

/// Installs the process-wide default backend used by [`RunSpec::new`].
/// First writer wins; call before any run. Returns `false` if the default
/// had already been resolved (set or read).
pub fn set_default_backend(backend: EngineBackend) -> bool {
    DEFAULT_BACKEND.set(backend).is_ok()
}

/// The process-wide default backend: whatever [`set_default_backend`]
/// installed, else the `CONGOS_BACKEND` env var (`seq` or `par[:N]`), else
/// [`EngineBackend::Sequential`]. Every experiment outcome is identical on
/// every backend — this only selects wall-clock behavior.
pub fn default_backend() -> EngineBackend {
    *DEFAULT_BACKEND.get_or_init(|| from_env("CONGOS_BACKEND").unwrap_or_default())
}

/// Base port used by `--backend net` when no explicit port is given.
pub const DEFAULT_NET_PORT: u16 = 20700;

static DEFAULT_NET: std::sync::OnceLock<Option<u16>> = std::sync::OnceLock::new();

/// Installs a process-wide default net base port: every subsequent
/// [`RunSpec::new`] runs on the networked backend. First writer wins;
/// returns `false` if the default had already been resolved.
pub fn set_default_net(base_port: u16) -> bool {
    DEFAULT_NET.set(Some(base_port)).is_ok()
}

/// The process-wide default net base port: whatever [`set_default_net`]
/// installed, else the `CONGOS_NET_PORT` env var, else `None` (in-process
/// engine — the default).
pub fn default_net() -> Option<u16> {
    *DEFAULT_NET.get_or_init(|| from_env("CONGOS_NET_PORT"))
}

static DEFAULT_TOPOLOGY: std::sync::OnceLock<TopologySpec> = std::sync::OnceLock::new();

/// Installs the process-wide default topology used by [`RunSpec::new`].
/// First writer wins; call before any run. Returns `false` if the default
/// had already been resolved (set or read).
pub fn set_default_topology(topology: TopologySpec) -> bool {
    DEFAULT_TOPOLOGY.set(topology).is_ok()
}

/// The process-wide default topology: whatever [`set_default_topology`]
/// installed, else the `CONGOS_TOPOLOGY` env var
/// (`complete`, `expander:<d>` or `churn:<p>[@expander:<d>]`), else
/// [`TopologySpec::Complete`] — the paper's model. Unlike the backend, the
/// topology *does* change measured outcomes.
pub fn default_topology() -> TopologySpec {
    *DEFAULT_TOPOLOGY.get_or_init(|| from_env("CONGOS_TOPOLOGY").unwrap_or_default())
}

/// A delivery, correlated by workload id.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeliveryRecord {
    /// Workload rumor id.
    pub wid: u64,
    /// Receiving process.
    pub process: ProcessId,
    /// Round of delivery.
    pub round: Round,
}

/// Quality-of-Delivery classification of (rumor, destination) pairs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QodSummary {
    /// Pairs where source and destination were continuously alive.
    pub admissible: usize,
    /// Admissible pairs delivered by the deadline.
    pub on_time: usize,
    /// Admissible pairs delivered after the deadline (a QoD violation!).
    pub late: usize,
    /// Admissible pairs never delivered (a QoD violation!).
    pub missed: usize,
    /// Pairs exempted by crashes (not admissible).
    pub inadmissible: usize,
    /// Pairs exempted by the topology: source and destination were
    /// continuously alive but no temporal path connected them within the
    /// deadline window, so no protocol could have delivered (only non-zero
    /// on non-complete topologies; the reachability check floods one hop
    /// per round ignoring crashes, so it never exempts a pair a protocol
    /// could actually have served).
    pub unreachable: usize,
}

impl QodSummary {
    /// `true` when every admissible pair was delivered on time.
    pub fn perfect(&self) -> bool {
        self.late == 0 && self.missed == 0
    }

    /// On-time fraction over admissible pairs (1.0 when none).
    pub fn on_time_rate(&self) -> f64 {
        if self.admissible == 0 {
            1.0
        } else {
            self.on_time as f64 / self.admissible as f64
        }
    }
}

/// Everything measured in one run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Protocol display name.
    pub name: &'static str,
    /// The topology this run executed on.
    pub topology: TopologySpec,
    /// Per-round, per-tag message metrics.
    pub metrics: Metrics,
    /// All deliveries.
    pub deliveries: Vec<DeliveryRecord>,
    /// All injections the workload emitted.
    pub injections: Vec<InjectionLogEntry>,
    /// QoD classification.
    pub qod: QodSummary,
    /// Crash events that occurred.
    pub crashes: usize,
    /// Delivery latencies (rounds from injection to first delivery) of the
    /// admissible pairs that were delivered.
    pub latencies: Vec<u64>,
    /// Memory accounting around the engine run (zeroed when
    /// [`RunSpec::probe_mem`] was off).
    pub mem: crate::mem::MemUsage,
    /// Socket-level counters when the run executed on the networked
    /// backend (`None` for in-process engine runs, whose per-round,
    /// per-tag accounting lives in [`RunOutcome::metrics`] instead).
    pub net: Option<crate::netrun::NetStats>,
    /// The observing coalition's sighting log when [`RunSpec::tap`] was
    /// set (`None` otherwise).
    pub tap: Option<SightingLog>,
}

impl RunOutcome {
    /// The `p`-th latency percentile in rounds (0 when nothing delivered).
    pub fn latency_percentile(&self, p: f64) -> u64 {
        crate::stats::percentile(&self.latencies, p)
    }

    /// Whether the paper's Quality-of-Delivery theorem held for this run.
    ///
    /// The theorem (Definition 1 / Theorem 12) is proved on the reliable
    /// complete network: there, every admissible pair must be served on
    /// time and this method requires [`QodSummary::perfect`]. On sparse or
    /// churning topologies no such theorem exists — degradation is a
    /// *measurement*, not a failure — so the check is vacuously true.
    /// Experiments that assert QoD use this instead of hard-coding the
    /// everyone-hears-everything assumption.
    pub fn qod_theorem_holds(&self) -> bool {
        !self.topology.is_complete() || self.qod.perfect()
    }
}

/// Runs protocol `P` (default construction) under the given failure and
/// injection plans.
pub fn run<P, F, W>(spec: RunSpec, failures: F, workload: W) -> RunOutcome
where
    P: GossipSystem,
    P::Input: From<RumorSpec>,
    F: FailurePlan,
    W: InjectionPlan + Logged,
{
    run_with_factory(spec, P::new, failures, workload)
}

/// Runs protocol `P` built by `factory` (for configured deployments).
pub fn run_with_factory<P, F, W>(
    spec: RunSpec,
    factory: impl Fn(ProcessId, usize, u64) -> P + 'static,
    failures: F,
    workload: W,
) -> RunOutcome
where
    P: GossipSystem,
    P::Input: From<RumorSpec>,
    F: FailurePlan,
    W: InjectionPlan + Logged,
{
    if let Some(base_port) = spec.net {
        return run_networked::<P, F, W>(spec, base_port, failures, workload);
    }
    let mut engine = Engine::<P>::with_factory(
        EngineConfig::new(spec.n)
            .seed(spec.seed)
            .topology(spec.topology),
        factory,
    );
    let mut adv = CrriAdversary::new(failures, workload);
    let mut tap = spec
        .tap
        .map(|t| CoalitionTap::new(spec.n, &t.members(spec.n)));
    let mem_before = if spec.probe_mem {
        crate::mem::MemSample::now()
    } else {
        crate::mem::MemSample::default()
    };
    let t0 = std::time::Instant::now();
    match &mut tap {
        Some(tap) => engine.run_observed_backend(spec.backend, spec.rounds, &mut adv, tap),
        None => engine.run_backend(spec.backend, spec.rounds, &mut adv),
    }
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mem = crate::mem::MemUsage {
        before: mem_before,
        after: if spec.probe_mem {
            crate::mem::MemSample::now()
        } else {
            crate::mem::MemSample::default()
        },
        wall_ms,
    };

    let deliveries: Vec<DeliveryRecord> = engine
        .outputs()
        .iter()
        .map(|o| DeliveryRecord {
            wid: P::wid_of(&o.value),
            process: o.process,
            round: o.round,
        })
        .collect();
    let injections = adv.workload().entries().to_vec();

    let mut qod = QodSummary::default();
    let mut latencies = Vec::new();
    for entry in &injections {
        let t = entry.round;
        let end = t + entry.spec.deadline;
        let src_ok = engine.liveness().continuously_alive(entry.source, t, end);
        for d in &entry.spec.dest {
            if !src_ok || !engine.liveness().continuously_alive(*d, t, end) {
                qod.inadmissible += 1;
                continue;
            }
            if !engine.topology().reachable_within(entry.source, *d, t, end) {
                qod.unreachable += 1;
                continue;
            }
            qod.admissible += 1;
            let best = deliveries
                .iter()
                .filter(|r| r.wid == entry.spec.id && r.process == *d)
                .map(|r| r.round)
                .min();
            match best {
                Some(r) if r <= end => {
                    qod.on_time += 1;
                    latencies.push(r - t);
                }
                Some(_) => qod.late += 1,
                None => qod.missed += 1,
            }
        }
    }

    RunOutcome {
        name: P::NAME,
        topology: spec.topology,
        metrics: engine.metrics().clone(),
        deliveries,
        injections,
        qod,
        crashes: engine.liveness().crash_count(),
        latencies,
        mem,
        net: None,
        tap: tap.map(CoalitionTap::into_log),
    }
}

/// The networked path of [`run_with_factory`]: materializes the workload
/// into a static schedule (rejecting failure plans — the TCP cluster is
/// failure-free), runs the protocol's TCP deployment, and rebuilds the
/// same QoD accounting the engine path produces. The `factory` is not used
/// here: a networked deployment constructs its own nodes from
/// `(id, n, seed)` on the far side of the socket boundary.
fn run_networked<P, F, W>(spec: RunSpec, base_port: u16, mut failures: F, mut workload: W) -> RunOutcome
where
    P: GossipSystem,
    P::Input: From<RumorSpec>,
    F: FailurePlan,
    W: InjectionPlan + Logged,
{
    crate::netrun::assert_failure_free(spec.n, spec.rounds, &mut failures);
    let schedule = crate::netrun::materialize_injections(spec.n, spec.rounds, &mut workload);

    let mem_before = if spec.probe_mem {
        crate::mem::MemSample::now()
    } else {
        crate::mem::MemSample::default()
    };
    let watch: Vec<ProcessId> = spec
        .tap
        .map(|t| t.members(spec.n))
        .unwrap_or_default();
    let t0 = std::time::Instant::now();
    let report = P::net_run(
        spec.n,
        spec.seed,
        spec.rounds,
        spec.topology,
        base_port,
        schedule,
        watch,
    )
    .unwrap_or_else(|| {
        panic!(
            "protocol {:?} has no networked runtime; --backend net currently \
             supports the CONGOS protocol only",
            P::NAME
        )
    })
    .unwrap_or_else(|e| panic!("networked run failed: {e}"));
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mem = crate::mem::MemUsage {
        before: mem_before,
        after: if spec.probe_mem {
            crate::mem::MemSample::now()
        } else {
            crate::mem::MemSample::default()
        },
        wall_ms,
    };

    let deliveries: Vec<DeliveryRecord> = report
        .deliveries
        .iter()
        .map(|&(wid, process, round)| DeliveryRecord {
            wid,
            process,
            round,
        })
        .collect();
    let injections = workload.entries().to_vec();

    // QoD over a failure-free cluster: every pair is admissible unless the
    // topology never connects it within the deadline window (same
    // reachability bound the engine path applies).
    let topology = congos_sim::Topology::build(spec.topology, spec.n, spec.seed);
    let mut qod = QodSummary::default();
    let mut latencies = Vec::new();
    for entry in &injections {
        let t = entry.round;
        let end = t + entry.spec.deadline;
        for d in &entry.spec.dest {
            if !topology.reachable_within(entry.source, *d, t, end) {
                qod.unreachable += 1;
                continue;
            }
            qod.admissible += 1;
            let best = deliveries
                .iter()
                .filter(|r| r.wid == entry.spec.id && r.process == *d)
                .map(|r| r.round)
                .min();
            match best {
                Some(r) if r <= end => {
                    qod.on_time += 1;
                    latencies.push(r - t);
                }
                Some(_) => qod.late += 1,
                None => qod.missed += 1,
            }
        }
    }

    RunOutcome {
        name: P::NAME,
        topology: spec.topology,
        metrics: Metrics::new(),
        deliveries,
        injections,
        qod,
        crashes: 0,
        latencies,
        mem,
        net: Some(crate::netrun::NetStats {
            messages: report.messages,
            topology_drops: report.topology_drops,
        }),
        tap: spec.tap.map(|_| {
            let mut log = SightingLog::new(spec.n);
            for &(round, observer, sender, tag) in &report.sightings {
                log.record(Sighting {
                    round,
                    observer,
                    sender,
                    tag,
                });
            }
            log
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congos_adversary::{NoFailures, RandomChurn};
    use congos_baselines::DirectNode;
    use congos_gossip::GossipNode;

    #[test]
    fn direct_run_is_perfect() {
        let spec = RunSpec::new(8, 1, 40);
        let w = PoissonWorkload::new(0.1, 3, 16, 2).until(Round(20));
        let out = run::<DirectNode, _, _>(spec, NoFailures, w);
        assert!(out.qod.perfect());
        assert!(out.qod.admissible > 0);
        assert_eq!(out.crashes, 0);
        assert_eq!(out.name, "direct");
    }

    #[test]
    fn networked_backend_runs_congos_with_qod() {
        use congos::CongosNode;
        let spec = RunSpec::new(4, 11, 80).net(20740);
        let rumor = RumorSpec::new(
            0,
            b"over sockets".to_vec(),
            64,
            vec![ProcessId::new(1), ProcessId::new(3)],
        );
        let w = OneShot::new(Round(0), vec![(ProcessId::new(0), rumor)]);
        let out = run::<CongosNode, _, _>(spec, NoFailures, w);
        assert_eq!(out.qod.admissible, 2);
        assert!(out.qod.perfect(), "failure-free TCP run must be on time: {:?}", out.qod);
        assert_eq!(out.deliveries.len(), 2);
        let net = out.net.expect("networked runs carry socket stats");
        assert!(net.messages > 0);
        assert_eq!(net.topology_drops, 0);
        assert!(out.metrics.is_empty(), "sockets don't meter per-tag rounds");
    }

    #[test]
    #[should_panic(expected = "no networked runtime")]
    fn networked_backend_rejects_protocols_without_a_codec() {
        let spec = RunSpec::new(3, 0, 4).net(20760);
        let w = OneShot::new(
            Round(0),
            vec![(
                ProcessId::new(0),
                RumorSpec::new(0, vec![1], 16, vec![ProcessId::new(1)]),
            )],
        );
        let _ = run::<DirectNode, _, _>(spec, NoFailures, w);
    }

    #[test]
    fn qod_accounts_churn_exemptions() {
        let spec = RunSpec::new(12, 3, 96);
        let w = PoissonWorkload::new(0.05, 3, 32, 4).until(Round(60));
        let churn = RandomChurn::new(0.01, 0.2, 5);
        let out = run::<GossipNode, _, _>(spec, churn, w);
        assert!(out.crashes > 0);
        assert!(out.qod.perfect(), "substrate QoD must hold: {:?}", out.qod);
        assert!(out.qod.inadmissible > 0, "churn should exempt some pairs");
    }
}
