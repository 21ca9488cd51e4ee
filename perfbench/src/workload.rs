//! The named workloads and the inputs they generate from a seed.
//!
//! Every injection is generated here, from the workload seed alone, before
//! the program runs: the protocol only ever sees the resulting schedule.
//! Injections are keyed by round number, so a slow round delays the next
//! injection instead of queueing it (the loop is closed in wall time).

use congos::CongosConfig;
use congos_adversary::{FailurePlan, InjectionLogEntry, InjectionPlan, RandomChurn, RumorSpec};
use congos_sim::{CrashSpec, IncomingPolicy, ProcessId, Round, RoundView};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Seed of the `churn` workload's crash/restart pattern.
pub const CHURN_SEED: u64 = 0xc4a5;

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// n = 1024 on the E3m operating point: few, expensive rounds.
    Pipeline,
    /// n = 32 under random crash/restart churn: many cheap rounds.
    Churn,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 2] = [Workload::Pipeline, Workload::Churn];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Pipeline => "pipeline",
            Workload::Churn => "churn",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Full size (the benchmark) or tiny size (the smoke tests).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The measured operating point.
    Full,
    /// A few-process, few-round version of the same shape.
    Tiny,
}

/// Everything that defines one episode of a workload.
#[derive(Clone, Debug)]
pub struct Shape {
    /// Number of processes.
    pub n: usize,
    /// Rounds per episode: injections stop one round more than the longest
    /// deadline before the end, so every rumor's window closes inside it.
    pub rounds: u64,
    /// Injections happen in rounds `0..inject_until`.
    pub inject_until: u64,
    /// Expected rumors per round, system-wide.
    pub rumors_per_round: f64,
    /// Exactly `rumors_per_round` rumors start every round, instead of at
    /// random rounds.
    pub every_round: bool,
    /// Destinations per rumor.
    pub dests: usize,
    /// Payload bytes per rumor.
    pub payload: usize,
    /// Deadline classes; rumors take them in turn.
    pub deadlines: Vec<u64>,
    /// `(p_crash, p_restart)` of the random churn, if any.
    pub churn: Option<(f64, f64)>,
    /// The protocol configuration every process runs.
    pub config: CongosConfig,
}

impl Shape {
    /// The shape of `workload` at `size`.
    pub fn of(workload: Workload, size: Size) -> Shape {
        let tiny = size == Size::Tiny;
        match workload {
            Workload::Pipeline => {
                let deadline = congos_harness::experiments::e3_memory::DEADLINE;
                let inject_until = if tiny { 24 } else { 88 };
                Shape {
                    n: if tiny { 64 } else { 1024 },
                    rounds: inject_until + deadline + 1,
                    inject_until,
                    rumors_per_round: congos_harness::experiments::e3_memory::RUMORS_PER_ROUND,
                    every_round: false,
                    dests: 3,
                    payload: 16,
                    deadlines: vec![deadline],
                    churn: None,
                    config: congos_harness::experiments::e3_memory::sweep_config(),
                }
            }
            Workload::Churn => {
                let inject_until = if tiny { 96 } else { 2944 };
                Shape {
                    n: if tiny { 16 } else { 32 },
                    rounds: inject_until + 129,
                    inject_until,
                    rumors_per_round: 0.25,
                    every_round: false,
                    dests: 3,
                    payload: 16,
                    deadlines: vec![64, 128],
                    churn: Some((0.005, 0.15)),
                    config: CongosConfig::default(),
                }
            }
        }
    }

    /// The TCP substrate's shape, measured by every traced run: a 4-node
    /// cluster in the `congos-loadtest` shape (2 rumors per round, 2
    /// destinations, 48-byte payloads, deadline 64, default config).
    pub fn tcp(size: Size) -> Shape {
        let inject_until = if size == Size::Tiny { 8 } else { 64 };
        Shape {
            n: 4,
            rounds: inject_until + 65,
            inject_until,
            rumors_per_round: 2.0,
            every_round: true,
            dests: 2,
            payload: 48,
            deadlines: vec![64],
            churn: None,
            config: CongosConfig::default(),
        }
    }

    /// The injection schedule of one episode: `(round, source, rumor)`,
    /// at most one rumor per process per round, sorted by round.
    ///
    /// Sources, destinations and payloads are drawn from a generator seeded
    /// by `seed` alone; deadline classes alternate. With `every_round`
    /// exactly `rumors_per_round` rumors start each round. Otherwise
    /// `rumors_per_round · inject_until` rumors are placed at uniformly
    /// random rounds — a Poisson process conditioned on its count, so that
    /// every seed carries the same load.
    pub fn schedule(&self, seed: u64) -> Vec<(u64, ProcessId, RumorSpec)> {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xbe4c_11a5_0000_0000);
        let total = (self.rumors_per_round * self.inject_until as f64).round() as usize;
        let mut slots: Vec<(u64, usize)> = Vec::with_capacity(total);
        if self.every_round {
            let k = self.rumors_per_round as usize;
            for round in 0..self.inject_until {
                for s in 0..k.min(self.n) {
                    slots.push((round, (round as usize * k + s) % self.n));
                }
            }
        } else {
            while slots.len() < total {
                let slot = (
                    rng.gen_range(0..self.inject_until),
                    rng.gen_range(0..self.n),
                );
                if !slots.contains(&slot) {
                    slots.push(slot);
                }
            }
            slots.sort_unstable();
        }
        slots
            .into_iter()
            .enumerate()
            .map(|(wid, (round, source))| {
                let mut dest = Vec::with_capacity(self.dests);
                while dest.len() < self.dests {
                    let d = ProcessId::new(rng.gen_range(0..self.n));
                    if !dest.contains(&d) {
                        dest.push(d);
                    }
                }
                let deadline = self.deadlines[wid % self.deadlines.len()];
                let data = (0..self.payload).map(|_| rng.gen()).collect();
                let spec = RumorSpec::new(wid as u64, data, deadline, dest);
                (round, ProcessId::new(source), spec)
            })
            .collect()
    }

    /// The failure plan of an episode. It does not depend on the workload
    /// seed: the crash/restart pattern is part of the workload's
    /// definition, and the seed varies only the injections.
    pub fn failures(&self) -> Failures {
        match self.churn {
            Some((p_crash, p_restart)) => {
                Failures::Churn(RandomChurn::new(p_crash, p_restart, CHURN_SEED))
            }
            None => Failures::None,
        }
    }
}

/// The failure plans the workloads use.
#[derive(Clone, Debug)]
pub enum Failures {
    /// Failure-free.
    None,
    /// Memoryless crash/restart churn.
    Churn(RandomChurn),
}

impl FailurePlan for Failures {
    fn decide_failures(
        &mut self,
        view: &RoundView<'_>,
    ) -> (Vec<CrashSpec>, Vec<(ProcessId, IncomingPolicy)>) {
        match self {
            Failures::None => (Vec::new(), Vec::new()),
            Failures::Churn(c) => c.decide_failures(view),
        }
    }
}

/// An injection plan that replays a pre-generated schedule.
///
/// A rumor whose source is crashed at its round is skipped, as the model
/// requires; every rumor handed to the adversary is logged for QoD
/// accounting (one whose source crashes in the same round is logged too and
/// classifies as inadmissible).
#[derive(Clone, Debug)]
pub struct Replay {
    schedule: Vec<(u64, ProcessId, RumorSpec)>,
    next: usize,
    log: Vec<InjectionLogEntry>,
}

impl Replay {
    /// Replays `schedule` (sorted by round).
    pub fn new(schedule: Vec<(u64, ProcessId, RumorSpec)>) -> Self {
        Replay {
            schedule,
            next: 0,
            log: Vec::new(),
        }
    }

    /// The injections handed out so far.
    pub fn log(&self) -> &[InjectionLogEntry] {
        &self.log
    }
}

impl InjectionPlan for Replay {
    fn decide_injections(&mut self, view: &RoundView<'_>) -> Vec<(ProcessId, RumorSpec)> {
        let mut out = Vec::new();
        while let Some((round, source, spec)) = self.schedule.get(self.next) {
            if *round > view.round.as_u64() {
                break;
            }
            self.next += 1;
            if *round < view.round.as_u64() || !view.alive[source.as_usize()] {
                continue;
            }
            self.log.push(InjectionLogEntry {
                round: Round(*round),
                source: *source,
                spec: spec.clone(),
            });
            out.push((*source, spec.clone()));
        }
        out
    }
}
