//! The `exp` command line: one id table and one flag parser for every
//! experiment (see EXPERIMENTS.md; `exp` with no arguments prints the
//! option list). Bad input — an unknown id or flag, a malformed value,
//! `--topology` on an experiment that sweeps topology itself — prints the
//! usage and exits 2.

use congos_sim::{EngineBackend, TopologySpec};

use crate::experiments::{self, e13_anonymity, e14_topology, e3_memory, Experiment, SUITE};
use crate::json::Json;
use crate::run::{set_default_backend, set_default_net, set_default_topology, DEFAULT_NET_PORT};
use crate::table::{tables_to_markdown, Table};

/// Printed with every usage error.
const USAGE: &str = "\
usage: exp <e1…e12|e3_mem|e13|e14|all> [options]
       exp report <results.json>

  --full             the larger sweeps
  --csv              machine-readable tables
  --backend <b>      seq | par[:N] | net[:PORT]  (else CONGOS_BACKEND)
  --topology <t>     complete | expander:<d> | churn:<p>[@expander:<d>]
                     (else CONGOS_TOPOLOGY; not for e13/e14, which sweep it)
  --json <path>      e3_mem/e13/e14: the BENCH row set (default
                     crates/bench/BENCH_*.json); others: the tables
  --budget-mib <x>   exit 1 if the peak RSS exceeds x MiB";

/// Where runs execute.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Backend {
    /// The in-process engine on this backend.
    Engine(EngineBackend),
    /// A localhost TCP cluster from this base port.
    Net(u16),
}

impl std::str::FromStr for Backend {
    type Err = String;

    /// Parses `net` / `net:<port>`, or anything [`EngineBackend`] parses.
    fn from_str(s: &str) -> Result<Self, String> {
        match s.strip_prefix("net") {
            Some("") => Ok(Backend::Net(DEFAULT_NET_PORT)),
            Some(port) if port.starts_with(':') => port[1..]
                .parse()
                .map(Backend::Net)
                .map_err(|_| format!("bad port in --backend {s}")),
            _ => s.parse().map(Backend::Engine),
        }
    }
}

/// A parsed `exp` command line.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Run one experiment, or `all` of them.
    Run(RunArgs),
    /// Render an `exp all --json` document as markdown.
    Report(String),
}

/// The options of an experiment run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunArgs {
    /// Experiment id (`e1`…`e14`, `e3_mem` or `all`).
    pub(crate) id: String,
    /// `--full`: the larger sweeps.
    pub(crate) full: bool,
    /// `--csv`: machine-readable output.
    pub(crate) csv: bool,
    /// `--backend`.
    pub(crate) backend: Option<Backend>,
    /// `--topology`.
    pub(crate) topology: Option<TopologySpec>,
    /// `--json`.
    pub(crate) json: Option<String>,
    /// `--budget-mib`.
    pub(crate) budget_mib: Option<f64>,
}

/// The tables of experiment `id` (`all` runs the whole suite).
fn experiment(id: &str) -> Option<Experiment> {
    match id {
        "all" => Some(experiments::run_all),
        "e3_mem" => Some(e3_memory::run),
        _ => SUITE.iter().find(|(k, _)| *k == id).map(|&(_, run)| run),
    }
}

/// Builds a BENCH row set from an experiment's tables.
type BenchDoc = fn(&[Table]) -> Json;

/// The default path of experiment `id`'s BENCH row set, and its builder.
fn bench_doc(id: &str) -> Option<(&'static str, BenchDoc)> {
    match id {
        "e3_mem" => Some(("crates/bench/BENCH_memory.json", e3_memory::bench_json)),
        "e13" => Some((
            "crates/bench/BENCH_anonymity.json",
            e13_anonymity::bench_json,
        )),
        "e14" => Some(("crates/bench/BENCH_topology.json", e14_topology::bench_json)),
        _ => None,
    }
}

/// Parses an `exp` command line (without the program name).
pub fn parse(args: &[String]) -> Result<Command, String> {
    let mut args = args.iter();
    let id = args.next().ok_or("missing experiment id")?;
    if id == "report" {
        return match (args.next(), args.next()) {
            (Some(path), None) if !path.starts_with("--") => Ok(Command::Report(path.clone())),
            _ => Err("report takes exactly one <results.json> path".into()),
        };
    }
    if experiment(id).is_none() {
        return Err(format!("unknown experiment id {id:?}"));
    }
    let mut run = RunArgs {
        id: id.clone(),
        ..RunArgs::default()
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--full" => run.full = true,
            "--csv" => run.csv = true,
            "--backend" => run.backend = Some(value()?.parse()?),
            "--topology" if matches!(id.as_str(), "e13" | "e14") => {
                return Err(format!(
                    "{id} sweeps the topology itself; --topology does not apply"
                ))
            }
            "--topology" => run.topology = Some(value()?.parse()?),
            "--json" => run.json = Some(value()?.clone()),
            "--budget-mib" => {
                let v = value()?;
                run.budget_mib = Some(v.parse().map_err(|_| format!("bad --budget-mib {v:?}"))?);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Command::Run(run))
}

/// Runs an `exp` command line (without the program name) and returns the
/// process exit code.
pub fn main(args: &[String]) -> i32 {
    match parse(args) {
        Ok(Command::Run(run)) => run.execute(),
        Ok(Command::Report(path)) => match report(&path) {
            Ok(markdown) => {
                print!("{markdown}");
                0
            }
            Err(e) => {
                eprintln!("exp report: {e}");
                1
            }
        },
        Err(e) => {
            eprintln!("exp: {e}\n{USAGE}");
            2
        }
    }
}

impl RunArgs {
    /// Installs `--backend` and `--topology` as the process-wide defaults
    /// every [`RunSpec::new`](crate::RunSpec::new) picks up. First writer
    /// wins, so call this before any run.
    pub fn install_defaults(&self) {
        match self.backend {
            Some(Backend::Engine(backend)) => _ = set_default_backend(backend),
            Some(Backend::Net(port)) => _ = set_default_net(port),
            None => {}
        }
        if let Some(topology) = self.topology {
            set_default_topology(topology);
        }
    }

    /// Installs the defaults, runs the experiment, prints its tables,
    /// writes its JSON and checks the RSS budget. Returns the exit code.
    fn execute(&self) -> i32 {
        self.install_defaults();
        let run = experiment(&self.id).expect("parse() checked the id");
        let tables = run(self.full);
        for table in &tables {
            if self.csv {
                println!("# {}", table.title());
                print!("{}", table.to_csv());
            } else {
                table.print();
            }
        }
        match bench_doc(&self.id) {
            Some((default, doc)) => {
                write_json(self.json.as_deref().unwrap_or(default), &doc(&tables))
            }
            None => {
                if let Some(path) = &self.json {
                    let doc = Json::object([
                        ("suite", Json::from("confidential-gossip experiments")),
                        ("full", Json::from(self.full)),
                        (
                            "tables",
                            Json::Array(tables.iter().map(Table::to_json).collect()),
                        ),
                    ]);
                    write_json(path, &doc);
                }
            }
        }

        crate::mem::print_process_summary(&format!("exp {}", self.id));
        if let Some(budget) = self.budget_mib {
            let peak = crate::mem::peak_rss_bytes() as f64 / (1024.0 * 1024.0);
            if peak > budget {
                eprintln!("FAIL: peak-RSS {peak:.1} MiB exceeds the {budget:.1} MiB budget");
                return 1;
            }
            eprintln!("peak-RSS {peak:.1} MiB within the {budget:.1} MiB budget");
        }
        0
    }
}

/// Writes `doc` to `path`, or says why not. A missing parent directory
/// skips the write, so a run outside the repo root leaves no stray file.
fn write_json(path: &str, doc: &Json) {
    let parent_exists = std::path::Path::new(path)
        .parent()
        .is_none_or(|p| p.as_os_str().is_empty() || p.is_dir());
    if !parent_exists {
        eprintln!("skipping {path}: parent directory missing (run from the repo root to emit it)");
        return;
    }
    match std::fs::write(path, doc.to_string_pretty() + "\n") {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

/// Renders the tables document at `path` as a markdown report — the
/// generator behind EXPERIMENTS.md's measured sections.
fn report(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = Json::parse(&text)?;
    let tables = doc["tables"]
        .as_array()
        .ok_or("no tables array")?
        .iter()
        .map(Table::from_json)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(format!(
        "# Experiment report\n\nGenerated from `{path}` (full sweeps: {}).\n\n{}",
        doc["full"].as_bool().unwrap_or(false),
        tables_to_markdown(&tables)
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(line: &str) -> Result<Command, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&args)
    }

    fn run_args(line: &str) -> RunArgs {
        match parse_line(line) {
            Ok(Command::Run(run)) => run,
            other => panic!("{line:?} parsed to {other:?}"),
        }
    }

    #[test]
    fn accepts_one_valid_line_per_id() {
        for &(id, _) in &SUITE {
            assert_eq!(run_args(&format!("{id} --csv")).id, id);
        }
        let mem = run_args("e3_mem --json target/m.json --budget-mib 1024 --backend par:2");
        assert_eq!(mem.json.as_deref(), Some("target/m.json"));
        assert_eq!(mem.budget_mib, Some(1024.0));
        assert_eq!(
            mem.backend,
            Some(Backend::Engine(EngineBackend::Parallel { workers: 2 }))
        );
        let all = run_args("all --full --topology expander:4 --backend net");
        assert!(all.full);
        assert_eq!(all.topology, Some(TopologySpec::Expander { degree: 4 }));
        assert_eq!(all.backend, Some(Backend::Net(DEFAULT_NET_PORT)));
        assert_eq!(
            run_args("e1 --backend net:21400").backend,
            Some(Backend::Net(21400))
        );
        assert_eq!(
            parse_line("report results/full.json"),
            Ok(Command::Report("results/full.json".into()))
        );
    }

    #[test]
    fn rejects_bad_input() {
        for line in [
            "",
            "e15",
            "exp_e1",
            "e1 --quick",
            "e1 extra",
            "e1 --backend",
            "e1 --backend auto",
            "e1 --backend net:port",
            "e2 --topology ring",
            "e3_mem --budget-mib lots",
            "e13 --topology complete",
            "e14 --topology expander:4",
            "report",
            "report a.json b.json",
        ] {
            assert!(parse_line(line).is_err(), "{line:?} should be rejected");
        }
    }

    #[test]
    fn exit_code_two_on_usage_errors() {
        assert_eq!(main(&["e99".to_string()]), 2);
        assert_eq!(
            main(&["e14".to_string(), "--topology".into(), "complete".into()]),
            2
        );
    }
}
