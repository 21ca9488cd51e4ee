//! `--backend net[:port]` flag plumbing, in an isolated process.
//!
//! The net default is a process-wide `OnceLock` (first writer wins), so
//! this lives in its own integration-test binary: nothing else here may
//! touch the backend/net defaults before the assertions run.

use congos_harness::cli::{parse, Command};
use congos_harness::{default_backend, default_net, RunSpec, DEFAULT_NET_PORT};

#[test]
fn backend_net_flag_reroutes_every_runspec() {
    assert_eq!(DEFAULT_NET_PORT, 20700);

    let args: Vec<String> = ["e1", "--backend", "net:21400"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let Ok(Command::Run(run)) = parse(&args) else {
        panic!("`exp e1 --backend net:21400` must parse");
    };
    let before = default_backend();
    run.install_defaults();
    // The engine backend is untouched by `net`.
    assert_eq!(default_backend(), before);

    assert_eq!(default_net(), Some(21400));
    let spec = RunSpec::new(8, 1, 10);
    assert_eq!(
        spec.net,
        Some(21400),
        "every RunSpec::new must pick up the process-wide net default"
    );
    // An explicit builder port still overrides the default.
    assert_eq!(RunSpec::new(8, 1, 10).net(21500).net, Some(21500));
}
