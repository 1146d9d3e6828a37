//! The watchdog's livelock report through the CLI names the resource
//! the head of the reorder buffer is waiting on.

use ctcp_cli::{execute_outcome, Cli};

#[test]
fn eight_cluster_mcf_livelock_names_the_load_queue() {
    let argv = vec![
        "sweep",
        "--benches",
        "mcf",
        "--strategies",
        "base",
        "--clusters",
        "8",
        "--insts",
        "20000",
        "--jobs",
        "1",
    ];
    let out = execute_outcome(&Cli::parse(argv).unwrap()).unwrap();
    assert_eq!(out.exit_code, 1, "{}", out.output);
    assert!(out.output.contains("livelock"), "{}", out.output);
    assert!(
        out.output.contains("blocked on load-queue entry"),
        "{}",
        out.output
    );
}
