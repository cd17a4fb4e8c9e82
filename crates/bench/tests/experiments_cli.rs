//! The `experiments` binary's command line.

use samoyeds_bench::EXPERIMENTS;
use std::process::Command;

#[test]
fn an_unknown_id_fails_the_run_before_any_experiment_starts() {
    let dir = std::env::temp_dir().join(format!("samoyeds-experiments-cli-{}", std::process::id()));
    // A leftover directory from an earlier run with the same pid would
    // already hold `results/`.
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear the stale temp directory");
    }
    std::fs::create_dir_all(&dir).expect("create the temp directory");
    let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["fig02_breakdown", "no_such_experiment"])
        .current_dir(&dir)
        .output()
        .expect("run the experiments binary");
    let results_created = dir.join("results").exists();
    std::fs::remove_dir_all(&dir).expect("remove the temp directory");

    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!output.status.success(), "exit {:?}", output.status);
    assert!(stderr.contains("no_such_experiment"), "{stderr}");
    for (id, _) in EXPERIMENTS {
        assert!(stderr.contains(id), "{id} not listed: {stderr}");
    }
    assert!(!results_created, "results/ written despite the unknown id");
}
