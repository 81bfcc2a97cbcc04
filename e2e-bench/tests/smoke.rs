//! A short run of every workload, through the binary, must pass its checks.

use std::process::Command;

use coplay_e2e_bench::session::WORKLOADS;

#[test]
fn every_workload_passes_a_two_second_run() {
    for w in WORKLOADS {
        let out = Command::new(env!("CARGO_BIN_EXE_e2e"))
            .args(["--workload", w.name, "--seed", "5", "--seconds", "2"])
            .args(["--trace", "0"])
            .output()
            .expect("run e2e");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{}: {}\n{stdout}",
            w.name,
            String::from_utf8_lossy(&out.stderr)
        );
        let last = stdout.lines().last().unwrap_or_default();
        assert!(last.starts_with("{\"correct\": true"), "{}: {last}", w.name);
        assert!(last.contains("\"setup_s\""), "{}: {last}", w.name);
    }
}
