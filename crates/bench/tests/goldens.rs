//! The `repro_*` bins are the regression oracle for the paper's numbers:
//! each one's default-scale stdout must equal its golden file in
//! `crates/bench/goldens/`. Every bin runs in its own process, so this is
//! also a cross-process determinism check of the repro path.
//!
//! After a deliberate change to a table, regenerate the goldens with the
//! command in EXPERIMENTS.md and show the changed rows in CHANGES.md.

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// At most this many bins run at once.
const MAX_CHILDREN: usize = 4;

/// `(golden name, binary, arguments)` for every reference output.
const RUNS: &[(&str, &str, &[&str])] = &[
    ("repro_table1", env!("CARGO_BIN_EXE_repro_table1"), &[]),
    ("repro_fig5", env!("CARGO_BIN_EXE_repro_fig5"), &[]),
    ("repro_table2", env!("CARGO_BIN_EXE_repro_table2"), &[]),
    ("repro_table3", env!("CARGO_BIN_EXE_repro_table3"), &[]),
    ("repro_table4", env!("CARGO_BIN_EXE_repro_table4"), &[]),
    ("repro_fig9", env!("CARGO_BIN_EXE_repro_fig9"), &[]),
    (
        "repro_fig9_no_learned",
        env!("CARGO_BIN_EXE_repro_fig9"),
        &["--no-learned"],
    ),
    ("repro_table5", env!("CARGO_BIN_EXE_repro_table5"), &[]),
    ("repro_fig10", env!("CARGO_BIN_EXE_repro_fig10"), &[]),
    ("repro_table6", env!("CARGO_BIN_EXE_repro_table6"), &[]),
    ("repro_fig11", env!("CARGO_BIN_EXE_repro_fig11"), &[]),
    ("repro_fig2", env!("CARGO_BIN_EXE_repro_fig2"), &[]),
    ("repro_fig13", env!("CARGO_BIN_EXE_repro_fig13"), &[]),
    (
        "repro_cbg_audit",
        env!("CARGO_BIN_EXE_repro_cbg_audit"),
        &[],
    ),
    (
        "repro_ablations",
        env!("CARGO_BIN_EXE_repro_ablations"),
        &[],
    ),
];

/// Run one bin at the default scale and describe how its stdout differs
/// from the golden, or `None` when it matches.
fn check(name: &str, bin: &str, args: &[&str]) -> Option<String> {
    let golden: PathBuf = [
        env!("CARGO_MANIFEST_DIR"),
        "goldens",
        &format!("{name}.txt"),
    ]
    .iter()
    .collect();
    let want = std::fs::read_to_string(&golden)
        .unwrap_or_else(|e| panic!("read {}: {e}", golden.display()));
    let run = Command::new(bin)
        .args(args)
        .env_remove("HOIHO_SCALE")
        .stderr(Stdio::null())
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    if !run.status.success() {
        return Some(format!("{name}: exited with {}", run.status));
    }
    let got = String::from_utf8_lossy(&run.stdout);
    if got == want {
        return None;
    }
    let (mut got_lines, mut want_lines) = (got.lines(), want.lines());
    for line in 1.. {
        match (want_lines.next(), got_lines.next()) {
            (Some(w), Some(g)) if w == g => continue,
            (None, None) => return Some(format!("{name}: line endings differ")),
            (w, g) => {
                return Some(format!(
                    "{name}: line {line} differs\n  golden: {}\n  actual: {}",
                    w.unwrap_or("<end of output>"),
                    g.unwrap_or("<end of output>"),
                ))
            }
        }
    }
    unreachable!()
}

#[test]
fn repro_bins_match_their_goldens() {
    let next = AtomicUsize::new(0);
    let failures = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..MAX_CHILDREN {
            s.spawn(|| {
                while let Some(&(name, bin, args)) = RUNS.get(next.fetch_add(1, Ordering::Relaxed))
                {
                    if let Some(diff) = check(name, bin, args) {
                        failures.lock().unwrap().push(diff);
                    }
                }
            });
        }
    });
    let mut failures = failures.into_inner().unwrap();
    failures.sort();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
