//! Inputs must be byte-identical across processes, not only within one:
//! a `HashMap` iterated while building the corpus gives each process its
//! own order, which no single-process test can see.

use std::path::PathBuf;
use std::process::Command;

/// Generate the inputs at `seed` in a fresh `perfbench gen` process and
/// return what it printed and the bytes of both files it wrote.
fn generate(seed: u64, name: &str) -> (String, Vec<u8>, Vec<u8>) {
    let path = |kind: &str| -> PathBuf {
        [env!("CARGO_TARGET_TMPDIR"), &format!("{name}-{kind}.txt")]
            .iter()
            .collect()
    };
    let (corpus, stream) = (path("corpus"), path("stream"));
    let run = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["gen", &seed.to_string()])
        .arg(&corpus)
        .arg(&stream)
        .output()
        .expect("spawn perfbench gen");
    assert!(run.status.success(), "perfbench gen failed: {run:?}");
    let read = |p: &PathBuf| {
        let bytes = std::fs::read(p).expect("read generated file");
        std::fs::remove_file(p).expect("remove generated file");
        bytes
    };
    let printed = String::from_utf8(run.stdout).expect("utf-8 output");
    (printed, read(&corpus), read(&stream))
}

#[test]
fn itdk_corpus_is_identical_across_processes() {
    let seed = 3;
    let a = generate(seed, "a");
    let b = generate(seed, "b");
    assert!(!a.1.is_empty() && !a.2.is_empty());
    // The printed hash and spoofer count; the third field is a time.
    let fields = |printed: &str| -> Vec<String> {
        printed
            .split_whitespace()
            .take(2)
            .map(str::to_string)
            .collect()
    };
    assert_eq!(fields(&a.0).len(), 2, "printed {:?}", a.0);
    assert_eq!(fields(&a.0), fields(&b.0), "printed hashes differ");
    assert!(a.1 == b.1, "corpus bytes differ across processes");
    assert!(a.2 == b.2, "stream bytes differ across processes");
}
