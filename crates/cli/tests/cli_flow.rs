//! End-to-end CLI flow: generate → stats → learn → apply → stale,
//! driving the installed binary.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> PathBuf {
    // Cargo builds integration-test binaries next to the crate's bins.
    let mut p = std::env::current_exe().expect("test exe");
    p.pop(); // deps/
    p.pop(); // debug/ or release/
    p.push(format!("hoiho{}", std::env::consts::EXE_SUFFIX));
    p
}

fn tmp(name: &str) -> String {
    std::env::temp_dir()
        .join(format!("hoiho-cli-test-{}-{name}", std::process::id()))
        .to_string_lossy()
        .into_owned()
}

#[test]
fn full_flow() {
    let corpus = tmp("corpus.txt");
    let artifacts = tmp("artifacts.txt");

    // generate
    let out = Command::new(bin())
        .args([
            "generate",
            "--routers",
            "2500",
            "--seed",
            "5",
            "--out",
            &corpus,
        ])
        .output()
        .expect("run generate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&corpus).expect("corpus written");
    assert!(text.starts_with("corpus-v1"));

    // stats
    let out = Command::new(bin())
        .args(["stats", "--corpus", &corpus])
        .output()
        .expect("run stats");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("routers:"), "{stdout}");

    // learn
    let out = Command::new(bin())
        .args(["learn", "--corpus", &corpus, "--out", &artifacts])
        .output()
        .expect("run learn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let art = std::fs::read_to_string(&artifacts).expect("artifacts written");
    assert!(art.starts_with("hoiho-artifacts-v1"));
    assert!(art.contains("suffix "), "no conventions learned:\n{art}");

    // apply to a hostname taken from the corpus itself.
    let some_host = text
        .lines()
        .find_map(|l| {
            let mut f = l.split_whitespace();
            (f.next() == Some("iface")).then(|| f.nth(1).map(str::to_string))?
        })
        .expect("corpus has hostnames");
    let out = Command::new(bin())
        .args(["apply", "--artifacts", &artifacts, &some_host])
        .output()
        .expect("run apply");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with(&some_host), "{stdout}");

    // stale
    let out = Command::new(bin())
        .args(["stale", "--corpus", &corpus, "--artifacts", &artifacts])
        .output()
        .expect("run stale");
    assert!(out.status.success());

    std::fs::remove_file(&corpus).ok();
    std::fs::remove_file(&artifacts).ok();
}

#[test]
fn bad_usage_fails_cleanly() {
    // No subcommand.
    let out = Command::new(bin()).output().expect("run");
    assert!(!out.status.success());

    // Unknown subcommand.
    let out = Command::new(bin()).arg("frobnicate").output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown subcommand"));

    // Missing required flag.
    let out = Command::new(bin()).args(["learn"]).output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--corpus"));

    // Nonexistent file.
    let out = Command::new(bin())
        .args(["stats", "--corpus", "/nonexistent/nope.txt"])
        .output()
        .expect("run");
    assert!(!out.status.success());

    // Help succeeds.
    let out = Command::new(bin()).arg("help").output().expect("run");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

#[test]
fn per_subcommand_help() {
    // `help <subcommand>` prints that subcommand's detailed help.
    for (topic, needle) in [
        ("learn", "--no-learned-hints"),
        ("apply", "tab-separated"),
        ("stale", "stale-name detection"),
        ("serve", "503/overloaded"),
        ("generate", "--routers"),
        ("stats", "--corpus"),
    ] {
        let out = Command::new(bin())
            .args(["help", topic])
            .output()
            .expect("run");
        assert!(out.status.success(), "help {topic}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains(&format!("hoiho {topic}")), "{stdout}");
        assert!(stdout.contains(needle), "help {topic} missing {needle:?}");
    }

    // An unknown topic stays a usage error.
    let out = Command::new(bin())
        .args(["help", "frobnicate"])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown help topic"));
}

#[test]
fn version_prints_workspace_version() {
    for argv in [&["version"][..], &["--version"], &["-V"]] {
        let out = Command::new(bin()).args(argv).output().expect("run");
        assert!(out.status.success(), "{argv:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(stdout.trim(), concat!("hoiho ", env!("CARGO_PKG_VERSION")));
    }
}

#[test]
fn usage_errors_exit_2_with_usage() {
    // Unknown flags: exit 2, usage on stderr.
    let out = Command::new(bin())
        .args(["learn", "--frobnicate", "x"])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag --frobnicate"), "{stderr}");
    assert!(stderr.contains("USAGE"), "{stderr}");

    // Unknown subcommand: also exit 2.
    let out = Command::new(bin()).arg("frobnicate").output().expect("run");
    assert_eq!(out.status.code(), Some(2));

    // No subcommand: exit 2.
    let out = Command::new(bin()).output().expect("run");
    assert_eq!(out.status.code(), Some(2));

    // There is one dictionary, so no subcommand takes --towns.
    let out = Command::new(bin())
        .args([
            "learn", "--towns", "5", "--corpus", "c.txt", "--out", "a.txt",
        ])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag --towns"), "{stderr}");
}

#[test]
fn corpus_past_the_builtin_dictionary_is_refused() {
    // A corpus names dictionary locations by id; one generated against a
    // larger dictionary must be refused, not misread.
    let entries = hoiho_geodb::GeoDb::builtin().len();
    let corpus = tmp("past-dictionary.txt");
    let artifacts = tmp("past-dictionary-artifacts.txt");
    let write = |loc: usize| {
        let text = format!("corpus-v1 x\nnode N0 loc={loc}\niface 10.0.0.1 a.example.net\n");
        std::fs::write(&corpus, text).expect("write corpus");
    };

    // The last id is still in range.
    write(entries - 1);
    let out = Command::new(bin())
        .args(["stats", "--corpus", &corpus])
        .output()
        .expect("run stats");
    assert!(out.status.success(), "{out:?}");

    write(entries);
    for argv in [
        &["stats", "--corpus", &corpus][..],
        &["learn", "--corpus", &corpus, "--out", &artifacts],
    ] {
        let out = Command::new(bin()).args(argv).output().expect("run");
        assert_eq!(out.status.code(), Some(1), "{argv:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("location {entries} "))
                && stderr.contains(&format!("has {entries} entries")),
            "{argv:?}: {stderr}"
        );
    }
    assert!(!std::path::Path::new(&artifacts).exists());
    std::fs::remove_file(&corpus).ok();
}

#[test]
fn serve_lookup_over_tcp_with_port_file_handshake() {
    use std::io::{BufRead, BufReader, Write};

    let corpus = tmp("serve-corpus.txt");
    let artifacts = tmp("serve-artifacts.txt");
    let port_file = tmp("serve-port.txt");

    for args in [
        vec![
            "generate",
            "--routers",
            "1500",
            "--seed",
            "11",
            "--out",
            corpus.as_str(),
        ],
        vec![
            "learn",
            "--corpus",
            corpus.as_str(),
            "--out",
            artifacts.as_str(),
        ],
    ] {
        let out = Command::new(bin()).args(&args).output().expect("run");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    let mut server = Command::new(bin())
        .args([
            "serve",
            "--artifacts",
            &artifacts,
            "--addr",
            "127.0.0.1:0",
            "--threads",
            "2",
            "--port-file",
            &port_file,
        ])
        .spawn()
        .expect("spawn serve");

    // Handshake: the port file appears once the listener is bound.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let port: u16 = loop {
        if let Ok(text) = std::fs::read_to_string(&port_file) {
            if let Ok(p) = text.trim().parse() {
                break p;
            }
        }
        assert!(std::time::Instant::now() < deadline, "port file never came");
        std::thread::sleep(std::time::Duration::from_millis(25));
    };

    // One lookup for a hostname from the corpus, then a clean drain.
    let host = std::fs::read_to_string(&corpus)
        .expect("corpus")
        .lines()
        .find_map(|l| {
            let mut f = l.split_whitespace();
            (f.next() == Some("iface")).then(|| f.nth(1).map(str::to_string))?
        })
        .expect("corpus has hostnames");
    let mut conn = std::net::TcpStream::connect(("127.0.0.1", port)).expect("connect");
    conn.set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    conn.write_all(format!("{{\"lookup\":\"{host}\"}}\n").as_bytes())
        .expect("write");
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("read");
    assert!(line.contains(&format!("\"host\":\"{host}\"")), "{line}");

    conn.write_all(b"{\"cmd\":\"shutdown\"}\n").expect("write");
    line.clear();
    reader.read_line(&mut line).expect("read");
    assert!(line.contains("\"draining\":true"), "{line}");
    drop(conn);

    let status = server.wait().expect("serve exits");
    assert!(status.success(), "serve must drain cleanly");

    for f in [&corpus, &artifacts, &port_file] {
        std::fs::remove_file(f).ok();
    }
}

#[test]
fn learn_with_metrics_and_progress() {
    let corpus = tmp("obs-corpus.txt");
    let artifacts = tmp("obs-artifacts.txt");
    let metrics = tmp("obs-metrics.jsonl");

    let out = Command::new(bin())
        .args([
            "generate",
            "--routers",
            "1500",
            "--seed",
            "9",
            "--out",
            &corpus,
        ])
        .output()
        .expect("run generate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = Command::new(bin())
        .args([
            "learn",
            "--corpus",
            &corpus,
            "--out",
            &artifacts,
            "--metrics",
            &metrics,
            "--progress",
            "-v",
        ])
        .output()
        .expect("run learn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // --progress: live per-suffix updates; -v: span tree at the end.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("[hoiho] suffix 1/"), "{stderr}");
    assert!(stderr.contains("-- span tree --"), "{stderr}");
    assert!(stderr.contains("learn.suffix"), "{stderr}");

    // --metrics: one JSON object per line with stable leading field.
    let text = std::fs::read_to_string(&metrics).expect("metrics written");
    assert!(!text.is_empty());
    for line in text.lines() {
        assert!(
            line.starts_with("{\"type\":\"") && line.ends_with('}'),
            "not a JSON object line: {line}"
        );
    }
    for needle in [
        r#""type":"span""#,
        r#""name":"learn.suffix""#,
        r#""type":"counter""#,
        r#""name":"itdk.parse.routers""#,
        r#""name":"learn.candidates_generated""#,
        r#""name":"learn.candidates_deduped""#,
        r#""name":"eval.hosts""#,
        r#""name":"eval.tp""#,
        r#""name":"rtt.consistency.accept""#,
        r#""type":"histogram""#,
        r#""type":"span_total""#,
    ] {
        assert!(text.contains(needle), "missing {needle} in:\n{text}");
    }

    std::fs::remove_file(&corpus).ok();
    std::fs::remove_file(&artifacts).ok();
    std::fs::remove_file(&metrics).ok();
}
