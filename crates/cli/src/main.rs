//! `hoiho` — the command-line interface.
//!
//! ```text
//! hoiho generate --routers 5000 --seed 7 --out corpus.txt [--ipv6]
//! hoiho learn    --corpus corpus.txt --out artifacts.txt [--no-learned-hints] [--threads N]
//! hoiho apply    --artifacts artifacts.txt HOSTNAME…   (or hostnames on stdin)
//! hoiho stats    --corpus corpus.txt
//! hoiho stale    --corpus corpus.txt --artifacts artifacts.txt
//! hoiho serve    --artifacts artifacts.txt --addr 127.0.0.1:3845 [--threads N]
//! ```
//!
//! All subcommands use the built-in reference dictionary.

use std::io::{Read, Write};
use std::process::ExitCode;

mod args;
mod commands;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    let opts = match args::Options::parse(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let result = match cmd.as_str() {
        "generate" => commands::generate(&opts),
        "learn" => commands::learn(&opts),
        "apply" => commands::apply(&opts),
        "stats" => commands::stats(&opts),
        "stale" => commands::stale(&opts),
        "serve" => commands::serve(&opts),
        "version" | "--version" | "-V" => {
            print_out(concat!("hoiho ", env!("CARGO_PKG_VERSION")));
            return ExitCode::SUCCESS;
        }
        "help" | "--help" | "-h" => {
            // Bare `help` prints usage; `help <subcommand>` prints that
            // subcommand's detailed help. An unknown topic stays a
            // usage error.
            let Some(topic) = opts.positional.first() else {
                print_out(usage());
                return ExitCode::SUCCESS;
            };
            match subcommand_help(topic) {
                Some(text) => {
                    print_out(text);
                    return ExitCode::SUCCESS;
                }
                None => {
                    eprintln!("error: unknown help topic '{topic}'\n\n{}", usage());
                    return ExitCode::from(2);
                }
            }
        }
        other => {
            eprintln!("error: unknown subcommand '{other}'\n\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage() -> &'static str {
    "hoiho — learn geolocation naming conventions from router hostnames

USAGE:
  hoiho generate --routers N [--operators N] [--seed S] [--ipv6] --out FILE
  hoiho learn    --corpus FILE [--no-learned-hints] [--threads N] --out FILE
  hoiho apply    --artifacts FILE [HOSTNAME…]      (stdin if none given)
  hoiho stats    --corpus FILE
  hoiho stale    --corpus FILE --artifacts FILE
  hoiho serve    --artifacts FILE [--addr HOST:PORT] [--threads N]
  hoiho help [SUBCOMMAND]
  hoiho version

FLAGS:
  --routers N           corpus size for `generate` (default 2000)
  --operators N         operator count (default routers/120)
  --seed S              generator seed (default 1)
  --ipv6                IPv6-style corpus (fewer hostnames and RTTs)
  --no-learned-hints    disable stage 4 (the paper's ablation)
  --threads N           worker threads (default 0 = auto-detect)
  --corpus FILE         corpus in the native corpus-v1 format
  --artifacts FILE      learned regexes + hints (hoiho-artifacts-v1)
  --out FILE            output path

OBSERVABILITY (learn/apply/stale/serve):
  --metrics FILE        write spans, counters, and histograms as JSON lines
  --progress            live per-suffix progress and a summary on stderr
  -v, --trace           print the span tree on exit

Run 'hoiho help SUBCOMMAND' for per-subcommand details."
}

/// Detailed help for one subcommand, or `None` for an unknown topic.
fn subcommand_help(topic: &str) -> Option<&'static str> {
    Some(match topic {
        "generate" => {
            "hoiho generate — synthesize an ITDK-style router corpus

USAGE:
  hoiho generate --routers N [--operators N] [--seed S] [--ipv6] --out FILE

FLAGS:
  --routers N    corpus size (default 2000)
  --operators N  operator count (default routers/120)
  --seed S       generator seed (default 1)
  --ipv6         IPv6-style corpus (fewer hostnames and RTTs)
  --out FILE     write the corpus-v1 file here"
        }
        "learn" => {
            "hoiho learn — learn per-suffix naming conventions from a corpus

USAGE:
  hoiho learn --corpus FILE [--no-learned-hints] [--threads N] --out FILE

FLAGS:
  --corpus FILE         corpus in the native corpus-v1 format
  --no-learned-hints    disable stage 4, the paper's ablation
  --threads N           worker threads (default 0 = auto-detect;
                        the resolved count prints under -v)
  --out FILE            write hoiho-artifacts-v1 here
  --metrics FILE        JSON-lines observability output
  --progress            live per-suffix progress on stderr
  -v, --trace           span tree on exit"
        }
        "apply" => {
            "hoiho apply — geolocate hostnames with learned artifacts

USAGE:
  hoiho apply --artifacts FILE [HOSTNAME…]

Hostnames come from the command line, or stdin (one per line) when
none are given. Output is one tab-separated line per hostname:
name, location, coordinates, hint type, hint (and '(learned)' when a
suffix-specific learned geohint decoded it); '-' for no inference.

FLAGS:
  --artifacts FILE   learned regexes + hints (hoiho-artifacts-v1)
  --metrics FILE, --progress, -v/--trace   observability"
        }
        "stats" => {
            "hoiho stats — summarize a corpus file

USAGE:
  hoiho stats --corpus FILE

Prints router count, hostname and RTT coverage, and vantage points."
        }
        "stale" => {
            "hoiho stale — flag hostnames whose geohint disagrees with siblings

USAGE:
  hoiho stale --corpus FILE --artifacts FILE

Applies the artifacts to the corpus and reports hostnames whose
hinted location is inconsistent with the RTT evidence of their
router's other interfaces (stale-name detection, §6.2). Like
`hoiho learn`, it ignores the RTTs of vantage points found to spoof
probe responses (§5.1.4).

FLAGS:
  --corpus FILE      corpus in the native corpus-v1 format
  --artifacts FILE   learned regexes + hints"
        }
        "serve" => {
            "hoiho serve — concurrent hostname-geolocation lookup service

USAGE:
  hoiho serve --artifacts FILE [--addr HOST:PORT] [--threads N]
              [--queue N] [--read-timeout-ms MS] [--idle-timeout-ms MS]
              [--max-body-bytes N] [--reload-ms MS]
              [--port-file FILE] [--metrics FILE]

Loads the artifact file into an in-memory per-suffix index and
answers lookups over two protocols on one port:

  line JSON:  {\"lookup\":\"HOST\"}   {\"batch\":[\"H1\",\"H2\"]}
              {\"cmd\":\"ping\"}      {\"cmd\":\"shutdown\"}
              (a bare hostname line is a lookup too)
  HTTP-lite:  GET /lookup?h=HOST    POST /batch (hostnames in body)
              GET /metrics  GET /healthz  POST /shutdown

The artifact file is polled for changes and hot-reloaded without
dropping connections; a corrupt file keeps the old index serving.
When the accept queue is full the server sheds load with an explicit
503/overloaded response.

Hostile and faulty clients are bounded: a request must complete
within the read timeout (a byte-at-a-time writer is cut off by a
byte-rate floor), idle keep-alive connections are reaped, and
oversized request lines, headers, or bodies are rejected with
explicit 400/413 responses. Every timeout/reject/shed path is a
serve.* counter on /metrics.

FLAGS:
  --artifacts FILE       learned regexes + hints to serve
  --addr HOST:PORT       bind address (default 127.0.0.1:3845; port 0
                         binds an ephemeral port)
  --threads N            worker threads (default 0 = auto-detect)
  --queue N              accept-queue depth before shedding (default 128)
  --read-timeout-ms MS   per-request completion deadline (default 5000)
  --idle-timeout-ms MS   reap a silent keep-alive connection (default 30000)
  --max-body-bytes N     reject HTTP bodies larger than N (default 1048576)
  --reload-ms MS         artifact poll period; 0 disables (default 1000)
  --port-file FILE       write the bound port here once listening
  --metrics FILE, --progress, -v/--trace   observability"
        }
        _ => return None,
    })
}

/// Print `text` and a newline on stdout. A closed pipe (`hoiho help |
/// head -1`) ends the output quietly, as it does for `hoiho apply`.
pub fn print_out(text: &str) {
    let _ = writeln!(std::io::stdout().lock(), "{text}");
}

/// Read hostnames from stdin, one per line, trimmed and skipping blank
/// lines. Bytes that are not UTF-8 are decoded lossily, as `serve`'s
/// `POST /batch` does, so a bad line does not end the input.
pub fn read_stdin_lines() -> Result<Vec<String>, String> {
    let mut bytes = Vec::new();
    std::io::stdin()
        .lock()
        .read_to_end(&mut bytes)
        .map_err(|e| format!("cannot read stdin: {e}"))?;
    Ok(String::from_utf8_lossy(&bytes)
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .map(str::to_string)
        .collect())
}

/// Write a file, mapping errors to strings.
pub fn write_file(path: &str, content: &str) -> Result<(), String> {
    let mut f = std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
    f.write_all(content.as_bytes())
        .map_err(|e| format!("cannot write {path}: {e}"))
}
