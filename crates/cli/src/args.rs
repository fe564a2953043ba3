//! Minimal flag parsing: `--key value`, boolean `--key`, and positional
//! arguments, with typed accessors.

use std::collections::HashMap;

/// Flags that take no value.
const BOOL_FLAGS: &[&str] = &["--ipv6", "--no-learned-hints", "--progress", "--trace"];

/// Flags that take a value. Anything dash-prefixed outside both lists is
/// an unknown flag — a usage error, not a positional.
const VALUE_FLAGS: &[&str] = &[
    "--routers",
    "--operators",
    "--seed",
    "--corpus",
    "--artifacts",
    "--out",
    "--metrics",
    "--addr",
    "--threads",
    "--queue",
    "--read-timeout-ms",
    "--idle-timeout-ms",
    "--max-body-bytes",
    "--reload-ms",
    "--port-file",
];

/// Parsed command-line options.
#[derive(Debug, Default)]
pub struct Options {
    flags: HashMap<String, String>,
    bools: Vec<String>,
    /// Positional arguments in order.
    pub positional: Vec<String>,
}

impl Options {
    /// Parse the argument list after the subcommand.
    pub fn parse(args: &[String]) -> Result<Options, String> {
        let mut o = Options::default();
        let mut it = args.iter().peekable();
        while let Some(a) = it.next() {
            if a == "-v" {
                // Shorthand for --trace.
                o.bools.push("--trace".to_string());
            } else if let Some(stripped) = a.strip_prefix("--") {
                if BOOL_FLAGS.contains(&a.as_str()) {
                    o.bools.push(a.clone());
                } else if VALUE_FLAGS.contains(&a.as_str()) {
                    let v = it
                        .next()
                        .ok_or_else(|| format!("flag --{stripped} needs a value"))?;
                    if v.starts_with("--") {
                        return Err(format!("flag --{stripped} needs a value, got {v}"));
                    }
                    o.flags.insert(stripped.to_string(), v.clone());
                } else {
                    return Err(format!("unknown flag {a}"));
                }
            } else if a.starts_with('-') && a.len() > 1 {
                return Err(format!("unknown flag {a}"));
            } else {
                o.positional.push(a.clone());
            }
        }
        Ok(o)
    }

    /// A string flag.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    /// A required string flag.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing --{key}"))
    }

    /// A numeric flag with default.
    pub fn num(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key} must be a number")),
        }
    }

    /// A boolean flag.
    pub fn has(&self, key: &str) -> bool {
        self.bools.iter().any(|b| b == key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_flags_bools_and_positionals() {
        let o = Options::parse(&argv(&[
            "--routers",
            "500",
            "--ipv6",
            "host1.example.net",
            "--out",
            "f.txt",
            "host2",
        ]))
        .unwrap();
        assert_eq!(o.get("routers"), Some("500"));
        assert_eq!(o.get("out"), Some("f.txt"));
        assert!(o.has("--ipv6"));
        assert_eq!(o.positional, vec!["host1.example.net", "host2"]);
    }

    #[test]
    fn missing_value_is_error() {
        assert!(Options::parse(&argv(&["--out"])).is_err());
        assert!(Options::parse(&argv(&["--out", "--ipv6"])).is_err());
    }

    #[test]
    fn unknown_flags_are_errors() {
        let e = Options::parse(&argv(&["--frobnicate", "x"])).unwrap_err();
        assert!(e.contains("unknown flag --frobnicate"), "{e}");
        assert!(Options::parse(&argv(&["-x"])).is_err());
        // A bare "-" is a conventional stdin placeholder, not a flag.
        assert!(Options::parse(&argv(&["-"])).is_ok());
    }

    #[test]
    fn observability_flags_parse() {
        let o = Options::parse(&argv(&["--metrics", "m.jsonl", "--progress", "-v"])).unwrap();
        assert_eq!(o.get("metrics"), Some("m.jsonl"));
        assert!(o.has("--progress"));
        assert!(o.has("--trace"), "-v must alias --trace");
        let o = Options::parse(&argv(&["--trace"])).unwrap();
        assert!(o.has("--trace"));
    }

    #[test]
    fn typed_accessors() {
        let o = Options::parse(&argv(&["--seed", "42"])).unwrap();
        assert_eq!(o.num("seed", 1).unwrap(), 42);
        assert_eq!(o.num("routers", 2000).unwrap(), 2000);
        assert!(o.num("seed", 0).is_ok());
        let bad = Options::parse(&argv(&["--seed", "xyz"])).unwrap();
        assert!(bad.num("seed", 1).is_err());
        assert!(o.require("seed").is_ok());
        assert!(o.require("nope").is_err());
    }
}
