//! Shared infrastructure for the reproduction harness.
//!
//! Every table and figure of the paper's evaluation has a `repro_*`
//! binary in `src/bin/`; this library provides the pieces they share —
//! the scaled ITDK presets, the ground-truth operator suite ([`gt`]),
//! plain-text table rendering, and quantile helpers.
//!
//! Scale is controlled with `HOIHO_SCALE` (routers per IPv4 corpus;
//! IPv6 corpora are generated at ~22% of that, matching the paper's
//! ratio). The default keeps full-pipeline runs to a couple of minutes
//! in release builds.

pub mod gt;

use hoiho_geodb::synth::expand_with_towns;
use hoiho_geodb::{GeoDb, GeoDbBuilder};
use hoiho_itdk::generate::Generated;
use hoiho_itdk::spec::CorpusSpec;

/// The reference dictionary for the scaled corpora: the curated cities
/// plus a synthetic tail of towns, so routers occupy far more places
/// than VPs cover (the paper's dictionary has 444k cities vs ~100 VPs).
pub fn dictionary() -> GeoDb {
    let base = GeoDb::builtin();
    expand_with_towns(GeoDbBuilder::with_builtin_data(), &base, 800, 0xD1C7).build()
}

/// Routers per IPv4 corpus (env `HOIHO_SCALE`, default 12_000).
pub fn scale() -> usize {
    std::env::var("HOIHO_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(12_000)
}

/// The four ITDK-style corpora of table 1 at the configured scale.
pub fn four_itdks(db: &GeoDb) -> Vec<Generated> {
    let s = scale();
    let v6 = (s * 559 / 2560).max(500); // paper's IPv6/IPv4 router ratio
    let specs = [
        CorpusSpec::ipv4_aug2020(s),
        CorpusSpec::ipv4_mar2021(s),
        CorpusSpec::ipv6_nov2020(v6),
        CorpusSpec::ipv6_mar2021(v6),
    ];
    specs
        .into_iter()
        .map(|spec| hoiho_itdk::generate(db, &spec))
        .collect()
}

/// Simple fixed-width text table.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with a header row.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Table {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn row<S: Into<String>>(&mut self, cols: Vec<S>) {
        self.rows.push(cols.into_iter().map(Into::into).collect());
    }

    /// Render with column alignment.
    pub fn render(&self) -> String {
        let ncols = self
            .rows
            .iter()
            .chain(std::iter::once(&self.header))
            .map(Vec::len)
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; ncols];
        for row in std::iter::once(&self.header).chain(self.rows.iter()) {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let fmt_row = |row: &[String]| {
            let mut s = String::new();
            for (i, c) in row.iter().enumerate() {
                if i > 0 {
                    s.push_str("  ");
                }
                s.push_str(c);
                for _ in c.chars().count()..widths[i] {
                    s.push(' ');
                }
            }
            s.trim_end().to_string()
        };
        let mut out = fmt_row(&self.header);
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r));
            out.push('\n');
        }
        out
    }
}

/// The q-quantile (0..=1) of an unsorted sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let idx = ((v.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
    v[idx]
}

/// Fraction of the sample at or below `x`.
pub fn cdf_at(values: &[f64], x: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().filter(|&&v| v <= x).count() as f64 / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["a", "bb"]);
        t.row(vec!["1", "2"]);
        t.row(vec!["333", "4"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a"));
        assert!(lines[2].starts_with("1"));
    }

    #[test]
    fn quantile_and_cdf() {
        let v = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert!((cdf_at(&v, 3.0) - 0.6).abs() < 1e-9);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn scale_has_default() {
        assert!(scale() >= 500);
    }
}
