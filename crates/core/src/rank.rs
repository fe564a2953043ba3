//! Stage 5: ranking and classifying naming conventions (§5.5).

use crate::eval::{EvalResult, Metrics};
use std::fmt;

/// The quality class of an NC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NcClass {
    /// ≥3 unique hints consistent with training data at PPV ≥ 90%.
    Good,
    /// ≥3 unique hints at PPV ≥ 80%.
    Promising,
    /// Everything else.
    Poor,
}

impl NcClass {
    /// Good and promising NCs "usually extract a geohint consistent with
    /// the router's location" and are worth applying.
    pub fn usable(&self) -> bool {
        matches!(self, NcClass::Good | NcClass::Promising)
    }
}

impl fmt::Display for NcClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            NcClass::Good => "good",
            NcClass::Promising => "promising",
            NcClass::Poor => "poor",
        })
    }
}

/// Classify an NC from its evaluation.
pub fn classify_nc(metrics: &Metrics) -> NcClass {
    let uniq = metrics.unique_hints.len();
    if uniq >= 3 && metrics.ppv() >= 0.90 {
        NcClass::Good
    } else if uniq >= 3 && metrics.ppv() >= 0.80 {
        NcClass::Promising
    } else {
        NcClass::Poor
    }
}

/// Select the best of the candidate sets phase 4 built (member indices
/// with their evaluation): highest ATP, but prefer a set with *fewer
/// regexes* when it loses no more than three TPs (§5.5).
pub fn select_nc(
    mut candidates: Vec<(Vec<usize>, EvalResult)>,
) -> Option<(Vec<usize>, EvalResult)> {
    if candidates.is_empty() {
        return None;
    }
    candidates.sort_by(|a, b| {
        b.1.metrics
            .atp()
            .cmp(&a.1.metrics.atp())
            .then_with(|| a.0.len().cmp(&b.0.len()))
    });
    let best_tp = candidates[0].1.metrics.tp;
    let mut pick = 0usize;
    for (i, (members, eval)) in candidates.iter().enumerate().skip(1) {
        if members.len() < candidates[pick].0.len() && eval.metrics.tp + 3 >= best_tp {
            pick = i;
        }
    }
    Some(candidates.swap_remove(pick))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evalctx::HintId;

    fn metrics(tp: usize, fp: usize, fn_: usize, unk: usize, uniq: usize) -> Metrics {
        Metrics {
            tp,
            fp,
            fn_,
            unk,
            unique_hints: (0..uniq).map(|i| HintId(i as u32)).collect(),
        }
    }

    #[test]
    fn classification_thresholds() {
        assert_eq!(classify_nc(&metrics(90, 5, 0, 0, 3)), NcClass::Good);
        assert_eq!(classify_nc(&metrics(85, 15, 0, 0, 3)), NcClass::Promising);
        // Too few unique hints even at perfect PPV.
        assert_eq!(classify_nc(&metrics(100, 0, 0, 0, 2)), NcClass::Poor);
        // PPV below 80%.
        assert_eq!(classify_nc(&metrics(70, 30, 0, 0, 3)), NcClass::Poor);
        assert!(NcClass::Good.usable());
        assert!(NcClass::Promising.usable());
        assert!(!NcClass::Poor.usable());
    }

    /// A set of `n` members.
    fn members(n: usize) -> Vec<usize> {
        (0..n).collect()
    }

    fn eval_with(m: Metrics) -> EvalResult {
        EvalResult {
            metrics: m,
            per_host: vec![],
        }
    }

    #[test]
    fn select_prefers_atp() {
        let picked = select_nc(vec![
            (members(1), eval_with(metrics(10, 5, 0, 0, 1))),
            (members(1), eval_with(metrics(20, 0, 0, 0, 1))),
        ])
        .unwrap();
        assert_eq!(picked.1.metrics.tp, 20);
    }

    #[test]
    fn select_prefers_fewer_regexes_when_close() {
        // 3 regexes, 20 TP vs 1 regex, 18 TP → within 3 TPs, pick small.
        let picked = select_nc(vec![
            (members(3), eval_with(metrics(20, 0, 0, 0, 1))),
            (members(1), eval_with(metrics(18, 0, 0, 0, 1))),
        ])
        .unwrap();
        assert_eq!(picked.0.len(), 1);
        // ...but not when the gap is bigger.
        let picked = select_nc(vec![
            (members(3), eval_with(metrics(20, 0, 0, 0, 1))),
            (members(1), eval_with(metrics(10, 0, 0, 0, 1))),
        ])
        .unwrap();
        assert_eq!(picked.0.len(), 3);
    }

    #[test]
    fn select_empty_is_none() {
        assert!(select_nc(vec![]).is_none());
    }
}
