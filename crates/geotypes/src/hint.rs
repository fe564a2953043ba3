//! The geohint taxonomy of §2 of the paper.

use std::fmt;

/// The kind of geographic hint an operator embeds in a hostname.
///
/// Each variant corresponds to one subsection of §2 of the paper. The
/// fixed-width kinds drive both dictionary lookup (stage 2) and the capture
/// class emitted by the regex builder (appendix A): e.g. an IATA hint is
/// captured with `([a-z]{3})`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GeohintType {
    /// 3-letter IATA airport code (`lhr`, `sfo`) — the most common hint.
    Iata,
    /// 4-letter ICAO airport code (`egll`). The paper found no evidence of
    /// systematic use, but the dictionary still indexes them.
    Icao,
    /// 5-letter UN/LOCODE (`gblon`, `usqas`): country + 3-letter location.
    Locode,
    /// 6-letter CLLI prefix (`asbnva`, `londen`): 4-letter city + 2-letter
    /// state/country. Operators embed 6–11 characters; only the prefix
    /// geolocates to a city.
    Clli,
    /// City or town name spelled out (`ashburn`); ambiguous without a
    /// country or state code.
    CityName,
    /// Facility name or street address from PeeringDB (`529bryant`).
    Facility,
}

impl GeohintType {
    /// All hint kinds, in the order tables in the paper report them.
    pub const ALL: [GeohintType; 6] = [
        GeohintType::Iata,
        GeohintType::Icao,
        GeohintType::Locode,
        GeohintType::Clli,
        GeohintType::CityName,
        GeohintType::Facility,
    ];

    /// Short lowercase label used in reports and in the artifact file's
    /// `regex` records.
    pub fn label(&self) -> &'static str {
        match self {
            GeohintType::Iata => "iata",
            GeohintType::Icao => "icao",
            GeohintType::Locode => "locode",
            GeohintType::Clli => "clli",
            GeohintType::CityName => "city",
            GeohintType::Facility => "facility",
        }
    }

    /// Parse a label produced by [`GeohintType::label`].
    pub fn from_label(s: &str) -> Option<GeohintType> {
        GeohintType::ALL.iter().copied().find(|t| t.label() == s)
    }
}

impl fmt::Display for GeohintType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_roundtrip() {
        for t in GeohintType::ALL {
            assert_eq!(GeohintType::from_label(t.label()), Some(t));
        }
        assert_eq!(GeohintType::from_label("bogus"), None);
    }
}
