//! The on-disk manifest: a small `key = value` text file recording
//! everything needed to rebuild the code and reassemble the object.
//!
//! The format is deliberately dependency-free and diff-friendly:
//!
//! ```text
//! family = galloper
//! k = 4
//! l = 2
//! g = 1
//! resolution = 7
//! stripe_size = 65536
//! counts = 4,4,4,4,4,4,4
//! object_len = 1048576
//! num_groups = 2
//! ```

use core::fmt;
use std::collections::HashMap;

use galloper_codes::CodeSpec;

/// Errors from manifest parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ManifestError {
    /// A required key is absent.
    MissingKey(&'static str),
    /// A value failed to parse.
    BadValue {
        /// The offending key.
        key: &'static str,
        /// The raw value.
        value: String,
    },
    /// A line is not `key = value`.
    BadLine(String),
    /// `num_groups` disagrees with the groups `object_len` fills at the
    /// code's message length.
    GroupCount {
        /// Groups the manifest records.
        num_groups: usize,
        /// Groups its `object_len` needs.
        expected: usize,
    },
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManifestError::MissingKey(k) => write!(f, "manifest is missing key '{k}'"),
            ManifestError::BadValue { key, value } => {
                write!(f, "manifest value for '{key}' is invalid: '{value}'")
            }
            ManifestError::BadLine(l) => write!(f, "manifest line is not 'key = value': '{l}'"),
            ManifestError::GroupCount {
                num_groups,
                expected,
            } => write!(
                f,
                "manifest records {num_groups} coding groups, but its object_len fills {expected}"
            ),
        }
    }
}

impl std::error::Error for ManifestError {}

/// A full manifest: code spec plus object metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// The code used to encode the object.
    pub spec: CodeSpec,
    /// Exact object length in bytes.
    pub object_len: usize,
    /// Number of coding groups.
    pub num_groups: usize,
}

impl Manifest {
    /// Serializes to the `key = value` text format.
    pub fn to_text(&self) -> String {
        let counts = self
            .spec
            .counts
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "family = {}\nk = {}\nl = {}\ng = {}\nresolution = {}\nstripe_size = {}\ncounts = {}\nobject_len = {}\nnum_groups = {}\n",
            self.spec.family,
            self.spec.k,
            self.spec.l,
            self.spec.g,
            self.spec.resolution,
            self.spec.stripe_size,
            counts,
            self.object_len,
            self.num_groups,
        )
    }

    /// Parses the text format produced by [`Manifest::to_text`].
    ///
    /// # Errors
    ///
    /// [`ManifestError`] describing the first malformed or missing entry.
    pub fn from_text(text: &str) -> Result<Self, ManifestError> {
        let mut map = HashMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| ManifestError::BadLine(line.to_string()))?;
            map.insert(key.trim().to_string(), value.trim().to_string());
        }
        fn get<'a>(
            map: &'a HashMap<String, String>,
            key: &'static str,
        ) -> Result<&'a str, ManifestError> {
            map.get(key)
                .map(String::as_str)
                .ok_or(ManifestError::MissingKey(key))
        }
        fn parse_usize(
            map: &HashMap<String, String>,
            key: &'static str,
        ) -> Result<usize, ManifestError> {
            let raw = get(map, key)?;
            raw.parse().map_err(|_| ManifestError::BadValue {
                key,
                value: raw.to_string(),
            })
        }
        let counts_raw = get(&map, "counts")?;
        let counts = if counts_raw.is_empty() {
            Vec::new()
        } else {
            counts_raw
                .split(',')
                .map(|v| {
                    v.trim().parse().map_err(|_| ManifestError::BadValue {
                        key: "counts",
                        value: counts_raw.to_string(),
                    })
                })
                .collect::<Result<Vec<usize>, _>>()?
        };
        Ok(Manifest {
            spec: CodeSpec {
                family: get(&map, "family")?.to_string(),
                k: parse_usize(&map, "k")?,
                l: parse_usize(&map, "l")?,
                g: parse_usize(&map, "g")?,
                resolution: parse_usize(&map, "resolution")?,
                stripe_size: parse_usize(&map, "stripe_size")?,
                counts,
            },
            object_len: parse_usize(&map, "object_len")?,
            num_groups: parse_usize(&map, "num_groups")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest {
            spec: CodeSpec {
                family: "galloper".into(),
                k: 4,
                l: 2,
                g: 1,
                resolution: 7,
                stripe_size: 65536,
                counts: vec![4, 4, 4, 4, 4, 4, 4],
            },
            object_len: 1048576,
            num_groups: 2,
        }
    }

    #[test]
    fn roundtrip() {
        let m = sample();
        let text = m.to_text();
        assert_eq!(Manifest::from_text(&text).unwrap(), m);
    }

    #[test]
    fn empty_counts_roundtrip() {
        let mut m = sample();
        m.spec.counts.clear();
        assert_eq!(Manifest::from_text(&m.to_text()).unwrap(), m);
    }

    #[test]
    fn tolerates_comments_and_blanks() {
        let mut text = String::from("# galloper manifest\n\n");
        text.push_str(&sample().to_text());
        assert_eq!(Manifest::from_text(&text).unwrap(), sample());
    }

    #[test]
    fn reports_missing_key() {
        let text = sample().to_text().replace("object_len = 1048576\n", "");
        assert_eq!(
            Manifest::from_text(&text),
            Err(ManifestError::MissingKey("object_len"))
        );
    }

    #[test]
    fn reports_bad_value() {
        let text = sample().to_text().replace("k = 4", "k = four");
        assert!(matches!(
            Manifest::from_text(&text),
            Err(ManifestError::BadValue { key: "k", .. })
        ));
    }

    #[test]
    fn reports_bad_line() {
        assert!(matches!(
            Manifest::from_text("family galloper"),
            Err(ManifestError::BadLine(_))
        ));
    }
}
