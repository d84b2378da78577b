//! Log levels and target-scoped filtering.
//!
//! A [`Filter`] is a default [`Level`] plus per-target overrides, parsed
//! from the `FEDMIGR_LOG` syntax: `info`, `debug,drl=trace`, or
//! `warn,net=off,core=debug`. Target matching is longest-prefix, so
//! `core=debug` covers `core::runner` too.

use std::fmt;
use std::str::FromStr;

/// Severity of a log record, most severe first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// The operation failed; output or state may be incomplete.
    Error,
    /// Something surprising that the run survives.
    Warn,
    /// Progress lines a human running an experiment wants to see.
    Info,
    /// Per-run diagnostics (configs resolved, phases entered).
    Debug,
    /// Per-epoch / per-transfer firehose.
    Trace,
}

impl Level {
    /// Canonical lowercase name.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for Level {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "error" => Ok(Level::Error),
            "warn" | "warning" => Ok(Level::Warn),
            "info" => Ok(Level::Info),
            "debug" => Ok(Level::Debug),
            "trace" => Ok(Level::Trace),
            other => Err(format!("unknown log level {other:?}")),
        }
    }
}

/// A level threshold: everything at most this severe passes; `None` is
/// fully silent.
pub type Threshold = Option<Level>;

fn parse_threshold(s: &str) -> Result<Threshold, String> {
    match s.trim().to_ascii_lowercase().as_str() {
        "off" | "none" => Ok(None),
        other => other.parse::<Level>().map(Some),
    }
}

/// Target-scoped level filter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Filter {
    default: Threshold,
    /// `(target prefix, threshold)`, consulted by longest matching prefix.
    targets: Vec<(String, Threshold)>,
}

impl Default for Filter {
    /// `info` everywhere — keeps the runner's historical progress lines
    /// visible without any configuration.
    fn default() -> Self {
        Self { default: Some(Level::Info), targets: Vec::new() }
    }
}

impl Filter {
    /// A filter passing `level` and above for every target.
    pub fn at(level: Level) -> Self {
        Self { default: Some(level), targets: Vec::new() }
    }

    /// Parses the `FEDMIGR_LOG` syntax: a comma-separated list of either a
    /// bare threshold (the new default) or `target=threshold` overrides.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut filter = Self::default();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            match part.split_once('=') {
                Some((target, level)) => {
                    let t = target.trim();
                    if t.is_empty() {
                        return Err(format!("empty target in {part:?}"));
                    }
                    filter.targets.push((t.to_string(), parse_threshold(level)?));
                }
                None => filter.default = parse_threshold(part)?,
            }
        }
        // Longest prefix first so `enabled` can take the first match.
        filter.targets.sort_by_key(|t| std::cmp::Reverse(t.0.len()));
        Ok(filter)
    }

    /// Whether a record at `level` for `target` passes this filter.
    pub fn enabled(&self, target: &str, level: Level) -> bool {
        let threshold = self
            .targets
            .iter()
            .find(|(prefix, _)| target.starts_with(prefix.as_str()))
            .map(|(_, t)| *t)
            .unwrap_or(self.default);
        match threshold {
            Some(max) => level <= max,
            None => false,
        }
    }
}

impl std::str::FromStr for Filter {
    type Err = String;

    fn from_str(spec: &str) -> Result<Self, String> {
        Self::parse(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order_and_parse() {
        assert!(Level::Error < Level::Trace);
        assert_eq!("WARN".parse::<Level>().unwrap(), Level::Warn);
        assert!("loud".parse::<Level>().is_err());
    }

    #[test]
    fn default_filter_is_info() {
        let f = Filter::default();
        assert!(f.enabled("core::runner", Level::Info));
        assert!(f.enabled("core::runner", Level::Warn));
        assert!(!f.enabled("core::runner", Level::Debug));
    }

    #[test]
    fn parse_with_target_overrides() {
        let f = Filter::parse("warn,drl=trace,net=off").unwrap();
        assert!(!f.enabled("core", Level::Info));
        assert!(f.enabled("core", Level::Warn));
        assert!(f.enabled("drl::agent", Level::Trace));
        assert!(!f.enabled("net", Level::Error));
    }

    #[test]
    fn longest_prefix_wins() {
        let f = Filter::parse("info,core=off,core::runner=debug").unwrap();
        assert!(!f.enabled("core::client", Level::Error));
        assert!(f.enabled("core::runner", Level::Debug));
    }

    #[test]
    fn off_is_silent_everywhere() {
        let f = Filter::parse("off").unwrap();
        assert!(!f.enabled("anything", Level::Error));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Filter::parse("=debug").is_err());
        assert!(Filter::parse("loudest").is_err());
    }
}
