//! Strict command-line flags for the study binaries.
//!
//! Every argument must be a flag the binary declares, given at most once,
//! and a flag that takes a value must be followed by one. Anything else is
//! an error reported with the binary's usage line and exit code 2 — a typo
//! like `--smok` never silently runs a different study than the one asked
//! for.

use std::fmt;

/// The flags one binary accepts.
#[derive(Debug, Clone, Copy)]
pub struct FlagSpec {
    /// Flags that take no value, e.g. `--smoke`.
    pub switches: &'static [&'static str],
    /// Flags followed by exactly one value, e.g. `--trace <path>`.
    pub valued: &'static [&'static str],
    /// The usage line printed with a parse error.
    pub usage: &'static str,
}

/// Why a command line was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlagError {
    /// An argument that is not a declared flag.
    Unknown(String),
    /// A flag given more than once.
    Duplicate(&'static str),
    /// A valued flag at the end of the line or followed by another flag.
    MissingValue(&'static str),
}

impl fmt::Display for FlagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlagError::Unknown(arg) => write!(f, "unknown argument {arg:?}"),
            FlagError::Duplicate(flag) => write!(f, "{flag} given twice"),
            FlagError::MissingValue(flag) => write!(f, "{flag} needs a value"),
        }
    }
}

impl std::error::Error for FlagError {}

/// A parsed command line.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Flags {
    switches: Vec<&'static str>,
    values: Vec<(&'static str, String)>,
}

impl Flags {
    /// Whether the switch `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.switches.contains(&flag)
    }

    /// The value given for `flag`, if any.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(name, _)| *name == flag)
            .map(|(_, value)| value.as_str())
    }
}

impl FlagSpec {
    /// Parses `args` (without the program name).
    ///
    /// # Errors
    ///
    /// Returns the first [`FlagError`] on the line.
    pub fn parse<I: IntoIterator<Item = String>>(&self, args: I) -> Result<Flags, FlagError> {
        let mut flags = Flags::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let Some(&flag) = self.switches.iter().chain(self.valued).find(|&&f| f == arg) else {
                return Err(FlagError::Unknown(arg));
            };
            if flags.has(flag) || flags.value(flag).is_some() {
                return Err(FlagError::Duplicate(flag));
            }
            if self.valued.contains(&flag) {
                let value = args
                    .next()
                    .filter(|value| !value.starts_with("--"))
                    .ok_or(FlagError::MissingValue(flag))?;
                flags.values.push((flag, value));
            } else {
                flags.switches.push(flag);
            }
        }
        Ok(flags)
    }

    /// Parses the process arguments; on an error prints it with the usage
    /// line to standard error and exits with code 2.
    pub fn parse_env_or_exit(&self) -> Flags {
        self.parse(std::env::args().skip(1)).unwrap_or_else(|err| {
            eprintln!("error: {err}\n{}", self.usage);
            std::process::exit(2);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: FlagSpec = FlagSpec {
        switches: &["--smoke", "--json"],
        valued: &["--trace", "--metrics"],
        usage: "usage: study [--smoke] [--json] [--trace <path>] [--metrics <path>]",
    };

    fn parse(line: &[&str]) -> Result<Flags, FlagError> {
        SPEC.parse(line.iter().map(|a| a.to_string()))
    }

    #[test]
    fn accepts_declared_flags_in_any_order() {
        let flags = parse(&["--trace", "t.json", "--smoke", "--metrics", "m.txt"]).unwrap();
        assert!(flags.has("--smoke"));
        assert!(!flags.has("--json"));
        assert_eq!(flags.value("--trace"), Some("t.json"));
        assert_eq!(flags.value("--metrics"), Some("m.txt"));
        assert_eq!(parse(&[]).unwrap(), Flags::default());
    }

    #[test]
    fn rejects_unknown_flags_and_stray_values() {
        assert_eq!(
            parse(&["--smok"]),
            Err(FlagError::Unknown("--smok".to_string()))
        );
        assert_eq!(
            parse(&["--smoke", "extra"]),
            Err(FlagError::Unknown("extra".to_string()))
        );
    }

    #[test]
    fn rejects_duplicates() {
        assert_eq!(
            parse(&["--smoke", "--smoke"]),
            Err(FlagError::Duplicate("--smoke"))
        );
        assert_eq!(
            parse(&["--trace", "a", "--trace", "b"]),
            Err(FlagError::Duplicate("--trace"))
        );
    }

    #[test]
    fn rejects_missing_values() {
        assert_eq!(parse(&["--trace"]), Err(FlagError::MissingValue("--trace")));
        // A following flag is not swallowed as the value.
        assert_eq!(
            parse(&["--trace", "--smoke"]),
            Err(FlagError::MissingValue("--trace"))
        );
    }

    #[test]
    fn errors_name_the_offending_flag() {
        assert!(FlagError::Unknown("--smok".to_string())
            .to_string()
            .contains("--smok"));
        assert!(FlagError::MissingValue("--trace")
            .to_string()
            .contains("--trace needs a value"));
    }
}
