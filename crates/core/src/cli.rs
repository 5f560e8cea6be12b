//! The one flag grammar shared by every binary in the workspace.
//!
//! `siopmp-scenario`, `repro`, `siopmp-verify`, `siopmp-prove` and
//! `siopmp-serviced` all parse their command lines through [`Spec::parse`],
//! so the common spellings are identical everywhere:
//!
//! | flag | meaning |
//! |---|---|
//! | `--json` | machine-readable output (the shared envelope, see [`crate::json::envelope`]) |
//! | `--list` | list the known scenarios/experiments and exit |
//! | `--seed N` | override the fault seed(s) |
//! | `--threads N` | worker threads (>= 1) |
//! | `--out PATH` | write the JSON artifact here |
//! | `--help` / `-h` | usage |
//!
//! Valued flags accept both `--seed 7` and `--seed=7`. A tool accepts
//! exactly the flags it reads: it lists its boolean flags in
//! [`Spec::flags`] and its valued flags in [`Spec::options`], common ones
//! included, and the parser refuses any other flag with the usage line.
//! Only `--help`/`-h` needs no listing. Common flags land in the typed
//! fields of [`Args`], `--seed` and `--threads` validated; the rest land
//! in [`Args::flags`] and [`Args::options`].

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

/// The static description of one tool's command line.
pub struct Spec {
    /// Binary name, used in error messages.
    pub tool: &'static str,
    /// One-line usage string appended to errors and `--help`.
    pub usage: &'static str,
    /// Boolean flags the tool reads, common (`--json`, `--list`) or its
    /// own (e.g. `--smoke`).
    pub flags: &'static [&'static str],
    /// Valued flags the tool reads, common (`--seed`, `--threads`,
    /// `--out`) or its own.
    pub options: &'static [&'static str],
}

/// The parsed command line: the common surface as typed fields, the
/// tool-specific surface as sets/maps.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Args {
    /// `--json`.
    pub json: bool,
    /// `--list`.
    pub list: bool,
    /// `--help` / `-h`.
    pub help: bool,
    /// `--seed N`.
    pub seed: Option<u64>,
    /// `--threads N` (validated >= 1).
    pub threads: Option<usize>,
    /// `--out PATH`.
    pub out: Option<PathBuf>,
    /// Tool-specific boolean flags that were present.
    pub flags: BTreeSet<String>,
    /// Tool-specific valued flags.
    pub options: BTreeMap<String, String>,
    /// Everything that was not a flag, in order.
    pub positional: Vec<String>,
}

impl Args {
    /// Whether the tool-specific boolean `flag` was present.
    pub fn has(&self, flag: &str) -> bool {
        self.flags.contains(flag)
    }

    /// The value of the tool-specific valued `flag`, if present.
    pub fn option(&self, flag: &str) -> Option<&str> {
        self.options.get(flag).map(String::as_str)
    }
}

impl Spec {
    /// Parses `args` (without the program name).
    ///
    /// # Errors
    ///
    /// Returns a ready-to-print message (usage included) on a flag the
    /// tool does not list, a missing value, or an invalid
    /// `--seed`/`--threads` value.
    pub fn parse(&self, args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut out = Args::default();
        let mut iter = args.into_iter().peekable();
        while let Some(raw) = iter.next() {
            if !raw.starts_with('-') || raw == "-" {
                out.positional.push(raw);
                continue;
            }
            // `--flag=value` splits here; `--flag value` pulls the next arg.
            let (flag, inline) = match raw.split_once('=') {
                Some((f, v)) => (f.to_string(), Some(v.to_string())),
                None => (raw.clone(), None),
            };
            let listed =
                self.flags.contains(&flag.as_str()) || self.options.contains(&flag.as_str());
            if !listed && flag != "--help" && flag != "-h" {
                return Err(self.fail(&format!("unknown flag `{flag}`")));
            }
            let mut value = |inline: Option<String>| -> Result<String, String> {
                inline
                    .or_else(|| iter.next())
                    .ok_or_else(|| self.fail(&format!("`{flag}` requires a value")))
            };
            match flag.as_str() {
                "--json" => out.json = true,
                "--list" => out.list = true,
                "--help" | "-h" => out.help = true,
                "--seed" => {
                    let v = value(inline)?;
                    out.seed = Some(
                        parse_u64(&v)
                            .ok_or_else(|| self.fail(&format!("bad `--seed` value `{v}`")))?,
                    );
                }
                "--threads" => {
                    let v = value(inline)?;
                    let t = parse_u64(&v).filter(|&t| t >= 1).ok_or_else(|| {
                        self.fail(&format!("`--threads` needs a count >= 1, got `{v}`"))
                    })?;
                    out.threads = Some(t as usize);
                }
                "--out" => out.out = Some(PathBuf::from(value(inline)?)),
                other if self.flags.contains(&other) => {
                    out.flags.insert(other.to_string());
                }
                other => {
                    let key = other.to_string();
                    let v = value(inline)?;
                    out.options.insert(key, v);
                }
            }
        }
        Ok(out)
    }

    fn fail(&self, message: &str) -> String {
        format!("{}: {message}\n{}", self.tool, self.usage)
    }
}

/// Parses a decimal or `0x`-hex number, `_` separators allowed — seeds in
/// particular are often pasted as hex.
fn parse_u64(s: &str) -> Option<u64> {
    let clean: String = s.chars().filter(|&c| c != '_').collect();
    if let Some(hex) = clean
        .strip_prefix("0x")
        .or_else(|| clean.strip_prefix("0X"))
    {
        u64::from_str_radix(hex, 16).ok()
    } else {
        clean.parse().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: Spec = Spec {
        tool: "demo",
        usage: "usage: demo [--json] [--seed N] [--threads N] [--out PATH] [--smoke] [--mode M] [NAME ...]",
        flags: &["--json", "--smoke"],
        options: &["--seed", "--threads", "--out", "--mode"],
    };

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn common_surface_parses_both_spellings() {
        let a = SPEC
            .parse(strs(&["--json", "--seed", "7", "--threads=4", "run.scn"]))
            .unwrap();
        assert!(a.json);
        assert_eq!(a.seed, Some(7));
        assert_eq!(a.threads, Some(4));
        assert_eq!(a.positional, vec!["run.scn"]);
    }

    #[test]
    fn hex_seed_accepted() {
        let a = SPEC.parse(strs(&["--seed", "0xdead_beef"])).unwrap();
        assert_eq!(a.seed, Some(0xdead_beef));
    }

    #[test]
    fn tool_specific_flags_and_options() {
        let a = SPEC
            .parse(strs(&["--smoke", "--mode", "fast", "--out", "dir"]))
            .unwrap();
        assert!(a.has("--smoke"));
        assert_eq!(a.option("--mode"), Some("fast"));
        assert_eq!(a.out, Some(PathBuf::from("dir")));
    }

    #[test]
    fn errors_name_the_tool_and_carry_usage() {
        let err = SPEC.parse(strs(&["--frobnicate"])).unwrap_err();
        assert!(err.contains("demo:"), "{err}");
        assert!(err.contains("usage:"), "{err}");
        assert!(SPEC.parse(strs(&["--threads", "0"])).is_err());
        assert!(SPEC.parse(strs(&["--seed"])).is_err());
        assert!(SPEC.parse(strs(&["--seed", "zonk"])).is_err());
    }

    #[test]
    fn common_flags_the_tool_does_not_list_are_refused() {
        for flag in ["--list", "-l", "--baseline=b.txt"] {
            let err = SPEC.parse(strs(&[flag])).unwrap_err();
            assert!(err.contains("unknown flag"), "{flag}: {err}");
            assert!(err.contains("usage:"), "{flag}: {err}");
        }
        // Listing a common flag is what accepts it; `--help` needs no listing.
        const BARE: Spec = Spec {
            tool: "bare",
            usage: "usage: bare",
            flags: &[],
            options: &[],
        };
        for flag in ["--json", "--seed", "--threads", "--out"] {
            assert!(BARE.parse(strs(&[flag, "1"])).is_err(), "{flag}");
        }
        assert!(BARE.parse(strs(&["-h"])).unwrap().help);
    }

    #[test]
    fn lone_dash_is_positional() {
        let a = SPEC.parse(strs(&["-"])).unwrap();
        assert_eq!(a.positional, vec!["-"]);
    }
}
