//! Shared scaffolding for the soak binaries.
//!
//! Every soak (S-13 chaos, S-14 crash, S-15 NoC, S-16 perf, S-18
//! campaign, S-19 overload) speaks the same tiny CLI dialect — `--seed
//! N`, `--smoke`, `--serial` — and ends the same way: print the JSON
//! report, exit non-zero iff a wedge (or gate failure) was detected. The
//! parsing and exit logic live here so the binaries only describe their
//! sweep, and so a new soak can't drift from the dialect by accident.

use secbus_sim::Json;

/// The arguments every soak binary understands. `--serial` is consumed
/// separately by [`crate::sweep_threads`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SoakArgs {
    /// Sweep seed: same seed → byte-identical JSON.
    pub seed: u64,
    /// CI-sized subset of the sweep.
    pub smoke: bool,
}

/// Why a soak refused its command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// `--seed` was the last argument.
    MissingSeed,
    /// The value after `--seed` is not a u64.
    BadSeed(String),
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::MissingSeed => f.write_str("--seed needs a value"),
            ArgError::BadSeed(v) => write!(f, "--seed takes a u64, got {v:?}"),
        }
    }
}

impl std::error::Error for ArgError {}

impl SoakArgs {
    /// Parse `--seed N` / `--smoke` from the process arguments; an
    /// absent `--seed` falls back to the binary's default.
    ///
    /// A `--seed` without a parseable u64 after it prints the error and
    /// a usage line and exits with status 2: a soak silently running the
    /// wrong seed would defeat the reproducibility contract.
    pub fn parse(default_seed: u64) -> Self {
        let args: Vec<String> = std::env::args().collect();
        Self::from_slice(&args, default_seed).unwrap_or_else(|e| {
            let bin = args.first().map_or("soak", String::as_str);
            eprintln!("{bin}: {e}");
            eprintln!("usage: {bin} [--seed <u64>] [--smoke] [--serial]");
            std::process::exit(2)
        })
    }

    /// Testable core of [`SoakArgs::parse`].
    pub fn from_slice(args: &[String], default_seed: u64) -> Result<Self, ArgError> {
        let seed = match args.iter().position(|a| a == "--seed") {
            None => default_seed,
            Some(i) => {
                let value = args.get(i + 1).ok_or(ArgError::MissingSeed)?;
                value
                    .parse()
                    .map_err(|_| ArgError::BadSeed(value.clone()))?
            }
        };
        let smoke = args.iter().any(|a| a == "--smoke");
        Ok(SoakArgs { seed, smoke })
    }
}

/// Print the report and terminate: exit code 1 with `reason` on stderr
/// when the sweep detected a wedge or gate failure, 0 otherwise. The
/// report is printed either way — a failing soak still hands CI its
/// evidence.
pub fn finish(bin: &str, report: &Json, failed: bool, reason: &str) -> ! {
    println!("{}", report.render_pretty());
    if failed {
        eprintln!("{bin}: {reason}");
        std::process::exit(1);
    }
    std::process::exit(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn defaults_apply_when_flags_are_absent() {
        let a = SoakArgs::from_slice(&argv(&["soak"]), 0xABC);
        assert_eq!(
            a,
            Ok(SoakArgs {
                seed: 0xABC,
                smoke: false
            })
        );
    }

    #[test]
    fn seed_and_smoke_are_parsed_anywhere_in_the_line() {
        let a = SoakArgs::from_slice(&argv(&["soak", "--smoke", "--seed", "42"]), 1);
        assert_eq!(
            a,
            Ok(SoakArgs {
                seed: 42,
                smoke: true
            })
        );
        let b = SoakArgs::from_slice(&argv(&["soak", "--seed", "7"]), 1).unwrap();
        assert_eq!(b.seed, 7);
        assert!(!b.smoke);
    }

    #[test]
    fn a_malformed_seed_is_refused_loudly() {
        assert_eq!(
            SoakArgs::from_slice(&argv(&["soak", "--seed", "banana"]), 1),
            Err(ArgError::BadSeed("banana".into()))
        );
    }

    /// A trailing `--seed` is refused, not read as "use the default".
    #[test]
    fn a_trailing_seed_flag_is_a_typed_error() {
        assert_eq!(
            SoakArgs::from_slice(&argv(&["soak", "--smoke", "--seed"]), 1),
            Err(ArgError::MissingSeed)
        );
    }
}
