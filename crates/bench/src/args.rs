//! The one command-line scanner: every `rtdc-*` tool, bench binary and
//! `harness = false` target reads its argv through a [`Cli`].
//!
//! A tool declares its value flags (`--bench NAME`), its switches
//! (`--metrics`) and how many operands it takes, once. [`Cli::parse`]
//! never guesses: an undeclared flag, a value flag with no value (last
//! in argv, or followed by another `--flag`), a flag given twice and a
//! wrong operand count are typed [`ArgError`]s, and [`Args::num`] and
//! [`Args::addr`] reject a value that is not the number the tool asked
//! for instead of falling back to a default. A flag is known by its
//! declaration, so `rtdc-asm --symbols in.s` reads `in.s` as the
//! operand it is. `--help` and `-h` are always accepted.

use std::ops::RangeInclusive;
use std::str::FromStr;

/// One tool's command line, declared once.
#[derive(Debug, Clone)]
pub struct Cli {
    /// What `--help` prints and a rejected command line repeats.
    pub usage: &'static str,
    /// The flags that take a value, space-separated, without dashes.
    pub values: &'static str,
    /// The flags that stand alone, space-separated, without dashes.
    pub switches: &'static str,
    /// How many operands (arguments that are neither a flag nor a
    /// flag's value) the tool takes.
    pub operands: RangeInclusive<usize>,
}

/// Why a command line was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// `--help` or `-h`: print the usage and stop.
    Help,
    /// A flag the tool does not declare, as given.
    Unknown(String),
    /// A value flag last in argv or followed by another `--flag`.
    MissingValue(&'static str),
    /// A flag given twice.
    Repeated(&'static str),
    /// A value that does not parse as what the tool asked for.
    BadValue {
        /// The flag, without dashes.
        flag: &'static str,
        /// The value as given.
        value: String,
        /// What the tool asked for (`u32`, an address).
        want: &'static str,
    },
    /// The number of operands given, outside what the tool takes.
    Operands(usize),
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::Help => write!(f, "--help given"),
            ArgError::Unknown(flag) => write!(f, "unknown flag `{flag}`"),
            ArgError::MissingValue(flag) => write!(f, "--{flag} needs a value"),
            ArgError::Repeated(flag) => write!(f, "--{flag} given twice"),
            ArgError::BadValue { flag, value, want } => {
                write!(f, "bad --{flag} `{value}` (want {want})")
            }
            ArgError::Operands(n) => write!(f, "wrong number of operands ({n})"),
        }
    }
}

/// Lets a tool's `run() -> Result<_, String>` use `?` on an accessor.
impl From<ArgError> for String {
    fn from(e: ArgError) -> String {
        e.to_string()
    }
}

/// A scanned command line.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Args {
    values: Vec<(&'static str, String)>,
    switches: Vec<&'static str>,
    operands: Vec<String>,
}

impl Cli {
    /// Scans `argv` (without the program name): `Err(Help)` for `--help`
    /// or `-h`, else the first undeclared, valueless or repeated flag,
    /// else a wrong operand count.
    pub fn parse<I: IntoIterator<Item = String>>(&self, argv: I) -> Result<Args, ArgError> {
        let declared =
            |list: &'static str, name: &str| list.split_whitespace().find(|&d| d == name);
        let mut args = Args::default();
        let mut argv = argv.into_iter().peekable();
        while let Some(token) = argv.next() {
            if token == "--help" || token == "-h" {
                return Err(ArgError::Help);
            }
            // `-` alone is an operand (stdin, by convention).
            if token.len() < 2 || !token.starts_with('-') {
                args.operands.push(token);
                continue;
            }
            let name = token.strip_prefix("--").unwrap_or_default();
            if let Some(flag) = declared(self.switches, name) {
                if args.has(flag) {
                    return Err(ArgError::Repeated(flag));
                }
                args.switches.push(flag);
            } else if let Some(flag) = declared(self.values, name) {
                if args.opt(flag).is_some() {
                    return Err(ArgError::Repeated(flag));
                }
                let value = argv
                    .next_if(|v| !v.starts_with("--"))
                    .ok_or(ArgError::MissingValue(flag))?;
                args.values.push((flag, value));
            } else {
                return Err(ArgError::Unknown(token));
            }
        }
        match args.operands.len() {
            n if self.operands.contains(&n) => Ok(args),
            n => Err(ArgError::Operands(n)),
        }
    }

    /// Scans the process's arguments (read lossily if not UTF-8), or
    /// ends the process through [`Cli::fail`].
    pub fn from_env(&self) -> Args {
        let argv = std::env::args_os().skip(1);
        self.parse(argv.map(|a| a.to_string_lossy().into_owned()))
            .unwrap_or_else(|e| self.fail(e))
    }

    /// Ends the process for a rejected command line: [`ArgError::Help`]
    /// prints the usage to stdout and exits 0; any other error is
    /// printed, after the program's name, with the usage to stderr, and
    /// exits 2.
    pub fn fail(&self, e: ArgError) -> ! {
        if e == ArgError::Help {
            println!("{}", self.usage);
            std::process::exit(0);
        }
        let argv0 = std::env::args_os().next().unwrap_or_default();
        let program = std::path::Path::new(&argv0).file_name().unwrap_or_default();
        eprintln!("{}: {e}\n{}", program.to_string_lossy(), self.usage);
        std::process::exit(2);
    }
}

impl Args {
    /// The value given for the value flag `name`.
    pub fn opt(&self, name: &str) -> Option<&str> {
        let given = self.values.iter().find(|&&(flag, _)| flag == name);
        given.map(|(_, v)| v.as_str())
    }

    /// Whether the switch `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.switches.contains(&name)
    }

    /// The operands, in order.
    pub fn operands(&self) -> &[String] {
        &self.operands
    }

    /// The value of `name` parsed as a `T`, or `BadValue` if it is not
    /// one (`--icache 4294967297` is not a `u32`).
    pub fn num<T: FromStr>(&self, name: &'static str) -> Result<Option<T>, ArgError> {
        self.typed(name, std::any::type_name::<T>(), |v| v.parse().ok())
    }

    /// The value of `name` as a 32-bit address, `0x` hex or decimal, or
    /// `BadValue` if it is neither or does not fit 32 bits.
    pub fn addr(&self, name: &'static str) -> Result<Option<u32>, ArgError> {
        self.typed(name, "a 32-bit address, 0x hex or decimal", |v| {
            match v.strip_prefix("0x") {
                Some(hex) => u32::from_str_radix(hex, 16).ok(),
                None => v.parse().ok(),
            }
        })
    }

    fn typed<T>(
        &self,
        flag: &'static str,
        want: &'static str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Result<Option<T>, ArgError> {
        let Some(value) = self.opt(flag) else {
            return Ok(None);
        };
        let bad = || ArgError::BadValue {
            flag,
            value: value.to_string(),
            want,
        };
        parse(value).map(Some).ok_or_else(bad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLI: Cli = Cli {
        usage: "usage: tool [FILE...] [--bench NAME] [--out FILE] [--n N] [--verbose]",
        values: "bench out n",
        switches: "verbose",
        operands: 0..=2,
    };

    fn parse(v: &[&str]) -> Result<Args, ArgError> {
        CLI.parse(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn opt_and_has() {
        let a = parse(&["--bench", "cc1", "--verbose", "file.s"]).unwrap();
        assert_eq!(a.opt("bench"), Some("cc1"));
        assert!(a.has("verbose"));
        assert_eq!(a.opt("out"), None);
        assert!(!a.has("missing"));
    }

    #[test]
    fn positionals_skip_flag_values() {
        let a = parse(&["in.s", "--out", "out.bin", "extra"]).unwrap();
        assert_eq!(a.operands(), ["in.s", "extra"]);
        // A switch never takes the next token as its value.
        let a = parse(&["--verbose", "in.s"]).unwrap();
        assert_eq!(a.operands(), ["in.s"]);
    }

    #[test]
    fn malformed_command_lines_are_typed_errors() {
        use ArgError::*;
        for (argv, want) in [
            (&["--bnech", "x"][..], Unknown("--bnech".into())),
            (&["-v"], Unknown("-v".into())),
            (&["--"], Unknown("--".into())),
            (&["--bench"], MissingValue("bench")),
            (&["--bench", "--verbose"], MissingValue("bench")),
            (&["--verbose", "--verbose"], Repeated("verbose")),
            (&["--n", "1", "--n", "2"], Repeated("n")),
            (&["a", "b", "c"], Operands(3)),
            (&["--verbose", "-h"], Help),
        ] {
            assert_eq!(parse(argv), Err(want), "{argv:?}");
        }
        // A value may begin with one dash.
        assert_eq!(parse(&["--n", "-3"]).unwrap().num::<i32>("n"), Ok(Some(-3)));
        assert_eq!(parse(&["-"]).unwrap().operands(), ["-"]);
    }

    #[test]
    fn numbers_are_checked_against_the_type_asked_for() {
        let a = parse(&["--n", "4294967297"]).unwrap();
        assert_eq!(a.num::<u64>("n"), Ok(Some(4_294_967_297)));
        assert_eq!(
            a.num::<u32>("n"),
            Err(ArgError::BadValue {
                flag: "n",
                value: "4294967297".into(),
                want: "u32",
            })
        );
        assert_eq!(a.num::<u32>("bench"), Ok(None));
        let a = parse(&["--n", "x"]).unwrap();
        assert!(matches!(
            a.num::<usize>("n"),
            Err(ArgError::BadValue { .. })
        ));
        assert_eq!(
            a.num::<usize>("n").unwrap_err().to_string(),
            "bad --n `x` (want usize)"
        );
    }

    #[test]
    fn addresses_are_hex_or_decimal_and_32_bits() {
        let addr = |v: &str| parse(&["--n", v]).unwrap().addr("n");
        assert_eq!(addr("0x1000"), Ok(Some(0x1000)));
        assert_eq!(addr("4096"), Ok(Some(4096)));
        assert_eq!(addr("0xffffffff"), Ok(Some(u32::MAX)));
        for bad in ["zz", "0x", "0x100000000", "4294967296", "0X10", "-1"] {
            assert!(addr(bad).is_err(), "{bad}");
        }
    }
}
