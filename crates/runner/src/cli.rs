//! Command-line plumbing shared by the runner's binaries: the usage-error
//! exit, flag-value parsing, and the `--flag value` walk.

use std::fmt::Display;
use std::str::FromStr;

/// One binary's identity on its error path.
pub struct Usage {
    /// Prefix of every error line.
    pub prog: &'static str,
    /// The binary has a `--help`: point at it after an error.
    pub help_hint: bool,
}

impl Usage {
    /// A usage error: one `prog: msg` line on stderr, exit 1.
    pub fn fail(&self, msg: impl Display) -> ! {
        eprintln!("{}: {msg}", self.prog);
        if self.help_hint {
            eprintln!("(run with --help for usage)");
        }
        std::process::exit(1);
    }

    /// Parse a flag value with the flag's name in the error message instead
    /// of a bare unwrap panic.
    pub fn parse_val<T: FromStr>(&self, flag: &str, v: &str) -> T
    where
        T::Err: Display,
    {
        v.parse()
            .unwrap_or_else(|e| self.fail(format!("{flag}: invalid value {v:?}: {e}")))
    }

    /// Walk `args` as `--flag [value]` words (see [`Args`]).
    pub fn args<'a>(&'a self, args: &'a [String]) -> Args<'a> {
        Args {
            usage: self,
            rest: args.iter(),
        }
    }

    /// A `--wall-budget SECS` value as the watchdog's milliseconds.
    pub fn wall_budget_ms(&self, flag: &str, v: &str) -> u64 {
        let secs: f64 = self.parse_val(flag, v);
        if secs.is_nan() || secs <= 0.0 {
            self.fail(format!("{flag}: {v:?} must be positive"));
        }
        (secs * 1000.0).ceil() as u64
    }
}

/// A `--flag [value]` walk in which the caller matches each flag and takes
/// a value only for a flag that has one: a flag nobody matched is reported
/// as unknown wherever it stands — last argument included — and a known
/// flag at the end as missing its value.
pub struct Args<'a> {
    usage: &'a Usage,
    rest: std::slice::Iter<'a, String>,
}

impl<'a> Args<'a> {
    /// The next flag, or `None` past the last argument.
    pub fn flag(&mut self) -> Option<&'a str> {
        self.rest.next().map(String::as_str)
    }

    /// The value of `flag`: the next argument, or a usage error.
    pub fn value(&mut self, flag: &str) -> &'a str {
        self.flag()
            .unwrap_or_else(|| self.usage.fail(format!("flag {flag} needs a value")))
    }

    /// The value of `flag`, parsed ([`Usage::parse_val`]).
    pub fn parse<T: FromStr>(&mut self, flag: &str) -> T
    where
        T::Err: Display,
    {
        let v = self.value(flag);
        self.usage.parse_val(flag, v)
    }

    /// A usage error naming a flag nobody matched.
    pub fn unknown(&self, flag: &str) -> ! {
        self.usage.fail(format!("unknown flag {flag}"))
    }
}
