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

    /// Walk `args` as `(flag, value)` pairs in order.  A flag listed in
    /// `bare` takes no value and pairs with `""`; any other flag at the end
    /// of `args` is a usage error.
    pub fn pairs<'a>(
        &'a self,
        args: &'a [String],
        bare: &'a [&str],
    ) -> impl Iterator<Item = (&'a str, &'a str)> + 'a {
        let mut rest = args.iter();
        std::iter::from_fn(move || {
            let k = rest.next()?;
            if bare.contains(&k.as_str()) {
                return Some((k.as_str(), ""));
            }
            let Some(v) = rest.next() else {
                self.fail(format!("flag {k} needs a value"));
            };
            Some((k.as_str(), v.as_str()))
        })
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
