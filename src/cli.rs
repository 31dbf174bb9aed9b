//! The one command-line layer under `mempool-run`, `mempool-cli` and
//! `mempool-serve`: an argument cursor ([`Args`]), the cluster-selecting
//! flag group ([`ClusterFlags`]), the usage-error type ([`UsageError`])
//! and the `main`-side exit helpers ([`exit_usage`], [`exit_error`]).
//!
//! Every option loop in the three binaries is a `while let Some(arg) =
//! args.next_arg()?` over an [`Args`], so they share one grammar: `--help`/`-h`
//! in option position prints the usage text and exits 0, anything the
//! parser rejects prints `error: <what>` plus the usage text on stderr and
//! exits 2.

use mempool::{ClusterConfig, Topology};
use mempool_traffic::{build_config, render_config_spec};
use std::fmt;
use std::process::ExitCode;
use std::str::FromStr;

/// A typed argument-parsing failure (or the `--help` request, which is not
/// an error and exits 0).
#[derive(Debug, PartialEq, Eq)]
pub enum UsageError {
    /// `--help`/`-h`: print usage on stdout and exit successfully.
    Help,
    /// An option that requires a value was last on the command line.
    MissingValue(String),
    /// An option's value did not parse; `reason` names what was expected.
    InvalidValue {
        /// The option (or positional, e.g. `<job>`) the value belongs to.
        option: String,
        /// What was expected instead.
        reason: String,
    },
    /// An option we do not recognize.
    UnknownOption(String),
    /// A positional argument nothing is left to take.
    UnexpectedArgument(String),
    /// A required positional (`program path`, `job id`) was not given.
    MissingArgument(&'static str),
    /// A required option was not given.
    MissingOption(&'static str),
    /// `option` only applies together with `needs`.
    Requires {
        /// The option that was given.
        option: &'static str,
        /// The option it depends on.
        needs: &'static str,
    },
    /// Two options that cannot be combined.
    Conflict(&'static str),
    /// The first argument is not one of the named subcommands (or there
    /// is none).
    MissingSubcommand(&'static str),
    /// A submitted job document the daemon would reject.
    InvalidJob(String),
}

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UsageError::Help => write!(f, "help requested"),
            UsageError::MissingValue(option) => write!(f, "{option} expects a value"),
            UsageError::InvalidValue { option, reason } => {
                write!(f, "invalid {option} value: {reason}")
            }
            UsageError::UnknownOption(arg) => write!(f, "unknown option `{arg}`"),
            UsageError::UnexpectedArgument(arg) => write!(f, "unexpected argument `{arg}`"),
            UsageError::MissingArgument(what) => write!(f, "no {what} given"),
            UsageError::MissingOption(option) => write!(f, "{option} is required"),
            UsageError::Requires { option, needs } => write!(f, "{option} requires {needs}"),
            UsageError::Conflict(what) => write!(f, "{what}"),
            UsageError::MissingSubcommand(names) => write!(f, "expected a subcommand: {names}"),
            UsageError::InvalidJob(reason) => write!(f, "invalid job: {reason}"),
        }
    }
}

impl std::error::Error for UsageError {}

/// The end of `main` for a command line that did not parse: `--help` prints
/// `usage` on stdout and exits 0; a usage error prints itself and `usage`
/// on stderr and exits 2.
pub fn exit_usage(error: &UsageError, usage: &str) -> ExitCode {
    if *error == UsageError::Help {
        println!("{usage}");
        return ExitCode::SUCCESS;
    }
    eprintln!("error: {error}\n{usage}");
    ExitCode::from(crate::Error::USAGE_EXIT_CODE)
}

/// The end of `main` for a runtime failure: prints `error: ` and the
/// error's cause chain on stderr and returns its exit code.
pub fn exit_error(error: &crate::Error) -> ExitCode {
    // The whole chain: the top-level category alone ("simulation stopped
    // abnormally") hides the typed cause — watchdog deadlock vs cycle
    // budget vs wall-clock timeout.
    let mut line = format!("error: {error}");
    let mut source = std::error::Error::source(error);
    while let Some(cause) = source {
        let text = cause.to_string();
        // Wrapper layers often re-print their inner error verbatim; skip
        // those so each chain segment adds information.
        if !line.ends_with(&text) {
            line.push_str(&format!(": {text}"));
        }
        source = cause.source();
    }
    eprintln!("{line}");
    ExitCode::from(error.exit_code())
}

/// An [`UsageError::InvalidValue`] for `option`.
pub fn invalid(option: &str, reason: impl Into<String>) -> UsageError {
    UsageError::InvalidValue {
        option: option.to_owned(),
        reason: reason.into(),
    }
}

/// The fall-through arm of every option loop: an unrecognized `-...` token
/// is an unknown option, anything else a positional nobody takes.
pub fn unexpected(arg: String) -> UsageError {
    if arg.starts_with('-') {
        UsageError::UnknownOption(arg)
    } else {
        UsageError::UnexpectedArgument(arg)
    }
}

/// Parses `text`, a piece of `option`'s value, at `T`'s own width — an
/// out-of-range number is rejected, never truncated; `what` names what
/// was expected.
pub fn parse_value<T: FromStr>(option: &str, text: &str, what: &str) -> Result<T, UsageError> {
    text.parse().map_err(|_| invalid(option, what))
}

/// [`parse_value`], rejecting zero.
pub fn parse_nonzero<T: FromStr + PartialEq + From<u8>>(
    option: &str,
    text: &str,
    what: &str,
) -> Result<T, UsageError> {
    let n: T = parse_value(option, text, what)?;
    if n == T::from(0) {
        return Err(invalid(option, "must be nonzero"));
    }
    Ok(n)
}

/// A cursor over the arguments after the (sub)command name. It remembers
/// the option it handed out last, so taking that option's value names the
/// option in the error without the caller spelling it twice.
#[derive(Debug)]
pub struct Args {
    rest: std::vec::IntoIter<String>,
    option: String,
}

impl Args {
    /// A cursor over `args`.
    pub fn new(args: impl IntoIterator<Item = String>) -> Self {
        Args {
            rest: args.into_iter().collect::<Vec<_>>().into_iter(),
            option: String::new(),
        }
    }

    /// The next token in option position, `None` at the end.
    ///
    /// # Errors
    ///
    /// [`UsageError::Help`] when the token is `--help`/`-h`.
    pub fn next_arg(&mut self) -> Result<Option<String>, UsageError> {
        match self.rest.next() {
            Some(arg) if arg == "--help" || arg == "-h" => Err(UsageError::Help),
            Some(arg) => {
                self.option.clone_from(&arg);
                Ok(Some(arg))
            }
            None => Ok(None),
        }
    }

    /// Fails on any token still left — the end of a command that takes
    /// no (more) arguments.
    pub fn finish(&mut self) -> Result<(), UsageError> {
        self.next_arg()?.map_or(Ok(()), |arg| Err(unexpected(arg)))
    }

    /// The value of the option [`next_arg`](Args::next_arg) returned last:
    /// the next token, whatever it looks like.
    pub fn value(&mut self) -> Result<String, UsageError> {
        self.rest.next().ok_or_else(|| UsageError::MissingValue(self.option.clone()))
    }

    /// That value parsed as `T` (see [`parse_value`]).
    pub fn parse<T: FromStr>(&mut self, what: &str) -> Result<T, UsageError> {
        let text = self.value()?;
        parse_value(&self.option, &text, what)
    }

    /// That value parsed as a nonzero `T` (see [`parse_nonzero`]).
    pub fn nonzero<T>(&mut self, what: &str) -> Result<T, UsageError>
    where
        T: FromStr + PartialEq + From<u8>,
    {
        let text = self.value()?;
        parse_nonzero(&self.option, &text, what)
    }

    /// That value parsed as a `T` whose parse error says itself what was
    /// wrong (`Topology`, `FaultSpec`).
    pub fn parse_explained<T: FromStr>(&mut self) -> Result<T, UsageError>
    where
        T::Err: fmt::Display,
    {
        let text = self.value()?;
        text.parse().map_err(|e: T::Err| invalid(&self.option, e.to_string()))
    }
}

/// The flag group that selects the simulated cluster — the paper's three
/// evaluation axes as they reach every binary: `--topology <name>`,
/// `--small`, `--no-scramble`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterFlags {
    /// `--topology`.
    pub topology: Topology,
    /// `--small`: 64 cores instead of 256.
    pub small: bool,
    /// Cleared by `--no-scramble`: the hybrid addressing scheme.
    pub scramble: bool,
}

/// The cluster the paper ships: 256 cores, TopH, hybrid addressing on.
impl Default for ClusterFlags {
    fn default() -> Self {
        ClusterFlags {
            topology: Topology::TopH,
            small: false,
            scramble: true,
        }
    }
}

impl ClusterFlags {
    /// Takes `arg` (and its value from `args`) if it is one of the three
    /// flags; `false` leaves it to the caller's own options.
    pub fn accept(&mut self, arg: &str, args: &mut Args) -> Result<bool, UsageError> {
        match arg {
            "--topology" => self.topology = args.parse_explained()?,
            "--small" => self.small = true,
            "--no-scramble" => self.scramble = false,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The selected cluster configuration.
    pub fn config(&self) -> ClusterConfig {
        build_config(self.topology, self.small, self.scramble)
    }

    /// The same selection as the `config_spec` string a worker receives.
    pub fn spec(&self) -> String {
        render_config_spec(self.topology, self.small, self.scramble)
    }
}

/// The `--option` tokens `usage` names that `parse` answers with "unknown
/// option" — the drift between a usage text and the parser it documents,
/// which each binary's unit tests hold empty. Every token is tried with a
/// value to take, so the only way to fail on the option itself is not to
/// know it.
pub fn unparsed_options<T>(
    usage: &str,
    parse: impl Fn(Vec<String>) -> Result<T, UsageError>,
) -> Vec<&str> {
    usage
        .split(|c: char| !(c.is_ascii_lowercase() || c == '-'))
        .filter(|token| token.starts_with("--") && token.len() > 2)
        .filter(|token| {
            let outcome = parse(vec![token.to_string(), "1".to_owned()]);
            matches!(outcome, Err(UsageError::UnknownOption(_)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cursor(list: &[&str]) -> Args {
        Args::new(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn cursor_yields_values_and_typed_errors() {
        let mut args = cursor(&["--n", "7", "x", "0", "300"]);
        assert_eq!(args.next_arg().unwrap().as_deref(), Some("--n"));
        assert_eq!(args.parse::<u64>("expected a count"), Ok(7));
        assert_eq!(args.parse::<u64>("a count"), Err(invalid("--n", "a count")));
        assert_eq!(args.nonzero::<u32>("a count"), Err(invalid("--n", "must be nonzero")));
        // Parsed at the field's width: 300 is not a u8, and is not truncated to 44.
        assert_eq!(args.parse::<u8>("a byte"), Err(invalid("--n", "a byte")));
        assert_eq!(args.value(), Err(UsageError::MissingValue("--n".to_owned())));
        assert_eq!(args.next_arg(), Ok(None));
        assert_eq!(args.finish(), Ok(()));
    }

    #[test]
    fn help_is_recognized_in_option_position_only() {
        assert_eq!(cursor(&["-h"]).next_arg(), Err(UsageError::Help));
        assert_eq!(cursor(&["--help"]).finish(), Err(UsageError::Help));
        assert_eq!(cursor(&["--help"]).value().as_deref(), Ok("--help"));
        assert_eq!(cursor(&["--x"]).finish(), Err(UsageError::UnknownOption("--x".to_owned())));
        assert_eq!(cursor(&["x"]).finish(), Err(UsageError::UnexpectedArgument("x".to_owned())));
    }

    #[test]
    fn cluster_flags_build_the_config_and_the_spec() {
        let mut flags = ClusterFlags::default();
        assert_eq!(flags.config(), ClusterConfig::paper(Topology::TopH));
        let mut args = cursor(&["--topology", "top1"]);
        let arg = args.next_arg().unwrap().unwrap();
        assert_eq!(flags.accept(&arg, &mut args), Ok(true));
        assert_eq!(flags.accept("--small", &mut args), Ok(true));
        assert_eq!(flags.accept("--no-scramble", &mut args), Ok(true));
        assert_eq!(flags.accept("--seed", &mut args), Ok(false));
        assert_eq!(flags.spec(), "topology=top1,small=true,scramble=false");
        let config = flags.config();
        assert_eq!((config.topology, config.num_cores()), (Topology::Top1, 64));
        assert_eq!(config.seq_region_bytes, None);
    }

    #[test]
    fn unparsed_options_tries_every_spelling_a_usage_text_uses() {
        let usage = "  --isolate[=N]  x\n  --topology/--small as for run (`wait --out`), a -- b";
        let parse = |args: Vec<String>| match args[0].as_str() {
            "--isolate" | "--topology" => Ok(()),
            _ => Err(unexpected(args[0].clone())),
        };
        assert_eq!(unparsed_options(usage, parse), ["--small", "--out"]);
    }
}
