//! One command grammar for every binary (DESIGN §25).
//!
//! Each command is one [`flags!`](crate::flags) declaration: its flags
//! and positionals, each with a type, an optional default and
//! [`rule`](crate::rule), and help text. Parsing yields the declared
//! struct, and the usage text is generated from the same declaration, so
//! the two cannot drift. A command returns `Result<(), Failure>`; the
//! binary's `main` hands that to [`exit`], the one error printer, which
//! maps it to an exit code below (README "Command line" has the table).

use crate::json::Value;
use crate::rule::Allowed;
use crate::Error;
use std::fmt::Display;
use std::path::PathBuf;
use std::process::ExitCode;

/// Success.
pub const OK: u8 = 0;
/// The command failed.
pub const FAILURE: u8 = 1;
/// Usage error.
pub const USAGE: u8 = 2;
/// A pipeline ran, but a job failed or was skipped.
pub const JOBS_FAILED: u8 = 3;
/// Every job succeeded, but the device sanitizer reported findings.
pub const SANITIZER: u8 = 4;
/// An SLO is at page-level burn.
pub const SLO_PAGE: u8 = 5;

/// Why a command stopped: its exit code and what it prints on stderr.
#[derive(Debug)]
pub struct Failure {
    /// One of the codes above.
    pub code: u8,
    /// Printed on stderr.
    pub message: String,
}

impl Failure {
    /// A failure with `code`.
    pub fn new(code: u8, message: impl Into<String>) -> Self {
        Self { code, message: message.into() }
    }

    /// A [`USAGE`] failure; [`exit`] prints the usage text after it.
    pub fn usage(message: impl Into<String>) -> Self {
        Self::new(USAGE, message)
    }
}

impl From<Error> for Failure {
    fn from(e: Error) -> Self {
        Self::new(FAILURE, format!("error: {e}"))
    }
}

/// Turns an error into a [`FAILURE`] that says what was being done.
pub trait Context<T> {
    /// `Err(e)` becomes the failure "`what`: `e`".
    fn context(self, what: impl Display) -> Result<T, Failure>;
}

impl<T, E: Display> Context<T> for Result<T, E> {
    fn context(self, what: impl Display) -> Result<T, Failure> {
        self.map_err(|e| Failure::new(FAILURE, format!("{what}: {e}")))
    }
}

/// The one error printer: a command's outcome as its exit code. A
/// failure's message goes to stderr, and a usage error's is followed by
/// `usage`.
pub fn exit(outcome: Result<(), Failure>, usage: impl FnOnce() -> String) -> ExitCode {
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(f) => {
            eprintln!("{}", f.message);
            if f.code == USAGE {
                eprint!("usage:\n{}", usage());
            }
            ExitCode::from(f.code)
        }
    }
}

/// The JSON document at `path`, as a command reads its input file.
pub fn load_json(path: &str) -> Result<Value, Failure> {
    let text = std::fs::read_to_string(path).context(format_args!("error: cannot read '{path}'"))?;
    Value::parse(&text).context(format_args!("error: '{path}' is not valid JSON"))
}

/// A type one command-line value parses into.
pub trait Arg: Sized {
    /// A switch takes no value: being given is its value.
    const SWITCH: bool = false;
    /// `text` as a value, if it is one.
    fn parse(text: &str) -> Option<Self>;
    /// The value of an argument that is not given, for types that have
    /// one (`bool`, `Option`).
    fn absent() -> Option<Self> {
        None
    }
    /// How the usage text shows a default.
    fn show(&self) -> String;
}

impl Arg for bool {
    const SWITCH: bool = true;
    fn parse(_: &str) -> Option<Self> {
        Some(true)
    }
    fn absent() -> Option<Self> {
        Some(false)
    }
    fn show(&self) -> String {
        self.to_string()
    }
}

impl<T: Arg> Arg for Option<T> {
    fn parse(text: &str) -> Option<Self> {
        T::parse(text).map(Some)
    }
    fn absent() -> Option<Self> {
        Some(None)
    }
    fn show(&self) -> String {
        self.as_ref().map(T::show).unwrap_or_default()
    }
}

impl Arg for PathBuf {
    fn parse(text: &str) -> Option<Self> {
        Some(PathBuf::from(text))
    }
    fn show(&self) -> String {
        self.display().to_string()
    }
}

macro_rules! from_str_args {
    ($($t:ty),*) => {$(
        impl Arg for $t {
            fn parse(text: &str) -> Option<Self> {
                text.parse().ok()
            }
            fn show(&self) -> String {
                self.to_string()
            }
        }
    )*};
}

from_str_args!(u8, u32, u64, usize, f64, String, crate::Region);

/// One declared argument.
pub struct Spec {
    /// `--flag`, or `<name>` for a positional.
    key: &'static str,
    /// A second spelling of a flag (`-q`).
    alias: Option<&'static str>,
    /// The name of a flag's value in the usage text (`<path>`).
    value: Option<&'static str>,
    /// Takes no value.
    switch: bool,
    /// May be left out.
    optional: bool,
    /// The default, as the usage text shows it.
    default: Option<String>,
    /// One line of help.
    help: String,
}

impl Spec {
    /// An argument of type `T`; `help` is its doc comment, one entry a
    /// line.
    pub fn new<T: Arg>(
        key: &'static str,
        alias: &[&'static str],
        value: &[&'static str],
        default: Option<T>,
        help: &[&str],
    ) -> Self {
        Self {
            key,
            alias: alias.first().copied(),
            value: value.first().copied(),
            switch: T::SWITCH,
            optional: default.is_some() || T::absent().is_some(),
            default: default.map(|d| d.show()),
            help: help.iter().map(|l| l.trim()).collect::<Vec<_>>().join(" "),
        }
    }

    fn is_flag(&self) -> bool {
        self.key.starts_with('-')
    }

    /// How the usage text names it: `--quiet|-q`, `--out <dir>`, `<archive>`.
    fn label(&self) -> String {
        let alias = self.alias.map(|a| format!("|{a}")).unwrap_or_default();
        let value = self.value.map(|v| format!(" {v}")).unwrap_or_default();
        format!("{}{alias}{value}", self.key)
    }
}

/// One command's grammar, as [`flags!`](crate::flags) declares it.
pub struct Command {
    /// What the user types before the arguments (`foresight-cli store ls`).
    pub name: &'static str,
    /// Its arguments, in declaration order.
    pub args: Vec<Spec>,
}

impl Command {
    /// A usage failure of this command.
    fn fail(&self, message: impl Display) -> Failure {
        Failure::usage(format!("{}: {message}", self.name))
    }

    /// Splits `argv` into one raw value per declared argument (`""` for
    /// a given switch). A flag the command does not declare, a flag
    /// without its value and a positional past the declared ones are
    /// usage errors, and so is one of `subcommands` after a flag: a flag
    /// belongs only to the command that declares it.
    pub fn split<'a>(
        &self,
        argv: &'a [String],
        subcommands: &[&str],
    ) -> Result<Vec<Option<&'a str>>, Failure> {
        let mut raw = vec![None; self.args.len()];
        let mut positionals = (0..self.args.len()).filter(|&i| !self.args[i].is_flag());
        let mut first_flag = None;
        let mut tokens = argv.iter();
        while let Some(token) = tokens.next() {
            if token.starts_with('-') {
                let i = self
                    .args
                    .iter()
                    .position(|a| a.is_flag() && (a.key == token || a.alias == Some(token)))
                    .ok_or_else(|| self.fail(format_args!("unknown flag '{token}'")))?;
                first_flag.get_or_insert(token);
                raw[i] = Some(if self.args[i].switch {
                    ""
                } else {
                    let missing = || self.fail(format_args!("{token} needs a value"));
                    tokens.next().ok_or_else(missing)?
                });
            } else if let (Some(flag), true) = (first_flag, subcommands.contains(&token.as_str())) {
                return Err(self.fail(format_args!(
                    "'{flag}' comes before the subcommand '{token}'; a flag goes after the command that declares it"
                )));
            } else {
                let i = positionals
                    .next()
                    .ok_or_else(|| self.fail(format_args!("unexpected argument '{token}'")))?;
                raw[i] = Some(token);
            }
        }
        Ok(raw)
    }

    /// Argument `i` as a `T`: parsed from `raw`, else `default`, else the
    /// type's absent value, else a usage error.
    pub fn value<T: Arg>(&self, i: usize, raw: Option<&str>, default: Option<T>) -> Result<T, Failure> {
        let key = self.args[i].key;
        match raw {
            Some(text) => T::parse(text).ok_or_else(|| self.fail(format_args!("bad {key} '{text}'"))),
            None => default.or_else(T::absent).ok_or_else(|| self.fail(format_args!("missing {key}"))),
        }
    }

    /// Fails unless `rule` allows argument `i`'s `value`.
    pub fn check<T: Arg>(&self, i: usize, value: &T, rule: &impl Allowed<T>) -> Result<(), Failure> {
        if rule.allows(value) {
            return Ok(());
        }
        let key = self.args[i].key;
        Err(self.fail(format_args!("{key} must be {}, got {}", rule.describe(), value.show())))
    }

    /// The synopsis line, then one line per argument with help.
    pub fn usage(&self) -> String {
        let synopsis: Vec<String> = self
            .args
            .iter()
            .map(|a| if a.optional { format!("[{}]", a.label()) } else { a.label() })
            .collect();
        let mut text = format!("  {} {}\n", self.name, synopsis.join(" "));
        let width = self.args.iter().map(|a| a.label().len()).max().unwrap_or(0);
        for a in self.args.iter().filter(|a| !a.help.is_empty()) {
            let default = a.default.as_ref().map(|d| format!(" (default {d})")).unwrap_or_default();
            text += &format!("      {:width$}  {}{default}\n", a.label(), a.help);
        }
        text
    }
}

/// One command of a binary with several: its declaration, and what
/// parses and runs it (`|argv, subcommands| run(Args::parse(argv, subcommands)?)`).
pub struct Entry {
    /// The command's grammar.
    pub command: fn() -> Command,
    /// Parses the arguments after the command's words and runs it.
    pub run: fn(&[String], &[&str]) -> Result<(), Failure>,
}

/// The usage text of a binary: every command's, in order.
pub fn usage(entries: &[Entry]) -> String {
    entries.iter().map(|e| (e.command)().usage()).collect()
}

/// Runs the entry whose words (its name after the binary's) lead `argv`,
/// the longest that do. The entry with no words is the default command,
/// and every other entry's first word is a subcommand to it; a first
/// word that no entry completes is a usage error.
pub fn dispatch(argv: &[String], entries: &[Entry]) -> Result<(), Failure> {
    let words = |e: &Entry| (e.command)().name.split(' ').skip(1).collect::<Vec<_>>();
    let leads = |w: &Vec<&str>| w.len() <= argv.len() && w.iter().zip(argv).all(|(w, a)| w == a);
    let (entry, n) = entries
        .iter()
        .map(|e| (e, words(e)))
        .filter(|(_, w)| leads(w))
        .max_by_key(|(_, w)| w.len())
        .map(|(e, w)| (e, w.len()))
        .ok_or_else(|| Failure::usage("missing subcommand"))?;
    if n > 0 {
        return (entry.run)(&argv[n..], &[]);
    }
    let firsts: Vec<&str> = entries.iter().filter_map(|e| words(e).first().copied()).collect();
    if let Some(first) = argv.first().filter(|a| firsts.contains(&a.as_str())) {
        let sub = argv.get(1).map_or(String::new(), |s| format!(" {s}"));
        let bin = (entry.command)().name;
        return Err(Failure::usage(format!("{bin}: unknown subcommand '{first}{sub}'")));
    }
    (entry.run)(argv, &firsts)
}

/// Declares one command, stating each argument once:
///
/// ```text
/// /// help text
/// pub field: Type as "--flag" [| "-f"] ["<value>"] [= default] [, in rule] [, each in rule];
/// pub field: Type as "<positional>" [= default] [, in rule] [, each in rule];
/// ```
///
/// A key that starts with `-` is a flag, any other a positional, taken
/// in declaration order. `bool` is a switch, `Option<T>` may be left out,
/// and any other type must be given unless it has a default. A `rule` is
/// any [`Allowed`] (a range, [`crate::rule::PowerOfTwo`], …), applied to
/// the value (`in`) or to the value inside an `Option` (`each in`), as in
/// the config's `section!`. The doc
/// comment is the help line. `pub struct Name: Default = "command"` also
/// derives `Default` (every argument then needs a default or an absent
/// value). The struct gains `parse` and `command`.
#[macro_export]
macro_rules! flags {
    (@default $ty:ty) => { ::std::option::Option::<$ty>::None };
    (@default $ty:ty, $default:expr) => { ::std::option::Option::<$ty>::Some($default) };

    (@derive Default, $name:ident { $($field:ident : $ty:ty $(= $default:expr)?),+ }) => {
        impl ::std::default::Default for $name {
            fn default() -> Self {
                $name { $($field: $crate::flags!(@default $ty $(, $default)?)
                    .or_else(<$ty as $crate::cli::Arg>::absent)
                    .expect("a Default command declares a default for every argument")),+ }
            }
        }
    };
    (@derive , $($unused:tt)*) => {};

    (
        $(#[$meta:meta])*
        pub struct $name:ident $(: $derive:ident)? = $command:literal {
            $(
                $(#[doc = $help:literal])*
                pub $field:ident : $ty:ty as $key:literal $(| $alias:literal)? $($value:literal)?
                    $(= $default:expr)? $(, in $rule:expr)? $(, each in $each:expr)? ;
            )+
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[doc = $help])* pub $field: $ty,)+
        }

        $crate::flags!(@derive $($derive)?, $name { $($field : $ty $(= $default)?),+ });

        impl $name {
            /// This command's grammar.
            pub fn command() -> $crate::cli::Command {
                $crate::cli::Command {
                    name: $command,
                    args: ::std::vec![$($crate::cli::Spec::new::<$ty>(
                        $key,
                        &[$($alias)?],
                        &[$($value)?],
                        $crate::flags!(@default $ty $(, $default)?),
                        &[$($help),*],
                    )),+],
                }
            }

            /// Parses the arguments after the command's name. One of
            /// `subcommands` (those of a command that also has some)
            /// after a flag is a usage error naming the flag.
            pub fn parse(
                argv: &[String],
                subcommands: &[&str],
            ) -> ::std::result::Result<Self, $crate::cli::Failure> {
                let command = Self::command();
                let mut raw = command.split(argv, subcommands)?.into_iter().enumerate();
                $(
                    let (i, text) = raw.next().expect("one raw value per declared argument");
                    let $field: $ty = command.value(i, text, $crate::flags!(@default $ty $(, $default)?))?;
                    $(command.check(i, &$field, &$rule)?;)?
                    $($field.iter().try_for_each(|v| command.check(i, v, &$each))?;)?
                )+
                ::std::result::Result::Ok($name { $($field),+ })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::rule::PowerOfTwo;
    use std::path::PathBuf;

    crate::flags! {
        /// A command with one of each kind of argument.
        pub struct Demo: Default = "demo" {
            /// grid side
            pub n_side: usize as "--n-side" "<n>" = 64, in PowerOfTwo(8);
            /// an optional path
            pub out: Option<PathBuf> as "--out" "<dir>";
            /// a switch
            pub quiet: bool as "--quiet" | "-q";
            /// an optional positional
            pub input: Option<String> as "<input>";
        }
    }

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_every_kind_of_argument() {
        let d = Demo::parse(&argv("-q in.json --n-side 16 --out o"), &[]).unwrap();
        assert_eq!((d.n_side, d.out, d.quiet, d.input), (16, Some("o".into()), true, Some("in.json".into())));
        let d = Demo::default();
        assert_eq!((d.n_side, d.out, d.quiet, d.input), (64, None, false, None));
    }

    #[test]
    fn bad_arguments_are_usage_errors_naming_the_token() {
        for (bad, token) in [
            ("--n-side x", "'x'"),
            ("--n-side 12", "got 12"),
            ("--out", "--out needs a value"),
            ("--bogus", "'--bogus'"),
            ("a b", "'b'"),
            ("--quiet sub", "'--quiet' comes before the subcommand 'sub'"),
        ] {
            let f = Demo::parse(&argv(bad), &["sub"]).err().unwrap();
            assert_eq!(f.code, super::USAGE, "{bad}");
            assert!(f.message.contains(token), "{bad}: {}", f.message);
        }
    }

    #[test]
    fn usage_is_generated_from_the_declaration() {
        assert_eq!(
            Demo::command().usage(),
            "  demo [--n-side <n>] [--out <dir>] [--quiet|-q] [<input>]\n\
             \x20     --n-side <n>  grid side (default 64)\n\
             \x20     --out <dir>   an optional path\n\
             \x20     --quiet|-q    a switch\n\
             \x20     <input>       an optional positional\n"
        );
    }
}
