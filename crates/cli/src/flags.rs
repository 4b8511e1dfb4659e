//! The flag table behind every command line of `lpr`, `lpr-bench` and
//! `experiments`: each command declares each of its flags once — name,
//! value kind, default, bound and help line — and [`parse`] reads a
//! command line against it. [`usage`] renders the flag lines of the
//! help text from the same table, and [`TraceOut`] turns the shared
//! `--trace-out`/`--trace-level` pair into a tracer and its journal.

use std::fmt::Write as _;

/// How a flag's value is read, and the range it must fall in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Present or absent; takes no value.
    Switch,
    /// Any text (a path).
    Text,
    /// A whole number no smaller than `min`.
    Count {
        /// The smallest value accepted.
        min: u64,
    },
    /// A number in [0, 1].
    Fraction,
    /// A number above 0.
    Positive,
    /// A probing strategy (`netsim::ProbingStrategy::parse`).
    Probing,
    /// A trace event level (`lpr_obs::Level::parse`).
    Level,
    /// A tunnel-visibility mix (`netsim::VisibilityMix::parse`).
    Mix,
}

impl Kind {
    /// Whether `v` is a value of this kind, inside its bound.
    fn accepts(self, v: &str) -> bool {
        match self {
            Kind::Switch | Kind::Text => true,
            Kind::Count { min } => v.parse::<u64>().is_ok_and(|n| n >= min),
            Kind::Fraction => v.trim().parse::<f64>().is_ok_and(|f| (0.0..=1.0).contains(&f)),
            Kind::Positive => v.parse::<f64>().is_ok_and(|f| f > 0.0),
            Kind::Probing => netsim::ProbingStrategy::parse(v).is_some(),
            Kind::Level => lpr_obs::Level::parse(v).is_some(),
            Kind::Mix => netsim::VisibilityMix::parse(v).is_some(),
        }
    }

    /// The value's shape as the help text spells it (empty for a
    /// switch).
    fn shape(self) -> &'static str {
        match self {
            Kind::Switch => "",
            Kind::Text => "PATH",
            Kind::Count { .. } => "N",
            Kind::Fraction | Kind::Positive => "F",
            Kind::Probing => "exhaustive|mda|mda-lite",
            Kind::Level => "debug|info|warn|error",
            Kind::Mix => "explicit:F,implicit:F,invisible:F,opaque:F",
        }
    }

    /// The bound as the help text spells it, if the kind has one.
    fn bound(self) -> Option<String> {
        match self {
            Kind::Count { min } if min > 0 => Some(format!("N >= {min}")),
            Kind::Fraction => Some("F in [0, 1]".to_string()),
            Kind::Positive => Some("F > 0".to_string()),
            _ => None,
        }
    }
}

/// One flag of one command.
#[derive(Debug)]
pub struct Flag {
    /// The flag as typed, `--name`.
    pub name: &'static str,
    /// How its value is read and bounded.
    pub kind: Kind,
    /// The value used when the flag is not given; `None` leaves it
    /// unset (an optional gate, or a value the command requires).
    pub default: Option<&'static str>,
    /// The help text's one-line description.
    pub help: &'static str,
}

/// A [`Flag`], in the table's one-line form.
pub const fn flag(
    name: &'static str,
    kind: Kind,
    default: Option<&'static str>,
    help: &'static str,
) -> Flag {
    Flag { name, kind, default, help }
}

/// What a command takes besides its flags.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Positional {
    /// Nothing.
    None,
    /// Exactly one word, named.
    One(&'static str),
    /// One or more words, named.
    Many(&'static str),
}

/// `--trace-out`, as every binary declares it.
pub const TRACE_OUT: Flag =
    flag("--trace-out", Kind::Text, None, "write a Chrome trace of the run");
/// `--trace-level`, as every binary declares it.
pub const TRACE_LEVEL: Flag =
    flag("--trace-level", Kind::Level, Some("info"), "lowest traced event level");

/// One command: its name, its positional arguments, a short description
/// and its flags.
#[derive(Debug)]
pub struct Command {
    /// The command as typed.
    pub name: &'static str,
    /// What it takes besides its flags.
    pub positional: Positional,
    /// The help text's description.
    pub about: &'static str,
    /// Every flag it reads, in help order.
    pub flags: &'static [Flag],
}

/// The command named `name` in `commands`.
pub fn command<'a>(commands: &'a [Command], name: &str) -> Option<&'a Command> {
    commands.iter().find(|c| c.name == name)
}

/// The help text: `header`, then each command's synopsis, description
/// and one line per flag, rendered from `commands`.
pub fn usage(header: &str, binary: &str, commands: &[Command]) -> String {
    let mut out = format!("{header}\n\nUSAGE:\n  {binary} <command> [flags]\n  {binary} help\n");
    for c in commands {
        let positional = match c.positional {
            Positional::None => String::new(),
            Positional::One(p) => format!(" <{p}>"),
            Positional::Many(p) => format!(" <{p}>..."),
        };
        let _ = writeln!(out, "\n{binary} {}{positional}\n{}", c.name, c.about);
        for f in c.flags {
            let mut help = f.help.to_string();
            if let Some(bound) = f.kind.bound() {
                let _ = write!(help, "; {bound}");
            }
            if let Some(default) = f.default {
                let _ = write!(help, "; default {default}");
            }
            let head = format!("{} {}", f.name, f.kind.shape());
            let head = head.trim_end();
            if head.len() > 28 {
                let _ = writeln!(out, "  {head}\n  {:<28} {help}", "");
            } else {
                let _ = writeln!(out, "  {head:<28} {help}");
            }
        }
    }
    out
}

/// One command line, read against its command's flag table.
#[derive(Debug)]
pub struct Args {
    command: &'static Command,
    given: Vec<(&'static str, String)>,
    positional: Vec<String>,
}

/// Reads `argv` (the words after the command name) against `command`'s
/// table. An unknown flag, a flag without its value, a value of the
/// wrong kind or out of bound, a missing positional and one too many
/// are errors.
pub fn parse(command: &'static Command, argv: &[String]) -> Result<Args, String> {
    let mut args = Args { command, given: Vec::new(), positional: Vec::new() };
    let mut words = argv.iter();
    while let Some(word) = words.next() {
        if let Some(f) = command.flags.iter().find(|f| f.name == word) {
            let value = match f.kind {
                Kind::Switch => String::new(),
                kind => {
                    let v = words.next().ok_or_else(|| format!("{word} wants a value"))?;
                    if !kind.accepts(v) {
                        let bound = kind.bound().unwrap_or_else(|| kind.shape().to_string());
                        return Err(format!("{word} `{v}`: wants {bound}"));
                    }
                    v.clone()
                }
            };
            args.given.push((f.name, value));
            continue;
        }
        let room = match command.positional {
            Positional::None => false,
            Positional::One(_) => args.positional.is_empty(),
            Positional::Many(_) => true,
        };
        if !room || word.starts_with("--") {
            return Err(format!("unknown flag {word}"));
        }
        args.positional.push(word.clone());
    }
    match command.positional {
        Positional::One(name) | Positional::Many(name) if args.positional.is_empty() => {
            Err(format!("{} wants <{name}>", command.name))
        }
        _ => Ok(args),
    }
}

impl Args {
    /// The flag's value as given (the last one wins), else its default.
    /// Panics on a name the command does not declare.
    fn raw(&self, name: &str) -> Option<&str> {
        let Some(f) = self.command.flags.iter().find(|f| f.name == name) else {
            panic!("{} declares no flag {name}", self.command.name);
        };
        let given = self.given.iter().rev().find(|(n, _)| *n == name);
        given.map(|(_, v)| v.as_str()).or(f.default)
    }

    /// The command this line was read against.
    pub fn command(&self) -> &'static Command {
        self.command
    }

    /// Whether a switch was given; false for a switch the command does
    /// not declare, so code shared by several commands can ask.
    pub fn on(&self, name: &str) -> bool {
        self.given.iter().any(|(n, _)| *n == name)
    }

    /// The flag's value as a `T`, or `None` when it was not given and
    /// has no default.
    pub fn get<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        self.raw(name).map(|v| match v.trim().parse() {
            Ok(t) => t,
            Err(_) => panic!("{name} `{v}` passed its kind check but does not parse"),
        })
    }

    /// The value of a flag that has a default.
    pub fn value<T: std::str::FromStr>(&self, name: &str) -> T {
        self.get(name).unwrap_or_else(|| panic!("{name} has no default"))
    }

    /// Every value a repeated flag was given, in order. Panics on a name
    /// the command does not declare, as [`Args::get`] does.
    pub fn all(&self, name: &str) -> Vec<String> {
        let _declared = self.raw(name);
        self.given.iter().filter(|(n, _)| *n == name).map(|(_, v)| v.clone()).collect()
    }

    /// The first positional word; always present when the command
    /// declares a positional.
    pub fn positional(&self) -> Option<&str> {
        self.positional.first().map(String::as_str)
    }

    /// Every positional word, in order.
    pub fn positionals(&self) -> &[String] {
        &self.positional
    }
}

/// The `--trace-out`/`--trace-level` pair every binary declares: a
/// tracer at `--trace-level` when `--trace-out` is given (disabled
/// otherwise), and the one writer of its journal.
pub struct TraceOut {
    path: Option<String>,
    tracer: lpr_obs::Tracer,
}

impl TraceOut {
    /// The tracer `args` asks for. The command must declare both flags.
    pub fn new(args: &Args) -> TraceOut {
        let path: Option<String> = args.get("--trace-out");
        let tracer = match path {
            Some(_) => lpr_obs::Tracer::new(
                lpr_obs::Level::parse(&args.value::<String>("--trace-level"))
                    .expect("the flag table checked --trace-level"),
            ),
            None => lpr_obs::Tracer::disabled(),
        };
        TraceOut { path, tracer }
    }

    /// The tracer: enabled exactly when `--trace-out` was given.
    pub fn tracer(&self) -> &lpr_obs::Tracer {
        &self.tracer
    }

    /// Writes the journal to `--trace-out` as Chrome trace JSON, warning
    /// on stderr first when the ring wrapped. Returns the path written,
    /// `None` without `--trace-out`; an error names the path.
    pub fn write(&self) -> Result<Option<&str>, String> {
        let Some(path) = &self.path else { return Ok(None) };
        let snapshot = self.tracer.snapshot();
        if snapshot.dropped > 0 {
            eprintln!(
                "warning: trace journal wrapped, {} oldest events overwritten",
                snapshot.dropped
            );
        }
        std::fs::write(path, lpr_obs::export::chrome_trace(&snapshot))
            .map_err(|e| format!("{path}: {e}"))?;
        Ok(Some(path))
    }
}
