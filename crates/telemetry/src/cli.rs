//! Command lines as data. Every `fedmigr` subcommand declares its flags
//! once, as a table of [`Flag`] rows; [`Command::parse`] reads a command
//! line against it, so the defaults, the `--help` text and the unknown /
//! missing / bad-value errors all come from that one table. Setters only
//! record the value they are given: whatever reads two flags at once runs
//! after parsing, so flag order never matters.
//!
//! The observability flags `run` and `bench` share are one block of rows,
//! [`observability_flags`], behind one setup and teardown,
//! [`Observability`], with one failure policy (DESIGN.md §18).

use std::process::ExitCode;
use std::str::FromStr;

use crate::Filter;

/// Records one value into a command's options; `Err` says why it is bad.
pub type Setter<T> = fn(&mut T, &str) -> Result<(), String>;

/// One row of a flag table.
pub struct Flag<T> {
    /// The flag as typed, e.g. `--epochs`.
    pub name: &'static str,
    /// Placeholder for the value in `--help`, e.g. `<n>`; empty for a
    /// switch, whose setter gets an empty value.
    pub value: &'static str,
    /// Value set before the command line is read; empty for none.
    pub default: &'static str,
    /// What the flag does, for `--help`.
    pub help: &'static str,
    /// Records the value.
    pub set: Setter<T>,
}

/// A subcommand: its flag table, its positional arguments and its entry
/// point.
pub struct Command<T> {
    /// The subcommand as typed after `fedmigr`.
    pub name: &'static str,
    /// Synopsis of the positional arguments, e.g. `<baseline> <current>`.
    pub args: &'static str,
    /// What the subcommand does; opens its `--help`.
    pub about: String,
    /// The flag table.
    pub flags: Vec<Flag<T>>,
    /// Records one positional argument (by default there are none).
    pub positional: Setter<T>,
    /// Rules between values, checked once every argument is recorded.
    pub check: fn(&T) -> Result<(), String>,
    /// Runs the parsed command; its exit status is the process's.
    pub run: fn(T) -> ExitCode,
}

/// Why parsing stopped short of options.
#[derive(Debug, PartialEq)]
pub enum Stop {
    /// `--help` was given: the help text to print.
    Help(String),
    /// The command line is wrong: what is wrong with it.
    Usage(String),
}

impl<T> Command<T> {
    /// A command without positional arguments or rules between values.
    pub fn new(
        name: &'static str,
        args: &'static str,
        about: &str,
        flags: Vec<Flag<T>>,
        run: fn(T) -> ExitCode,
    ) -> Self {
        Self {
            name,
            args,
            about: format!("fedmigr {name} — {about}"),
            flags,
            positional: |_, arg| Err(format!("unexpected argument {arg:?}")),
            check: |_| Ok(()),
            run,
        }
    }

    /// The `--help` text, rendered from the table.
    pub fn help(&self) -> String {
        const COLUMN: usize = 28;
        const WIDTH: usize = 80;
        let mut out = format!(
            "{}\n\nUSAGE:\n    fedmigr {} {}{}[OPTIONS]\n\nOPTIONS:\n",
            self.about,
            self.name,
            self.args,
            if self.args.is_empty() { "" } else { " " }
        );
        let rows = self.flags.iter().map(|f| (f.name, f.value, f.default, f.help));
        for (name, value, default, help) in rows.chain([("--help", "", "", "print this help")]) {
            let mut text = help.to_string();
            if !default.is_empty() {
                text.push_str(&format!(" (default {default})"));
            }
            let mut line = format!("    {name} {value}").trim_end().to_string();
            if line.len() + 2 > COLUMN {
                out.push_str(&format!("{line}\n"));
                line.clear();
            }
            for word in text.split_whitespace() {
                if line.len() > COLUMN && line.len() + 1 + word.len() > WIDTH {
                    out.push_str(&format!("{line}\n"));
                    line.clear();
                }
                line.push_str(&" ".repeat(COLUMN.saturating_sub(line.len()).max(1)));
                line.push_str(word);
            }
            out.push_str(&format!("{line}\n"));
        }
        out
    }
}

impl<T: Default> Command<T> {
    /// Reads `args` (without the program and subcommand names) against the
    /// table: the defaults first, then every argument in order, then
    /// [`Command::check`].
    pub fn parse(&self, args: &[String]) -> Result<T, Stop> {
        let mut out = T::default();
        for flag in self.flags.iter().filter(|f| !f.default.is_empty()) {
            (flag.set)(&mut out, flag.default)
                .map_err(|why| Stop::Usage(format!("default of {}: {why}", flag.name)))?;
        }
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if arg == "--help" || arg == "-h" {
                return Err(Stop::Help(self.help()));
            }
            if !arg.starts_with('-') {
                (self.positional)(&mut out, arg).map_err(Stop::Usage)?;
                continue;
            }
            let Some(flag) = self.flags.iter().find(|f| f.name == arg) else {
                return Err(Stop::Usage(format!("unknown flag {arg:?}")));
            };
            let value = match flag.value {
                "" => "",
                _ => it.next().ok_or_else(|| Stop::Usage(format!("flag {arg} needs a value")))?,
            };
            (flag.set)(&mut out, value)
                .map_err(|why| Stop::Usage(format!("bad value {value:?} for {arg}: {why}")))?;
        }
        (self.check)(&out).map_err(Stop::Usage)?;
        Ok(out)
    }

    /// Parses `args` and runs the command: `--help` prints the help and
    /// exits 0, a usage error exits 2.
    pub fn main(&self, args: &[String]) -> ExitCode {
        match self.parse(args) {
            Ok(opts) => (self.run)(opts),
            Err(Stop::Help(text)) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            Err(Stop::Usage(problem)) => usage_error(self.name, &problem),
        }
    }
}

/// Prints a usage error the way every subcommand does; returns status 2.
pub fn usage_error(command: &str, problem: &str) -> ExitCode {
    eprintln!("error: {problem} (try `fedmigr {command} --help`)");
    ExitCode::from(2)
}

/// Setter body: parses `value` into `slot`.
pub fn put<V: FromStr<Err: std::fmt::Display>>(slot: &mut V, value: &str) -> Result<(), String> {
    *slot = value.parse().map_err(|e: V::Err| e.to_string())?;
    Ok(())
}

/// Setter body: parses `value` into an optional `slot`.
pub fn put_some<V>(slot: &mut Option<V>, value: &str) -> Result<(), String>
where
    V: FromStr<Err: std::fmt::Display>,
{
    *slot = Some(value.parse().map_err(|e: V::Err| e.to_string())?);
    Ok(())
}

/// Setter body for a switch.
pub fn on(slot: &mut bool) -> Result<(), String> {
    *slot = true;
    Ok(())
}

/// Positional setter body: the first positional argument goes to `slot`,
/// a second one is an error.
pub fn first(slot: &mut Option<String>, arg: &str) -> Result<(), String> {
    match slot {
        None => put_some(slot, arg),
        Some(_) => Err(format!("unexpected argument {arg:?}")),
    }
}

/// The options behind the observability flags `run` and `bench` share.
#[derive(Debug, Default, PartialEq)]
pub struct Observability {
    /// `--log-level <spec>`: replaces the filter `FEDMIGR_LOG` set.
    pub log_level: Option<Filter>,
    /// `--trace-out <path>`: stream a JSONL trace of spans and log events.
    pub trace_out: Option<String>,
    /// `--metrics-out <path>`: write the metrics dump at exit.
    pub metrics_out: Option<String>,
}

/// The observability rows, for any options holding an [`Observability`].
#[rustfmt::skip]
pub fn observability_flags<T: AsMut<Observability>>() -> [Flag<T>; 3] {
    [
        Flag { name: "--log-level", value: "<spec>", default: "", set: |t, v| put_some(&mut t.as_mut().log_level, v),
            help: "log verbosity: error|warn|info|debug|trace, with per-target overrides like \
                   debug,drl=trace,net=off; replaces FEDMIGR_LOG (default info)" },
        Flag { name: "--trace-out", value: "<path>", default: "", set: |t, v| put_some(&mut t.as_mut().trace_out, v),
            help: "write a JSONL trace of spans and log events" },
        Flag { name: "--metrics-out", value: "<path>", default: "", set: |t, v| put_some(&mut t.as_mut().metrics_out, v),
            help: "write a Prometheus-style metrics dump at exit" },
    ]
}

impl Observability {
    /// Applies the log filter and opens the trace; `Err` (the trace cannot
    /// be created) means the caller exits 2 before doing any work.
    pub fn init(&self) -> Result<(), String> {
        if let Some(filter) = &self.log_level {
            crate::set_filter(filter.clone());
        }
        match &self.trace_out {
            Some(path) => crate::set_trace_file(path)
                .map_err(|e| format!("cannot open --trace-out {path}: {e}")),
            None => Ok(()),
        }
    }

    /// Writes the metrics dump and closes the trace; `Err` (the dump could
    /// not be written) means the caller exits 2, after its results.
    pub fn finish(&self) -> Result<(), String> {
        let written = self.metrics_out.as_ref().map_or(Ok(()), |path| {
            std::fs::write(path, crate::render_metrics())
                .map(|()| crate::info!("cli", "wrote {path}"))
                .map_err(|e| format!("failed to write --metrics-out {path}: {e}"))
        });
        crate::close_trace();
        written
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Default, PartialEq)]
    struct Opts {
        n: usize,
        name: Option<String>,
        on: bool,
        words: Vec<String>,
        obs: Observability,
    }

    impl AsMut<Observability> for Opts {
        fn as_mut(&mut self) -> &mut Observability {
            &mut self.obs
        }
    }

    #[rustfmt::skip]
    fn command() -> Command<Opts> {
        let mut flags: Vec<Flag<Opts>> = vec![
            Flag { name: "--n", value: "<n>", default: "3", help: "a count", set: |o, v| put(&mut o.n, v) },
            Flag { name: "--name", value: "<s>", default: "", help: "a name", set: |o, v| put_some(&mut o.name, v) },
            Flag { name: "--on", value: "", default: "", help: "a switch", set: |o, _| on(&mut o.on) },
        ];
        flags.extend(observability_flags());
        Command {
            positional: |o, v| {
                o.words.push(v.into());
                Ok(())
            },
            check: |o| if o.n > 10 { Err("n is at most 10".into()) } else { Ok(()) },
            ..Command::new("demo", "<word>...", "a test command", flags, |_| ExitCode::SUCCESS)
        }
    }

    fn parse(line: &str) -> Result<Opts, Stop> {
        command().parse(&line.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn defaults_come_from_the_table_and_flags_override_them() {
        assert_eq!(parse("").unwrap(), Opts { n: 3, ..Opts::default() });
        let o = parse("a --n 5 --on b --name x --log-level debug --metrics-out m.prom").unwrap();
        assert_eq!((o.n, o.name.as_deref(), o.on), (5, Some("x"), true));
        assert_eq!(o.words, ["a", "b"]);
        assert_eq!(o.obs.log_level, Some(Filter::parse("debug").unwrap()));
        assert_eq!(o.obs.metrics_out.as_deref(), Some("m.prom"));
    }

    #[test]
    fn unknown_missing_and_bad_values_are_usage_errors() {
        let usage = |line| match parse(line) {
            Err(Stop::Usage(e)) => e,
            other => panic!("{line}: {other:?}"),
        };
        assert_eq!(usage("--m 1"), "unknown flag \"--m\"");
        assert_eq!(usage("--n=1"), "unknown flag \"--n=1\"");
        assert_eq!(usage("--n"), "flag --n needs a value");
        assert!(usage("--n x").starts_with("bad value \"x\" for --n: "));
        assert!(usage("--log-level loud").starts_with("bad value \"loud\" for --log-level"));
        assert_eq!(usage("--n 11"), "n is at most 10");
    }

    #[test]
    fn help_lists_every_row_with_its_default() {
        let Err(Stop::Help(text)) = parse("--n 1 --help") else { panic!("--help stops parsing") };
        assert!(
            text.starts_with("fedmigr demo — a test command\n\nUSAGE:\n    fedmigr demo <word>...")
        );
        for flag in ["--n <n>", "--name <s>", "--on", "--log-level", "--metrics-out", "--help"] {
            assert!(text.contains(flag), "{flag} missing from:\n{text}");
        }
        assert!(text.contains("a count (default 3)"), "{text}");
        assert!(text.lines().all(|l| l.len() <= 80 || !l.contains(' ')), "{text}");
    }
}
