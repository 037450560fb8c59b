//! Argument parsing and artifact writing for the `unit-bench` harness (no
//! external dependency needed for a handful of flags).
//!
//! * [`Flags`] — the cursor over the arguments after the experiment name.
//!   An experiment with knobs of its own drives the loop and keeps its own
//!   match arms; `Flags` owns the value/parse error paths and the
//!   usage-and-exit convention (exit code 2, usage on stderr).
//! * [`Shared`] — the flags every experiment spells the same way
//!   (`--scale N | --full`, `--out PATH | --no-out`, `--trace-out FILE`),
//!   parsed in one place, plus the writers for what they name.

use crate::render::{render_event_timeline, Table};

/// Cursor over the flags of one experiment.
///
/// ```no_run
/// use unit_bench::cli::{Flags, Shared};
/// let mut fl = Flags::from_args(vec![], "usage: demo [--plans N] [--scale N | --full]");
/// let mut shared = Shared::new(4, Some("results/demo"));
/// let mut plans = 50u64;
/// while let Some(arg) = fl.next_flag() {
///     match arg.as_str() {
///         "--plans" => plans = fl.parse(&arg),
///         other => shared.accept(&mut fl, other),
///     }
/// }
/// ```
pub struct Flags {
    args: std::vec::IntoIter<String>,
    usage: String,
}

impl Flags {
    /// A cursor over `args` (experiment name excluded).
    #[must_use]
    pub fn from_args(args: Vec<String>, usage: &str) -> Flags {
        Flags {
            args: args.into_iter(),
            usage: usage.to_string(),
        }
    }

    /// Pull the next flag, or `None` when the arguments are exhausted.
    pub fn next_flag(&mut self) -> Option<String> {
        self.args.next()
    }

    /// Pull `flag`'s value argument.
    ///
    /// # Errors
    /// Fails when the argument list is exhausted.
    pub fn try_value(&mut self, flag: &str) -> Result<String, String> {
        self.args.next().ok_or(format!("{flag} requires a value"))
    }

    /// Pull and parse `flag`'s value argument.
    ///
    /// # Errors
    /// Fails when the value is missing or does not parse as `T`.
    pub fn try_parse<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, String> {
        let v = self.try_value(flag)?;
        v.parse().map_err(|_| format!("bad {flag} value: {v}"))
    }

    /// Pull `flag`'s value argument, exiting with usage when missing.
    pub fn value(&mut self, flag: &str) -> String {
        match self.try_value(flag) {
            Ok(v) => v,
            Err(msg) => self.fail(&msg),
        }
    }

    /// Pull and parse `flag`'s value argument, exiting with usage on a
    /// missing or malformed value.
    pub fn parse<T: std::str::FromStr>(&mut self, flag: &str) -> T {
        match self.try_parse(flag) {
            Ok(v) => v,
            Err(msg) => self.fail(&msg),
        }
    }

    /// Whether the usage text names `flag` — the usage line is the
    /// experiment's declaration of which shared flags it takes, so what is
    /// documented and what is accepted cannot drift apart.
    fn usage_names(&self, flag: &str) -> bool {
        self.usage
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .any(|token| token == flag)
    }

    /// Report `msg` (a bad value or a cross-flag constraint violation),
    /// print the usage text, and exit 2.
    pub fn fail(&self, msg: &str) -> ! {
        eprintln!("{msg}");
        eprintln!("{}", self.usage);
        std::process::exit(2);
    }
}

/// The flags every experiment shares. An experiment takes the ones its
/// usage line names; the rest are unknown arguments to it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shared {
    /// Workload divisor (`--scale N`; `--full` = 1 = paper scale).
    pub scale: u64,
    /// Where the artifacts go (`--out PATH`): a directory, or the workload
    /// file of `tracegen`. `None` (`--no-out`) writes nothing.
    pub out: Option<String>,
    /// Event-trace file (`--trace-out FILE`, JSONL); `None` disables
    /// recording.
    pub trace_out: Option<String>,
}

impl Shared {
    /// The experiment's defaults.
    #[must_use]
    pub fn new(scale: u64, out: Option<&str>) -> Shared {
        Shared {
            scale,
            out: out.map(str::to_string),
            trace_out: None,
        }
    }

    /// Consume `arg` (and its value) if it is a shared flag the
    /// experiment's usage names.
    ///
    /// # Errors
    /// Fails on any other argument, a missing or malformed value, or a
    /// zero scale.
    pub fn try_accept(&mut self, fl: &mut Flags, arg: &str) -> Result<(), String> {
        if !fl.usage_names(arg) {
            return Err(format!("unknown argument: {arg}"));
        }
        match arg {
            "--scale" => {
                self.scale = fl.try_parse(arg)?;
                if self.scale == 0 {
                    return Err("--scale must be >= 1".to_string());
                }
            }
            "--full" => self.scale = 1,
            "--out" => self.out = Some(fl.try_value(arg)?),
            "--no-out" => self.out = None,
            "--trace-out" => self.trace_out = Some(fl.try_value(arg)?),
            other => return Err(format!("unknown argument: {other}")),
        }
        Ok(())
    }

    /// [`Shared::try_accept`], exiting 2 with usage on error — the
    /// fall-through arm of an experiment's own flag loop.
    pub fn accept(&mut self, fl: &mut Flags, arg: &str) {
        if let Err(msg) = self.try_accept(fl, arg) {
            fl.fail(&msg);
        }
    }

    /// Parse every remaining argument as a shared flag (for experiments
    /// with no knobs of their own).
    #[must_use]
    pub fn parse_all(mut self, mut fl: Flags) -> Shared {
        while let Some(arg) = fl.next_flag() {
            self.accept(&mut fl, &arg);
        }
        self
    }

    /// If `--trace-out` was given: print the event-family timeline of the
    /// recorded `subject` run and write the stream as JSONL; returns the
    /// path written.
    pub fn write_trace(&self, subject: &str, events: &[unit_obs::ObsEvent]) -> Option<String> {
        let path = self.trace_out.as_ref()?;
        println!("event timeline ({subject}):");
        print!("{}", render_event_timeline(events, 64));
        match unit_obs::write_jsonl(path, events) {
            Ok(()) => {
                println!("event trace written to {path}\n");
                Some(path.clone())
            }
            Err(e) => {
                eprintln!("warning: cannot write {path}: {e}");
                None
            }
        }
    }

    /// Write `<stem>.csv` and `<stem>.txt` of a table experiment under the
    /// output directory (created if missing); returns the CSV's path.
    pub fn write_table(&self, table: &Table) -> Option<String> {
        let dir = self.out.as_ref()?;
        write_file(dir, &format!("{}.txt", table.stem), &table.text())?;
        write_file(dir, &format!("{}.csv", table.stem), &table.csv())
    }
}

/// Write `contents` to `dir/name`, creating `dir`; warns and returns `None`
/// when the filesystem refuses.
pub fn write_file(dir: &str, name: &str, contents: &str) -> Option<String> {
    if std::fs::create_dir_all(dir).is_err() {
        eprintln!("warning: cannot create output directory {dir}");
        return None;
    }
    let path = format!("{dir}/{name}");
    match std::fs::write(&path, contents) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("warning: cannot write {path}: {e}");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;

    const USAGE: &str = "usage: t [--scale N | --full] [--out DIR | --no-out] [--trace-out FILE]";

    fn flags(args: &[&str]) -> Flags {
        Flags::from_args(args.iter().map(|&s| s.to_string()).collect(), USAGE)
    }

    fn parse(args: &[&str]) -> Result<Shared, String> {
        let mut fl = flags(args);
        let mut shared = Shared::new(4, Some("results"));
        while let Some(arg) = fl.next_flag() {
            shared.try_accept(&mut fl, &arg)?;
        }
        Ok(shared)
    }

    fn probe_table() -> Table {
        Table {
            stem: "probe",
            title: "Probe".to_string(),
            header: row!["a", "b"],
            rows: vec![row!["1", "2"]],
            notes: String::new(),
        }
    }

    #[test]
    fn flags_cursor_walks_values_and_parses() {
        let mut fl = flags(&["--runs", "7", "--out", "x.json", "--fast"]);
        assert_eq!(fl.next_flag().as_deref(), Some("--runs"));
        assert_eq!(fl.try_parse::<usize>("--runs"), Ok(7));
        assert_eq!(fl.next_flag().as_deref(), Some("--out"));
        assert_eq!(fl.try_value("--out").as_deref(), Ok("x.json"));
        assert_eq!(fl.next_flag().as_deref(), Some("--fast"));
        assert_eq!(fl.next_flag(), None);
    }

    #[test]
    fn flags_errors_name_the_flag_and_value() {
        let mut fl = flags(&["--runs", "seven"]);
        fl.next_flag();
        assert_eq!(
            fl.try_parse::<usize>("--runs").unwrap_err(),
            "bad --runs value: seven"
        );
        assert_eq!(
            fl.try_value("--runs").unwrap_err(),
            "--runs requires a value"
        );
        assert_eq!(
            flags(&[]).try_parse::<u64>("--seed").unwrap_err(),
            "--seed requires a value"
        );
    }

    #[test]
    fn defaults() {
        let a = parse(&[]).unwrap();
        assert_eq!(a, Shared::new(4, Some("results")));
        assert_eq!(a.out.as_deref(), Some("results"));
    }

    #[test]
    fn scale_and_full() {
        assert_eq!(parse(&["--scale", "8"]).unwrap().scale, 8);
        assert_eq!(parse(&["--full"]).unwrap().scale, 1);
        assert!(parse(&["--scale", "0"]).is_err());
        assert!(parse(&["--scale"]).is_err());
        assert!(parse(&["--scale", "x"]).is_err());
    }

    #[test]
    fn output_flags() {
        assert_eq!(parse(&["--no-out"]).unwrap().out, None);
        assert_eq!(
            parse(&["--out", "/tmp/x"]).unwrap().out.as_deref(),
            Some("/tmp/x")
        );
    }

    #[test]
    fn unknown_flags_error_with_usage() {
        assert_eq!(
            parse(&["--bogus"]).unwrap_err(),
            "unknown argument: --bogus"
        );
        // A shared flag the experiment's usage does not name is unknown to it.
        let mut fl = Flags::from_args(vec![], "usage: t [--scale N | --full]");
        let mut shared = Shared::new(4, None);
        assert!(shared.try_accept(&mut fl, "--full").is_ok());
        assert_eq!(
            shared.try_accept(&mut fl, "--trace-out").unwrap_err(),
            "unknown argument: --trace-out"
        );
        // An experiment's own flag is never a shared one.
        let mut fl = Flags::from_args(vec![], "usage: t [--seed S]");
        assert_eq!(
            shared.try_accept(&mut fl, "--seed").unwrap_err(),
            "unknown argument: --seed"
        );
        assert_eq!(
            shared.try_accept(&mut fl, "--out").unwrap_err(),
            "unknown argument: --out"
        );
    }

    #[test]
    fn trace_out_flag() {
        assert_eq!(parse(&[]).unwrap().trace_out, None);
        assert_eq!(
            parse(&["--trace-out", "t.jsonl"])
                .unwrap()
                .trace_out
                .as_deref(),
            Some("t.jsonl")
        );
        assert!(parse(&["--trace-out"]).is_err());
    }

    #[test]
    fn write_csv_creates_the_directory_and_file() {
        let dir = std::env::temp_dir().join(format!("unit-cli-test-{}", std::process::id()));
        let shared = Shared::new(1, Some(&dir.to_string_lossy()));
        let path = shared.write_table(&probe_table()).expect("written");
        assert!(path.ends_with("probe.csv"));
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "a,b\n1,2\n");
        assert_eq!(
            std::fs::read_to_string(dir.join("probe.txt")).unwrap(),
            probe_table().text()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_csv_is_disabled_without_an_out_dir() {
        assert!(Shared::new(1, None).write_table(&probe_table()).is_none());
    }

    #[test]
    fn write_trace_writes_jsonl_at_the_given_path() {
        use unit_core::time::SimTime;
        use unit_core::types::{Outcome, QueryId};
        let events = vec![unit_obs::ObsEvent::QueryOutcome {
            time: SimTime::from_secs(1),
            query: QueryId(0),
            outcome: Outcome::Success,
        }];
        let dir = std::env::temp_dir().join(format!("unit-trace-test-{}", std::process::id()));
        let file = dir.join("events.jsonl");
        let mut shared = Shared::new(1, None);
        shared.trace_out = Some(file.to_string_lossy().into_owned());
        let path = shared.write_trace("probe", &events).expect("written");
        assert_eq!(path, file.to_string_lossy());
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"kind\":\"outcome\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_trace_is_disabled_without_the_flag() {
        assert!(Shared::new(4, Some("results"))
            .write_trace("probe", &[])
            .is_none());
    }
}
