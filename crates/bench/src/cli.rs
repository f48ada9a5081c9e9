//! A tiny flag parser for the harness binaries.

/// Parsed command-line options shared by all harnesses.
///
/// Supported flags: `--scale <f64>` (dataset scale, default 1.0),
/// `--seed <u64>` (default 0), `--epochs <usize>` (measurement epochs,
/// default depends on the harness), `--quick` (shrink everything for a
/// smoke run). A harness that runs a table of experiments (the
/// `experiments` bin) additionally takes the ids to run as positional
/// arguments, `--all` (every id, in table order) or `--list`.
#[derive(Clone, Debug)]
pub struct Cli {
    /// Dataset scale multiplier.
    pub scale: f64,
    /// Master seed.
    pub seed: u64,
    /// Measurement epochs (None = harness default).
    pub epochs: Option<usize>,
    /// Quick smoke-run mode.
    pub quick: bool,
    /// Experiment ids selected (positional, or every id under `--all`).
    pub ids: Vec<String>,
    /// Print the experiment table and exit.
    pub list: bool,
}

impl Cli {
    /// Parses `std::env::args` for a harness that runs one experiment.
    /// Malformed or unknown arguments print a message to stderr and exit
    /// with status 2.
    pub fn parse() -> Self {
        Self::parse_selecting(&[])
    }

    /// [`Cli::parse`] for a harness that runs the experiments named
    /// `ids`: the command line must select at least one of them.
    pub fn parse_selecting(ids: &[&str]) -> Self {
        Self::from_args(std::env::args().skip(1), ids).unwrap_or_else(|e| {
            eprintln!("error: {e} (try --help)");
            std::process::exit(2);
        })
    }

    /// Parses from an iterator (testable). `ids` are the experiment ids
    /// the harness can run; empty for a single-experiment harness, which
    /// then takes no positional argument, `--all` or `--list`.
    ///
    /// # Errors
    ///
    /// Returns a usage message on malformed or unknown arguments; for an
    /// unknown or missing experiment id the message lists the valid ones.
    pub fn from_args<I: IntoIterator<Item = String>>(
        args: I,
        ids: &[&str],
    ) -> Result<Self, String> {
        let mut cli = Cli {
            scale: 1.0,
            seed: 0,
            epochs: None,
            quick: false,
            ids: Vec::new(),
            list: false,
        };
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--scale" => cli.scale = flag_value(&mut it, "--scale", "a number")?,
                "--seed" => cli.seed = flag_value(&mut it, "--seed", "an integer")?,
                "--epochs" => {
                    cli.epochs = Some(flag_value(&mut it, "--epochs", "an integer")?);
                }
                "--quick" => cli.quick = true,
                "--all" if !ids.is_empty() => cli.ids = ids.iter().map(|s| s.to_string()).collect(),
                "--list" if !ids.is_empty() => cli.list = true,
                "--help" | "-h" => {
                    if !ids.is_empty() {
                        println!(
                            "usage: <id>... | --all | --list   (ids: {})",
                            ids.join(", ")
                        );
                    }
                    println!("flags: --scale <f64> --seed <u64> --epochs <n> --quick");
                    std::process::exit(0);
                }
                id if ids.contains(&id) => cli.ids.push(a),
                other if other.starts_with('-') || ids.is_empty() => {
                    return Err(format!("unknown flag {other}"));
                }
                other => {
                    return Err(format!(
                        "unknown experiment {other}; valid ids: {}",
                        ids.join(", ")
                    ));
                }
            }
        }
        if !ids.is_empty() && cli.ids.is_empty() && !cli.list {
            return Err(format!(
                "name an experiment, --all or --list; valid ids: {}",
                ids.join(", ")
            ));
        }
        if cli.quick {
            cli.scale *= 0.2;
        }
        Ok(cli)
    }

    /// The effective epoch count, given a harness default.
    pub fn epochs_or(&self, default: usize) -> usize {
        self.epochs.unwrap_or(if self.quick { 1 } else { default })
    }
}

/// Pulls and parses the value following `flag`, with a uniform error.
fn flag_value<T: std::str::FromStr, I: Iterator<Item = String>>(
    it: &mut I,
    flag: &str,
    kind: &str,
) -> Result<T, String> {
    let raw = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse()
        .map_err(|_| format!("{flag} must be {kind}, got {raw:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const IDS: [&str; 3] = ["table1", "fig4", "fig7"];

    fn parse_ids(args: &[&str], ids: &[&str]) -> Result<Cli, String> {
        Cli::from_args(args.iter().map(|s| s.to_string()), ids)
    }

    fn parse(args: &[&str]) -> Cli {
        parse_ids(args, &[]).unwrap()
    }

    #[test]
    fn defaults() {
        let c = parse(&[]);
        assert_eq!(c.scale, 1.0);
        assert_eq!(c.seed, 0);
        assert_eq!(c.epochs_or(5), 5);
    }

    #[test]
    fn flags_parse() {
        let c = parse(&["--scale", "0.5", "--seed", "7", "--epochs", "3"]);
        assert_eq!(c.scale, 0.5);
        assert_eq!(c.seed, 7);
        assert_eq!(c.epochs_or(5), 3);
    }

    #[test]
    fn quick_shrinks_scale() {
        let c = parse(&["--quick"]);
        assert!(c.quick);
        assert!((c.scale - 0.2).abs() < 1e-12);
        assert_eq!(c.epochs_or(5), 1);
    }

    #[test]
    fn unknown_flag_errors() {
        let e = parse_ids(&["--bogus"], &[]).unwrap_err();
        assert!(e.contains("unknown flag"), "{e}");
        // A single-experiment harness takes no selection arguments.
        for arg in ["table1", "--all", "--list"] {
            let e = parse_ids(&[arg], &[]).unwrap_err();
            assert!(e.contains("unknown flag"), "{e}");
        }
    }

    #[test]
    fn positional_ids_select_in_command_line_order() {
        let c = parse_ids(&["fig7", "--quick", "table1"], &IDS).unwrap();
        assert_eq!(c.ids, ["fig7", "table1"]);
        assert!(c.quick && !c.list);
    }

    #[test]
    fn all_selects_every_id_in_table_order() {
        let c = parse_ids(&["--all", "--seed", "3"], &IDS).unwrap();
        assert_eq!(c.ids, IDS);
        assert_eq!(c.seed, 3);
    }

    #[test]
    fn list_needs_no_id() {
        let c = parse_ids(&["--list"], &IDS).unwrap();
        assert!(c.list && c.ids.is_empty());
    }

    #[test]
    fn unknown_or_missing_id_lists_the_valid_ones() {
        for args in [&["bogus"][..], &[][..], &["--quick"][..]] {
            let e = parse_ids(args, &IDS).unwrap_err();
            assert!(e.contains("valid ids: table1, fig4, fig7"), "{e}");
        }
        assert!(parse_ids(&["bogus"], &IDS)
            .unwrap_err()
            .contains("unknown experiment bogus"));
        assert!(parse_ids(&["--bogus"], &IDS)
            .unwrap_err()
            .contains("unknown flag"));
    }

    #[test]
    fn missing_and_malformed_values_error() {
        assert!(parse_ids(&["--seed"], &[])
            .unwrap_err()
            .contains("needs a value"));
        let e = parse_ids(&["--scale", "x"], &[]).unwrap_err();
        assert!(e.contains("must be a number"), "{e}");
    }
}
