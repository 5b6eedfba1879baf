//! The command table's types, its flag parser and usage renderer, and
//! the `--spec` topology mini-language.

use std::io;
use std::str::FromStr;

use rand::Rng;

use mimd_graph::error::GraphError;
use mimd_topology::{SystemGraph, TopologySpec};

/// One flag a command accepts: its name without `--`, and the
/// placeholder usage shows for its value (`None` = a boolean flag).
pub type FlagSpec = (&'static str, Option<&'static str>);

/// One `mimd` subcommand: the only statement of its flags and usage.
pub struct Command {
    /// The subcommand word.
    pub name: &'static str,
    /// Placeholder of a required positional argument before the flags.
    pub positional: Option<&'static str>,
    /// Every flag the command accepts.
    pub flags: &'static [FlagSpec],
    /// What the command does, for the usage text.
    pub about: &'static str,
    /// The handler: everything it prints goes to the writer, stdout.
    pub run: fn(&Flags, &mut dyn io::Write) -> Result<(), Stop>,
}

/// Why a command stopped before it finished.
#[derive(Debug)]
pub enum Stop {
    /// A refusal or a failure, reported on stderr with the usage text.
    Failed(String),
    /// The reader closed stdout (`mimd … | head`): a clean stop, with
    /// nothing more to report.
    Closed,
}

impl From<String> for Stop {
    fn from(message: String) -> Stop {
        Stop::Failed(message)
    }
}

impl From<&str> for Stop {
    fn from(message: &str) -> Stop {
        Stop::Failed(message.into())
    }
}

/// A failed write to stdout.
impl From<io::Error> for Stop {
    fn from(e: io::Error) -> Stop {
        match e.kind() {
            io::ErrorKind::BrokenPipe => Stop::Closed,
            _ => Stop::Failed(format!("writing stdout: {e}")),
        }
    }
}

/// A command line parsed against its [`Command`]: every flag is known,
/// given at most once, and carries a value iff it takes one.
#[derive(Debug)]
pub struct Flags {
    positional: Option<String>,
    pairs: Vec<(&'static str, Option<String>)>,
}

impl Flags {
    /// Parse everything after the subcommand word. A token that does not
    /// start with `--` is the value of the flag before it.
    pub fn parse(command: &Command, args: &[String]) -> Result<Flags, String> {
        let mut args = args.iter().peekable();
        let positional = match command.positional {
            None => None,
            Some(placeholder) => Some(
                args.next_if(|arg| !arg.starts_with("--"))
                    .cloned()
                    .ok_or_else(|| format!("{} needs {placeholder}", command.name))?,
            ),
        };
        let mut pairs: Vec<(&'static str, Option<String>)> = Vec::new();
        while let Some(arg) = args.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return Err(format!("expected a --flag, found '{arg}'"));
            };
            let Some(&(name, placeholder)) = command.flags.iter().find(|(n, _)| *n == name) else {
                return Err(format!("unknown flag --{name}"));
            };
            if pairs.iter().any(|(n, _)| *n == name) {
                return Err(format!("--{name} given more than once"));
            }
            let value = args.next_if(|next| !next.starts_with("--")).cloned();
            match (placeholder, &value) {
                (Some(placeholder), None) => {
                    return Err(format!("--{name} needs {placeholder}"));
                }
                (None, Some(value)) => {
                    return Err(format!("--{name} takes no value, found '{value}'"));
                }
                _ => pairs.push((name, value)),
            }
        }
        Ok(Flags { positional, pairs })
    }

    /// The command's positional argument, if it takes one.
    pub fn positional(&self) -> Option<&str> {
        self.positional.as_deref()
    }

    /// String value of `name`.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    /// `true` iff `--name` appeared.
    pub fn has(&self, name: &str) -> bool {
        self.pairs.iter().any(|(n, _)| *n == name)
    }

    /// Parse `--name`'s value, if it was given.
    pub fn opt<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.get(name)
            .map(|v| v.parse().map_err(|_| format!("bad --{name} '{v}'")))
            .transpose()
    }

    /// Parse a flag with a default.
    pub fn num<T: FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        Ok(self.opt(name)?.unwrap_or(default))
    }

    /// Parse a count that must be at least 1.
    pub fn positive(&self, name: &str, default: usize) -> Result<usize, String> {
        match self.num(name, default)? {
            0 => Err(format!("--{name} must be at least 1")),
            n => Ok(n),
        }
    }
}

/// Column the flag lists and `about` prose start at.
const INDENT: usize = 13;
/// Right margin of the usage text.
const WIDTH: usize = 78;

/// The `commands:` block of the usage text: each command's positional
/// and flags, then its `about` prose, wrapped under the command name.
pub fn render_commands(commands: &[Command]) -> String {
    let mut out = String::new();
    for command in commands {
        let flags: Vec<String> = command
            .flags
            .iter()
            .map(|(name, placeholder)| match placeholder {
                Some(placeholder) => format!("[--{name} {placeholder}]"),
                None => format!("[--{name}]"),
            })
            .collect();
        let mut synopsis: Vec<&str> = command.positional.into_iter().collect();
        synopsis.extend(flags.iter().map(String::as_str));
        if synopsis.is_empty() {
            synopsis.push("(no flags)");
        }
        let about: Vec<&str> = command.about.split_whitespace().collect();
        out += &wrap(&format!("  {:<10} ", command.name), &synopsis, INDENT);
        out += &wrap(&format!("{:INDENT$}— ", ""), &about, INDENT + 2);
    }
    out
}

/// `first`, then `words` separated by spaces, breaking before any word
/// that would pass [`WIDTH`] and continuing at column `indent`.
fn wrap(first: &str, words: &[&str], indent: usize) -> String {
    let mut text = first.to_string();
    let mut column = text.chars().count();
    for (i, word) in words.iter().enumerate() {
        let len = word.chars().count();
        if i > 0 && column + 1 + len > WIDTH {
            text += &format!("\n{:indent$}", "");
            column = indent;
        } else if i > 0 {
            text.push(' ');
            column += 1;
        }
        text += word;
        column += len;
    }
    text + "\n"
}

/// Parse the `--spec` mini-language into a [`TopologySpec`]:
/// `hypercube:3`, `mesh:3x4`, `torus:3x4`, `ring:8`, `chain:8`,
/// `star:8`, `tree:15`, `complete:8`, `fattree:4x4` (levels x arity),
/// `clusters:8x32` (groups x group size), `random:16@0.1`.
pub fn parse_topology(spec: &str) -> Result<TopologySpec, String> {
    let (kind, rest) = spec
        .split_once(':')
        .ok_or("spec must look like 'kind:params'")?;
    let bad = |what: &str| format!("bad {what} in spec '{spec}'");
    match kind {
        "hypercube" => Ok(TopologySpec::Hypercube {
            dim: rest.parse().map_err(|_| bad("dimension"))?,
        }),
        "mesh" | "torus" => {
            let (r, c) = rest.split_once('x').ok_or_else(|| bad("rows x cols"))?;
            let rows = r.parse().map_err(|_| bad("rows"))?;
            let cols = c.parse().map_err(|_| bad("cols"))?;
            Ok(if kind == "mesh" {
                TopologySpec::Mesh { rows, cols }
            } else {
                TopologySpec::Torus { rows, cols }
            })
        }
        "ring" => Ok(TopologySpec::Ring {
            n: rest.parse().map_err(|_| bad("n"))?,
        }),
        "chain" => Ok(TopologySpec::Chain {
            n: rest.parse().map_err(|_| bad("n"))?,
        }),
        "star" => Ok(TopologySpec::Star {
            n: rest.parse().map_err(|_| bad("n"))?,
        }),
        "tree" => Ok(TopologySpec::BinaryTree {
            n: rest.parse().map_err(|_| bad("n"))?,
        }),
        "complete" => Ok(TopologySpec::Complete {
            n: rest.parse().map_err(|_| bad("n"))?,
        }),
        "fattree" => {
            let (l, a) = rest.split_once('x').ok_or_else(|| bad("levels x arity"))?;
            Ok(TopologySpec::FatTree {
                levels: l.parse().map_err(|_| bad("levels"))?,
                arity: a.parse().map_err(|_| bad("arity"))?,
            })
        }
        "clusters" => {
            let (g, s) = rest
                .split_once('x')
                .ok_or_else(|| bad("groups x group_size"))?;
            Ok(TopologySpec::ClusteredComplete {
                groups: g.parse().map_err(|_| bad("groups"))?,
                group_size: s.parse().map_err(|_| bad("group_size"))?,
            })
        }
        "random" => {
            let (n, p) = rest.split_once('@').ok_or_else(|| bad("n@p"))?;
            Ok(TopologySpec::Random {
                n: n.parse().map_err(|_| bad("n"))?,
                p: p.parse().map_err(|_| bad("p"))?,
            })
        }
        other => Err(format!("unknown topology kind '{other}'")),
    }
}

/// Build a [`SystemGraph`] from a spec string.
pub fn build_topology(spec: &str, rng: &mut impl Rng) -> Result<SystemGraph, String> {
    parse_topology(spec)?
        .build(rng)
        .map_err(|e: GraphError| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noop(_: &Flags, _: &mut dyn io::Write) -> Result<(), Stop> {
        Ok(())
    }

    const DEMO: Command = Command {
        name: "demo",
        positional: None,
        flags: &[
            ("tasks", Some("<n>")),
            ("dot", None),
            ("seed", Some("<u64>")),
        ],
        about: "a demo",
        run: noop,
    };

    fn parse(args: &[&str]) -> Result<Flags, String> {
        Flags::parse(
            &DEMO,
            &args.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        )
    }

    #[test]
    fn flag_parsing() {
        let f = parse(&["--tasks", "96", "--dot", "--seed", "7"]).unwrap();
        assert_eq!(f.get("tasks"), Some("96"));
        assert!(f.has("dot"));
        assert!(!f.has("json"));
        assert_eq!(f.num("seed", 0u64).unwrap(), 7);
        assert_eq!(f.num("reps", 32usize).unwrap(), 32);
        assert_eq!(f.opt::<u64>("tasks").unwrap(), Some(96));
        assert_eq!(f.opt::<u64>("reps").unwrap(), None);
        assert_eq!(f.positive("tasks", 1).unwrap(), 96);
        assert_eq!(f.positive("reps", 4).unwrap(), 4);
        assert_eq!(f.get("dot"), None);
    }

    #[test]
    fn flag_errors() {
        assert!(parse(&["oops"]).is_err());
        let f = parse(&["--seed", "xyz", "--tasks", "0"]).unwrap();
        assert!(f.num::<u64>("seed", 0).is_err());
        assert_eq!(
            f.positive("tasks", 1),
            Err("--tasks must be at least 1".to_string())
        );
        assert_eq!(
            parse(&["--json"]).unwrap_err(),
            "unknown flag --json".to_string()
        );
        assert!(parse(&["--tasks", "--dot"]).is_err(), "valueless");
        assert!(parse(&["--tasks"]).is_err(), "valueless at the end");
        assert!(parse(&["--dot", "yes"]).is_err(), "boolean with a value");
        assert!(
            parse(&["--tasks", "3", "--tasks", "4"]).is_err(),
            "repeated"
        );
        assert!(parse(&["--dot", "--dot"]).is_err(), "repeated boolean");
    }

    #[test]
    fn usage_wraps_under_the_command_name() {
        let text = render_commands(&[DEMO]);
        assert_eq!(
            text,
            "  demo       [--tasks <n>] [--dot] [--seed <u64>]\n             — a demo\n"
        );
        let long = Command {
            flags: &[
                ("one", Some("<file>")),
                ("two", Some("<file>")),
                ("three", Some("<file>")),
                ("four", Some("<file>")),
                ("five", Some("<file>")),
            ],
            about: "a paragraph long enough that it cannot fit on one line of the \
                    usage text and so has to wrap under the command name, twice",
            ..DEMO
        };
        let text = render_commands(&[long]);
        assert!(text.lines().count() >= 4, "{text}");
        for line in text.lines() {
            assert!(line.chars().count() <= WIDTH, "{line}");
        }
    }

    #[test]
    fn topology_specs() {
        assert_eq!(
            parse_topology("hypercube:3").unwrap(),
            TopologySpec::Hypercube { dim: 3 }
        );
        assert_eq!(
            parse_topology("mesh:3x4").unwrap(),
            TopologySpec::Mesh { rows: 3, cols: 4 }
        );
        assert_eq!(
            parse_topology("ring:8").unwrap(),
            TopologySpec::Ring { n: 8 }
        );
        assert_eq!(
            parse_topology("random:16@0.1").unwrap(),
            TopologySpec::Random { n: 16, p: 0.1 }
        );
        assert_eq!(
            parse_topology("fattree:4x4").unwrap(),
            TopologySpec::FatTree {
                levels: 4,
                arity: 4
            }
        );
        assert_eq!(
            parse_topology("clusters:8x32").unwrap(),
            TopologySpec::ClusteredComplete {
                groups: 8,
                group_size: 32
            }
        );
        assert!(parse_topology("fattree:4").is_err());
        assert!(parse_topology("clusters:x8").is_err());
        assert!(parse_topology("blob:3").is_err());
        assert!(parse_topology("mesh:3").is_err());
        assert!(parse_topology("nocolon").is_err());
    }
}
