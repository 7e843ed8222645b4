//! Regenerates and checks every committed artifact under `results/`:
//! the paper's Figures 9–14, the twelve ablations, and the eight
//! extension sweeps (`workloads::artifact::registry`).
//!
//! ```text
//! artifacts --regen NAME|all [--smoke] [DIR]
//! artifacts --check NAME|all [DIR]
//! ```
//!
//! * `--regen` computes each artifact at its committed configuration
//!   (or, with `--smoke`, at the short CI configuration) and writes
//!   `DIR/<name>.json` (strict: a non-finite number in a non-optional
//!   field is an error, never `null`) and `DIR/<name>.txt`, then runs
//!   the `--check` below on what it wrote.
//! * `--check` runs no simulation: each JSON must parse under its
//!   schema, pass its domain check (oracle verdicts, recovery shape,
//!   …), re-emit byte for byte, and its `.txt` must re-render from it
//!   byte for byte.
//! * `DIR` defaults to the workspace's `results/`.
//!
//! Exit status: 0 on success, 1 when a check or an emission fails, 2
//! on a usage error or an unreadable/unwritable file.

use std::fmt;
use std::path::{Path, PathBuf};
use workloads::artifact::{registry, Entry};

#[derive(Debug)]
enum Mode {
    Regen { smoke: bool },
    Check,
}

#[derive(Debug)]
struct Args {
    mode: Mode,
    /// `None` = all artifacts.
    name: Option<String>,
    dir: PathBuf,
}

#[derive(Debug)]
enum ArgError {
    UnknownFlag(String),
    MissingValue(&'static str),
    UnknownArtifact(String),
    ExtraArgument(String),
    Usage(&'static str),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::UnknownFlag(flag) => write!(f, "unknown flag `{flag}`"),
            ArgError::MissingValue(flag) => write!(f, "{flag} needs an artifact name or `all`"),
            ArgError::UnknownArtifact(name) => write!(f, "unknown artifact `{name}`"),
            ArgError::ExtraArgument(arg) => write!(f, "unexpected argument `{arg}`"),
            ArgError::Usage(message) => f.write_str(message),
        }
    }
}

/// The value after `flag`; a missing value or another flag is an error.
fn value(it: &mut std::slice::Iter<'_, String>, flag: &'static str) -> Result<String, ArgError> {
    match it.next() {
        Some(v) if !v.starts_with('-') => Ok(v.clone()),
        _ => Err(ArgError::MissingValue(flag)),
    }
}

fn parse_args(argv: &[String]) -> Result<Args, ArgError> {
    let (mut regen, mut check, mut smoke, mut dir) = (None, None, false, None);
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--regen" => regen = Some(value(&mut it, "--regen")?),
            "--check" => check = Some(value(&mut it, "--check")?),
            "--smoke" => smoke = true,
            flag if flag.starts_with('-') => return Err(ArgError::UnknownFlag(flag.into())),
            path if dir.is_none() => dir = Some(PathBuf::from(path)),
            extra => return Err(ArgError::ExtraArgument(extra.into())),
        }
    }
    let (mode, target) = match (regen, check) {
        (Some(t), None) => (Mode::Regen { smoke }, t),
        (None, Some(_)) if smoke => return Err(ArgError::Usage("--smoke only applies to --regen")),
        (None, Some(t)) => (Mode::Check, t),
        _ => return Err(ArgError::Usage("pass exactly one of --regen and --check")),
    };
    let name = match target.as_str() {
        "all" => None,
        n if registry().iter().any(|e| e.name == n) => Some(target),
        _ => return Err(ArgError::UnknownArtifact(target)),
    };
    Ok(Args {
        mode,
        name,
        dir: dir.unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")),
    })
}

/// Prints `error: ...` and exits 2: the file system refused.
fn fail_io(what: &str, path: &Path, e: &std::io::Error) -> ! {
    eprintln!("error: cannot {what} {}: {e}", path.display());
    std::process::exit(2);
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| fail_io("read", path, &e))
}

fn write(path: &Path, text: &str) {
    std::fs::write(path, text).unwrap_or_else(|e| fail_io("write", path, &e));
}

/// Runs one entry; `false` when it failed its check or emission.
fn run(entry: &Entry, mode: &Mode, dir: &Path) -> bool {
    let json_path = dir.join(format!("{}.json", entry.name));
    let txt_path = dir.join(format!("{}.txt", entry.name));
    let outcome = match mode {
        Mode::Regen { smoke } => entry
            .regen(*smoke)
            .map_err(|e| e.to_string())
            .and_then(|f| {
                write(&json_path, &f.json);
                write(&txt_path, &f.txt);
                entry
                    .check(&f.json, &f.txt)
                    .map(|()| "written")
                    .map_err(|e| format!("written, but fails its check: {e}"))
            }),
        Mode::Check => entry
            .check(&read(&json_path), &read(&txt_path))
            .map(|()| "ok"),
    };
    match outcome {
        Ok(status) => {
            println!("{}: {status}", json_path.display());
            true
        }
        Err(e) => {
            eprintln!("{}: {e}", json_path.display());
            false
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        let names: Vec<&str> = registry().iter().map(|e| e.name).collect();
        eprintln!("usage: artifacts --regen NAME|all [--smoke] [DIR] | --check NAME|all [DIR]");
        eprintln!("NAME: {}", names.join(" "));
        std::process::exit(2);
    });
    if matches!(args.mode, Mode::Regen { .. }) {
        std::fs::create_dir_all(&args.dir).unwrap_or_else(|e| fail_io("create", &args.dir, &e));
    }
    let mut ok = true;
    for entry in registry() {
        if args.name.as_deref().is_none_or(|n| n == entry.name) {
            ok &= run(&entry, &args.mode, &args.dir);
        }
    }
    if !ok {
        std::process::exit(1);
    }
}
