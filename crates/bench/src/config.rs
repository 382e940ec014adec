//! Harness configuration from command-line flags.

use std::path::PathBuf;

use workloads::Class;

/// The flags of the `run_all` harness binary.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Largest world size used in P sweeps.
    pub max_p: usize,
    /// Iteration shrink factor (1 = paper-faithful).
    pub scale: usize,
    /// Input class.
    pub class: Class,
    /// Optional TSV output directory.
    pub out_dir: Option<PathBuf>,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            max_p: 64,
            scale: 10,
            class: Class::D,
            out_dir: None,
        }
    }
}

impl HarnessConfig {
    /// Parse from an explicit argument list (first element is NOT the
    /// program name). Arguments that are not flags are experiment names,
    /// returned in order next to the configuration.
    pub fn parse(args: &[String]) -> Result<(Self, Vec<String>), String> {
        let mut cfg = HarnessConfig::default();
        let mut names = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--max-p" => {
                    cfg.max_p = it
                        .next()
                        .ok_or("--max-p needs a value")?
                        .parse()
                        .map_err(|_| "invalid --max-p")?;
                }
                "--scale" => {
                    cfg.scale = it
                        .next()
                        .ok_or("--scale needs a value")?
                        .parse()
                        .map_err(|_| "invalid --scale")?;
                    if cfg.scale == 0 {
                        return Err("--scale must be >= 1".into());
                    }
                }
                "--class" => {
                    cfg.class = match it.next().map(String::as_str) {
                        Some("A") | Some("a") => Class::A,
                        Some("B") | Some("b") => Class::B,
                        Some("C") | Some("c") => Class::C,
                        Some("D") | Some("d") => Class::D,
                        other => return Err(format!("invalid --class {other:?}")),
                    };
                }
                "--out" => {
                    cfg.out_dir = Some(PathBuf::from(it.next().ok_or("--out needs a directory")?));
                }
                "--full" => {
                    cfg.scale = 1;
                    cfg.max_p = 1024;
                }
                other if other.starts_with('-') => return Err(format!("unknown flag {other:?}")),
                name => names.push(name.to_string()),
            }
        }
        Ok((cfg, names))
    }

    /// Parse from the process arguments, exiting with usage on error.
    pub fn from_env() -> (Self, Vec<String>) {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::parse(&args).unwrap_or_else(|e| Self::exit_usage(&e))
    }

    /// Report a command-line error with the usage line and exit 2.
    pub fn exit_usage(error: &str) -> ! {
        eprintln!("error: {error}");
        eprintln!(
            "usage: [EXPERIMENT ...] [--max-p N] [--scale N] [--class A|B|C|D] [--out DIR] [--full]"
        );
        std::process::exit(2);
    }

    /// The paper's strong-scaling P sweep, truncated at `max_p`. Falls
    /// back to `[max_p]` when even the smallest paper size exceeds it.
    pub fn p_sweep(&self) -> Vec<usize> {
        let sweep: Vec<usize> = [16usize, 64, 256, 1024]
            .into_iter()
            .filter(|&p| p <= self.max_p)
            .collect();
        if sweep.is_empty() {
            vec![self.max_p]
        } else {
            sweep
        }
    }

    /// The EMF sweep (one master + workers), truncated at `max_p`.
    pub fn emf_sweep(&self) -> Vec<usize> {
        [126usize, 251, 501, 1001]
            .into_iter()
            .filter(|&p| p <= self.max_p)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_all(args: &[&str]) -> Result<(HarnessConfig, Vec<String>), String> {
        HarnessConfig::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    fn parse(args: &[&str]) -> Result<HarnessConfig, String> {
        parse_all(args).map(|(cfg, _)| cfg)
    }

    #[test]
    fn defaults() {
        let cfg = parse(&[]).unwrap();
        assert_eq!(cfg.max_p, 64);
        assert_eq!(cfg.scale, 10);
        assert_eq!(cfg.class, Class::D);
        assert!(cfg.out_dir.is_none());
    }

    #[test]
    fn all_flags() {
        let cfg = parse(&[
            "--max-p", "256", "--scale", "2", "--class", "B", "--out", "/tmp/x",
        ])
        .unwrap();
        assert_eq!(cfg.max_p, 256);
        assert_eq!(cfg.scale, 2);
        assert_eq!(cfg.class, Class::B);
        assert_eq!(cfg.out_dir.as_deref(), Some(std::path::Path::new("/tmp/x")));
        // Experiment names may sit anywhere among the flags.
        let (cfg, names) = parse_all(&["fig4", "--max-p", "8", "table1", "--full"]).unwrap();
        assert_eq!(names, ["fig4", "table1"]);
        assert_eq!((cfg.max_p, cfg.scale), (1024, 1));
    }

    #[test]
    fn full_flag() {
        let cfg = parse(&["--full"]).unwrap();
        assert_eq!(cfg.scale, 1);
        assert_eq!(cfg.max_p, 1024);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&["--max-p"]).is_err());
        assert!(parse(&["--scale", "0"]).is_err());
        assert!(parse(&["--class", "Z"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
    }

    #[test]
    fn sweeps_respect_max_p() {
        let cfg = parse(&["--max-p", "64"]).unwrap();
        assert_eq!(cfg.p_sweep(), vec![16, 64]);
        let full = parse(&["--full"]).unwrap();
        assert_eq!(full.p_sweep(), vec![16, 64, 256, 1024]);
        assert_eq!(full.emf_sweep(), vec![126, 251, 501, 1001]);
    }
}
