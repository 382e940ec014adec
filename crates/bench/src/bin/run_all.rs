//! Run the reproduction suite — every table/figure, or just the
//! experiments named on the command line (`run_all fig4 table1 --full`).
use chameleon_bench::{experiments, HarnessConfig};

fn main() {
    let (cfg, names) = HarnessConfig::from_env();
    let tables =
        experiments::run_all(&cfg, &names).unwrap_or_else(|e| HarnessConfig::exit_usage(&e));
    for (slug, table) in tables {
        table.emit(cfg.out_dir.as_deref(), &slug);
    }
}
