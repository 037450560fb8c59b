//! Table 2 — the USM weight configurations used by the sensitivity
//! experiments (Fig. 5 and Fig. 6).

use super::table2_weightings;
use unit_bench::cli::Shared;
use unit_bench::render::{f, Table};
use unit_bench::row;

pub(crate) fn run(_args: &Shared) -> Table {
    let rows = table2_weightings()
        .into_iter()
        .map(|(regime, setup, w)| {
            let (lo, hi) = w.range();
            row![
                regime,
                setup,
                f(w.gain, 1),
                f(w.c_r, 1),
                f(w.c_fm, 1),
                f(w.c_fs, 1),
                f(lo, 1),
                f(hi, 1)
            ]
        })
        .collect();
    Table {
        stem: "table2",
        title: "Table 2: USM weights for the Figure 5 sensitivity experiments".to_string(),
        header: row!["regime", "setup", "cs", "cr", "cfm", "cfs", "usm_min", "usm_max"],
        rows,
        notes: String::new(),
    }
}
