//! Pins the paper: the E1–E15 tables of `tables --quick` (what it prints
//! after its header lines) against a committed golden.
//!
//! Every cell is a counted result and a pure function of the seed range,
//! identical in debug and release. A change that moves a row moved an
//! experiment: regenerate the golden with
//! `cargo run --release -p fd-bench --bin tables -- --quick | tail -n +4`
//! only when the change says which theorem's numbers moved and why. The
//! full-mode `golden/tables_full.md` (E15 at n = 1024 is 20M events) is
//! regenerated without `--quick` and compared by CI in release.

use fd_detectors::scenario::Runner;

#[test]
fn quick_tables_match_the_committed_golden() {
    let golden = include_str!("golden/tables_quick.md");
    let rendered: String = fd_bench::all(true, Runner::parallel())
        .iter()
        .map(|table| format!("{table}\n"))
        .collect();
    if rendered != golden {
        let same = rendered
            .lines()
            .zip(golden.lines())
            .take_while(|(got, want)| got == want)
            .count();
        panic!(
            "tables diverge from golden/tables_quick.md at line {}:\n  golden: {}\n  got:    {}",
            same + 1,
            golden.lines().nth(same).unwrap_or("<end of file>"),
            rendered.lines().nth(same).unwrap_or("<end of output>"),
        );
    }
}
