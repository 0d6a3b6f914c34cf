//! Shared formatting helpers for the benchmark harness that regenerates
//! every table and figure of the Fat-Tree QRAM paper.
//!
//! Each figure and table target (`cargo bench -p qram-bench --bench
//! <target>`) prints the rows or series the paper reports, most with the
//! paper's value beside them; `tests/paper_numbers.rs` asserts the
//! headline numbers.

/// Prints a section header for a table/figure reproduction.
pub fn header(title: &str) {
    println!();
    println!("=== {title} ===");
}

/// Formats a floating-point cell with engineering-friendly precision.
#[must_use]
pub fn num(v: f64) -> String {
    if v == 0.0 {
        "0".to_owned()
    } else if v.abs() >= 1e5 || v.abs() < 1e-3 {
        format!("{v:.4e}")
    } else if (v - v.round()).abs() < 1e-9 {
        format!("{v:.0}")
    } else {
        format!("{v:.4}")
    }
}

/// Prints one table row with a fixed-width label column.
pub fn row(label: &str, cells: &[String]) {
    print!("{label:<28}");
    for c in cells {
        print!("{c:>16}");
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn number_formatting() {
        assert_eq!(num(0.0), "0");
        assert_eq!(num(16384.0), "16384");
        assert_eq!(num(1.2121e5), "1.2121e5");
        assert_eq!(num(0.125), "0.1250");
        assert_eq!(num(4.5e-4), "4.5000e-4");
    }
}
