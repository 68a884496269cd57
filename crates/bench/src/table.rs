//! Minimal table rendering and CSV output for experiment results.

use std::io::Write;
use std::path::Path;

/// Prints an aligned text table: a header row plus data rows.
///
/// # Examples
///
/// ```
/// accqoc_bench::print_table(
///     &["name", "value"],
///     &[vec!["x".to_string(), "1".to_string()]],
/// );
/// ```
pub fn print_table(header: &[&str], rows: &[Vec<String>]) {
    let n_cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(n_cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let render = |cells: &[String]| {
        let line: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:<width$}", width = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("  {}", line.join("  "));
    };
    render(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    let total = widths.iter().sum::<usize>() + 2 * n_cols;
    println!("  {}", "-".repeat(total));
    for row in rows {
        render(row);
    }
}

/// Writes rows as CSV under `results/` (creating the directory), so the
/// figures can be re-plotted outside this repository.
///
/// # Errors
///
/// Returns I/O errors from file creation or writing.
pub fn write_csv(name: &str, header: &[&str], rows: &[Vec<String>]) -> std::io::Result<()> {
    write_csv_in(Path::new("results"), name, header, rows)
}

/// [`write_csv`] under `dir`.
///
/// # Errors
///
/// Returns I/O errors from file creation or writing.
pub fn write_csv_in(
    dir: &Path,
    name: &str,
    header: &[&str],
    rows: &[Vec<String>],
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path)?;
    writeln!(f, "{}", header.join(","))?;
    for row in rows {
        writeln!(f, "{}", row.join(","))?;
    }
    eprintln!("[csv] wrote {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn print_does_not_panic_on_ragged_rows() {
        print_table(
            &["a", "b"],
            &[
                vec!["1".into()],
                vec!["22".into(), "333".into(), "x".into()],
            ],
        );
    }

    #[test]
    fn csv_roundtrip() {
        let dir = std::env::temp_dir().join(format!("accqoc_csv_{}", std::process::id()));
        let rows = vec![vec!["p1".to_string(), "1.5".to_string()]];
        write_csv_in(&dir, "roundtrip.csv", &["name", "v"], &rows).unwrap();
        let content = std::fs::read_to_string(dir.join("roundtrip.csv")).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(content, "name,v\np1,1.5\n");
    }
}
