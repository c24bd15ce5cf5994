//! ASCII table rendering in the style of the paper's listings.

/// Render a table with the given column headers and pre-stringified cells,
/// in the paper's listing style:
///
/// ```text
/// -------------------------
/// | wstart | wend | price |
/// -------------------------
/// | 8:00   | 8:10 | 11    |
/// -------------------------
/// ```
pub fn format_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(ncols) {
            if cell.len() > widths[i] {
                widths[i] = cell.len();
            }
        }
    }
    // Total line width: "| " + cell + " " per column, plus trailing "|".
    let total: usize = widths.iter().map(|w| w + 3).sum::<usize>() + 1;
    let rule = "-".repeat(total);

    let mut out = String::new();
    out.push_str(&rule);
    out.push('\n');
    out.push_str(&format_row_cells(headers, &widths));
    out.push('\n');
    out.push_str(&rule);
    out.push('\n');
    for row in rows {
        let cells: Vec<&str> = row.iter().map(String::as_str).collect();
        out.push_str(&format_row_cells(&cells, &widths));
        out.push('\n');
    }
    out.push_str(&rule);
    out.push('\n');
    out
}

fn format_row_cells(cells: &[&str], widths: &[usize]) -> String {
    let mut line = String::new();
    for (cell, width) in cells.iter().zip(widths) {
        line.push_str("| ");
        line.push_str(cell);
        line.push_str(&" ".repeat(width - cell.len() + 1));
    }
    line.push('|');
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_padded_columns() {
        let s = format_table(&["wstart", "wend"], &[vec!["8:00".into(), "8:10".into()]]);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[1], "| wstart | wend |");
        assert_eq!(lines[3], "| 8:00   | 8:10 |");
        assert_eq!(lines[0], "-".repeat(lines[1].len()));
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn empty_table_has_header_only() {
        let s = format_table(&["a"], &[]);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4); // rule, header, rule, rule
        assert_eq!(lines[1], "| a |");
    }

    #[test]
    fn widens_to_longest_cell() {
        let s = format_table(&["x"], &[vec!["longcell".into()]]);
        assert!(s.contains("| x        |"));
        assert!(s.contains("| longcell |"));
    }
}
