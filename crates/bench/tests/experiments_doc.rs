//! EXPERIMENTS.md quotes Table 3 and the §6 future-work table from the
//! checked-in `results/` files. These tests hold every quoted cell to
//! those files, so a regenerated result cannot leave the prose behind.

use std::path::Path;

fn read(rel: &str) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    std::fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// Whitespace-separated tokens of `text` with `(`, `)` and `|` dropped.
fn tokens(text: &str) -> Vec<String> {
    text.replace(['(', ')', '|'], " ")
        .split_whitespace()
        .map(String::from)
        .collect()
}

/// The body rows of the one markdown table in the EXPERIMENTS.md
/// section whose heading starts with `heading`: cells trimmed, `**`
/// dropped.
fn doc_rows(heading: &str) -> Vec<Vec<String>> {
    let doc = read("EXPERIMENTS.md");
    let section = doc
        .split("\n## ")
        .find(|s| s.starts_with(heading))
        .unwrap_or_else(|| panic!("no section {heading}"));
    section
        .lines()
        .filter(|l| l.starts_with('|'))
        .skip(2)
        .map(|l| {
            l.trim_matches('|')
                .split('|')
                .map(|c| c.trim().replace("**", ""))
                .collect()
        })
        .collect()
}

/// The tokens of the `results/` line that starts with `bench`.
fn result_row(results: &str, bench: &str) -> Vec<String> {
    let line = results
        .lines()
        .find(|l| l.split_whitespace().next() == Some(bench))
        .unwrap_or_else(|| panic!("no results row for {bench}"));
    tokens(line)
}

#[test]
fn table3_rows_match_results() {
    let results = read("results/table3.txt");
    let rows = doc_rows("Table 3");
    assert_eq!(rows.len(), 8, "one row per benchmark");
    for row in rows {
        // results: name, native cycles, then measured and paper
        // slowdowns for D, D+RF, CP and CP+RF.
        let want = &result_row(&results, &row[0])[2..];
        assert_eq!(tokens(&row[1..].join(" ")), want, "Table 3, {}", row[0]);
    }
}

#[test]
fn future_work_rows_match_results() {
    let results = read("results/futurework.txt");
    let rows = doc_rows("§6 future work");
    assert!(!rows.is_empty());
    for row in rows {
        // results: name, D/CP/D2/LZ ratios, D/CP/D2/LZ slowdowns, then
        // handler instructions per miss. The doc shows D, D2 and CP.
        let r = result_row(&results, &row[0]);
        let want = [1, 3, 2, 5, 7, 6].map(|i| r[i].clone());
        assert_eq!(row[1..], want, "§6 future work, {}", row[0]);
    }
}
