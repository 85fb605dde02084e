//! The figures README.md and EXPERIMENTS.md quote from `results/`, pinned
//! to their cells. `ci/golden.sh` pins the numbers to the code; this pins
//! the prose to the numbers: a quote fails the moment it no longer equals
//! its cell at the quote's rounding. Runs of whitespace compare as one
//! space, so rewrapping a paragraph moves no quote.

use std::path::{Path, PathBuf};

/// One quoted figure, read from `results/<file>`.
enum Figure {
    /// The `column` cell of the row whose leading cells are `row`
    /// (comma-joined), to `decimals` places.
    Cell(&'static str, &'static str, &'static str, usize),
    /// `numerator` over `denominator` in that row, as a whole percentage.
    Percent(&'static str, &'static str, &'static str, &'static str),
}

use Figure::{Cell, Percent};

const T4: &str = "table4.csv";
const T5: &str = "table5.csv";
const T6: &str = "table6.csv";
const SCALING: &str = "scaling_fiji.csv";
const F5: &str = "fig5_fiji.csv";
const NYR: &str = "NYR_input.dat";
const BAY: &str = "USA-road-d.BAY.gr.parboil";
const G4096: &str = "graph4096,Spectre";
const G1M: &str = "graph1MW_6,Spectre";

/// (doc, quote with one `{}` per figure, figures in order).
const QUOTES: &[(&str, &str, &[Figure])] = &[
    // Table 4: RF/AN over BASE on the synthetic dataset.
    (
        "EXPERIMENTS.md",
        "| **{}% (1128%)** |",
        &[Cell(T4, "Synthetic", "Fiji RF/AN", 0)],
    ),
    (
        "EXPERIMENTS.md",
        "| {}% (210%) |",
        &[Cell(T4, "Synthetic", "Spectre RF/AN", 0)],
    ),
    // Table 5: RF/AN over CHAI.
    (
        "EXPERIMENTS.md",
        "| 2.57× / 4.21× | {}× / {}× |",
        &[Cell(T5, NYR, "Speedup", 2), Cell(T5, BAY, "Speedup", 2)],
    ),
    (
        "EXPERIMENTS.md",
        "| 2.574× | {}× |",
        &[Cell(T5, NYR, "Speedup", 2)],
    ),
    (
        "EXPERIMENTS.md",
        "| 4.206× | {}× |",
        &[Cell(T5, BAY, "Speedup", 2)],
    ),
    (
        "README.md",
        "CHAI-style heterogeneous BFS ({}–{}× vs",
        &[Cell(T5, NYR, "Speedup", 1), Cell(T5, BAY, "Speedup", 1)],
    ),
    // Table 6: the Rodinia gap collapsing on Spectre.
    (
        "EXPERIMENTS.md",
        "| {}× → {}× (Spectre) |",
        &[Cell(T6, G4096, "Speedup", 1), Cell(T6, G1M, "Speedup", 1)],
    ),
    (
        "EXPERIMENTS.md",
        "reproduces on Spectre ({}× → {}× vs",
        &[Cell(T6, G4096, "Speedup", 1), Cell(T6, G1M, "Speedup", 2)],
    ),
    (
        "EXPERIMENTS.md",
        "| graph4096 | Spectre | 30.28× | {}× |",
        &[Cell(T6, G4096, "Speedup", 1)],
    ),
    (
        "EXPERIMENTS.md",
        "| graph1MW_6 | Spectre | 3.41× | {}× |",
        &[Cell(T6, G1M, "Speedup", 2)],
    ),
    // Figure 4a: RF/AN scaling to 224 workgroups on Fiji.
    (
        "EXPERIMENTS.md",
        "{}× of 224 ({}%) at 224, its cycles {} latency-bound, {} issue-bound",
        &[
            Cell(SCALING, "224", "Speedup", 1),
            Percent(SCALING, "224", "Speedup", "Ideal"),
            Cell(SCALING, "224", "Latency-bound", 2),
            Cell(SCALING, "224", "Issue-bound", 2),
        ],
    ),
    (
        "EXPERIMENTS.md",
        "reaches {}× at 224 ({}% of ideal",
        &[
            Cell(SCALING, "224", "Speedup", 0),
            Percent(SCALING, "224", "Speedup", "Ideal"),
        ],
    ),
    (
        "EXPERIMENTS.md",
        "At 224, {} of them fall in latency-bound rounds and {} in issue-bound ones, at {} waves'",
        &[
            Cell(SCALING, "224", "Latency-bound", 2),
            Cell(SCALING, "224", "Issue-bound", 2),
            Cell(SCALING, "224", "Occupancy", 1),
        ],
    ),
    (
        "README.md",
        "reaches {}× at the full 224 (Figure 4a); `repro scaling` finds that point's cycles {} latency-bound and {} issue-bound.",
        &[
            Cell(SCALING, "224", "Speedup", 0),
            Cell(SCALING, "224", "Latency-bound", 2),
            Cell(SCALING, "224", "Issue-bound", 2),
        ],
    ),
    // Figure 5: BASE's scheduler atomics over RF/AN's at 224 workgroups.
    (
        "EXPERIMENTS.md",
        "| {}× synthetic at 224 WGs |",
        &[Cell(F5, "224", "Synthetic", 0)],
    ),
    (
        "EXPERIMENTS.md",
        "reaches ~{}× on the synthetic at",
        &[Cell(F5, "224", "Synthetic", 0)],
    ),
    (
        "README.md",
        "reaches ~{}× RF/AN's at maximum occupancy",
        &[Cell(F5, "224", "Synthetic", 0)],
    ),
];

fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The numeric cell `column` of the row keyed `row` in `results/<file>`
/// (a trailing `%` or `x` unit is dropped).
fn cell(file: &str, row: &str, column: &str) -> f64 {
    let path = repo().join("results").join(file);
    let csv = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    let mut lines = csv.lines();
    let header: Vec<&str> = lines.next().expect("header").split(',').collect();
    let col = header
        .iter()
        .position(|&h| h == column)
        .unwrap_or_else(|| panic!("{file}: no column {column:?}"));
    let line = lines
        .find(|line| line.starts_with(&format!("{row},")))
        .unwrap_or_else(|| panic!("{file}: no row {row:?}"));
    let raw = line.split(',').nth(col).expect("cell");
    raw.trim_end_matches(['%', 'x'])
        .parse()
        .unwrap_or_else(|e| panic!("{file} {row}/{column} = {raw:?}: {e}"))
}

fn render(figure: &Figure) -> String {
    match *figure {
        Cell(file, row, column, decimals) => format!("{:.*}", decimals, cell(file, row, column)),
        Percent(file, row, numerator, denominator) => {
            let ratio = cell(file, row, numerator) / cell(file, row, denominator);
            format!("{:.0}", 100.0 * ratio)
        }
    }
}

/// `template` with each `{}` replaced by the next rendered figure.
fn fill(template: &str, figures: &[Figure]) -> String {
    let mut parts = template.split("{}");
    let mut quote = parts.next().unwrap_or_default().to_string();
    assert_eq!(
        template.matches("{}").count(),
        figures.len(),
        "{template:?}: one figure per placeholder"
    );
    for (part, figure) in parts.zip(figures) {
        quote.push_str(&render(figure));
        quote.push_str(part);
    }
    quote
}

/// `text` with every run of whitespace collapsed to one space.
fn squash(text: &str) -> String {
    text.split_whitespace().collect::<Vec<_>>().join(" ")
}

#[test]
fn doc_quotes_equal_their_results_cells() {
    let stale: Vec<String> = QUOTES
        .iter()
        .filter_map(|(doc, template, figures)| {
            let text = squash(&std::fs::read_to_string(repo().join(doc)).expect("read doc"));
            let quote = squash(&fill(template, figures));
            (!text.contains(&quote)).then(|| format!("{doc} no longer quotes {quote:?}"))
        })
        .collect();
    assert!(
        stale.is_empty(),
        "quotes drifted from results/:\n{}",
        stale.join("\n")
    );
}
