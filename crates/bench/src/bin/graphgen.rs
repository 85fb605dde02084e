//! `graphgen` — generates the calibrated datasets as real files in the
//! formats the original benchmarks consume.
//!
//! ```text
//! graphgen <dataset> --format {dimacs|snap|rodinia} [--scale F] [--out PATH]
//!
//! datasets: synthetic gplus livejournal ny lks usa
//!           rodinia4096 rodinia65536 rodinia1m
//! ```
//!
//! The emitted files round-trip through `ptq_graph::io` and can be fed to
//! external tools (or back into this harness in place of the generators
//! when the real SNAP/DIMACS data is available for comparison).

use ptq_graph::{io, Dataset};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::process::ExitCode;

fn parse_dataset(name: &str) -> Option<Dataset> {
    Some(match name {
        "synthetic" => Dataset::Synthetic,
        "gplus" => Dataset::GplusCombined,
        "livejournal" => Dataset::SocLiveJournal1,
        "ny" => Dataset::RoadNY,
        "lks" => Dataset::RoadLKS,
        "usa" => Dataset::RoadUSA,
        "rodinia4096" => Dataset::RodiniaGraph4096,
        "rodinia65536" => Dataset::RodiniaGraph65536,
        "rodinia1m" => Dataset::RodiniaGraph1M,
        _ => return None,
    })
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut dataset = None;
    let mut format = String::from("snap");
    let mut scale = 0.05f64;
    let mut out: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--format" => match args.next() {
                Some(f) => format = f,
                None => return usage("--format needs a value"),
            },
            "--scale" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(f) if f > 0.0 && f <= 1.0 => scale = f,
                _ => return usage("--scale needs a number in (0, 1]"),
            },
            "--out" => match args.next() {
                Some(path) => out = Some(path),
                None => return usage("--out needs a value"),
            },
            "--help" | "-h" => return usage(""),
            name if dataset.is_none() && !name.starts_with('-') => {
                dataset = parse_dataset(name);
                if dataset.is_none() {
                    return usage(&format!("unknown dataset {name:?}"));
                }
            }
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }
    let Some(dataset) = dataset else {
        return usage("missing dataset name");
    };

    let extension = match format.as_str() {
        "dimacs" => "gr",
        "snap" => "txt",
        "rodinia" => "rodinia.txt",
        other => return usage(&format!("unknown format {other:?}")),
    };
    let path = out.unwrap_or_else(|| {
        format!(
            "{}_{:.0}pct.{extension}",
            dataset.spec().name.replace(['.', '-'], "_"),
            scale * 100.0
        )
    });

    eprintln!(
        "generating {} at {:.1}% scale ...",
        dataset.spec().name,
        scale * 100.0
    );
    let graph = dataset.build(scale);
    let stats = graph.degree_stats();
    eprintln!(
        "  {} vertices, {} edges | degree min {} max {} avg {:.2} std {:.2}",
        graph.num_vertices(),
        graph.num_edges(),
        stats.min,
        stats.max,
        stats.avg,
        stats.std
    );

    let file = match File::create(&path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: cannot create {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut writer = BufWriter::new(file);
    let result = match format.as_str() {
        "dimacs" => io::dimacs::write_gr(&graph, &mut writer),
        "snap" => io::snap::write_edge_list(&graph, &mut writer),
        "rodinia" => io::rodinia::write_rodinia(&graph, dataset.source(), &mut writer),
        _ => unreachable!("validated above"),
    }
    .and_then(|()| writer.flush());
    if let Err(e) = result {
        eprintln!("error: write failed: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {path}");
    ExitCode::SUCCESS
}

fn usage(error: &str) -> ExitCode {
    if !error.is_empty() {
        eprintln!("error: {error}\n");
    }
    eprintln!(
        "usage: graphgen <dataset> [--format dimacs|snap|rodinia] [--scale F] [--out PATH]\n\
         datasets: synthetic gplus livejournal ny lks usa rodinia4096 rodinia65536 rodinia1m"
    );
    if error.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
