//! SNAP edge-list format (<https://snap.stanford.edu/data>).
//!
//! ```text
//! # Directed graph: soc-LiveJournal1.txt
//! # Nodes: 4847571 Edges: 68993773
//! 0    1
//! 0    2
//! ```
//!
//! Lines starting with `#` are comments; every other line is a
//! whitespace-separated `src dst` pair. SNAP ids are arbitrary (not
//! necessarily dense), so the reader compacts them to `0..n` in first-seen
//! order, exactly as the paper's host code must have done to index its
//! `Nodes` array.

use super::ParseError;
use crate::csr::{Csr, CsrBuilder};
use std::collections::HashMap;
use std::io::{BufRead, Write};

/// Parses a SNAP edge list, remapping sparse ids densely in first-seen
/// order. Returns the graph and the dense→original id map.
pub fn read_edge_list<R: BufRead>(reader: R) -> Result<(Csr, Vec<u64>), ParseError> {
    let mut remap: HashMap<u64, u32> = HashMap::new();
    let mut original: Vec<u64> = Vec::new();
    let mut builder = CsrBuilder::new(0);
    for (idx, line) in reader.lines().enumerate() {
        let lineno = idx + 1;
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_ascii_whitespace();
        let src = parse_id(parts.next(), lineno)?;
        let dst = parse_id(parts.next(), lineno)?;
        if parts.next().is_some() {
            return Err(ParseError::malformed(lineno, "more than two columns"));
        }
        let mut dense = |id: u64| -> u32 {
            *remap.entry(id).or_insert_with(|| {
                original.push(id);
                (original.len() - 1) as u32
            })
        };
        let s = dense(src);
        let d = dense(dst);
        builder.ensure_vertices(original.len());
        builder.add_edge(s, d);
    }
    Ok((builder.build(), original))
}

/// Writes `graph` as a SNAP edge list using dense vertex ids.
pub fn write_edge_list<W: Write>(graph: &Csr, mut writer: W) -> std::io::Result<()> {
    writeln!(
        writer,
        "# Directed graph; Nodes: {} Edges: {}",
        graph.num_vertices(),
        graph.num_edges()
    )?;
    for v in 0..graph.num_vertices() as u32 {
        for &w in graph.neighbors(v) {
            writeln!(writer, "{v}\t{w}")?;
        }
    }
    Ok(())
}

fn parse_id(tok: Option<&str>, lineno: usize) -> Result<u64, ParseError> {
    let tok = tok.ok_or_else(|| ParseError::malformed(lineno, "missing vertex id"))?;
    tok.parse()
        .map_err(|_| ParseError::malformed(lineno, format!("invalid vertex id {tok:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parses_and_compacts_sparse_ids() {
        let text = "# header\n100\t7\n7\t100\n7\t9\n";
        let (g, orig) = read_edge_list(Cursor::new(text)).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(orig, vec![100, 7, 9]);
        assert_eq!(g.neighbors(0), &[1]); // 100 -> 7
        assert_eq!(g.neighbors(1), &[0, 2]); // 7 -> 100, 7 -> 9
    }

    #[test]
    fn isolated_vertices_do_not_exist_in_edge_lists() {
        let (g, _) = read_edge_list(Cursor::new("0 1\n")).unwrap();
        assert_eq!(g.num_vertices(), 2);
    }

    #[test]
    fn rejects_extra_columns() {
        let err = read_edge_list(Cursor::new("1 2 3\n")).unwrap_err();
        assert!(err.to_string().contains("more than two columns"));
    }

    #[test]
    fn rejects_garbage_ids() {
        let err = read_edge_list(Cursor::new("a b\n")).unwrap_err();
        assert!(err.to_string().contains("invalid vertex id"));
    }

    #[test]
    fn rejects_missing_destination() {
        let err = read_edge_list(Cursor::new("4\n")).unwrap_err();
        assert!(err.to_string().contains("missing vertex id"));
    }

    #[test]
    fn roundtrip() {
        let g = crate::gen::erdos_renyi(30, 90, 11);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let (g2, _) = read_edge_list(Cursor::new(buf)).unwrap();
        // Re-reading may renumber, but vertex 0 appears first in both, and
        // edge count must match; compare via sorted degree sequences.
        assert_eq!(g2.num_edges(), g.num_edges());
        let mut d1: Vec<u32> = (0..g.num_vertices() as u32).map(|v| g.degree(v)).collect();
        // write_edge_list skips isolated vertices, so compare only non-zero.
        d1.retain(|&d| d > 0);
        let mut d2: Vec<u32> = (0..g2.num_vertices() as u32)
            .map(|v| g2.degree(v))
            .collect();
        d2.retain(|&d| d > 0);
        d1.sort_unstable();
        d2.sort_unstable();
        assert_eq!(d1, d2);
    }

    #[test]
    fn empty_input_gives_empty_graph() {
        let (g, orig) = read_edge_list(Cursor::new("# nothing\n")).unwrap();
        assert_eq!(g.num_vertices(), 0);
        assert!(orig.is_empty());
    }
}
