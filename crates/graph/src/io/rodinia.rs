//! Rodinia BFS input format (`graph4096.txt`, `graph65536.txt`,
//! `graph1MW_6.txt`).
//!
//! ```text
//! <n_vertices>
//! <edge_start> <degree>      (n_vertices lines: one per vertex)
//! <source_vertex>
//! <n_edges>
//! <dst> <weight>             (n_edges lines: one per edge)
//! ```
//!
//! This is essentially serialized CSR, which is why Rodinia's kernels (and
//! the paper's) can consume it directly. The reader returns the graph and
//! the designated BFS source vertex.

use super::{ParseError, MAX_RESERVE};
use crate::csr::Csr;
use std::io::{BufRead, Write};

/// Parses a Rodinia BFS graph file; returns `(graph, source_vertex)`.
pub fn read_rodinia<R: BufRead>(reader: R) -> Result<(Csr, u32), ParseError> {
    let mut tokens = Tokens::new(reader);
    let n: usize = tokens.next_num("vertex count")?;
    let mut row_offsets = Vec::with_capacity(n.min(MAX_RESERVE) + 1);
    let mut expected_start = 0u32;
    for _ in 0..n {
        // Offsets are u32 (`Csr`'s row offsets): a larger one fails to parse.
        let start: u32 = tokens.next_num("edge start")?;
        let degree: u32 = tokens.next_num("degree")?;
        if start != expected_start {
            return Err(ParseError::malformed(
                tokens.line,
                format!("non-contiguous edge start {start}, expected {expected_start}"),
            ));
        }
        row_offsets.push(start);
        expected_start = start.checked_add(degree).ok_or_else(|| {
            ParseError::malformed(
                tokens.line,
                format!("edge offset {start} + {degree} exceeds u32"),
            )
        })?;
    }
    row_offsets.push(expected_start);
    let source: u32 = tokens.next_num("source vertex")?;
    let m: usize = tokens.next_num("edge count")?;
    if m != expected_start as usize {
        return Err(ParseError::malformed(
            tokens.line,
            format!("edge count {m} disagrees with vertex records ({expected_start})"),
        ));
    }
    let mut adjacency = Vec::with_capacity(m.min(MAX_RESERVE));
    for _ in 0..m {
        let dst: u32 = tokens.next_num("edge destination")?;
        let _weight: u32 = tokens.next_num("edge weight")?;
        if dst as usize >= n {
            return Err(ParseError::malformed(
                tokens.line,
                format!("edge destination {dst} out of range"),
            ));
        }
        adjacency.push(dst);
    }
    if source as usize >= n {
        return Err(ParseError::malformed(
            tokens.line,
            format!("source vertex {source} out of range"),
        ));
    }
    let graph = Csr::from_parts_checked(row_offsets, adjacency)
        .map_err(|e| ParseError::malformed(tokens.line, e.to_string()))?;
    Ok((graph, source))
}

/// Writes `graph` in Rodinia BFS format with the given `source` (weights 1).
pub fn write_rodinia<W: Write>(graph: &Csr, source: u32, mut writer: W) -> std::io::Result<()> {
    writeln!(writer, "{}", graph.num_vertices())?;
    for v in 0..graph.num_vertices() as u32 {
        writeln!(writer, "{} {}", graph.edge_start(v), graph.degree(v))?;
    }
    writeln!(writer, "\n{source}")?;
    writeln!(writer, "{}", graph.num_edges())?;
    for v in 0..graph.num_vertices() as u32 {
        for &w in graph.neighbors(v) {
            writeln!(writer, "{w} 1")?;
        }
    }
    Ok(())
}

/// Whitespace tokenizer tracking line numbers for error reporting.
struct Tokens<R> {
    reader: R,
    buf: Vec<String>,
    line: usize,
}

impl<R: BufRead> Tokens<R> {
    fn new(reader: R) -> Self {
        Self {
            reader,
            buf: Vec::new(),
            line: 0,
        }
    }

    fn next_num<T: std::str::FromStr>(&mut self, what: &str) -> Result<T, ParseError> {
        loop {
            if let Some(tok) = self.buf.pop() {
                return tok.parse().map_err(|_| {
                    ParseError::malformed(self.line, format!("invalid {what}: {tok:?}"))
                });
            }
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(ParseError::malformed(
                    self.line,
                    format!("unexpected end of file while reading {what}"),
                ));
            }
            self.line += 1;
            self.buf
                .extend(line.split_ascii_whitespace().rev().map(str::to_owned));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::rodinia as gen_rodinia;
    use std::io::Cursor;

    #[test]
    fn parses_hand_written_file() {
        let text = "3\n0 2\n2 1\n3 0\n\n0\n3\n1 1\n2 1\n0 1\n";
        let (g, src) = read_rodinia(Cursor::new(text)).unwrap();
        assert_eq!(src, 0);
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[0]);
        assert_eq!(g.neighbors(2), &[] as &[u32]);
    }

    #[test]
    fn roundtrip() {
        let g = gen_rodinia(500, 6, 21);
        let mut buf = Vec::new();
        write_rodinia(&g, 3, &mut buf).unwrap();
        let (g2, src) = read_rodinia(Cursor::new(buf)).unwrap();
        assert_eq!(src, 3);
        assert_eq!(g, g2);
    }

    #[test]
    fn rejects_truncated_file() {
        let err = read_rodinia(Cursor::new("2\n0 1\n")).unwrap_err();
        assert!(err.to_string().contains("unexpected end of file"));
    }

    #[test]
    fn rejects_non_contiguous_offsets() {
        let text = "2\n0 1\n5 1\n0\n2\n0 1\n0 1\n";
        let err = read_rodinia(Cursor::new(text)).unwrap_err();
        assert!(err.to_string().contains("non-contiguous"));
    }

    #[test]
    fn rejects_edge_count_mismatch() {
        let text = "1\n0 1\n0\n9\n0 1\n";
        let err = read_rodinia(Cursor::new(text)).unwrap_err();
        assert!(err.to_string().contains("disagrees"));
    }

    #[test]
    fn rejects_out_of_range_destination() {
        let text = "1\n0 1\n0\n1\n5 1\n";
        let err = read_rodinia(Cursor::new(text)).unwrap_err();
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn rejects_offset_overflow() {
        let text = "2\n0 18446744073709551615\n18446744073709551615 1\n0\n0\n";
        let err = read_rodinia(Cursor::new(text)).unwrap_err();
        assert!(err.to_string().contains("invalid degree"), "{err}");
        let err = read_rodinia(Cursor::new("2\n0 4294967295\n4294967295 1\n")).unwrap_err();
        assert!(err.to_string().contains("exceeds u32"), "{err}");
    }

    #[test]
    fn rejects_offsets_past_u32() {
        let err = read_rodinia(Cursor::new("1\n0 4294967296\n0\n4294967296\n")).unwrap_err();
        assert!(err.to_string().contains("invalid degree"), "{err}");
    }

    #[test]
    fn huge_edge_count_reserves_nothing_up_front() {
        // Offsets fit in u32, but no edge record backs the 16 GiB the
        // header count would reserve: the read fails on the missing record.
        let err = read_rodinia(Cursor::new("1\n0 4294967295\n0\n4294967295\n")).unwrap_err();
        assert!(err.to_string().contains("unexpected end of file"), "{err}");
    }

    #[test]
    fn rejects_out_of_range_source() {
        let text = "1\n0 0\n7\n0\n";
        let err = read_rodinia(Cursor::new(text)).unwrap_err();
        assert!(err.to_string().contains("source vertex 7 out of range"));
    }
}
