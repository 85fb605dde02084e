//! The names README.md, DESIGN.md and EXPERIMENTS.md give the code,
//! pinned to the code. A doc that names a function, type or section that
//! no longer exists fails here, the moment the rename lands.
//!
//! Checked in every inline code span and every `rust` fenced block:
//!
//! * a crate-rooted path (`simt::…`, `gpu_queue::…`, `pt_bfs::…`,
//!   `ptq_graph::…`, `repro_bench::…`, `ptq::…`) resolves through that
//!   crate's `pub mod` and `pub use` names;
//! * any other path resolves from a module of that name, at any
//!   visibility (`runner::launch`, `experiments::table6::tests::…`), and a
//!   `Type::item` path names an `item` defined where `Type` is defined or
//!   implemented; std paths (`u32::MAX`, `std::thread::scope`) pass by
//!   prefix;
//! * a bare snake_case name of four or more words is read as a test,
//!   helper or field name and must be some `fn` or field;
//! * a `*.rs` file name is a workspace file.
//!
//! Section references: DESIGN.md is cited by heading title, never by
//! number — `[…](DESIGN.md#slug)` links in the docs, `DESIGN.md *Title*`
//! in comments — and every such reference must name a heading that
//! exists, so renumbering or renaming a section cannot silently misdirect
//! a reader.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

const DOCS: [&str; 3] = ["README.md", "DESIGN.md", "EXPERIMENTS.md"];

/// Crate names a doc path may start with, and each one's root file.
const CRATES: [(&str, &str); 6] = [
    ("simt", "crates/simt/src/lib.rs"),
    ("gpu_queue", "crates/gpu-queue/src/lib.rs"),
    ("pt_bfs", "crates/pt-bfs/src/lib.rs"),
    ("ptq_graph", "crates/graph/src/lib.rs"),
    ("repro_bench", "crates/bench/src/lib.rs"),
    ("ptq", "src/lib.rs"),
];

/// First segments of paths into the standard library.
const STD: &[&str] = &[
    "std", "core", "alloc", "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64",
    "i128", "isize", "f32", "f64", "bool", "char", "str", "String", "Vec", "VecDeque", "Option",
    "Result", "Box", "Arc", "Rc", "HashMap", "BTreeMap", "Ordering",
];

/// Keywords that declare a module-level item.
const ITEMS: [&str; 10] = [
    "fn",
    "struct",
    "enum",
    "trait",
    "type",
    "const",
    "static",
    "mod",
    "union",
    "macro_rules",
];

fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{path:?}: {e}"))
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for path in entries.flatten().map(|e| e.path()) {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Every `.rs` file of the workspace.
fn workspace_rust_files() -> Vec<PathBuf> {
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        rust_files(&repo().join(dir), &mut files);
    }
    files
}

/// Identifier tokens of one source line.
fn words(line: &str) -> Vec<&str> {
    line.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
        .collect()
}

/// Code lines of `text` (comment lines dropped).
fn code_lines(text: &str) -> impl Iterator<Item = &str> {
    text.lines().filter(|l| !l.trim_start().starts_with("//"))
}

fn is_camel(name: &str) -> bool {
    name.starts_with(|c: char| c.is_ascii_uppercase()) && name.chars().any(|c| c.is_lowercase())
}

/// Whether `text` declares a module-level item `name` (`pub` only when
/// `public`).
fn declares(text: &str, name: &str, public: bool) -> bool {
    code_lines(text).any(|line| {
        let declared = words(line)
            .windows(2)
            .any(|p| p[1] == name && ITEMS.contains(&p[0]));
        declared && (!public || line.trim_start().starts_with("pub "))
    })
}

/// Whether `text` defines a member `item`: a function, constant or
/// associated type; a field (snake_case); a variant (CamelCase).
fn defines_member(text: &str, item: &str) -> bool {
    code_lines(text).any(|line| {
        let keyword = ["fn", "const", "type", "static"];
        if words(line)
            .windows(2)
            .any(|p| p[1] == item && keyword.contains(&p[0]))
        {
            return true;
        }
        let t = line.trim_start();
        let t = t.strip_prefix("pub ").unwrap_or(t);
        let t = match t.strip_prefix("pub(") {
            Some(r) => r.split_once(')').map_or(r, |(_, r)| r).trim_start(),
            None => t,
        };
        let Some(after) = t.strip_prefix(item).map(str::trim_start) else {
            return false;
        };
        if is_camel(item) {
            after.is_empty() || after.starts_with([',', '(', '{', '='])
        } else {
            after.starts_with(':') && !after.starts_with("::")
        }
    })
}

/// `a::{b, c::{d, e}}` → `a::b`, `a::c::d`, `a::c::e` (`self` names the
/// prefix itself).
fn expand(path: &str) -> Vec<String> {
    let path = path.trim();
    let Some(open) = path.find('{') else {
        return vec![path.split_whitespace().collect::<Vec<_>>().join(" ")];
    };
    let (prefix, group) = (&path[..open], &path[open + 1..]);
    let (mut parts, mut depth, mut start) = (Vec::new(), 0, 0);
    for (i, c) in group.char_indices() {
        match c {
            '{' => depth += 1,
            '}' if depth == 0 => {
                parts.push(&group[start..i]);
                break;
            }
            '}' => depth -= 1,
            ',' if depth == 0 => {
                parts.push(&group[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts
        .into_iter()
        .map(str::trim)
        .filter(|p| !p.is_empty())
        .flat_map(|p| match p {
            "self" => vec![prefix.trim_end_matches("::").to_string()],
            _ => expand(&format!("{prefix}{p}")),
        })
        .collect()
}

/// Every name a `pub use` of `text` re-exports, as `(path, name)`.
fn reexports(text: &str) -> Vec<(Vec<String>, String)> {
    let mut out = Vec::new();
    let mut lines = code_lines(text);
    while let Some(line) = lines.next() {
        let Some(body) = line.trim_start().strip_prefix("pub use ") else {
            continue;
        };
        let mut stmt = body.to_string();
        while !stmt.contains(';') {
            let Some(next) = lines.next() else { break };
            stmt.push(' ');
            stmt.push_str(next.trim());
        }
        for item in expand(stmt.split(';').next().unwrap_or_default()) {
            let (path, name) = match item.split_once(" as ") {
                Some((path, name)) => (path, name.trim()),
                None => (item.as_str(), item.rsplit("::").next().unwrap_or_default()),
            };
            let path = path.split("::").map(|s| s.trim().to_string()).collect();
            out.push((path, name.to_string()));
        }
    }
    out
}

/// A module backed by a file: items are looked up in `file`, child
/// module files in `dir`.
struct Module {
    file: String,
    dir: String,
    /// The module's own name (the crate's, for a crate root).
    name: String,
}

impl Module {
    /// The library module `rel` (a path from the repo root) is, if any.
    fn of_file(rel: &str) -> Option<Module> {
        let (krate, root) = CRATES
            .iter()
            .find(|(_, root)| rel.starts_with(root.trim_end_matches("lib.rs")))?;
        if rel.starts_with(&root.replace("lib.rs", "bin/")) {
            return None;
        }
        let (dir, stem) = rel.rsplit_once('/')?;
        let (dir, name) = match stem.strip_suffix(".rs")? {
            "lib" => (dir.to_string(), krate.to_string()),
            "mod" => (dir.to_string(), dir.rsplit('/').next()?.to_string()),
            stem => (format!("{dir}/{stem}"), stem.to_string()),
        };
        let file = rel.to_string();
        Some(Module { file, dir, name })
    }

    fn crate_root(name: &str) -> Option<Module> {
        let (_, root) = CRATES.iter().find(|(k, _)| *k == name)?;
        Module::of_file(root)
    }
}

/// The workspace's Rust sources, `(path from the repo root, text)`, and
/// name resolution over them.
struct Code {
    files: Vec<(String, String)>,
}

impl Code {
    fn load() -> Self {
        let root = repo();
        let mut files: Vec<_> = workspace_rust_files()
            .iter()
            .map(|p| {
                let rel = p.strip_prefix(&root).unwrap().to_string_lossy();
                (rel.replace('\\', "/"), read(p))
            })
            .collect();
        files.sort();
        Code { files }
    }

    fn text(&self, rel: &str) -> Option<&str> {
        self.files
            .iter()
            .find(|(p, _)| p == rel)
            .map(|(_, t)| t.as_str())
    }

    fn modules(&self) -> impl Iterator<Item = Module> + '_ {
        self.files.iter().filter_map(|(p, _)| Module::of_file(p))
    }

    /// The child module `name` of `m`, if `m` declares it.
    fn child(&self, m: &Module, name: &str, public: bool) -> Option<Module> {
        let declared = code_lines(self.text(&m.file)?).any(|line| {
            let line = line.trim();
            (!public || line.starts_with("pub mod ")) && line.ends_with(&format!("mod {name};"))
        });
        if !declared {
            return None;
        }
        [
            format!("{}/{name}.rs", m.dir),
            format!("{}/{name}/mod.rs", m.dir),
        ]
        .iter()
        .find_map(|f| self.text(f).and(Module::of_file(f)))
    }

    /// Whether `segs` names something from module `m`: a child module, an
    /// inline module, a re-export, or an item it declares (then perhaps
    /// `Type::item`).
    fn resolve(&self, m: &Module, segs: &[&str], public: bool, depth: usize) -> bool {
        let Some((&name, rest)) = segs.split_first() else {
            return true;
        };
        let Some(text) = self.text(&m.file).filter(|_| depth < 16) else {
            return false;
        };
        if let Some(child) = self.child(m, name, public) {
            if self.resolve(&child, rest, public, depth + 1) {
                return true;
            }
        }
        // An inline module (`mod tests { … }`): its items are in this file.
        if code_lines(text).any(|l| l.trim().ends_with(&format!("mod {name} {{")))
            && self.resolve(m, rest, false, depth + 1)
        {
            return true;
        }
        for (target, _) in reexports(text).iter().filter(|(_, n)| n == name) {
            let Some((first, inner)) = target.split_first() else {
                continue;
            };
            // Another crate (`pub use gpu_queue as queue`) or a child
            // module, followed at any visibility: `pub use a::B` makes `B`
            // public even where `a` is private.
            let start = Module::crate_root(first).or_else(|| self.child(m, first, false));
            let path: Vec<&str> = inner
                .iter()
                .map(String::as_str)
                .chain(rest.iter().copied())
                .collect();
            if start.is_some_and(|s| self.resolve(&s, &path, false, depth + 1)) {
                return true;
            }
        }
        declares(text, name, public)
            && match rest {
                [] => true,
                [item] => is_camel(name) && self.type_has(name, item, true),
                _ => false,
            }
    }

    /// Whether `item` is defined where type `ty` is declared or
    /// implemented (following a `type` alias once when `alias`).
    fn type_has(&self, ty: &str, item: &str, alias: bool) -> bool {
        self.files.iter().any(|(_, text)| {
            let mut related = false;
            for line in code_lines(text) {
                let w = words(line);
                let t = line.trim_start();
                if w.windows(2).any(|p| {
                    p[1] == ty && ["struct", "enum", "trait", "type", "union"].contains(&p[0])
                }) {
                    related = true;
                    let target = line
                        .split_once(&format!("type {ty} = "))
                        .and_then(|(_, rhs)| words(rhs).first().copied());
                    if alias && target.is_some_and(|t| t != ty && self.type_has(t, item, false)) {
                        return true;
                    }
                }
                related |=
                    (t.starts_with("impl") || t.starts_with("unsafe impl")) && w.contains(&ty);
            }
            related && defines_member(text, item)
        })
    }

    /// Whether a path a doc names resolves.
    fn path_ok(&self, path: &str) -> bool {
        let segs: Vec<&str> = path.split("::").collect();
        let (root, rest) = (segs[0], &segs[1..]);
        if STD.contains(&root) {
            return true;
        }
        if let Some(m) = Module::crate_root(root) {
            return self.resolve(&m, rest, true, 0);
        }
        if is_camel(root) {
            return matches!(rest, [item] if self.type_has(root, item, true));
        }
        self.modules()
            .filter(|m| m.name == root)
            .any(|m| self.resolve(&m, rest, false, 0))
    }

    fn defines(&self, name: &str) -> bool {
        self.files
            .iter()
            .any(|(_, text)| defines_member(text, name))
    }

    fn has_file(&self, name: &str) -> bool {
        repo().join(name).is_file()
            || self
                .files
                .iter()
                .any(|(p, _)| p == name || p.ends_with(&format!("/{name}")))
    }
}

/// Inline code spans and `rust` fenced blocks of a markdown document.
fn code_spans(doc: &str) -> Vec<String> {
    let (mut spans, mut prose) = (Vec::new(), String::new());
    // The open fence, if any: whether it is `rust`, and its text so far.
    let mut fence: Option<(bool, String)> = None;
    for line in doc.lines() {
        if let Some(info) = line.trim_start().strip_prefix("```") {
            match fence.take() {
                Some((true, block)) => spans.push(block),
                Some(_) => {}
                None => fence = Some((info.trim().starts_with("rust"), String::new())),
            }
            continue;
        }
        let text = fence.as_mut().map_or(&mut prose, |(_, block)| block);
        text.push_str(line);
        text.push('\n');
    }
    spans.extend(prose.split('`').skip(1).step_by(2).map(str::to_string));
    spans
}

/// The `a::b::C` paths in a code span, brace groups expanded.
fn paths(span: &str) -> Vec<String> {
    let chars: Vec<char> = span.chars().collect();
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let starts = |c: char| c.is_alphabetic() || c == '_';
    let mut out = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        let after_path_char = i > 0 && (ident(chars[i - 1]) || matches!(chars[i - 1], ':' | '.'));
        if !starts(chars[i]) || after_path_char {
            i += 1;
            continue;
        }
        let begin = i;
        loop {
            while i < chars.len() && ident(chars[i]) {
                i += 1;
            }
            if chars.get(i..i + 2) != Some(&[':', ':'][..]) {
                break;
            }
            match chars.get(i + 2) {
                Some(&c) if starts(c) => i += 2,
                Some('{') => {
                    let close = chars[i..].iter().position(|&c| c == '}');
                    i = close.map_or(chars.len(), |p| i + p + 1);
                    break;
                }
                _ => break,
            }
        }
        let text: String = chars[begin..i].iter().collect();
        if text.contains("::") {
            out.extend(expand(&text).into_iter().map(|p| p.replace(' ', "")));
        }
    }
    out
}

/// A bare snake_case name of four or more words: a test, helper or field
/// name.
fn is_test_name(span: &str) -> bool {
    span.starts_with(|c: char| c.is_ascii_lowercase())
        && span
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        && span.matches('_').count() >= 3
}

#[test]
fn doc_names_resolve_to_code() {
    let code = Code::load();
    let mut missing = BTreeSet::new();
    for doc in DOCS {
        for span in code_spans(&read(&repo().join(doc))) {
            let span = span.trim();
            for path in paths(span).into_iter().filter(|p| !code.path_ok(p)) {
                missing.insert(format!("{doc}: `{path}` names nothing in the code"));
            }
            if is_test_name(span) && !code.defines(span) {
                missing.insert(format!("{doc}: `{span}` is no fn or field"));
            }
            let is_file = span.ends_with(".rs") && !span.contains([' ', '\n', '*']);
            if is_file && !code.has_file(span) {
                missing.insert(format!("{doc}: `{span}` is no workspace file"));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "docs name code that does not exist:\n{}",
        missing.into_iter().collect::<Vec<_>>().join("\n")
    );
}

/// GitHub's anchor for a heading.
fn slug(title: &str) -> String {
    title
        .trim()
        .chars()
        .filter_map(|c| match c {
            ' ' => Some('-'),
            c if c.is_alphanumeric() || c == '-' || c == '_' => Some(c.to_ascii_lowercase()),
            _ => None,
        })
        .collect()
}

fn heading_slugs(doc: &str) -> BTreeSet<String> {
    let mut fenced = false;
    doc.lines()
        .filter(|l| {
            fenced ^= l.trim_start().starts_with("```");
            !fenced && l.starts_with('#')
        })
        .map(|l| slug(l.trim_start_matches('#')))
        .collect()
}

/// Files whose text or comments may cite DESIGN.md sections: the docs,
/// every Rust file but this one (which quotes the citation forms), the
/// manifests and CI.
fn citing_files() -> Vec<PathBuf> {
    let root = repo();
    let mut files = workspace_rust_files();
    files.retain(|f| !f.ends_with(file!()));
    let extra = [
        "Cargo.toml",
        ".github/workflows/ci.yml",
        "ci/golden.sh",
        "ci/size.sh",
    ];
    files.extend(extra.iter().chain(&DOCS).map(|f| root.join(f)));
    files.retain(|f| f.is_file());
    files
}

#[test]
fn design_section_references_name_headings() {
    let root = repo();
    let slugs: Vec<(&str, BTreeSet<String>)> = DOCS
        .iter()
        .map(|d| (*d, heading_slugs(&read(&root.join(d)))))
        .collect();
    let design = &slugs.iter().find(|(d, _)| *d == "DESIGN.md").unwrap().1;
    let mut bad = BTreeSet::new();
    for file in citing_files() {
        let name = file
            .strip_prefix(&root)
            .unwrap()
            .to_string_lossy()
            .to_string();
        let raw = read(&file);
        // Comment markers dropped and lines joined, so a citation may wrap.
        let text = raw
            .lines()
            .map(|l| l.trim_start().trim_start_matches(['/', '!', '#']).trim())
            .collect::<Vec<_>>()
            .join(" ");
        for (at, _) in text.match_indices("DESIGN") {
            let after = text[at + "DESIGN".len()..]
                .trim_start_matches(".md")
                .trim_start();
            if after.starts_with('§') {
                let cited: String = after.chars().take(6).collect();
                bad.insert(format!("{name}: cites DESIGN by number ({cited:?})"));
            } else if let Some(title) = after.strip_prefix('*').filter(|t| !t.starts_with('*')) {
                let title = title.split('*').next().unwrap_or_default();
                if !design.contains(&slug(title)) {
                    bad.insert(format!("{name}: DESIGN.md has no section *{title}*"));
                }
            }
        }
        // Markdown links to a heading of one of the three docs.
        for (at, _) in raw.match_indices("](") {
            let target = raw[at + 2..].split(')').next().unwrap_or_default();
            let Some((doc, anchor)) = target.split_once('#') else {
                continue;
            };
            let doc = if doc.is_empty() { name.as_str() } else { doc };
            if let Some((_, heads)) = slugs.iter().find(|(d, _)| *d == doc) {
                if !heads.contains(anchor) {
                    bad.insert(format!("{name}: {doc} has no heading #{anchor}"));
                }
            }
        }
        // DESIGN.md's own numbered cross-references (`paper §3.3` cites
        // the paper).
        if name == "DESIGN.md" {
            for (at, _) in raw.match_indices('§') {
                if !raw[..at].trim_end().ends_with("paper") {
                    let cited: String = raw[at..].chars().take(6).collect();
                    bad.insert(format!("DESIGN.md: numbered cross-reference {cited:?}"));
                }
            }
        }
    }
    assert!(
        bad.is_empty(),
        "section references that name no heading:\n{}",
        bad.into_iter().collect::<Vec<_>>().join("\n")
    );
}
