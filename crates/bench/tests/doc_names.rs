//! The design docs name only what exists. Every backticked Rust name in
//! DESIGN.md, README.md and `docs/paper-map.md` — a CamelCase or
//! SCREAMING_CASE name, or a `Path::item` (also `Path::{a, b}`) — must be
//! an item that some workspace source defines. Items are lexed from
//! `crates/*/src`, `src/` and `examples/`: `struct`, `enum`, `trait`,
//! `type`, `fn`, `const`, `static`, `mod`, `macro_rules!` and enum
//! variants, plus the crate names. A path rooted in `std` or a vendored
//! crate names something outside the workspace and is not checked; the
//! paper's device commands and the few std types the docs name are the
//! fixed list [`ALLOWED`]. EXPERIMENTS.md and CHANGES.md are history and
//! are not checked, and `file.rs:N` references are out of scope.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// The documents held to the code.
const DOCS: [&str; 3] = ["DESIGN.md", "README.md", "docs/paper-map.md"];

/// Names a document may use that no workspace source defines: the
/// paper's BA commands and the std types and traits the docs name.
const ALLOWED: &[&str] = &[
    "BA_PIN",
    "BA_FLUSH",
    "BA_SYNC",
    "BA_GET_ENTRY_INFO",
    "BA_READ_DMA",
    "Arc",
    "BinaryHeap",
    "Clone",
    "Display",
    "Option",
    "Rc",
    "Send",
    "Vec",
];

/// Path roots that name code outside the workspace.
const EXTERNAL_ROOTS: [&str; 3] = ["std", "core", "alloc"];

/// Path segments that name no item of their own.
const PATH_KEYWORDS: [&str; 4] = ["crate", "self", "super", "Self"];

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The subdirectories of `dir`, sorted.
fn subdirs(dir: &Path) -> Vec<PathBuf> {
    let mut dirs: Vec<PathBuf> = fs::read_dir(dir)
        .expect("directory exists")
        .map(|e| e.expect("readable directory entry").path())
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    dirs
}

/// The package name a `Cargo.toml` declares, as a Rust path root.
fn crate_name(manifest: &Path) -> Option<String> {
    let toml = fs::read_to_string(manifest).ok()?;
    let line = toml.lines().find(|l| l.trim_start().starts_with("name"))?;
    let name = line.split('"').nth(1)?;
    Some(name.replace('-', "_"))
}

fn is_ident_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_'
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The source's identifiers and punctuation, one token each, with
/// comments, string and character literals, lifetimes and numbers dropped.
fn tokens(src: &str) -> Vec<String> {
    let s: Vec<char> = src.chars().collect();
    let at = |i: usize| s.get(i).copied().unwrap_or('\0');
    let mut out = Vec::new();
    let mut i = 0;
    while i < s.len() {
        let c = s[i];
        if c == '/' && at(i + 1) == '/' {
            while i < s.len() && s[i] != '\n' {
                i += 1;
            }
        } else if c == '/' && at(i + 1) == '*' {
            let mut depth = 0;
            while i < s.len() {
                if s[i] == '/' && at(i + 1) == '*' {
                    depth += 1;
                    i += 2;
                } else if s[i] == '*' && at(i + 1) == '/' {
                    depth -= 1;
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    i += 1;
                }
            }
        } else if c == '"' || (c == 'b' && at(i + 1) == '"') {
            i += if c == 'b' { 2 } else { 1 };
            while i < s.len() && s[i] != '"' {
                i += if s[i] == '\\' { 2 } else { 1 };
            }
            i += 1;
        } else if (c == 'r' || (c == 'b' && at(i + 1) == 'r')) && {
            let mut j = i + if c == 'b' { 2 } else { 1 };
            while at(j) == '#' {
                j += 1;
            }
            at(j) == '"'
        } {
            // A raw string: `r#"…"#`, closed by a quote and as many hashes.
            let mut j = i + if c == 'b' { 2 } else { 1 };
            let mut hashes = 0;
            while at(j) == '#' {
                hashes += 1;
                j += 1;
            }
            j += 1;
            loop {
                if j >= s.len() {
                    break;
                }
                if s[j] == '"' && (1..=hashes).all(|k| at(j + k) == '#') {
                    j += 1 + hashes;
                    break;
                }
                j += 1;
            }
            i = j;
        } else if c == '\'' || (c == 'b' && at(i + 1) == '\'') {
            i += if c == 'b' { 1 } else { 0 };
            if at(i + 1) == '\\' {
                // An escaped character literal: skip to its closing quote.
                i += 2;
                while i < s.len() && s[i] != '\'' {
                    i += 1;
                }
                i += 1;
            } else if at(i + 2) == '\'' {
                i += 3;
            } else {
                // A lifetime or label: drop the quote and its name.
                i += 1;
                while i < s.len() && is_ident_char(s[i]) {
                    i += 1;
                }
            }
        } else if c.is_ascii_digit() {
            while i < s.len() && is_ident_char(s[i]) {
                i += 1;
            }
        } else if is_ident_start(c) {
            let start = i;
            while i < s.len() && is_ident_char(s[i]) {
                i += 1;
            }
            out.push(s[start..i].iter().collect());
        } else {
            if !c.is_whitespace() {
                out.push(c.to_string());
            }
            i += 1;
        }
    }
    out
}

fn is_ident(tok: &str) -> bool {
    tok.starts_with(is_ident_start)
}

/// Keywords that may follow an item keyword (`const fn`, `unsafe fn`).
const KEYWORDS: [&str; 6] = ["fn", "unsafe", "extern", "async", "mut", "impl"];

/// Every item name `src` defines, enum variants included.
fn items(src: &str, names: &mut BTreeSet<String>) {
    let toks = tokens(src);
    for (i, tok) in toks.iter().enumerate() {
        let next = toks.get(i + 1).map(String::as_str).unwrap_or("");
        let defines = matches!(
            tok.as_str(),
            "struct" | "enum" | "trait" | "type" | "fn" | "const" | "static" | "mod" | "union"
        );
        if defines && is_ident(next) && !KEYWORDS.contains(&next) {
            names.insert(next.to_string());
        }
        if tok == "macro_rules" && next == "!" {
            if let Some(name) = toks.get(i + 2) {
                names.insert(name.clone());
            }
        }
        if tok == "enum" {
            variants(&toks[i + 1..], names);
        }
    }
}

/// The variants of the enum whose name starts `toks`: each identifier
/// that opens an entry of its body (after `{` or a `,` at the body's
/// depth; attributes are skipped by depth).
fn variants(toks: &[String], names: &mut BTreeSet<String>) {
    let Some(open) = toks.iter().position(|t| t == "{" || t == ";") else {
        return;
    };
    if toks[open] == ";" {
        return;
    }
    let mut depth = 0;
    let mut expect = false;
    for tok in &toks[open..] {
        match tok.as_str() {
            "{" | "(" | "[" => {
                depth += 1;
                expect |= depth == 1;
            }
            "}" | ")" | "]" => {
                depth -= 1;
                if depth == 0 {
                    return;
                }
            }
            "," if depth == 1 => expect = true,
            t if depth == 1 && expect && is_ident(t) => {
                names.insert(t.to_string());
                expect = false;
            }
            _ => {}
        }
    }
}

/// Every name the workspace defines, and the roots of paths that lead
/// outside it.
fn workspace() -> (BTreeSet<String>, BTreeSet<String>) {
    let root = root();
    let mut names = BTreeSet::new();
    let mut files = Vec::new();
    for krate in subdirs(&root.join("crates")) {
        names.extend(crate_name(&krate.join("Cargo.toml")));
        rust_files(&krate.join("src"), &mut files);
    }
    names.extend(crate_name(&root.join("Cargo.toml")));
    rust_files(&root.join("src"), &mut files);
    rust_files(&root.join("examples"), &mut files);
    for file in files {
        items(
            &fs::read_to_string(&file).expect("readable source"),
            &mut names,
        );
    }
    let mut external: BTreeSet<String> = EXTERNAL_ROOTS.iter().map(|r| r.to_string()).collect();
    for vendored in subdirs(&root.join("vendor")) {
        external.extend(crate_name(&vendored.join("Cargo.toml")));
    }
    (names, external)
}

/// The inline code spans of a Markdown text, fenced blocks skipped.
fn code_spans(markdown: &str) -> Vec<String> {
    let mut prose = String::new();
    let mut fenced = false;
    for line in markdown.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            prose.push_str(line);
            prose.push('\n');
        }
    }
    prose
        .split('`')
        .skip(1)
        .step_by(2)
        .map(|span| span.split_whitespace().collect::<Vec<_>>().join(" "))
        .collect()
}

fn is_camel(name: &str) -> bool {
    name.starts_with(|c: char| c.is_ascii_uppercase()) && name.chars().any(|c| c.is_lowercase())
}

fn is_screaming(name: &str) -> bool {
    name.contains('_')
        && name.starts_with(|c: char| c.is_ascii_uppercase())
        && name
            .chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
}

fn is_plain_ident(s: &str) -> bool {
    s.starts_with(is_ident_start) && s.chars().all(is_ident_char)
}

/// The names a code span claims exist, or none when the span is not a
/// bare name or path (an expression, a type with generics, a command).
fn claimed(span: &str, external: &BTreeSet<String>) -> Vec<String> {
    // A call or macro mark at the end names the same item.
    let span = match span.find('(') {
        Some(open) if span.ends_with(')') => &span[..open],
        _ => span.trim_end_matches('!'),
    };
    if is_plain_ident(span) {
        return if is_camel(span) || is_screaming(span) {
            vec![span.to_string()]
        } else {
            Vec::new()
        };
    }
    // `Path::item`, or `Path::{a, b}`.
    let (path, group) = match span.find("::{") {
        Some(at) if span.ends_with('}') => (&span[..at], Some(&span[at + 3..span.len() - 1])),
        _ => (span, None),
    };
    let segments: Vec<&str> = path.split("::").collect();
    if !segments.iter().all(|s| is_plain_ident(s)) || (segments.len() < 2 && group.is_none()) {
        return Vec::new();
    }
    if external.contains(segments[0]) {
        return Vec::new();
    }
    let mut names: Vec<&str> = segments;
    if let Some(group) = group {
        for member in group.split(',').map(str::trim) {
            let member = member.split('(').next().unwrap_or(member);
            if is_plain_ident(member) {
                names.push(member);
            }
        }
    }
    names
        .into_iter()
        .filter(|n| !PATH_KEYWORDS.contains(n))
        .map(str::to_string)
        .collect()
}

/// `doc: name` for every name the documents claim and nothing defines.
fn unresolved() -> Vec<String> {
    let (names, external) = workspace();
    let mut missing = Vec::new();
    for doc in DOCS {
        let text = fs::read_to_string(root().join(doc)).expect("the doc exists");
        for span in code_spans(&text) {
            for name in claimed(&span, &external) {
                if !names.contains(&name) && !ALLOWED.contains(&name.as_str()) {
                    missing.push(format!("{doc}: `{name}` (in `{span}`)"));
                }
            }
        }
    }
    missing
}

#[test]
fn docs_name_only_items_that_exist() {
    let missing = unresolved();
    assert!(
        missing.is_empty(),
        "{} name(s) no source defines:\n{}",
        missing.len(),
        missing.join("\n")
    );
}

#[test]
fn the_lexer_finds_items_and_skips_literals() {
    let src = r##"
        // struct InComment;
        /* enum InBlock { A } */
        pub struct Real<'a> { field: &'a str }
        const fn make() -> char { '"' }
        pub enum Shape {
            /// A doc line.
            #[default]
            Round,
            Boxed { w: u32 },
            Tuple(u8, [u8; 2]),
        }
        static TEXT: &str = r#"struct InRaw;"#;
        macro_rules! twice { () => {} }
        fn lifetimes<'b>(x: &'b str) -> &'b str { let _ = b'x'; x }
    "##;
    let mut names = BTreeSet::new();
    items(src, &mut names);
    let want = [
        "Boxed",
        "Real",
        "Round",
        "Shape",
        "TEXT",
        "Tuple",
        "lifetimes",
        "make",
        "twice",
    ];
    assert_eq!(names, want.iter().map(|s| s.to_string()).collect());
}

#[test]
fn spans_claim_names_and_paths_only() {
    let external: BTreeSet<String> = ["std".to_string()].into();
    let claim = |span: &str| claimed(span, &external);
    assert_eq!(claim("TwoBSsd"), ["TwoBSsd"]);
    assert_eq!(claim("BA_SYNC"), ["BA_SYNC"]);
    assert_eq!(claim("Ssd::read_body()"), ["Ssd", "read_body"]);
    assert_eq!(
        claim("Ssd::{queued_read, flush(), mmio_*}"),
        ["Ssd", "queued_read", "flush"]
    );
    assert_eq!(claim("twob_sim::SimTime"), ["twob_sim", "SimTime"]);
    for not_a_name in [
        "std::alloc::System",
        "ba_pin",
        "LBA",
        "Vec<u8>",
        "twob list",
        "x.len()",
        "serve.rs:293",
    ] {
        assert!(claim(not_a_name).is_empty(), "{not_a_name}");
    }
}
