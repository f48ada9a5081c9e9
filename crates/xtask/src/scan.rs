//! Lexical source model for the static gates.
//!
//! The build environment has no crates.io access, so `syn` is not
//! available; instead the gates work on a *cleaned* per-line view of
//! each source file produced by a small lexer that:
//!
//! - blanks out comments, string/char literal contents, and raw strings
//!   (preserving line structure so diagnostics keep real line numbers);
//! - records which lines fall inside `#[cfg(test)]` items (rules skip
//!   them — tests are allowed to unwrap and panic).
//!
//! This is deliberately token-level, not a full parse: every rule the
//! gates enforce (see [`crate::rules`]) is phrased so that a lexical
//! match is sufficient, which keeps them dependency-free. Annotations
//! live in comments, which this pass blanks; [`crate::items`] reads
//! them from the raw lines.

/// One analyzed source line.
#[derive(Debug)]
pub struct LineInfo {
    /// Source text with comments and literal contents blanked.
    pub cleaned: String,
    /// True if the line is inside a `#[cfg(test)]` item.
    pub in_test: bool,
}

/// A scanned source file ready for rule checks.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub rel_path: String,
    /// Lines, index 0 = line 1.
    pub lines: Vec<LineInfo>,
}

/// Lexer state for the cleaning pass.
#[derive(PartialEq)]
enum Mode {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u32),
    Char,
}

fn clean_source(src: &str) -> String {
    let mut out = String::with_capacity(src.len());
    let bytes: Vec<char> = src.chars().collect();
    let mut i = 0usize;
    let mut mode = Mode::Code;
    while i < bytes.len() {
        let c = bytes[i];
        let next = bytes.get(i + 1).copied();
        match mode {
            Mode::Code => match c {
                '/' if next == Some('/') => {
                    mode = Mode::LineComment;
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                    continue;
                }
                '/' if next == Some('*') => {
                    mode = Mode::BlockComment(1);
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                    continue;
                }
                '"' => {
                    mode = Mode::Str;
                    out.push('"');
                }
                'r' if next == Some('"') || next == Some('#') => {
                    // Possible raw string r"..." / r#"..."#.
                    let mut j = i + 1;
                    let mut hashes = 0u32;
                    while bytes.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if bytes.get(j) == Some(&'"') {
                        mode = Mode::RawStr(hashes);
                        for _ in i..=j {
                            out.push(' ');
                        }
                        i = j + 1;
                        continue;
                    }
                    out.push(c);
                }
                '\'' => {
                    // Lifetime (`'a`) vs char literal (`'a'`, `'\n'`).
                    let is_lifetime = match next {
                        Some(n) if n.is_alphabetic() || n == '_' => bytes.get(i + 2) != Some(&'\''),
                        _ => false,
                    };
                    if is_lifetime {
                        out.push('\'');
                    } else {
                        mode = Mode::Char;
                        out.push('\'');
                    }
                }
                _ => out.push(c),
            },
            Mode::LineComment => {
                if c == '\n' {
                    mode = Mode::Code;
                    out.push('\n');
                } else {
                    out.push(' ');
                }
            }
            Mode::BlockComment(depth) => {
                if c == '\n' {
                    out.push('\n');
                } else if c == '/' && next == Some('*') {
                    mode = Mode::BlockComment(depth + 1);
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                    continue;
                } else if c == '*' && next == Some('/') {
                    mode = if depth == 1 {
                        Mode::Code
                    } else {
                        Mode::BlockComment(depth - 1)
                    };
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                    continue;
                } else {
                    out.push(' ');
                }
            }
            Mode::Str => match c {
                '\\' => {
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                    continue;
                }
                '"' => {
                    mode = Mode::Code;
                    out.push('"');
                }
                '\n' => out.push('\n'),
                _ => out.push(' '),
            },
            Mode::RawStr(hashes) => {
                if c == '"' {
                    let mut j = i + 1;
                    let mut seen = 0u32;
                    while seen < hashes && bytes.get(j) == Some(&'#') {
                        seen += 1;
                        j += 1;
                    }
                    if seen == hashes {
                        mode = Mode::Code;
                        for _ in i..j {
                            out.push(' ');
                        }
                        i = j;
                        continue;
                    }
                    out.push(' ');
                } else if c == '\n' {
                    out.push('\n');
                } else {
                    out.push(' ');
                }
            }
            Mode::Char => match c {
                '\\' => {
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                    continue;
                }
                '\'' => {
                    mode = Mode::Code;
                    out.push('\'');
                }
                '\n' => {
                    // Unterminated char (shouldn't happen in valid Rust);
                    // fail open.
                    mode = Mode::Code;
                    out.push('\n');
                }
                _ => out.push(' '),
            },
        }
        i += 1;
    }
    out
}

/// Marks lines inside `#[cfg(test)]` items. Returns one flag per line.
fn test_region_flags(cleaned_lines: &[&str]) -> Vec<bool> {
    #[derive(PartialEq)]
    enum State {
        Code,
        /// Saw `#[cfg(test)]`; waiting for the item's opening brace. A
        /// `;` first means the attribute guarded a braceless item.
        Pending,
        /// Inside the braced test item; tracks brace depth.
        Inside(u32),
    }
    let mut flags = vec![false; cleaned_lines.len()];
    let mut state = State::Code;
    for (idx, line) in cleaned_lines.iter().enumerate() {
        if state == State::Code && line.contains("#[cfg(test)]") {
            state = State::Pending;
            // Content after the attribute on the same line may already
            // open the block; fall through to the char walk below.
        }
        match state {
            State::Code => {}
            State::Pending => {
                flags[idx] = true;
                let start = line.find("#[cfg(test)]").map_or(0, |p| p + 12);
                for c in line.chars().skip(start) {
                    match c {
                        '{' => {
                            state = State::Inside(1);
                            break;
                        }
                        ';' => {
                            state = State::Code;
                            break;
                        }
                        _ => {}
                    }
                }
                // Re-walk the remainder if we just entered the block.
                if let State::Inside(_) = state {
                    let after = line.find('{').map_or(line.len(), |p| p + 1);
                    let mut depth = 1u32;
                    for c in line.chars().skip(after) {
                        match c {
                            '{' => depth += 1,
                            '}' => depth -= 1,
                            _ => {}
                        }
                    }
                    state = if depth == 0 {
                        State::Code
                    } else {
                        State::Inside(depth)
                    };
                }
            }
            State::Inside(mut depth) => {
                flags[idx] = true;
                for c in line.chars() {
                    match c {
                        '{' => depth += 1,
                        '}' => depth = depth.saturating_sub(1),
                        _ => {}
                    }
                    if depth == 0 {
                        break;
                    }
                }
                state = if depth == 0 {
                    State::Code
                } else {
                    State::Inside(depth)
                };
            }
        }
    }
    flags
}

/// Scans `src`, producing the per-line model used by all rules.
pub fn scan_source(rel_path: &str, src: &str) -> SourceFile {
    let cleaned = clean_source(src);
    let cleaned_lines: Vec<&str> = cleaned.split('\n').collect();
    let flags = test_region_flags(&cleaned_lines);
    let lines = cleaned_lines
        .iter()
        .zip(flags)
        .map(|(cl, in_test)| LineInfo {
            cleaned: (*cl).to_string(),
            in_test,
        })
        .collect();
    SourceFile {
        rel_path: rel_path.to_string(),
        lines,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_line_and_block_comments() {
        let c = clean_source("a // unwrap()\nb /* panic! */ c");
        assert!(!c.contains("unwrap"));
        assert!(!c.contains("panic"));
        assert!(c.contains('a') && c.contains('b') && c.contains('c'));
    }

    #[test]
    fn strips_string_contents_preserving_lines() {
        let c = clean_source("let s = \"panic!\\\"more\";\nnext");
        assert!(!c.contains("panic"));
        assert_eq!(c.split('\n').count(), 2);
    }

    #[test]
    fn raw_strings_and_chars_and_lifetimes() {
        let c = clean_source("let r = r#\"unwrap()\"#; let c = '\\''; fn f<'a>() {}");
        assert!(!c.contains("unwrap"));
        assert!(c.contains("<'a>"));
    }

    #[test]
    fn nested_block_comments() {
        let c = clean_source("x /* a /* b */ panic! */ y");
        assert!(!c.contains("panic"));
        assert!(c.contains('y'));
    }

    #[test]
    fn test_region_detection() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() {}\n}\nfn c() {}";
        let f = scan_source("x.rs", src);
        assert!(!f.lines[0].in_test);
        assert!(f.lines[1].in_test);
        assert!(f.lines[3].in_test);
        assert!(!f.lines[5].in_test);
    }

    #[test]
    fn cfg_test_on_braceless_item_does_not_swallow_code() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn c() {}";
        let f = scan_source("x.rs", src);
        assert!(!f.lines[2].in_test);
    }
}
