//! The committed expected output and the checks every simulated result
//! must pass.
//!
//! `expected/<workload>.journal` holds the default-seed
//! [`SimResult::encode_journal_line`] of every point, one per line, under
//! a `#` header. At the default seed each result must match its line byte
//! for byte; at any seed it must complete and retire exactly the
//! instructions its kernel shape asks for.

use std::collections::BTreeMap;
use std::path::PathBuf;

use carve_system::SimResult;

use crate::workload::Point;

const HEADER: &str = "# carve-simbench expected journal v1";

/// Expected journal lines keyed by [`Point::key`].
#[derive(Debug, Default, PartialEq)]
pub struct Expected(BTreeMap<String, String>);

/// Where a workload's expected journal lives.
pub fn path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("expected")
        .join(format!("{workload}.journal"))
}

impl Expected {
    /// Parses an expected journal. Every non-comment line must decode as a
    /// journal line, and no point may appear twice.
    pub fn parse(text: &str) -> Result<Expected, String> {
        if !text.starts_with(HEADER) {
            return Err(format!("missing header {HEADER:?}"));
        }
        let mut map = BTreeMap::new();
        for (i, line) in text.lines().enumerate() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            let r = SimResult::decode_journal_line(line)
                .ok_or_else(|| format!("line {}: not a journal line", i + 1))?;
            let key = format!("{}\t{}", r.workload, r.design.label());
            if map.insert(key, line.to_string()).is_some() {
                return Err(format!(
                    "line {}: {} {} listed twice",
                    i + 1,
                    r.workload,
                    r.design.label()
                ));
            }
        }
        Ok(Expected(map))
    }

    pub fn load(workload: &str) -> Result<Expected, String> {
        let p = path(workload);
        let text = std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))?;
        Expected::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    }

    /// Renders `results` (in point order) as an expected journal.
    pub fn render(workload: &str, results: &[SimResult]) -> String {
        let mut out = format!("{HEADER}: {workload} at the default seed\n");
        for r in results {
            out.push_str(&r.encode_journal_line());
            out.push('\n');
        }
        out
    }

    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }
}

/// Checks one result against its point: it completed, retired every
/// instruction of its shape, and, when `expected` is given, matches its
/// committed journal line exactly. Returns the reason on failure.
pub fn check(point: &Point, r: &SimResult, expected: Option<&Expected>) -> Result<(), String> {
    let key = point.key();
    if !r.completed {
        return Err(format!("{key}: run did not complete"));
    }
    let want = point.spec.shape.total_instrs();
    if r.instructions != want {
        return Err(format!(
            "{key}: retired {} instructions, shape asks for {want}",
            r.instructions
        ));
    }
    if let Some(exp) = expected {
        let line = r.encode_journal_line();
        match exp.get(&key) {
            None => return Err(format!("{key}: no expected line")),
            Some(e) if e != line => {
                return Err(format!("{key}: journal line differs from expected"))
            }
            Some(_) => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Workload, DEFAULT_SEED};

    #[test]
    fn committed_files_parse_and_cover_every_point() {
        for w in crate::workload::NAMES {
            let exp = Expected::load(w).expect("committed expected journal");
            let points = Workload::from_name(w).expect("known").points(DEFAULT_SEED);
            assert_eq!(exp.len(), points.len(), "{w}");
            for p in &points {
                assert!(exp.get(&p.key()).is_some(), "{w}: {}", p.key());
            }
        }
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(Expected::parse("no header\n").is_err());
        let text = std::fs::read_to_string(path("scale-64")).expect("committed file");
        let first = text.lines().nth(1).expect("a journal line");
        let dup = format!("{text}{first}\n");
        assert!(Expected::parse(&dup).unwrap_err().contains("twice"));
        let cut = format!("{HEADER}\n{}\n", &first[..first.len() / 2]);
        assert!(Expected::parse(&cut)
            .unwrap_err()
            .contains("not a journal line"));
    }

    #[test]
    fn render_round_trips() {
        let text = std::fs::read_to_string(path("scale-64")).expect("committed file");
        let results: Vec<SimResult> = text
            .lines()
            .skip(1)
            .map(|l| SimResult::decode_journal_line(l).expect("journal line"))
            .collect();
        let again = Expected::render("scale-64", &results);
        assert_eq!(Expected::parse(&again), Expected::parse(&text));
    }
}
