//! The metric lists of `BENCHMARK.json`, read back so that every run
//! checks it printed exactly the metrics the file promises, with the same
//! units.
//!
//! The reader understands only the shape this repository writes: each
//! metric is a flat object holding `"name": "..."` and `"unit": "..."`.

use std::path::PathBuf;

use crate::stats::Metrics;

/// Where the benchmark definition lives: the repository root.
fn path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("BENCHMARK.json")
}

/// The string value of `"key": "value"` inside `obj`.
fn string_field<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let at = obj.find(&format!("\"{key}\""))? + key.len() + 2;
    let rest = obj[at..].trim_start().strip_prefix(':')?.trim_start();
    let rest = rest.strip_prefix('"')?;
    Some(&rest[..rest.find('"')?])
}

/// `(name, unit)` of every metric in the `section` array of `text`.
pub fn parse(text: &str, section: &str) -> Result<Vec<(String, String)>, String> {
    let at = text
        .find(&format!("\"{section}\""))
        .ok_or_else(|| format!("no {section} section"))?;
    let open = at
        + text[at..]
            .find('[')
            .ok_or_else(|| format!("{section} is not an array"))?;
    let close = open
        + text[open..]
            .find(']')
            .ok_or_else(|| format!("{section} never closes"))?;
    let mut out = Vec::new();
    for obj in text[open + 1..close].split('}') {
        if obj.trim_matches([' ', '\n', ',', '{']).is_empty() {
            continue;
        }
        let name =
            string_field(obj, "name").ok_or_else(|| format!("{section}: metric without a name"))?;
        let unit =
            string_field(obj, "unit").ok_or_else(|| format!("{section}: {name} has no unit"))?;
        out.push((name.to_string(), unit.to_string()));
    }
    Ok(out)
}

/// Compares the metrics a run produced with `BENCHMARK.json`'s list for
/// its mode; returns every difference.
pub fn check(metrics: &Metrics, traced: bool) -> Result<(), String> {
    let p = path();
    let text = std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))?;
    let section = if traced { "per_layer" } else { "end_to_end" };
    let want = parse(&text, section)?;
    let got: Vec<(String, String)> = metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect();
    let mut diffs = Vec::new();
    for w in &want {
        if !got.contains(w) {
            diffs.push(format!("{} [{}] promised but not produced", w.0, w.1));
        }
    }
    for g in &got {
        if !want.contains(g) {
            diffs.push(format!("{} [{}] produced but not in {section}", g.0, g.1));
        }
    }
    match diffs.is_empty() {
        true => Ok(()),
        false => Err(format!("BENCHMARK.json mismatch: {}", diffs.join("; "))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{valid_name, valid_unit};

    #[test]
    fn committed_definition_lists_valid_metrics() {
        let text = std::fs::read_to_string(path()).expect("BENCHMARK.json at the root");
        for section in ["end_to_end", "per_layer"] {
            let items = parse(&text, section).expect("parses");
            assert!(!items.is_empty(), "{section}");
            for (name, unit) in items {
                assert!(valid_name(&name), "{name}");
                assert!(valid_unit(&unit), "{unit}");
            }
        }
        let e2e = parse(&text, "end_to_end").expect("parses");
        assert!(e2e.contains(&("setup_s".into(), "s".into())));
    }

    #[test]
    fn parse_reads_flat_objects() {
        let text = r#"{"per_layer": [
            {"name": "a.x", "unit": "ns", "better": "lower"},
            {"unit": "count", "name": "b.y", "better": "higher"}
        ]}"#;
        assert_eq!(
            parse(text, "per_layer").expect("parses"),
            vec![("a.x".into(), "ns".into()), ("b.y".into(), "count".into())]
        );
        assert!(parse(text, "end_to_end").is_err());
        assert!(parse(r#"{"per_layer": [{"unit": "s"}]}"#, "per_layer").is_err());
    }
}
