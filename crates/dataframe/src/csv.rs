//! CSV import/export for dataframes.
//!
//! Machine learning pipelines exchange prepared datasets as CSV; the paper's
//! examples end by handing a dataframe to a model. Values are quoted when
//! they contain separators; type inference on read recognizes ints, floats,
//! booleans and URIs (angle-bracketed).

use crate::cell::Cell;
use crate::frame::DataFrame;

/// Serialize to CSV (header row + data rows).
pub fn to_csv(df: &DataFrame) -> String {
    let mut out = String::new();
    out.push_str(
        &df.columns()
            .iter()
            .map(|c| quote(c))
            .collect::<Vec<_>>()
            .join(","),
    );
    out.push('\n');
    for row in df.rows() {
        let fields: Vec<String> = row
            .iter()
            .map(|c| match c {
                Cell::Null => String::new(),
                Cell::Uri(u) => quote(&format!("<{u}>")),
                Cell::Str(s) => quote(s),
                Cell::Int(i) => i.to_string(),
                // Debug formatting keeps the decimal point on integral
                // floats so the reader re-infers Float, not Int.
                Cell::Float(f) => format!("{f:?}"),
                Cell::Bool(b) => b.to_string(),
            })
            .collect();
        out.push_str(&fields.join(","));
        out.push('\n');
    }
    out
}

fn quote(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Parse CSV produced by [`to_csv`] (or similar) back into a dataframe.
pub fn from_csv(text: &str) -> Option<DataFrame> {
    let mut lines = split_records(text).into_iter();
    let header = lines.next()?;
    let columns = parse_record(&header);
    let mut df = DataFrame::new(columns);
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let cells = parse_record(&line).into_iter().map(infer_cell).collect();
        df.push_row(cells).ok()?;
    }
    Some(df)
}

/// Split into records, respecting quoted newlines.
fn split_records(text: &str) -> Vec<String> {
    let mut records = Vec::new();
    let mut current = String::new();
    let mut in_quotes = false;
    for c in text.chars() {
        match c {
            '"' => {
                in_quotes = !in_quotes;
                current.push(c);
            }
            '\n' if !in_quotes => {
                records.push(std::mem::take(&mut current));
            }
            '\r' => {}
            _ => current.push(c),
        }
    }
    if !current.is_empty() {
        records.push(current);
    }
    records
}

fn parse_record(line: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut current = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        match c {
            '"' if in_quotes => {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    current.push('"');
                } else {
                    in_quotes = false;
                }
            }
            '"' => in_quotes = true,
            ',' if !in_quotes => fields.push(std::mem::take(&mut current)),
            _ => current.push(c),
        }
    }
    fields.push(current);
    fields
}

fn infer_cell(field: String) -> Cell {
    if field.is_empty() {
        return Cell::Null;
    }
    if let Some(inner) = field.strip_prefix('<').and_then(|f| f.strip_suffix('>')) {
        return Cell::uri(inner.to_string());
    }
    if let Ok(i) = field.parse::<i64>() {
        return Cell::Int(i);
    }
    if let Ok(f) = field.parse::<f64>() {
        return Cell::Float(f);
    }
    match field.as_str() {
        "true" => Cell::Bool(true),
        "false" => Cell::Bool(false),
        _ => Cell::str(field),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut df = DataFrame::new(vec!["actor".into(), "n".into(), "note".into()]);
        df.push_row(vec![
            Cell::uri("http://x/a1"),
            Cell::Int(30),
            Cell::str("said \"hi\", left"),
        ])
        .unwrap();
        df.push_row(vec![Cell::uri("http://x/a2"), Cell::Float(1.5), Cell::Null])
            .unwrap();
        let text = to_csv(&df);
        let back = from_csv(&text).unwrap();
        assert_eq!(df, back);
    }

    #[test]
    fn quoted_newline() {
        let mut df = DataFrame::new(vec!["t".into()]);
        df.push_row(vec![Cell::str("line1\nline2")]).unwrap();
        let text = to_csv(&df);
        let back = from_csv(&text).unwrap();
        assert_eq!(back.get(0, "t"), Some(&Cell::str("line1\nline2")));
    }

    #[test]
    fn integral_float_round_trips_as_float() {
        // Regression: `1.0` used to serialize as "1" and come back as
        // Int(1), silently changing the column's type (and its text form)
        // relative to what the query produced.
        let mut df = DataFrame::new(vec!["avg".into()]);
        df.push_row(vec![Cell::Float(1.0)]).unwrap();
        df.push_row(vec![Cell::Float(-3.0)]).unwrap();
        let text = to_csv(&df);
        assert!(text.contains("1.0"), "{text}");
        let back = from_csv(&text).unwrap();
        assert!(matches!(back.get(0, "avg"), Some(Cell::Float(f)) if *f == 1.0));
        assert!(matches!(back.get(1, "avg"), Some(Cell::Float(f)) if *f == -3.0));
        assert_eq!(df, back);
    }

    #[test]
    fn type_inference() {
        let df = from_csv("a,b,c,d\n1,2.5,true,plain\n").unwrap();
        assert_eq!(df.get(0, "a"), Some(&Cell::Int(1)));
        assert_eq!(df.get(0, "b"), Some(&Cell::Float(2.5)));
        assert_eq!(df.get(0, "c"), Some(&Cell::Bool(true)));
        assert_eq!(df.get(0, "d"), Some(&Cell::str("plain")));
    }

    #[test]
    fn ragged_rows_rejected() {
        assert!(from_csv("a,b\n1\n").is_none());
    }
}
