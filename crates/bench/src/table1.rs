//! Table I — the 2B-SSD specification.

use twob_core::TwoBSpec;

use crate::Table;

/// The rows of paper Table I for the default specification.
pub fn rows() -> Vec<(String, String)> {
    TwoBSpec::default().table_rows()
}

/// Renders the table under its title.
pub fn render(rows: &[(String, String)]) -> String {
    let table = Table::new(rows)
        .col("Item", |r| r.0.clone())
        .col("Description", |r| r.1.clone());
    format!("Table I: 2B-SSD specification\n\n{table}")
}

#[cfg(test)]
mod tests {
    #[test]
    fn table_has_the_paper_fields() {
        let rows = super::rows();
        let keys: Vec<&str> = rows.iter().map(|(k, _)| k.as_str()).collect();
        for expected in [
            "Host interface",
            "Protocol",
            "Capacity",
            "SSD architecture",
            "Storage medium",
            "BA-buffer size",
            "Max. entries of BA-buffer",
        ] {
            assert!(keys.contains(&expected), "missing row {expected}");
        }
    }
}
