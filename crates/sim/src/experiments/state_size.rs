//! E2 — per-node routing-state size.
//!
//! Paper claim: "The tables required in each PAST node have only
//! (2^b − 1) × ⌈log_2^b N⌉ + 2l entries."

use crate::common::pastry_static;
use crate::report::{f2, ExpTable};
use past_pastry::Config;

/// Parameters for E2.
#[derive(Clone, Debug)]
pub struct Params {
    /// Network sizes to sweep.
    pub sizes: Vec<usize>,
    /// Base RNG seed.
    pub seed: u64,
    /// Pastry configuration.
    pub cfg: Config,
}

impl Default for Params {
    fn default() -> Params {
        Params {
            sizes: vec![256, 1_024, 4_096],
            seed: 52,
            cfg: Config::default(),
        }
    }
}

impl Params {
    /// Paper-scale sweep.
    pub fn paper() -> Params {
        Params {
            sizes: vec![1_000, 4_000, 16_000, 64_000, 100_000],
            ..Params::default()
        }
    }
}

/// One sweep point.
#[derive(Clone, Debug)]
pub struct Row {
    /// Network size.
    pub n: usize,
    /// Mean populated routing-table entries per node.
    pub table_entries: f64,
    /// Mean populated routing-table rows per node.
    pub table_rows: f64,
    /// Mean leaf-set members per node.
    pub leaf: f64,
    /// Mean bytes of heap the table, leaf set and neighbourhood set
    /// hold per node (`PastryState::heap_bytes`): the cost of the
    /// entries counted to the left.
    pub state_bytes: f64,
    /// The paper's bound `(2^b − 1)·⌈log_2^b N⌉ + 2l`.
    pub bound: f64,
}

/// E2 result.
#[derive(Clone, Debug)]
pub struct Result {
    /// One row per size.
    pub rows: Vec<Row>,
    /// The leaf-set parameter used.
    pub leaf_len: usize,
}

/// Runs E2.
pub fn run(p: &Params) -> Result {
    let mut rows = Vec::new();
    for (i, &n) in p.sizes.iter().enumerate() {
        let sim = pastry_static(n, p.seed + i as u64, p.cfg, 1);
        let mut entries = 0usize;
        let mut trows = 0usize;
        let mut leaf = 0usize;
        let mut bytes = 0usize;
        for a in 0..n {
            let st = &sim.engine.node(a).state;
            entries += st.table.populated();
            trows += st.table.populated_rows();
            leaf += st.leaf.len();
            bytes += st.heap_bytes();
        }
        let levels = (n as f64).log(p.cfg.cols() as f64).ceil();
        rows.push(Row {
            n,
            table_entries: entries as f64 / n as f64,
            table_rows: trows as f64 / n as f64,
            leaf: leaf as f64 / n as f64,
            state_bytes: bytes as f64 / n as f64,
            bound: (p.cfg.cols() as f64 - 1.0) * levels + 2.0 * (p.cfg.leaf_len as f64 / 2.0),
        });
    }
    Result {
        rows,
        leaf_len: p.cfg.leaf_len,
    }
}

impl Result {
    /// Renders the table.
    pub fn table(&self) -> ExpTable {
        let mut t = ExpTable::new(
            format!("E2: per-node state (l={})", self.leaf_len),
            &[
                "N",
                "table entries",
                "table rows",
                "leaf",
                "paper bound",
                "state bytes",
            ],
        );
        for r in &self.rows {
            t.row(vec![
                r.n.to_string(),
                f2(r.table_entries),
                f2(r.table_rows),
                f2(r.leaf),
                f2(r.bound),
                f2(r.state_bytes),
            ]);
        }
        t.note("paper: (2^b - 1) * ceil(log_2^b N) + 2l entries");
        t.note("state bytes: heap held by table + leaf set + neighbourhood set, per node");
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_stays_below_bound_and_grows_slowly() {
        let p = Params {
            sizes: vec![256, 4_096],
            ..Params::default()
        };
        let r = run(&p);
        for row in &r.rows {
            let total = row.table_entries + row.leaf;
            assert!(
                total <= row.bound,
                "n={}: state {total} exceeds bound {}",
                row.n,
                row.bound
            );
            assert_eq!(row.leaf, p.cfg.leaf_len as f64, "leaf sets full");
            // 24 bytes a table or neighbourhood entry, 32 a leaf handle,
            // and whole rows of 16: under 3 KB at these sizes.
            assert!(
                (1_000.0..3_000.0).contains(&row.state_bytes),
                "n={}: {} B of routing state",
                row.n,
                row.state_bytes
            );
        }
        // 16x nodes adds about one routing-table row, not 16x entries.
        let ratio = r.rows[1].table_entries / r.rows[0].table_entries;
        assert!(ratio < 3.0, "table growth too fast: {ratio}");
        assert!(r.rows[1].table_rows > r.rows[0].table_rows);
    }
}
