//! Table II: details of the HACC and Nyx datasets.
//!
//! Prints both synthetic snapshots' dimensions, sizes and per-field value
//! ranges next to the paper's expected ranges; range containment is
//! checked so drift in the generators is caught here.

use crate::prelude::*;
use cosmo_data::expected_range;
use foresight_util::timer::format_bytes;

pub(crate) fn build(ctx: &Ctx) -> Result<Exhibit> {
    let hacc = ctx.hacc()?;
    let (nyx, _) = ctx.nyx()?;
    let mut t = Table::new([
        "Dataset",
        "Dimension",
        "Size",
        "Field",
        "Value Range (measured)",
        "Value Range (paper)",
        "In Range",
    ]);
    let side = nyx.n_side;
    let rows = [
        ("HACC", format!("{}", hacc.len()), hacc.payload_bytes(), hacc.summaries()),
        ("Nyx", format!("{side}x{side}x{side}"), nyx.payload_bytes(), nyx.summaries()),
    ];
    for (dataset, dim, bytes, summaries) in rows {
        for (name, s) in summaries {
            let (lo, hi) = expected_range(name)
                .ok_or_else(|| Error::invalid(format!("no range for {name}")))?;
            t.push_row([
                dataset.to_string(),
                dim.clone(),
                format_bytes(bytes),
                name.to_string(),
                format!("({:.3e}, {:.3e})", s.min, s.max),
                format!("({lo:.0e}, {hi:.0e})"),
                (s.min >= lo && s.max <= hi).to_string(),
            ]);
        }
    }
    let mut ex = Exhibit::default();
    ex.table("table2", t, &[("exhibit", "table2")]);
    Ok(ex)
}
