//! Floorplan rendering: SVG (the reproduction's "die photo") and an
//! ASCII density map for terminal inspection.

use crate::place::Placement;
use std::fmt::Write as _;
use syndcim_netlist::Module;

const PALETTE: &[&str] = &[
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f", "#edc948", "#b07aa1", "#ff9da7", "#9c755f",
    "#bab0ac",
];

fn color_for(name: &str) -> &'static str {
    let mut h = 0usize;
    for b in name.bytes() {
        h = h.wrapping_mul(31).wrapping_add(b as usize);
    }
    PALETTE[h % PALETTE.len()]
}

/// Render the placement as an SVG document. Cells are drawn individually
/// up to `max_cells`; beyond that only the region outlines are drawn
/// (large macros would otherwise produce multi-hundred-MB files).
pub fn render_svg(module: &Module, placement: &Placement, max_cells: usize) -> String {
    let scale = 2.0; // px per µm
    let w = placement.die.w_um * scale;
    let h = placement.die.h_um * scale;
    let mut s = String::new();
    let _ = writeln!(
        s,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{w:.0}" height="{h:.0}" viewBox="0 0 {w:.2} {h:.2}">"#
    );
    let _ = writeln!(s, r##"<rect x="0" y="0" width="{w:.2}" height="{h:.2}" fill="#1b1b22"/>"##);
    let flip = |y: f64, rh: f64| h - (y + rh) * scale;

    if placement.cells.len() <= max_cells {
        for pc in &placement.cells {
            let g = module.group_name(module.instance(pc.inst).group);
            let head = g.split('/').next().unwrap_or(g);
            let r = pc.rect;
            let _ = writeln!(
                s,
                r#"<rect x="{:.2}" y="{:.2}" width="{:.2}" height="{:.2}" fill="{}" fill-opacity="0.85"/>"#,
                r.x_um * scale,
                flip(r.y_um, r.h_um),
                r.w_um * scale,
                r.h_um * scale,
                color_for(head)
            );
        }
    }
    for region in &placement.regions {
        let r = region.rect;
        let _ = writeln!(
            s,
            r#"<rect x="{:.2}" y="{:.2}" width="{:.2}" height="{:.2}" fill="none" stroke="{}" stroke-width="1"/>"#,
            r.x_um * scale,
            flip(r.y_um, r.h_um),
            r.w_um * scale,
            r.h_um * scale,
            color_for(&region.name)
        );
        let _ = writeln!(
            s,
            r##"<text x="{:.2}" y="{:.2}" font-size="8" fill="#ffffff">{}</text>"##,
            r.x_um * scale + 2.0,
            flip(r.y_um, r.h_um) + 10.0,
            region.name
        );
    }
    let _ = writeln!(
        s,
        r##"<text x="4" y="{:.2}" font-size="10" fill="#cccccc">{} — {:.0}×{:.0} µm², {:.3} mm², util {:.0}%</text>"##,
        h - 4.0,
        module.name,
        placement.die.w_um,
        placement.die.h_um,
        placement.die_area_mm2(),
        placement.utilization * 100.0
    );
    s.push_str("</svg>\n");
    s
}

/// Render an ASCII density map (`cols`×`rows` characters). Each cell is
/// the initial of the dominant group in that bin, or `.` for whitespace.
pub fn render_ascii(module: &Module, placement: &Placement, cols: usize, rows: usize) -> String {
    let mut best: Vec<(f64, char)> = vec![(0.0, '.'); cols * rows];
    let bw = placement.die.w_um / cols as f64;
    let bh = placement.die.h_um / rows as f64;
    let mut occupancy: Vec<std::collections::BTreeMap<char, f64>> = vec![Default::default(); cols * rows];
    for pc in &placement.cells {
        let g = module.group_name(module.instance(pc.inst).group);
        let head = g.split('/').next().unwrap_or(g);
        let ch = head.chars().next().unwrap_or('?');
        let (cx, cy) = pc.rect.center();
        let gx = ((cx / bw) as usize).min(cols - 1);
        let gy = ((cy / bh) as usize).min(rows - 1);
        *occupancy[gy * cols + gx].entry(ch).or_insert(0.0) += pc.rect.area_um2();
    }
    for (i, occ) in occupancy.iter().enumerate() {
        if let Some((&ch, &a)) = occ.iter().max_by(|a, b| a.1.partial_cmp(b.1).expect("finite areas")) {
            best[i] = (a, ch);
        }
    }
    let mut s = String::new();
    for gy in (0..rows).rev() {
        for gx in 0..cols {
            s.push(best[gy * cols + gx].1);
        }
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::place::{place, FloorplanConfig};
    use syndcim_netlist::NetlistBuilder;
    use syndcim_pdk::{CellKind, CellLibrary};

    fn modl(lib: &CellLibrary) -> Module {
        let mut b = NetlistBuilder::new("r", lib);
        let a = b.input("a");
        b.push_group("col0");
        let x = b.add(CellKind::Sram6T2T, &[a, a])[0];
        let y = b.and2(x, a);
        b.pop_group();
        b.push_group("ofu");
        let z = b.not(y);
        b.pop_group();
        b.output("z", z);
        b.finish()
    }

    #[test]
    fn svg_contains_regions_and_summary() {
        let lib = CellLibrary::syn40();
        let m = modl(&lib);
        let p = place(&m, &lib, FloorplanConfig::default()).unwrap();
        let svg = render_svg(&m, &p, 10_000);
        assert!(svg.starts_with("<svg"));
        assert!(svg.contains("col0"));
        assert!(svg.contains("mm²"));
        assert!(svg.trim_end().ends_with("</svg>"));
    }

    #[test]
    fn svg_omits_cells_beyond_cap() {
        let lib = CellLibrary::syn40();
        let m = modl(&lib);
        let p = place(&m, &lib, FloorplanConfig::default()).unwrap();
        let small = render_svg(&m, &p, 0);
        let full = render_svg(&m, &p, 10_000);
        assert!(full.len() > small.len());
    }

    #[test]
    fn ascii_map_has_expected_shape() {
        let lib = CellLibrary::syn40();
        let m = modl(&lib);
        let p = place(&m, &lib, FloorplanConfig::default()).unwrap();
        let art = render_ascii(&m, &p, 40, 10);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 10);
        assert!(lines.iter().all(|l| l.chars().count() == 40));
        assert!(art.contains('c') || art.contains('o'), "group initials expected:\n{art}");
    }
}
