//! Structural Verilog export.
//!
//! Produces a flat, synthesizable-style structural netlist so generated
//! macros can be inspected or fed to external tools. Names are sanitized
//! to Verilog identifier rules (brackets become escaped identifiers).

use crate::graph::{InstId, Module, NetId, PortDir};
use std::fmt::Write as _;
use syndcim_pdk::CellLibrary;

fn v_ident(name: &str) -> String {
    if name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
        && !name.starts_with(|c: char| c.is_ascii_digit())
    {
        name.to_string()
    } else {
        // Verilog escaped identifier: backslash + name + trailing space.
        format!("\\{name} ")
    }
}

/// Render `module` as flat structural Verilog.
pub fn to_verilog(module: &Module, lib: &CellLibrary) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "// generated by syndcim-netlist");
    let ports: Vec<String> = module.ports.iter().map(|p| v_ident(&p.name)).collect();
    let _ = writeln!(s, "module {} ({});", v_ident(&module.name), ports.join(", "));
    for p in &module.ports {
        let dir = match p.dir {
            PortDir::Input => "input",
            PortDir::Output => "output",
        };
        let _ = writeln!(s, "  {} {};", dir, v_ident(&p.name));
    }
    for i in 0..module.net_count() {
        // Ports already declare their nets.
        if module.ports.iter().any(|p| p.net.index() == i) {
            continue;
        }
        let _ = writeln!(s, "  wire {};", v_ident(module.net_name(NetId(i as u32))));
    }
    for (i, inst) in module.instances().enumerate() {
        let cell = lib.cell(inst.cell);
        let mut pins = Vec::new();
        for (k, &n) in inst.inputs.iter().enumerate() {
            pins.push(format!(".{}({})", cell.inputs[k], v_ident(module.net_name(n))));
        }
        for (k, &n) in inst.outputs.iter().enumerate() {
            pins.push(format!(".{}({})", cell.outputs[k], v_ident(module.net_name(n))));
        }
        let name = v_ident(module.inst_name(InstId(i as u32)));
        let _ = writeln!(s, "  {} {} ({});", cell.name, name, pins.join(", "));
    }
    let _ = writeln!(s, "endmodule");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;

    #[test]
    fn verilog_contains_ports_cells_and_pins() {
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("ha_top", &lib);
        let a = b.input("a");
        let c = b.input("b");
        let (s, carry) = b.ha(a, c);
        b.output_bus("out", &[s, carry]);
        let m = b.finish();
        let v = to_verilog(&m, &lib);
        assert!(v.contains("module ha_top"));
        assert!(v.contains("input a;"));
        assert!(v.contains("HAX1"));
        assert!(v.contains(".s("));
        assert!(v.contains("endmodule"));
        // Bus bits become escaped identifiers.
        assert!(v.contains("\\out[0] "));
    }
}
