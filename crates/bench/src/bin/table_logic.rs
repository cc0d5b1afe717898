//! Prints **Tables 1 and 2** — the pre-scheduling logic and SL-cell truth
//! tables — as evaluated by the implementation, for comparison against the
//! paper. (The unit tests `table1_exhaustive` / `table2_exhaustive` verify
//! them mechanically; this binary renders them.)

use pms_sched::{presched_case, sl_cell, CellAction, CellInput};

fn b(x: bool) -> &'static str {
    if x {
        "1"
    } else {
        "0"
    }
}

fn main() {
    pms_trace::cli::parse_env("usage: table_logic (no arguments)", |_| Ok(()));
    println!("Table 1: pre-scheduling logic (R, B*, B^(s)) -> L");
    println!("{:>3} {:>4} {:>6} {:>3}  case", "R", "B*", "B^(s)", "L");
    for r in [false, true] {
        for b_star in [false, true] {
            for b_s in [false, true] {
                if b_s && !b_star {
                    continue; // violates B* = OR(B^(i))
                }
                let case = presched_case(r, b_star, b_s);
                println!(
                    "{:>3} {:>4} {:>6} {:>3}  {case:?}",
                    b(r),
                    b(b_star),
                    b(b_s),
                    b(case.l()),
                );
            }
        }
    }

    println!();
    println!("Table 2: SL cell (L, A, D | B^(s)) -> (T, A', D')");
    println!(
        "{:>3} {:>3} {:>3} {:>6} {:>3} {:>4} {:>4}  action",
        "L", "A", "D", "B^(s)", "T", "A'", "D'"
    );
    for l in [false, true] {
        for a in [false, true] {
            for d in [false, true] {
                for b_s in [false, true] {
                    // Skip physically impossible ripple states for brevity:
                    // a set register bit forces both ripples high at entry.
                    if b_s && !(a && d) {
                        continue;
                    }
                    let out = sl_cell(CellInput { l, a, d, b_s });
                    let note = match (out.action, b_s) {
                        (CellAction::Denied, true) => " (erratum guard: no spurious toggle)",
                        _ => "",
                    };
                    println!(
                        "{:>3} {:>3} {:>3} {:>6} {:>3} {:>4} {:>4}  {:?}{note}",
                        b(l),
                        b(a),
                        b(d),
                        b(b_s),
                        b(out.t),
                        b(out.a_next),
                        b(out.d_next),
                        out.action,
                    );
                }
            }
        }
    }
    println!();
    println!(
        "note: the (L,A,D)=(1,1,1) row releases only when the co-located\n\
         register bit is set; an establish request with both ports busy is\n\
         denied instead of corrupting B^(s) (see pms-sched::slcell docs)."
    );
}
