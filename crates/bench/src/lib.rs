//! Experiment harness: one function per paper table/figure, a registry for
//! the `experiment` and `run_all` binaries, and the shared artifact cache.
//!
//! Run a single experiment:
//!
//! ```text
//! LACES_SCALE=mid cargo run --release -p laces-bench --bin experiment -- t2
//! ```
//!
//! Regenerate everything (writes `EXPERIMENTS.md`):
//!
//! ```text
//! cargo run --release -p laces-bench --bin run_all
//! ```

#![forbid(unsafe_code)]

pub mod artifacts;
pub mod extras;
pub mod figures;
pub mod report;
pub mod tables;

pub use artifacts::{Artifacts, Scale};
pub use report::Report;

/// An experiment: id and the function that produces its report.
pub type Experiment = (&'static str, &'static str, fn(&Artifacts) -> Report);

/// Every experiment, in presentation order.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        ("t1", "Table 1: measurement platforms", tables::t1),
        ("t2", "Table 2: anycast-based vs GCD_Ark", tables::t2),
        ("t3", "Table 3: agreement by receiving-VP count", tables::t3),
        (
            "t4",
            "Table 4: replicability (ccTLD deployment)",
            tables::t4,
        ),
        ("t5", "Table 5: deployment-size sweep", tables::t5),
        (
            "t6",
            "Table 6: largest anycast-originating ASes",
            tables::t6,
        ),
        ("t7", "Table 7: BGPTools prefix-size breakdown", tables::t7),
        ("f4", "Figure 4: FPs vs inter-probe interval", figures::f4),
        (
            "f5",
            "Figure 5: site enumeration, Ark vs Atlas",
            figures::f5,
        ),
        ("f6", "Figure 6: protocol intersections, IPv4", figures::f6),
        ("f7", "Figure 7: protocol intersections, IPv6", figures::f7),
        ("f8", "Figure 8: Atlas inter-VP distance sweep", figures::f8),
        ("f9", "Figure 9: Ark 163 vs 227 VPs", figures::f9),
        ("f10", "Figure 10: CHAOS comparison", figures::f10),
        (
            "longitudinal",
            "§5.1.6: longitudinal precision",
            extras::longitudinal,
        ),
        ("rate", "§5.5.2: reduced probing rate", extras::rate),
        (
            "partial",
            "§5.6: partial anycast + BGP aggregation",
            extras::partial,
        ),
        (
            "loadbalancer",
            "§5.1.4: load-balancer control",
            extras::loadbalancer,
        ),
        ("gcd-udp", "§6 extension: GCD over UDP/DNS", extras::gcd_udp),
        (
            "baselines",
            "baseline detection shoot-out",
            extras::baselines_cmp,
        ),
        ("geoloc", "§5.8.1: geolocation accuracy", extras::geoloc),
    ]
}

/// Find an experiment by id.
pub fn find(id: &str) -> Option<Experiment> {
    all_experiments().into_iter().find(|(eid, _, _)| *eid == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique() {
        let mut ids: Vec<&str> = all_experiments().iter().map(|(id, _, _)| *id).collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n);
        assert_eq!(n, 21);
    }

    #[test]
    fn find_resolves_known_and_rejects_unknown() {
        assert!(find("t2").is_some());
        assert!(find("f10").is_some());
        assert!(find("nope").is_none());
    }

    /// Smoke-test the entire experiment suite on the tiny world. This keeps
    /// every experiment's code path exercised in `cargo test`; the
    /// numbers only become meaningful at paper scale.
    #[test]
    fn all_experiments_run_on_tiny_world() {
        let a = Artifacts::new(Scale::Tiny);
        std::env::set_var("LACES_DAYS", "3");
        for (id, _, f) in all_experiments() {
            let report = f(&a);
            assert_eq!(report.id, id);
            assert!(!report.body.is_empty(), "{id} produced an empty report");
        }
    }
}
