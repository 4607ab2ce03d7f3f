//! Latency-based (GCD) anycast detection — the iGreedy methodology inside
//! LACeS.
//!
//! A target probed from many geographically dispersed unicast vantage
//! points yields one feasibility disk per RTT sample; disjoint disks are a
//! *speed-of-light violation* proving the address is served from multiple
//! locations. This crate provides:
//!
//! * [`enumerate`](mod@enumerate) — the violation test, the greedy independent-disk site
//!   enumeration, and population-based geolocation (fast enough to run
//!   daily, unlike the original iGreedy);
//! * [`engine`] — measurement campaigns from a VP platform (Ark- or
//!   Atlas-like) over a target list, with per-VP availability, an optional
//!   single-VP responsiveness precheck, and multi-threaded probing;
//! * [`vp_selection`] — the minimum-inter-VP-distance selection used for
//!   the RIPE Atlas comparison.
//!
//! GCD is *sound* (the simulator's latency model never lets an RTT beat
//! light in fibre, so a violation is always real anycast) but *incomplete*:
//! regional anycast whose sites sit inside each other's blur radius is
//! invisible — exactly the false-negative behaviour the paper reports.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use laces_gcd::engine::{run_campaign, GcdClass, GcdConfig};
//! use laces_netsim::{World, WorldConfig};
//! use laces_packet::PrefixKey;
//!
//! let world = Arc::new(World::generate(WorldConfig::tiny()));
//! let targets: Vec<std::net::IpAddr> = world.targets[..50]
//!     .iter()
//!     .filter_map(|t| match t.prefix {
//!         PrefixKey::V4(p) => Some(std::net::IpAddr::V4(p.addr(77))),
//!         _ => None,
//!     })
//!     .collect();
//! let report = run_campaign(
//!     &world,
//!     world.std_platforms.ark,
//!     &targets,
//!     &GcdConfig::daily(900, 0),
//! )
//! .expect("unicast VP platform");
//! println!("{} anycast, {} probes", report.count(GcdClass::Anycast), report.probes_sent);
//! ```

#![forbid(unsafe_code)]

pub mod engine;
pub mod enumerate;
pub mod geometry;
pub mod vp_selection;

pub use engine::{run_campaign, run_campaign_reference, GcdClass, GcdConfig, GcdReport, PrefixGcd};
pub use enumerate::{
    enumerate, enumerate_counted, enumerate_counted_memo, enumerate_counted_reference,
    has_violation, Enumeration, RttSample, SiteEstimate,
};
pub use geometry::VpGeometry;
pub use vp_selection::{select_by_distance, select_by_distance_with};
