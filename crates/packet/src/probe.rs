//! Unified probe construction, target-side reply synthesis, and worker-side
//! reply attribution across all supported protocols.

use std::net::IpAddr;
use std::sync::Arc;

use bytes::Bytes;
use serde::{Deserialize, Serialize};

use crate::{dns, icmp, tcp, udp, PacketError};

/// Probing protocols supported by LACeS (paper §4.1.3, R4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Protocol {
    /// ICMP echo (ping).
    Icmp,
    /// TCP SYN/ACK to a high port, eliciting a stateless RST.
    Tcp,
    /// UDP/DNS A (v4) or AAAA (v6) query.
    Udp,
    /// UDP/DNS CHAOS-class TXT `hostname.bind` query (RFC 4892).
    Chaos,
}

impl Protocol {
    /// All census protocols (excludes CHAOS, which is a validation aid).
    pub const CENSUS: [Protocol; 3] = [Protocol::Icmp, Protocol::Tcp, Protocol::Udp];

    /// Short name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Protocol::Icmp => "ICMP",
            Protocol::Tcp => "TCP",
            Protocol::Udp => "UDP",
            Protocol::Chaos => "CHAOS",
        }
    }
}

impl std::fmt::Display for Protocol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// IP version of a measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum IpVersion {
    /// IPv4 (census granularity /24).
    V4,
    /// IPv6 (census granularity /48).
    V6,
}

impl IpVersion {
    /// The version of a concrete address.
    pub fn of(addr: IpAddr) -> Self {
        if addr.is_ipv4() {
            IpVersion::V4
        } else {
            IpVersion::V6
        }
    }

    /// Protocol label as used in the paper ("ICMPv4", "TCPv6", ...).
    pub fn suffix(self) -> &'static str {
        match self {
            IpVersion::V4 => "v4",
            IpVersion::V6 => "v6",
        }
    }
}

/// Metadata attached to every probe so that replies can be attributed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProbeMeta {
    /// Identifies the measurement run; replies from other runs are discarded.
    pub measurement_id: u32,
    /// The worker that transmitted the probe.
    pub worker_id: u16,
    /// Virtual transmit time in milliseconds since measurement epoch.
    pub tx_time_ms: u64,
}

/// How probe packets vary across workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProbeEncoding {
    /// Regular operation: payload/qname/ack vary per worker and instant.
    PerWorker,
    /// §5.1.4 load-balancer experiment: all workers send byte-identical
    /// probes (ICMP only; worker attribution is then impossible by design).
    Static,
}

/// A packet on the simulated wire: addresses plus serialized transport bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct Packet {
    /// Source address.
    pub src: IpAddr,
    /// Destination address.
    pub dst: IpAddr,
    /// Transport protocol of `bytes`.
    pub protocol: Protocol,
    /// Serialized transport message (ICMP message, TCP segment, or UDP
    /// datagram including its DNS payload).
    pub bytes: Bytes,
}

impl Packet {
    /// Borrow this packet as a [`PacketView`].
    pub fn view(&self) -> PacketView<'_> {
        PacketView {
            src: self.src,
            dst: self.dst,
            protocol: self.protocol,
            bytes: &self.bytes,
        }
    }
}

/// A borrowed packet: what the hot path hands around so replies can be built
/// from reused buffers without constructing a [`Packet`] first.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketView<'a> {
    /// Source address.
    pub src: IpAddr,
    /// Destination address.
    pub dst: IpAddr,
    /// Transport protocol of `bytes`.
    pub protocol: Protocol,
    /// Serialized transport message (borrowed).
    pub bytes: &'a [u8],
}

/// What a worker learns from a captured, validated reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplyInfo {
    /// Protocol the reply arrived over.
    pub protocol: Protocol,
    /// The worker that sent the eliciting probe, when recoverable
    /// (`None` under [`ProbeEncoding::Static`]).
    pub tx_worker: Option<u16>,
    /// Transmit time of the eliciting probe, when recoverable. For TCP this
    /// is reconstructed from the 26-bit truncated echo.
    pub tx_time_ms: Option<u64>,
    /// CHAOS identity string, for [`Protocol::Chaos`] replies with data.
    /// Shared (`Arc<str>`) so fan-out into records is a refcount bump, not
    /// a per-reply string clone.
    pub chaos_identity: Option<Arc<str>>,
}

/// Attribution carried alongside a simulated delivery when the wire skips
/// materializing reply bytes (the zero-copy fast path): everything
/// [`parse_reply`] would recover from the bytes, derived from the probe's
/// metadata instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreparedReply {
    /// Metadata of the eliciting probe, exactly as the probe builder would
    /// have encoded it into the wire bytes.
    pub meta: ProbeMeta,
    /// How the probe encoded attribution.
    pub encoding: ProbeEncoding,
    /// CHAOS identity the responding site would disclose (consulted only
    /// for [`Protocol::Chaos`]).
    pub chaos_identity: Option<Arc<str>>,
}

/// What [`parse_reply`] would return for the reply to a probe built from
/// `prepared` — without building or parsing any bytes.
///
/// This must stay bit-identical to
/// `parse_reply(&build_reply(&build_probe(..), ..), ..)` for every
/// protocol and encoding, including measurement-id rejection (`NotOurs`),
/// the ICMP static-encoding attribution loss, the TCP worker-id mask and
/// 26-bit timestamp reconstruction, and the 255-byte TXT truncation; the
/// `prepared_matches_wire_roundtrip` test pins the equivalence.
///
/// # Errors
///
/// [`PacketError::NotOurs`] exactly when `parse_reply` would reject the
/// materialized reply as belonging to another measurement.
pub fn attribute_prepared(
    protocol: Protocol,
    prepared: &PreparedReply,
    measurement_id: u32,
    rx_time_ms: u64,
) -> Result<ReplyInfo, PacketError> {
    let meta = &prepared.meta;
    match protocol {
        Protocol::Icmp => {
            if meta.measurement_id != measurement_id {
                return Err(PacketError::NotOurs);
            }
            // The payload decoder signals static probes via the worker-id
            // sentinel, so a per-worker probe from the (never valid)
            // sentinel worker also loses attribution.
            let attributed = prepared.encoding == ProbeEncoding::PerWorker
                && meta.worker_id != icmp::STATIC_WORKER_SENTINEL;
            Ok(ReplyInfo {
                protocol,
                tx_worker: attributed.then_some(meta.worker_id),
                tx_time_ms: attributed.then_some(meta.tx_time_ms),
                chaos_identity: None,
            })
        }
        Protocol::Tcp => {
            if !tcp::port_matches(tcp::probe_src_port(meta.measurement_id), measurement_id) {
                return Err(PacketError::NotOurs);
            }
            let (worker, truncated) = tcp::decode_ack(tcp::encode_ack(meta));
            Ok(ReplyInfo {
                protocol,
                tx_worker: Some(worker),
                tx_time_ms: Some(tcp::reconstruct_time(truncated, rx_time_ms)),
                chaos_identity: None,
            })
        }
        Protocol::Udp => {
            if !tcp::port_matches(tcp::probe_src_port(meta.measurement_id), measurement_id)
                || meta.measurement_id != measurement_id
            {
                return Err(PacketError::NotOurs);
            }
            Ok(ReplyInfo {
                protocol,
                tx_worker: Some(meta.worker_id),
                tx_time_ms: Some(meta.tx_time_ms),
                chaos_identity: None,
            })
        }
        Protocol::Chaos => {
            if !tcp::port_matches(tcp::probe_src_port(meta.measurement_id), measurement_id) {
                return Err(PacketError::NotOurs);
            }
            // The TXT writer caps the character-string at 255 bytes.
            let identity = prepared.chaos_identity.as_ref().map(|s| {
                if s.len() <= 255 {
                    Arc::clone(s)
                } else {
                    Arc::from(String::from_utf8_lossy(&s.as_bytes()[..255]).into_owned())
                }
            });
            Ok(ReplyInfo {
                protocol,
                tx_worker: Some(meta.worker_id),
                tx_time_ms: None,
                chaos_identity: identity,
            })
        }
    }
}

/// Build a probe packet for any protocol.
///
/// For [`Protocol::Udp`] the query type follows the destination's address
/// family (A for IPv4, AAAA for IPv6).
pub fn build_probe(
    src: IpAddr,
    dst: IpAddr,
    protocol: Protocol,
    meta: &ProbeMeta,
    encoding: ProbeEncoding,
) -> Packet {
    let mut bytes = Vec::new();
    build_probe_into(src, dst, protocol, meta, encoding, &mut bytes);
    Packet {
        src,
        dst,
        protocol,
        bytes: Bytes::from(bytes),
    }
}

/// [`build_probe`] into a reusable buffer: `out` is cleared and refilled
/// with the transport bytes, so a worker's steady state allocates nothing
/// per probe.
pub fn build_probe_into(
    src: IpAddr,
    dst: IpAddr,
    protocol: Protocol,
    meta: &ProbeMeta,
    encoding: ProbeEncoding,
    out: &mut Vec<u8>,
) {
    match protocol {
        Protocol::Icmp => icmp::build_echo_request_into(src, dst, meta, encoding, out),
        Protocol::Tcp => tcp::build_probe_into(src, dst, meta, out),
        Protocol::Udp => {
            let qtype = if dst.is_ipv4() {
                dns::TYPE_A
            } else {
                dns::TYPE_AAAA
            };
            udp::build_into_with(
                src,
                dst,
                tcp::probe_src_port(meta.measurement_id),
                udp::DNS_PORT,
                out,
                |buf| dns::write_probe_query(meta, qtype, buf),
            );
        }
        Protocol::Chaos => {
            udp::build_into_with(
                src,
                dst,
                tcp::probe_src_port(meta.measurement_id),
                udp::DNS_PORT,
                out,
                |buf| dns::write_chaos_query(meta.worker_id, buf),
            );
        }
    }
}

/// Synthesize the reply a responsive target produces for `probe`.
///
/// `chaos_identity` is the site-identity TXT value a DNS server at the
/// responding site would disclose; it is only consulted for CHAOS probes.
/// Returns an error when the probe bytes do not parse (a real host would
/// silently drop such a packet).
pub fn build_reply(probe: &Packet, chaos_identity: Option<&str>) -> Result<Packet, PacketError> {
    let mut bytes = Vec::new();
    build_reply_into(&probe.view(), chaos_identity, &mut bytes)?;
    Ok(Packet {
        src: probe.dst,
        dst: probe.src,
        protocol: probe.protocol,
        bytes: Bytes::from(bytes),
    })
}

/// [`build_reply`] into a reusable buffer: on success `out` holds the reply's
/// transport bytes (the reply travels `probe.dst -> probe.src`).
pub fn build_reply_into(
    probe: &PacketView<'_>,
    chaos_identity: Option<&str>,
    out: &mut Vec<u8>,
) -> Result<(), PacketError> {
    match probe.protocol {
        Protocol::Icmp => {
            let req = icmp::parse_view(probe.src, probe.dst, probe.bytes)?;
            if !req.is_request() {
                return Err(PacketError::Malformed {
                    what: "ICMP reply to a non-request",
                });
            }
            icmp::build_echo_reply_into(probe.src, probe.dst, &req, out);
        }
        Protocol::Tcp => {
            let seg = tcp::parse(probe.src, probe.dst, probe.bytes)?;
            if !seg.is_syn_ack() {
                return Err(PacketError::Malformed {
                    what: "TCP reply to a non-SYN/ACK",
                });
            }
            tcp::build_rst_reply_into(probe.src, probe.dst, &seg, out);
        }
        Protocol::Udp | Protocol::Chaos => {
            let dgram = udp::parse_view(probe.src, probe.dst, probe.bytes)?;
            let query = dns::parse(dgram.payload)?;
            let q = query.question().ok_or(PacketError::Malformed {
                what: "DNS query without question",
            })?;
            let answer = match probe.protocol {
                Protocol::Udp => match q.qtype {
                    dns::TYPE_A => Some(dns::DnsAnswerRef::A("192.0.2.1".parse().unwrap())),
                    dns::TYPE_AAAA => Some(dns::DnsAnswerRef::Aaaa("2001:db8::1".parse().unwrap())),
                    _ => None,
                },
                Protocol::Chaos => chaos_identity.map(dns::DnsAnswerRef::Txt),
                _ => unreachable!(),
            };
            udp::build_into_with(
                probe.dst,
                probe.src,
                dgram.dst_port,
                dgram.src_port,
                out,
                |buf| dns::write_response(&query, answer, buf),
            );
        }
    }
    Ok(())
}

/// Validate a captured reply and attribute it to the probe that elicited it.
///
/// `rx_time_ms` is the capture time, needed to reconstruct TCP's truncated
/// timestamp. Replies from other measurements yield [`PacketError::NotOurs`].
pub fn parse_reply(
    reply: &Packet,
    measurement_id: u32,
    rx_time_ms: u64,
) -> Result<ReplyInfo, PacketError> {
    match reply.protocol {
        Protocol::Icmp => {
            let msg = icmp::parse(reply.src, reply.dst, &reply.bytes)?;
            if !msg.is_reply() {
                return Err(PacketError::NotOurs);
            }
            if msg.ident != icmp::ECHO_IDENT {
                return Err(PacketError::NotOurs);
            }
            let (mid, worker, tx) = icmp::decode_payload(&msg.payload)?;
            if mid != measurement_id {
                return Err(PacketError::NotOurs);
            }
            Ok(ReplyInfo {
                protocol: Protocol::Icmp,
                tx_worker: worker,
                tx_time_ms: tx,
                chaos_identity: None,
            })
        }
        Protocol::Tcp => {
            let seg = tcp::parse(reply.src, reply.dst, &reply.bytes)?;
            if !seg.is_rst() {
                return Err(PacketError::NotOurs);
            }
            if !tcp::port_matches(seg.dst_port, measurement_id)
                || seg.src_port != tcp::PROBE_DST_PORT
            {
                return Err(PacketError::NotOurs);
            }
            let (worker, truncated) = tcp::decode_ack(seg.seq);
            Ok(ReplyInfo {
                protocol: Protocol::Tcp,
                tx_worker: Some(worker),
                tx_time_ms: Some(tcp::reconstruct_time(truncated, rx_time_ms)),
                chaos_identity: None,
            })
        }
        Protocol::Udp => {
            let dgram = udp::parse(reply.src, reply.dst, &reply.bytes)?;
            if !tcp::port_matches(dgram.dst_port, measurement_id) {
                return Err(PacketError::NotOurs);
            }
            let msg = dns::parse(&dgram.payload)?;
            if !msg.is_response {
                return Err(PacketError::NotOurs);
            }
            let q = msg.question().ok_or(PacketError::NotOurs)?;
            let meta = dns::parse_probe_qname(&q.qname)?;
            if meta.measurement_id != measurement_id {
                return Err(PacketError::NotOurs);
            }
            Ok(ReplyInfo {
                protocol: Protocol::Udp,
                tx_worker: Some(meta.worker_id),
                tx_time_ms: Some(meta.tx_time_ms),
                chaos_identity: None,
            })
        }
        Protocol::Chaos => {
            let dgram = udp::parse(reply.src, reply.dst, &reply.bytes)?;
            if !tcp::port_matches(dgram.dst_port, measurement_id) {
                return Err(PacketError::NotOurs);
            }
            let msg = dns::parse(&dgram.payload)?;
            if !msg.is_response {
                return Err(PacketError::NotOurs);
            }
            let identity = msg
                .answers
                .iter()
                .find(|rr| rr.rtype == dns::TYPE_TXT)
                .and_then(|rr| rr.txt_strings().into_iter().next());
            Ok(ReplyInfo {
                protocol: Protocol::Chaos,
                tx_worker: Some(msg.id),
                tx_time_ms: None,
                chaos_identity: identity.map(Arc::from),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MID: u32 = 314;

    fn meta(worker: u16, t: u64) -> ProbeMeta {
        ProbeMeta {
            measurement_id: MID,
            worker_id: worker,
            tx_time_ms: t,
        }
    }

    fn v4() -> (IpAddr, IpAddr) {
        (
            "192.0.2.10".parse().unwrap(),
            "198.51.100.20".parse().unwrap(),
        )
    }

    fn v6() -> (IpAddr, IpAddr) {
        (
            "2001:db8:1::1".parse().unwrap(),
            "2001:db8:2::2".parse().unwrap(),
        )
    }

    #[test]
    fn full_cycle_icmp_v4_and_v6() {
        for (src, dst) in [v4(), v6()] {
            let probe = build_probe(
                src,
                dst,
                Protocol::Icmp,
                &meta(5, 1000),
                ProbeEncoding::PerWorker,
            );
            let reply = build_reply(&probe, None).unwrap();
            assert_eq!(reply.src, dst);
            assert_eq!(reply.dst, src);
            let info = parse_reply(&reply, MID, 1050).unwrap();
            assert_eq!(info.tx_worker, Some(5));
            assert_eq!(info.tx_time_ms, Some(1000));
        }
    }

    #[test]
    fn full_cycle_tcp() {
        for (src, dst) in [v4(), v6()] {
            let probe = build_probe(
                src,
                dst,
                Protocol::Tcp,
                &meta(9, 123_456),
                ProbeEncoding::PerWorker,
            );
            let reply = build_reply(&probe, None).unwrap();
            let info = parse_reply(&reply, MID, 123_500).unwrap();
            assert_eq!(info.tx_worker, Some(9));
            assert_eq!(info.tx_time_ms, Some(123_456));
        }
    }

    #[test]
    fn full_cycle_udp_dns() {
        for (src, dst) in [v4(), v6()] {
            let probe = build_probe(
                src,
                dst,
                Protocol::Udp,
                &meta(2, 42),
                ProbeEncoding::PerWorker,
            );
            let reply = build_reply(&probe, None).unwrap();
            let info = parse_reply(&reply, MID, 99).unwrap();
            assert_eq!(info.tx_worker, Some(2));
            assert_eq!(info.tx_time_ms, Some(42));
        }
    }

    #[test]
    fn full_cycle_chaos_with_identity() {
        let (src, dst) = v4();
        let probe = build_probe(
            src,
            dst,
            Protocol::Chaos,
            &meta(11, 0),
            ProbeEncoding::PerWorker,
        );
        let reply = build_reply(&probe, Some("ams1.ns.example")).unwrap();
        let info = parse_reply(&reply, MID, 10).unwrap();
        assert_eq!(info.tx_worker, Some(11));
        assert_eq!(info.chaos_identity.as_deref(), Some("ams1.ns.example"));
    }

    #[test]
    fn chaos_without_identity_yields_no_string() {
        let (src, dst) = v4();
        let probe = build_probe(
            src,
            dst,
            Protocol::Chaos,
            &meta(1, 0),
            ProbeEncoding::PerWorker,
        );
        let reply = build_reply(&probe, None).unwrap();
        let info = parse_reply(&reply, MID, 10).unwrap();
        assert_eq!(info.chaos_identity, None);
    }

    #[test]
    fn wrong_measurement_id_is_rejected() {
        let (src, dst) = v4();
        for proto in [Protocol::Icmp, Protocol::Tcp, Protocol::Udp] {
            let probe = build_probe(src, dst, proto, &meta(1, 5), ProbeEncoding::PerWorker);
            let reply = build_reply(&probe, None).unwrap();
            assert!(
                matches!(parse_reply(&reply, MID + 1, 10), Err(PacketError::NotOurs)),
                "{proto} reply accepted for wrong measurement"
            );
        }
    }

    #[test]
    fn probe_itself_is_not_a_valid_reply() {
        let (src, dst) = v4();
        for proto in [Protocol::Icmp, Protocol::Tcp] {
            let probe = build_probe(src, dst, proto, &meta(1, 5), ProbeEncoding::PerWorker);
            assert!(
                parse_reply(&probe, MID, 10).is_err(),
                "{proto} probe parsed as reply"
            );
        }
    }

    #[test]
    fn static_encoding_loses_attribution_but_keeps_measurement() {
        let (src, dst) = v4();
        let probe = build_probe(
            src,
            dst,
            Protocol::Icmp,
            &meta(7, 999),
            ProbeEncoding::Static,
        );
        let reply = build_reply(&probe, None).unwrap();
        let info = parse_reply(&reply, MID, 1000).unwrap();
        assert_eq!(info.tx_worker, None);
        assert_eq!(info.tx_time_ms, None);
    }

    #[test]
    fn udp_probe_uses_aaaa_for_v6() {
        let (src, dst) = v6();
        let probe = build_probe(
            src,
            dst,
            Protocol::Udp,
            &meta(1, 1),
            ProbeEncoding::PerWorker,
        );
        let dgram = udp::parse(src, dst, &probe.bytes).unwrap();
        let msg = dns::parse(&dgram.payload).unwrap();
        assert_eq!(msg.question().unwrap().qtype, dns::TYPE_AAAA);
    }

    #[test]
    fn prepared_matches_wire_roundtrip() {
        // The zero-copy fast path must agree with the byte round-trip on
        // every (protocol, encoding, measurement-id, identity) combination,
        // including rejections.
        let (src, dst) = v4();
        let identities: [Option<&str>; 3] = [None, Some("ams1.ns.example"), Some("")];
        for proto in [
            Protocol::Icmp,
            Protocol::Tcp,
            Protocol::Udp,
            Protocol::Chaos,
        ] {
            for encoding in [ProbeEncoding::PerWorker, ProbeEncoding::Static] {
                for worker in [0u16, 7, icmp::STATIC_WORKER_SENTINEL] {
                    for expected in [MID, MID + 1, MID + 65_536] {
                        for identity in identities {
                            let m = ProbeMeta {
                                measurement_id: MID,
                                worker_id: worker,
                                tx_time_ms: 123_456,
                            };
                            let probe = build_probe(src, dst, proto, &m, encoding);
                            let reply = build_reply(&probe, identity).unwrap();
                            let via_bytes = parse_reply(&reply, expected, 123_999);
                            let prepared = PreparedReply {
                                meta: m,
                                encoding,
                                chaos_identity: identity.map(Arc::from),
                            };
                            let via_meta = attribute_prepared(proto, &prepared, expected, 123_999);
                            match (via_bytes, via_meta) {
                                (Ok(a), Ok(b)) => assert_eq!(a, b, "{proto} {encoding:?}"),
                                (Err(_), Err(_)) => {}
                                (a, b) => {
                                    panic!("fast path diverged for {proto} {encoding:?}: bytes={a:?} meta={b:?}")
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn prepared_reconstructs_tcp_time_across_wrap() {
        // rx far from tx exercises the 26-bit reconstruction identically.
        let m = ProbeMeta {
            measurement_id: MID,
            worker_id: 3,
            tx_time_ms: (1u64 << 26) - 10,
        };
        let (src, dst) = v4();
        let probe = build_probe(src, dst, Protocol::Tcp, &m, ProbeEncoding::PerWorker);
        let reply = build_reply(&probe, None).unwrap();
        let rx = (1u64 << 26) + 5;
        let a = parse_reply(&reply, MID, rx).unwrap();
        let prepared = PreparedReply {
            meta: m,
            encoding: ProbeEncoding::PerWorker,
            chaos_identity: None,
        };
        let b = attribute_prepared(Protocol::Tcp, &prepared, MID, rx).unwrap();
        assert_eq!(a, b);
        assert_eq!(b.tx_time_ms, Some(m.tx_time_ms));
    }

    #[test]
    fn protocol_names_match_paper() {
        assert_eq!(Protocol::Icmp.to_string(), "ICMP");
        assert_eq!(Protocol::Udp.name(), "UDP");
        assert_eq!(Protocol::CENSUS.len(), 3);
    }
}
