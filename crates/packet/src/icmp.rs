//! ICMPv4 and ICMPv6 echo messages with LACeS probe payloads.
//!
//! The probe payload carries a magic tag, the measurement id, the sending
//! worker's id, and the transmit timestamp. Echo replies copy the payload
//! verbatim, so the capturing worker can attribute every reply to the worker
//! and instant that elicited it (§4.1.2 of the paper).

use std::net::IpAddr;

use crate::checksum;
use crate::probe::{ProbeEncoding, ProbeMeta};
use crate::PacketError;

/// ICMPv4 echo request type.
pub const V4_ECHO_REQUEST: u8 = 8;
/// ICMPv4 echo reply type.
pub const V4_ECHO_REPLY: u8 = 0;
/// ICMPv6 echo request type.
pub const V6_ECHO_REQUEST: u8 = 128;
/// ICMPv6 echo reply type.
pub const V6_ECHO_REPLY: u8 = 129;

/// Magic prefix identifying a LACeS probe payload.
pub const PAYLOAD_MAGIC: &[u8; 4] = b"LACS";
/// Payload layout version.
pub const PAYLOAD_VERSION: u8 = 1;
/// Total payload length: magic(4) + version(1) + measurement(4) + worker(2) + time(8).
pub const PAYLOAD_LEN: usize = 19;

/// Identifier used for every LACeS echo request.
pub const ECHO_IDENT: u16 = 0xACCA;

/// Worker-id sentinel written under [`ProbeEncoding::Static`]: real worker
/// ids are small, so this value unambiguously marks attribution-free probes.
pub const STATIC_WORKER_SENTINEL: u16 = 0xFFFF;

/// A parsed ICMP echo message (either family; the family is a property of
/// the enclosing [`Packet`](crate::probe::Packet), not of the ICMP body).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IcmpEcho {
    /// ICMP type octet.
    pub icmp_type: u8,
    /// Identifier field.
    pub ident: u16,
    /// Sequence number field.
    pub seq: u16,
    /// Echo payload.
    pub payload: Vec<u8>,
}

impl IcmpEcho {
    /// Whether this is an echo request (either family).
    pub fn is_request(&self) -> bool {
        self.icmp_type == V4_ECHO_REQUEST || self.icmp_type == V6_ECHO_REQUEST
    }

    /// Whether this is an echo reply (either family).
    pub fn is_reply(&self) -> bool {
        self.icmp_type == V4_ECHO_REPLY || self.icmp_type == V6_ECHO_REPLY
    }
}

/// Append the echo payload for `meta` to `out` (no intermediate allocation).
pub fn encode_payload_into(meta: &ProbeMeta, encoding: ProbeEncoding, out: &mut Vec<u8>) {
    let start = out.len();
    out.extend_from_slice(PAYLOAD_MAGIC);
    out.push(PAYLOAD_VERSION);
    out.extend_from_slice(&meta.measurement_id.to_be_bytes());
    match encoding {
        ProbeEncoding::PerWorker => {
            out.extend_from_slice(&meta.worker_id.to_be_bytes());
            out.extend_from_slice(&meta.tx_time_ms.to_be_bytes());
        }
        ProbeEncoding::Static => {
            // §5.1.4 load-balancer experiment: every worker sends byte-for-byte
            // identical probes, so neither worker id nor timestamp may vary.
            out.extend_from_slice(&STATIC_WORKER_SENTINEL.to_be_bytes());
            out.extend_from_slice(&0u64.to_be_bytes());
        }
    }
    debug_assert_eq!(out.len() - start, PAYLOAD_LEN);
}

/// Recover probe metadata from an echoed payload.
pub fn decode_payload(payload: &[u8]) -> Result<(u32, Option<u16>, Option<u64>), PacketError> {
    if payload.len() < PAYLOAD_LEN {
        return Err(PacketError::Truncated {
            what: "LACeS payload",
            need: PAYLOAD_LEN,
            have: payload.len(),
        });
    }
    if &payload[0..4] != PAYLOAD_MAGIC {
        return Err(PacketError::NotOurs);
    }
    if payload[4] != PAYLOAD_VERSION {
        return Err(PacketError::Malformed {
            what: "unknown LACeS payload version",
        });
    }
    let measurement_id = u32::from_be_bytes(payload[5..9].try_into().unwrap());
    let worker_id = u16::from_be_bytes(payload[9..11].try_into().unwrap());
    let tx_time = u64::from_be_bytes(payload[11..19].try_into().unwrap());
    if worker_id == STATIC_WORKER_SENTINEL {
        // Static encoding: attribution information intentionally absent.
        Ok((measurement_id, None, None))
    } else {
        Ok((measurement_id, Some(worker_id), Some(tx_time)))
    }
}

/// Build an echo request carrying `meta`, checksummed for the given address
/// family (`src`/`dst` are needed for the ICMPv6 pseudo-header).
pub fn build_echo_request(
    src: IpAddr,
    dst: IpAddr,
    meta: &ProbeMeta,
    encoding: ProbeEncoding,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + PAYLOAD_LEN);
    build_echo_request_into(src, dst, meta, encoding, &mut out);
    out
}

/// [`build_echo_request`] into a reusable buffer: `out` is cleared and
/// refilled; the steady state allocates nothing.
pub fn build_echo_request_into(
    src: IpAddr,
    dst: IpAddr,
    meta: &ProbeMeta,
    encoding: ProbeEncoding,
    out: &mut Vec<u8>,
) {
    let seq = match encoding {
        // The sequence number also varies per worker, mimicking a ping train
        // (the paper's synchronized probing looks like one ping per second
        // from the target's perspective).
        ProbeEncoding::PerWorker => meta.worker_id,
        ProbeEncoding::Static => 0,
    };
    let req_type = if src.is_ipv4() {
        V4_ECHO_REQUEST
    } else {
        V6_ECHO_REQUEST
    };
    write_header(req_type, ECHO_IDENT, seq, out);
    encode_payload_into(meta, encoding, out);
    patch_checksum(src, dst, out);
}

/// Build the echo reply a responsive target produces for `request`.
///
/// Per RFC 792 / RFC 4443, the identifier, sequence number, and payload are
/// copied verbatim; only the type changes and the checksum is recomputed
/// (with source and destination swapped for the v6 pseudo-header).
pub fn build_echo_reply(req_src: IpAddr, req_dst: IpAddr, request: &IcmpEcho) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + request.payload.len());
    build_echo_reply_into(req_src, req_dst, &request.view(), &mut out);
    out
}

/// [`build_echo_reply`] into a reusable buffer from a borrowed request view.
pub fn build_echo_reply_into(
    req_src: IpAddr,
    req_dst: IpAddr,
    request: &IcmpEchoView<'_>,
    out: &mut Vec<u8>,
) {
    let reply_type = if req_src.is_ipv4() {
        V4_ECHO_REPLY
    } else {
        V6_ECHO_REPLY
    };
    write_header(reply_type, request.ident, request.seq, out);
    out.extend_from_slice(request.payload);
    patch_checksum(req_dst, req_src, out);
}

fn write_header(icmp_type: u8, ident: u16, seq: u16, out: &mut Vec<u8>) {
    out.clear();
    out.push(icmp_type);
    out.push(0); // code
    out.extend_from_slice(&[0, 0]); // checksum placeholder
    out.extend_from_slice(&ident.to_be_bytes());
    out.extend_from_slice(&seq.to_be_bytes());
}

fn patch_checksum(src: IpAddr, dst: IpAddr, buf: &mut [u8]) {
    let ck = if src.is_ipv4() {
        checksum::internet_checksum(buf)
    } else {
        checksum::pseudo_header_checksum(src, dst, 58, buf)
    };
    buf[2..4].copy_from_slice(&ck.to_be_bytes());
}

/// A parsed ICMP echo message borrowing its payload from the packet bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IcmpEchoView<'a> {
    /// ICMP type octet.
    pub icmp_type: u8,
    /// Identifier field.
    pub ident: u16,
    /// Sequence number field.
    pub seq: u16,
    /// Echo payload (borrowed).
    pub payload: &'a [u8],
}

impl IcmpEchoView<'_> {
    /// Whether this is an echo request (either family).
    pub fn is_request(&self) -> bool {
        self.icmp_type == V4_ECHO_REQUEST || self.icmp_type == V6_ECHO_REQUEST
    }

    /// Whether this is an echo reply (either family).
    pub fn is_reply(&self) -> bool {
        self.icmp_type == V4_ECHO_REPLY || self.icmp_type == V6_ECHO_REPLY
    }
}

impl IcmpEcho {
    /// Borrow this message as an [`IcmpEchoView`].
    pub fn view(&self) -> IcmpEchoView<'_> {
        IcmpEchoView {
            icmp_type: self.icmp_type,
            ident: self.ident,
            seq: self.seq,
            payload: &self.payload,
        }
    }
}

/// Parse and checksum-verify an ICMP message.
pub fn parse(src: IpAddr, dst: IpAddr, bytes: &[u8]) -> Result<IcmpEcho, PacketError> {
    parse_view(src, dst, bytes).map(|v| IcmpEcho {
        icmp_type: v.icmp_type,
        ident: v.ident,
        seq: v.seq,
        payload: v.payload.to_vec(),
    })
}

/// [`parse`] without copying the payload out of `bytes`.
pub fn parse_view<'a>(
    src: IpAddr,
    dst: IpAddr,
    bytes: &'a [u8],
) -> Result<IcmpEchoView<'a>, PacketError> {
    if bytes.len() < 8 {
        return Err(PacketError::Truncated {
            what: "ICMP header",
            need: 8,
            have: bytes.len(),
        });
    }
    let ok = if src.is_ipv4() {
        checksum::verify(bytes)
    } else {
        checksum::pseudo_header_checksum(src, dst, 58, bytes) == 0
    };
    if !ok {
        return Err(PacketError::BadChecksum { what: "ICMP" });
    }
    let icmp_type = bytes[0];
    if bytes[1] != 0 {
        return Err(PacketError::Malformed {
            what: "nonzero ICMP code",
        });
    }
    Ok(IcmpEchoView {
        icmp_type,
        ident: u16::from_be_bytes(bytes[4..6].try_into().unwrap()),
        seq: u16::from_be_bytes(bytes[6..8].try_into().unwrap()),
        payload: &bytes[8..],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC4: &str = "192.0.2.1";
    const DST4: &str = "198.51.100.7";
    const SRC6: &str = "2001:db8::1";
    const DST6: &str = "2001:db8:ffff::7";

    fn meta() -> ProbeMeta {
        ProbeMeta {
            measurement_id: 42,
            worker_id: 17,
            tx_time_ms: 1_234_567,
        }
    }

    #[test]
    fn v4_request_roundtrip() {
        let src: IpAddr = SRC4.parse().unwrap();
        let dst: IpAddr = DST4.parse().unwrap();
        let bytes = build_echo_request(src, dst, &meta(), ProbeEncoding::PerWorker);
        let msg = parse(src, dst, &bytes).unwrap();
        assert!(msg.is_request());
        assert_eq!(msg.ident, ECHO_IDENT);
        assert_eq!(msg.seq, 17);
        let (m, w, t) = decode_payload(&msg.payload).unwrap();
        assert_eq!((m, w, t), (42, Some(17), Some(1_234_567)));
    }

    #[test]
    fn v6_request_roundtrip() {
        let src: IpAddr = SRC6.parse().unwrap();
        let dst: IpAddr = DST6.parse().unwrap();
        let bytes = build_echo_request(src, dst, &meta(), ProbeEncoding::PerWorker);
        let msg = parse(src, dst, &bytes).unwrap();
        assert!(msg.is_request());
        let (m, w, t) = decode_payload(&msg.payload).unwrap();
        assert_eq!((m, w, t), (42, Some(17), Some(1_234_567)));
    }

    #[test]
    fn reply_echoes_payload_and_flips_type() {
        let src: IpAddr = SRC4.parse().unwrap();
        let dst: IpAddr = DST4.parse().unwrap();
        let req_bytes = build_echo_request(src, dst, &meta(), ProbeEncoding::PerWorker);
        let req = parse(src, dst, &req_bytes).unwrap();
        let reply_bytes = build_echo_reply(src, dst, &req);
        // The reply travels dst -> src.
        let reply = parse(dst, src, &reply_bytes).unwrap();
        assert!(reply.is_reply());
        assert_eq!(reply.payload, req.payload);
        assert_eq!(reply.seq, req.seq);
    }

    #[test]
    fn v6_reply_checksum_binds_addresses() {
        let src: IpAddr = SRC6.parse().unwrap();
        let dst: IpAddr = DST6.parse().unwrap();
        let req = parse(
            src,
            dst,
            &build_echo_request(src, dst, &meta(), ProbeEncoding::PerWorker),
        )
        .unwrap();
        let reply_bytes = build_echo_reply(src, dst, &req);
        assert!(parse(dst, src, &reply_bytes).is_ok());
        // Note: swapping src/dst does NOT change the one's-complement
        // pseudo-header sum (addition is commutative), but a different
        // address must fail verification.
        let other: IpAddr = "2001:db8:dead::1".parse().unwrap();
        assert!(matches!(
            parse(other, src, &reply_bytes),
            Err(PacketError::BadChecksum { .. })
        ));
    }

    #[test]
    fn static_encoding_is_identical_across_workers() {
        let src: IpAddr = SRC4.parse().unwrap();
        let dst: IpAddr = DST4.parse().unwrap();
        let a = build_echo_request(
            src,
            dst,
            &ProbeMeta {
                measurement_id: 9,
                worker_id: 1,
                tx_time_ms: 111,
            },
            ProbeEncoding::Static,
        );
        let b = build_echo_request(
            src,
            dst,
            &ProbeMeta {
                measurement_id: 9,
                worker_id: 30,
                tx_time_ms: 999,
            },
            ProbeEncoding::Static,
        );
        assert_eq!(a, b, "static probes must be byte-identical");
        let msg = parse(src, dst, &a).unwrap();
        let (m, w, t) = decode_payload(&msg.payload).unwrap();
        assert_eq!((m, w, t), (9, None, None));
    }

    #[test]
    fn per_worker_probes_differ_in_checksum_and_payload() {
        // §5.1.4: the regular measurement varies payload and checksum.
        let src: IpAddr = SRC4.parse().unwrap();
        let dst: IpAddr = DST4.parse().unwrap();
        let a = build_echo_request(
            src,
            dst,
            &ProbeMeta {
                measurement_id: 9,
                worker_id: 1,
                tx_time_ms: 111,
            },
            ProbeEncoding::PerWorker,
        );
        let b = build_echo_request(
            src,
            dst,
            &ProbeMeta {
                measurement_id: 9,
                worker_id: 2,
                tx_time_ms: 112,
            },
            ProbeEncoding::PerWorker,
        );
        assert_ne!(a, b);
        assert_ne!(a[2..4], b[2..4], "checksums should differ");
    }

    #[test]
    fn corrupted_bytes_fail_checksum() {
        let src: IpAddr = SRC4.parse().unwrap();
        let dst: IpAddr = DST4.parse().unwrap();
        let mut bytes = build_echo_request(src, dst, &meta(), ProbeEncoding::PerWorker);
        bytes[10] ^= 0xFF;
        assert!(matches!(
            parse(src, dst, &bytes),
            Err(PacketError::BadChecksum { .. })
        ));
    }

    /// A v4 echo request's bytes must not depend on the destination: the
    /// v4 ICMP checksum has no pseudo-header. The v6 counterpart, whose
    /// pseudo-header covers the addresses, must keep differing.
    #[test]
    fn v4_echo_request_bytes_ignore_destination() {
        let src: IpAddr = SRC4.parse().unwrap();
        let a = build_echo_request(
            src,
            DST4.parse().unwrap(),
            &meta(),
            ProbeEncoding::PerWorker,
        );
        let b = build_echo_request(
            src,
            "203.0.113.250".parse().unwrap(),
            &meta(),
            ProbeEncoding::PerWorker,
        );
        assert_eq!(a, b);

        let src6: IpAddr = SRC6.parse().unwrap();
        let c = build_echo_request(
            src6,
            DST6.parse().unwrap(),
            &meta(),
            ProbeEncoding::PerWorker,
        );
        let d = build_echo_request(
            src6,
            "2001:db8:eeee::9".parse().unwrap(),
            &meta(),
            ProbeEncoding::PerWorker,
        );
        assert_ne!(c, d, "v6 checksum must cover the destination");
    }

    #[test]
    fn foreign_payload_is_not_ours() {
        let payload = b"PINGPINGPINGPINGPING";
        assert!(matches!(decode_payload(payload), Err(PacketError::NotOurs)));
    }

    #[test]
    fn short_messages_are_truncated_errors() {
        let src: IpAddr = SRC4.parse().unwrap();
        let dst: IpAddr = DST4.parse().unwrap();
        assert!(matches!(
            parse(src, dst, &[8, 0, 0]),
            Err(PacketError::Truncated { .. })
        ));
        assert!(matches!(
            decode_payload(&[1, 2, 3]),
            Err(PacketError::Truncated { .. })
        ));
    }
}
