//! pcapng (pcap-next-generation) support — the block-structured capture
//! format modern tools (Wireshark, tcpdump ≥ 4.1) write by default.
//!
//! Implemented from the specification, supporting what a trace-analysis
//! pipeline needs:
//!
//! * Section Header Blocks in either byte order, including mid-stream new
//!   sections (each resets the interface list and may change endianness);
//! * Interface Description Blocks with the `if_tsresol` option (decimal and
//!   binary resolutions), per-interface link type and snap length;
//! * Enhanced Packet Blocks and Simple Packet Blocks;
//! * unknown block types and options are skipped by length, as required.
//!
//! Timestamps are normalized to microseconds on read, matching the classic
//! reader.

use crate::format::{LinkType, PcapError, PcapPacket, MAX_SANE_CAPLEN};
use std::io::Read;

/// Block type: Section Header Block.
pub const BT_SHB: u32 = 0x0A0D_0D0A;
/// Block type: Interface Description Block.
pub const BT_IDB: u32 = 0x0000_0001;
/// Block type: Enhanced Packet Block.
pub const BT_EPB: u32 = 0x0000_0006;
/// Block type: Simple Packet Block.
pub const BT_SPB: u32 = 0x0000_0003;
/// The byte-order magic inside an SHB.
pub const BYTE_ORDER_MAGIC: u32 = 0x1A2B_3C4D;

#[derive(Clone, Copy, Debug)]
pub(crate) struct Interface {
    pub(crate) link: LinkType,
    pub(crate) snaplen: u32,
    /// Timestamp units per second.
    pub(crate) ticks_per_sec: u64,
}

/// A packet read from a pcapng stream, tagged with its interface's link
/// type.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NgPacket {
    /// The interface's data-link type.
    pub link: LinkType,
    /// The packet record (timestamp in microseconds).
    pub packet: PcapPacket,
}

/// A borrowed view of one pcapng packet, yielded by the zero-copy paths
/// ([`PcapNgReader::next_packet_ref`] and [`crate::LossyPcapNgStream`]).
/// The data slice lives in the reader's internal buffer and is only valid
/// until the next read call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NgPacketRef<'a> {
    /// The interface's data-link type.
    pub link: LinkType,
    /// Capture timestamp in microseconds.
    pub timestamp_us: u64,
    /// Original on-air length.
    pub orig_len: u32,
    /// The captured bytes, borrowed from the reader's buffer.
    pub data: &'a [u8],
}

impl NgPacketRef<'_> {
    /// Copies the packet into an owned [`NgPacket`].
    pub fn to_owned(&self) -> NgPacket {
        NgPacket {
            link: self.link,
            packet: PcapPacket {
                timestamp_us: self.timestamp_us,
                orig_len: self.orig_len,
                data: self.data.to_vec(),
            },
        }
    }
}

/// A streaming pcapng reader.
pub struct PcapNgReader<R> {
    inner: R,
    big_endian: bool,
    interfaces: Vec<Option<Interface>>,
    started: bool,
    /// Reused per-block body buffer for the zero-copy read path.
    scratch: Vec<u8>,
}

impl<R: Read> PcapNgReader<R> {
    /// Wraps a byte stream. The first block must be a Section Header Block;
    /// it is validated lazily on the first packet read.
    pub fn new(inner: R) -> PcapNgReader<R> {
        PcapNgReader {
            inner,
            big_endian: false,
            interfaces: Vec::new(),
            started: false,
            scratch: Vec::new(),
        }
    }

    fn u16_of(&self, b: [u8; 2]) -> u16 {
        if self.big_endian {
            u16::from_be_bytes(b)
        } else {
            u16::from_le_bytes(b)
        }
    }

    fn u32_of(&self, b: [u8; 4]) -> u32 {
        if self.big_endian {
            u32::from_be_bytes(b)
        } else {
            u32::from_le_bytes(b)
        }
    }

    /// Reads the next packet; `Ok(None)` at clean end of stream.
    pub fn next_packet(&mut self) -> Result<Option<NgPacket>, PcapError> {
        Ok(self.next_packet_ref()?.map(|p| p.to_owned()))
    }

    /// Reads the next packet without copying its bytes out of the reader's
    /// block buffer; `Ok(None)` at clean end of stream. The returned
    /// [`NgPacketRef`] is invalidated by the next read call.
    pub fn next_packet_ref(&mut self) -> Result<Option<NgPacketRef<'_>>, PcapError> {
        // The loop fills `self.scratch` with block bodies until it lands on
        // a packet-bearing one, then breaks so the borrow of the scratch
        // buffer starts only after all mutation is done.
        let is_epb = loop {
            // Block header: type (4) + total length (4).
            let mut head = [0u8; 8];
            match read_fully(&mut self.inner, &mut head)? {
                ReadOutcome::Eof => return Ok(None),
                ReadOutcome::Partial => return Err(PcapError::TruncatedFile),
                ReadOutcome::Full => {}
            }
            // The SHB's type bytes are palindromic, so readable before the
            // byte order is known.
            let raw_type = u32::from_le_bytes([head[0], head[1], head[2], head[3]]);
            if raw_type == BT_SHB {
                self.read_shb(&head)?;
                continue;
            }
            if !self.started {
                return Err(PcapError::BadMagic(raw_type));
            }
            let block_type = self.u32_of([head[0], head[1], head[2], head[3]]);
            let total_len = self.u32_of([head[4], head[5], head[6], head[7]]) as usize;
            if total_len < 12 || !total_len.is_multiple_of(4) {
                return Err(PcapError::BadBlockLength(total_len as u32));
            }
            if total_len as u32 > MAX_SANE_CAPLEN * 2 {
                return Err(PcapError::OversizedRecord(total_len as u32));
            }
            let body_len = total_len - 12; // minus header and trailing length
            self.scratch.clear();
            self.scratch.resize(body_len + 4, 0);
            match read_fully(&mut self.inner, &mut self.scratch)? {
                ReadOutcome::Full => {}
                _ => return Err(PcapError::TruncatedFile),
            }
            let tail: [u8; 4] = match self.scratch[body_len..].try_into() {
                Ok(t) => t,
                Err(_) => return Err(PcapError::BadBlockLength(total_len as u32)),
            };
            let trailing = self.u32_of(tail) as usize;
            if trailing != total_len {
                return Err(PcapError::BadBlockLength(trailing as u32));
            }
            self.scratch.truncate(body_len);
            match block_type {
                BT_IDB => {
                    let iface = parse_idb(self.big_endian, &self.scratch)?;
                    self.interfaces.push(Some(iface));
                }
                BT_EPB => break true,
                BT_SPB => break false,
                _ => {} // unknown block: skipped by length
            }
        };
        let pkt = if is_epb {
            parse_epb_ref(self.big_endian, &self.scratch, &self.interfaces)?
        } else {
            parse_spb_ref(self.big_endian, &self.scratch, &self.interfaces)?
        };
        Ok(Some(pkt))
    }

    fn read_shb(&mut self, head: &[u8; 8]) -> Result<(), PcapError> {
        // Read enough of the body to find the byte-order magic.
        let mut rest = [0u8; 4]; // byte-order magic
        if !matches!(read_fully(&mut self.inner, &mut rest)?, ReadOutcome::Full) {
            return Err(PcapError::TruncatedFile);
        }
        let magic_le = u32::from_le_bytes(rest);
        self.big_endian = match magic_le {
            BYTE_ORDER_MAGIC => false,
            m if m == BYTE_ORDER_MAGIC.swap_bytes() => true,
            other => return Err(PcapError::BadMagic(other)),
        };
        let total_len = self.u32_of([head[4], head[5], head[6], head[7]]) as usize;
        if total_len < 28 || !total_len.is_multiple_of(4) {
            return Err(PcapError::BadBlockLength(total_len as u32));
        }
        if total_len as u32 > MAX_SANE_CAPLEN * 2 {
            return Err(PcapError::OversizedRecord(total_len as u32));
        }
        // Consume the remaining body (version, section length, options) and
        // the trailing length, which must repeat the leading one as in every
        // other block.
        let mut remaining = vec![0u8; total_len - 12 - 4 + 4];
        if !matches!(
            read_fully(&mut self.inner, &mut remaining)?,
            ReadOutcome::Full
        ) {
            return Err(PcapError::TruncatedFile);
        }
        let tail = &remaining[remaining.len() - 4..];
        let trailing = self.u32_of([tail[0], tail[1], tail[2], tail[3]]) as usize;
        if trailing != total_len {
            return Err(PcapError::BadBlockLength(trailing as u32));
        }
        let major = self.u16_of([remaining[0], remaining[1]]);
        if major != 1 {
            let minor = self.u16_of([remaining[2], remaining[3]]);
            return Err(PcapError::UnsupportedVersion(major, minor));
        }
        // A new section resets the interface list.
        self.interfaces.clear();
        self.started = true;
        Ok(())
    }
}

fn u16_raw(big_endian: bool, body: &[u8], off: usize) -> u16 {
    let b = [body[off], body[off + 1]];
    if big_endian {
        u16::from_be_bytes(b)
    } else {
        u16::from_le_bytes(b)
    }
}

fn u32_raw(big_endian: bool, body: &[u8], off: usize) -> u32 {
    let b = [body[off], body[off + 1], body[off + 2], body[off + 3]];
    if big_endian {
        u32::from_be_bytes(b)
    } else {
        u32::from_le_bytes(b)
    }
}

/// Decodes an `if_tsresol` option byte into ticks per second, rejecting
/// resolutions whose tick rate overflows `u64` (which would otherwise
/// silently collapse every timestamp toward zero).
pub(crate) fn ticks_per_sec_of(raw: u8) -> Result<u64, PcapError> {
    let exp = raw & 0x7f;
    if raw & 0x80 == 0 {
        // Decimal: 10^exp; 10^19 < 2^64 < 10^20.
        if exp > 19 {
            return Err(PcapError::BadTimestampResolution(raw));
        }
        Ok(10u64.pow(exp as u32))
    } else {
        // Binary: 2^exp; 2^63 is the largest representable power.
        if exp > 63 {
            return Err(PcapError::BadTimestampResolution(raw));
        }
        Ok(1u64 << exp)
    }
}

/// Parses an Interface Description Block body.
pub(crate) fn parse_idb(big_endian: bool, body: &[u8]) -> Result<Interface, PcapError> {
    if body.len() < 8 {
        return Err(PcapError::TruncatedFile);
    }
    let link = LinkType::from_code(u16_raw(big_endian, body, 0) as u32);
    let snaplen = u32_raw(big_endian, body, 4);
    // Default resolution: microseconds; overridden by if_tsresol (9).
    let mut ticks_per_sec: u64 = 1_000_000;
    let mut off = 8;
    while off + 4 <= body.len() {
        let code = u16_raw(big_endian, body, off);
        let len = u16_raw(big_endian, body, off + 2) as usize;
        let val_off = off + 4;
        if code == 0 {
            break; // opt_endofopt
        }
        if val_off + len > body.len() {
            return Err(PcapError::TruncatedFile);
        }
        if code == 9 && len >= 1 {
            ticks_per_sec = ticks_per_sec_of(body[val_off])?;
        }
        off = val_off + len.div_ceil(4) * 4;
    }
    Ok(Interface {
        link,
        snaplen,
        ticks_per_sec,
    })
}

/// Parses an Enhanced Packet Block body against the section's interfaces,
/// borrowing the packet bytes from `body`.
pub(crate) fn parse_epb_ref<'a>(
    big_endian: bool,
    body: &'a [u8],
    interfaces: &[Option<Interface>],
) -> Result<NgPacketRef<'a>, PcapError> {
    if body.len() < 20 {
        return Err(PcapError::TruncatedFile);
    }
    let iface_id = u32_raw(big_endian, body, 0) as usize;
    let ts_high = u32_raw(big_endian, body, 4) as u64;
    let ts_low = u32_raw(big_endian, body, 8) as u64;
    let caplen = u32_raw(big_endian, body, 12);
    let orig_len = u32_raw(big_endian, body, 16);
    if caplen > MAX_SANE_CAPLEN {
        return Err(PcapError::OversizedRecord(caplen));
    }
    if caplen > orig_len {
        return Err(PcapError::InconsistentLengths { caplen, orig_len });
    }
    let iface = interfaces
        .get(iface_id)
        .copied()
        .flatten()
        .ok_or(PcapError::TruncatedFile)?;
    if 20 + caplen as usize > body.len() {
        return Err(PcapError::TruncatedFile);
    }
    let data = &body[20..20 + caplen as usize];
    let ticks = (ts_high << 32) | ts_low;
    // Widen through u128 so sub-microsecond resolutions keep precision
    // instead of saturating.
    let timestamp_us =
        ((ticks as u128 * 1_000_000) / iface.ticks_per_sec as u128).min(u64::MAX as u128) as u64;
    Ok(NgPacketRef {
        link: iface.link,
        timestamp_us,
        orig_len,
        data,
    })
}

/// Parses a Simple Packet Block body (always interface 0), borrowing the
/// packet bytes from `body`.
pub(crate) fn parse_spb_ref<'a>(
    big_endian: bool,
    body: &'a [u8],
    interfaces: &[Option<Interface>],
) -> Result<NgPacketRef<'a>, PcapError> {
    if body.len() < 4 {
        return Err(PcapError::TruncatedFile);
    }
    let orig_len = u32_raw(big_endian, body, 0);
    let iface = interfaces
        .first()
        .copied()
        .flatten()
        .ok_or(PcapError::TruncatedFile)?;
    let caplen = orig_len.min(iface.snaplen.max(1)) as usize;
    if 4 + caplen > body.len() {
        return Err(PcapError::TruncatedFile);
    }
    Ok(NgPacketRef {
        link: iface.link,
        timestamp_us: 0, // SPBs carry no timestamp
        orig_len,
        data: &body[4..4 + caplen],
    })
}

enum ReadOutcome {
    Full,
    Partial,
    Eof,
}

fn read_fully<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<ReadOutcome, PcapError> {
    let mut read = 0;
    while read < buf.len() {
        match r.read(&mut buf[read..]) {
            Ok(0) => {
                return Ok(if read == 0 {
                    ReadOutcome::Eof
                } else {
                    ReadOutcome::Partial
                })
            }
            Ok(n) => read += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(PcapError::Io(e)),
        }
    }
    Ok(ReadOutcome::Full)
}

/// A minimal pcapng writer: one section, one interface, Enhanced Packet
/// Blocks with microsecond timestamps.
pub struct PcapNgWriter<W: std::io::Write> {
    inner: W,
    snaplen: u32,
}

impl<W: std::io::Write> PcapNgWriter<W> {
    /// Writes the SHB and one IDB. `snaplen` 0 means unlimited.
    pub fn new(mut inner: W, link: LinkType, snaplen: u32) -> Result<Self, PcapError> {
        // SHB: 28 bytes, no options.
        inner.write_all(&BT_SHB.to_le_bytes())?;
        inner.write_all(&28u32.to_le_bytes())?;
        inner.write_all(&BYTE_ORDER_MAGIC.to_le_bytes())?;
        inner.write_all(&1u16.to_le_bytes())?; // major
        inner.write_all(&0u16.to_le_bytes())?; // minor
        inner.write_all(&u64::MAX.to_le_bytes())?; // section length unknown
        inner.write_all(&28u32.to_le_bytes())?;
        // IDB: 20 bytes, no options (default µs resolution).
        inner.write_all(&BT_IDB.to_le_bytes())?;
        inner.write_all(&20u32.to_le_bytes())?;
        inner.write_all(&(link.code() as u16).to_le_bytes())?;
        inner.write_all(&0u16.to_le_bytes())?;
        inner.write_all(&snaplen.to_le_bytes())?;
        inner.write_all(&20u32.to_le_bytes())?;
        Ok(PcapNgWriter { inner, snaplen })
    }

    /// Writes one packet as an EPB, truncating to the snap length.
    pub fn write_packet(&mut self, timestamp_us: u64, data: &[u8]) -> Result<(), PcapError> {
        let caplen = if self.snaplen == 0 {
            data.len()
        } else {
            data.len().min(self.snaplen as usize)
        };
        let padded = caplen.div_ceil(4) * 4;
        let total = (32 + padded) as u32;
        self.inner.write_all(&BT_EPB.to_le_bytes())?;
        self.inner.write_all(&total.to_le_bytes())?;
        self.inner.write_all(&0u32.to_le_bytes())?; // interface 0
        self.inner
            .write_all(&((timestamp_us >> 32) as u32).to_le_bytes())?;
        self.inner.write_all(&(timestamp_us as u32).to_le_bytes())?;
        self.inner.write_all(&(caplen as u32).to_le_bytes())?;
        self.inner.write_all(&(data.len() as u32).to_le_bytes())?;
        self.inner.write_all(&data[..caplen])?;
        self.inner.write_all(&vec![0u8; padded - caplen])?;
        self.inner.write_all(&total.to_le_bytes())?;
        Ok(())
    }

    /// Flushes the underlying writer.
    pub fn flush(&mut self) -> Result<(), PcapError> {
        self.inner.flush()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(packets: &[(u64, Vec<u8>)], snaplen: u32) -> Vec<NgPacket> {
        let mut buf = Vec::new();
        {
            let mut w = PcapNgWriter::new(&mut buf, LinkType::Radiotap, snaplen).unwrap();
            for (ts, data) in packets {
                w.write_packet(*ts, data).unwrap();
            }
        }
        let mut r = PcapNgReader::new(&buf[..]);
        let mut out = Vec::new();
        while let Some(p) = r.next_packet().unwrap() {
            out.push(p);
        }
        out
    }

    #[test]
    fn writer_reader_roundtrip() {
        let packets = vec![
            (1_000_000u64, vec![1, 2, 3, 4, 5]),
            (2_500_001, vec![9; 100]),
            (u32::MAX as u64 + 17, vec![0xAB; 7]), // exercises ts_high
        ];
        let got = roundtrip(&packets, 0);
        assert_eq!(got.len(), 3);
        for (g, (ts, data)) in got.iter().zip(&packets) {
            assert_eq!(g.link, LinkType::Radiotap);
            assert_eq!(g.packet.timestamp_us, *ts);
            assert_eq!(&g.packet.data, data);
            assert_eq!(g.packet.orig_len as usize, data.len());
        }
    }

    #[test]
    fn snaplen_truncates_epb() {
        let got = roundtrip(&[(0, vec![7u8; 500])], 250);
        assert_eq!(got[0].packet.data.len(), 250);
        assert_eq!(got[0].packet.orig_len, 500);
        assert!(got[0].packet.is_truncated());
    }

    #[test]
    fn rejects_garbage() {
        let mut r = PcapNgReader::new(&[0xDEu8, 0xAD, 0xBE, 0xEF, 0, 0, 0, 0][..]);
        assert!(matches!(r.next_packet(), Err(PcapError::BadMagic(_))));
    }

    #[test]
    fn empty_stream_is_clean_eof() {
        let mut r = PcapNgReader::new(&[][..]);
        assert!(r.next_packet().unwrap().is_none());
    }

    #[test]
    fn truncated_block_errors() {
        let mut buf = Vec::new();
        {
            let mut w = PcapNgWriter::new(&mut buf, LinkType::Radiotap, 0).unwrap();
            w.write_packet(5, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        }
        let cut = buf.len() - 5;
        let mut r = PcapNgReader::new(&buf[..cut]);
        assert!(matches!(r.next_packet(), Err(PcapError::TruncatedFile)));
    }

    #[test]
    fn unknown_blocks_are_skipped() {
        let mut buf = Vec::new();
        {
            let mut w = PcapNgWriter::new(&mut buf, LinkType::Ieee80211, 0).unwrap();
            w.write_packet(1, &[0xAA]).unwrap();
        }
        // Splice a custom block (type 0x0BAD) between IDB and EPB.
        let idb_end = 28 + 20;
        let mut custom = Vec::new();
        custom.extend_from_slice(&0x0BADu32.to_le_bytes());
        custom.extend_from_slice(&16u32.to_le_bytes());
        custom.extend_from_slice(&[0xFF; 4]);
        custom.extend_from_slice(&16u32.to_le_bytes());
        let mut spliced = buf[..idb_end].to_vec();
        spliced.extend_from_slice(&custom);
        spliced.extend_from_slice(&buf[idb_end..]);
        let mut r = PcapNgReader::new(&spliced[..]);
        let p = r.next_packet().unwrap().unwrap();
        assert_eq!(p.packet.data, vec![0xAA]);
        assert_eq!(p.link, LinkType::Ieee80211);
    }

    #[test]
    fn big_endian_section() {
        // Hand-build a big-endian SHB + IDB + EPB.
        let mut buf = Vec::new();
        // SHB (type bytes are palindromic; lengths big-endian).
        buf.extend_from_slice(&BT_SHB.to_be_bytes());
        buf.extend_from_slice(&28u32.to_be_bytes());
        buf.extend_from_slice(&BYTE_ORDER_MAGIC.to_be_bytes());
        buf.extend_from_slice(&1u16.to_be_bytes());
        buf.extend_from_slice(&0u16.to_be_bytes());
        buf.extend_from_slice(&u64::MAX.to_be_bytes());
        buf.extend_from_slice(&28u32.to_be_bytes());
        // IDB.
        buf.extend_from_slice(&BT_IDB.to_be_bytes());
        buf.extend_from_slice(&20u32.to_be_bytes());
        buf.extend_from_slice(&127u16.to_be_bytes());
        buf.extend_from_slice(&0u16.to_be_bytes());
        buf.extend_from_slice(&0u32.to_be_bytes());
        buf.extend_from_slice(&20u32.to_be_bytes());
        // EPB with 2 bytes of data.
        buf.extend_from_slice(&BT_EPB.to_be_bytes());
        buf.extend_from_slice(&36u32.to_be_bytes());
        buf.extend_from_slice(&0u32.to_be_bytes());
        buf.extend_from_slice(&0u32.to_be_bytes()); // ts hi
        buf.extend_from_slice(&42u32.to_be_bytes()); // ts lo
        buf.extend_from_slice(&2u32.to_be_bytes()); // caplen
        buf.extend_from_slice(&2u32.to_be_bytes()); // origlen
        buf.extend_from_slice(&[0xCA, 0xFE, 0, 0]); // padded
        buf.extend_from_slice(&36u32.to_be_bytes());
        let mut r = PcapNgReader::new(&buf[..]);
        let p = r.next_packet().unwrap().unwrap();
        assert_eq!(p.link, LinkType::Radiotap);
        assert_eq!(p.packet.timestamp_us, 42);
        assert_eq!(p.packet.data, vec![0xCA, 0xFE]);
    }

    #[test]
    fn tsresol_option_nanoseconds() {
        // IDB with if_tsresol = 9 (nanoseconds); EPB timestamp in ns.
        let mut buf = Vec::new();
        buf.extend_from_slice(&BT_SHB.to_le_bytes());
        buf.extend_from_slice(&28u32.to_le_bytes());
        buf.extend_from_slice(&BYTE_ORDER_MAGIC.to_le_bytes());
        buf.extend_from_slice(&1u16.to_le_bytes());
        buf.extend_from_slice(&0u16.to_le_bytes());
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        buf.extend_from_slice(&28u32.to_le_bytes());
        // IDB with one option: code 9, len 1, value 9 (10^-9), padded.
        buf.extend_from_slice(&BT_IDB.to_le_bytes());
        buf.extend_from_slice(&28u32.to_le_bytes());
        buf.extend_from_slice(&127u16.to_le_bytes());
        buf.extend_from_slice(&0u16.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&9u16.to_le_bytes()); // if_tsresol
        buf.extend_from_slice(&1u16.to_le_bytes());
        buf.extend_from_slice(&[9, 0, 0, 0]); // value + pad
        buf.extend_from_slice(&28u32.to_le_bytes());
        // EPB at 5_000_000 ns = 5_000 µs.
        buf.extend_from_slice(&BT_EPB.to_le_bytes());
        buf.extend_from_slice(&36u32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&5_000_000u32.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&[0x55, 0, 0, 0]);
        buf.extend_from_slice(&36u32.to_le_bytes());
        let mut r = PcapNgReader::new(&buf[..]);
        let p = r.next_packet().unwrap().unwrap();
        assert_eq!(p.packet.timestamp_us, 5_000);
    }

    /// SHB + IDB carrying `if_tsresol = raw` + one EPB with the given ticks.
    fn file_with_tsresol(raw: u8, ticks: u32) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&BT_SHB.to_le_bytes());
        buf.extend_from_slice(&28u32.to_le_bytes());
        buf.extend_from_slice(&BYTE_ORDER_MAGIC.to_le_bytes());
        buf.extend_from_slice(&1u16.to_le_bytes());
        buf.extend_from_slice(&0u16.to_le_bytes());
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        buf.extend_from_slice(&28u32.to_le_bytes());
        buf.extend_from_slice(&BT_IDB.to_le_bytes());
        buf.extend_from_slice(&28u32.to_le_bytes());
        buf.extend_from_slice(&127u16.to_le_bytes());
        buf.extend_from_slice(&0u16.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&9u16.to_le_bytes()); // if_tsresol
        buf.extend_from_slice(&1u16.to_le_bytes());
        buf.extend_from_slice(&[raw, 0, 0, 0]); // value + pad
        buf.extend_from_slice(&28u32.to_le_bytes());
        buf.extend_from_slice(&BT_EPB.to_le_bytes());
        buf.extend_from_slice(&36u32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&ticks.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&[0x55, 0, 0, 0]);
        buf.extend_from_slice(&36u32.to_le_bytes());
        buf
    }

    #[test]
    fn tsresol_decimal_edge_is_exact() {
        // 10^19 ticks/s is the largest decimal resolution that fits u64:
        // 10^19 ticks = 1 second = 1_000_000 µs... but a u32 ts_low can
        // only carry small tick counts, which round to 0 µs. Use a ticks
        // value that lands on an exact microsecond via the u128 path.
        let buf = file_with_tsresol(19, u32::MAX);
        let mut r = PcapNgReader::new(&buf[..]);
        let p = r.next_packet().unwrap().unwrap();
        // 4294967295 ticks at 10^19/s = 4.29e-10 s -> 0 µs, no saturation.
        assert_eq!(p.packet.timestamp_us, 0);
    }

    #[test]
    fn tsresol_decimal_overflow_rejected() {
        let buf = file_with_tsresol(20, 1);
        let mut r = PcapNgReader::new(&buf[..]);
        assert!(matches!(
            r.next_packet(),
            Err(PcapError::BadTimestampResolution(20))
        ));
    }

    #[test]
    fn tsresol_binary_edge_and_overflow() {
        // 2^63 ticks/s parses; 1<<20 ticks = 1<<20 * 1e6 / 2^63 µs ≈ 0.
        let buf = file_with_tsresol(0x80 | 63, 1 << 20);
        let mut r = PcapNgReader::new(&buf[..]);
        assert_eq!(r.next_packet().unwrap().unwrap().packet.timestamp_us, 0);
        // 2^64 does not fit.
        let buf = file_with_tsresol(0x80 | 64, 1);
        let mut r = PcapNgReader::new(&buf[..]);
        assert!(matches!(
            r.next_packet(),
            Err(PcapError::BadTimestampResolution(raw)) if raw == (0x80 | 64)
        ));
    }

    #[test]
    fn tsresol_binary_microsecond_neighbour() {
        // 2^20 ticks/s (binary ~µs): 2^20 ticks = exactly 1 second.
        let buf = file_with_tsresol(0x80 | 20, 1 << 20);
        let mut r = PcapNgReader::new(&buf[..]);
        assert_eq!(
            r.next_packet().unwrap().unwrap().packet.timestamp_us,
            1_000_000
        );
    }

    #[test]
    fn misaligned_block_length_is_bad_block_length() {
        let mut buf = Vec::new();
        {
            let mut w = PcapNgWriter::new(&mut buf, LinkType::Radiotap, 0).unwrap();
            w.write_packet(1, &[0xAA; 8]).unwrap();
        }
        // Patch the EPB's total length to a misaligned value.
        let epb_off = 28 + 20;
        buf[epb_off + 4..epb_off + 8].copy_from_slice(&41u32.to_le_bytes());
        let mut r = PcapNgReader::new(&buf[..]);
        assert!(matches!(
            r.next_packet(),
            Err(PcapError::BadBlockLength(41))
        ));
        // And an under-minimum length.
        buf[epb_off + 4..epb_off + 8].copy_from_slice(&8u32.to_le_bytes());
        let mut r = PcapNgReader::new(&buf[..]);
        assert!(matches!(r.next_packet(), Err(PcapError::BadBlockLength(8))));
    }

    #[test]
    fn trailing_length_mismatch_is_bad_block_length() {
        let mut buf = Vec::new();
        {
            let mut w = PcapNgWriter::new(&mut buf, LinkType::Radiotap, 0).unwrap();
            w.write_packet(1, &[0xAA; 8]).unwrap();
        }
        let last4 = buf.len() - 4;
        buf[last4..].copy_from_slice(&44u32.to_le_bytes());
        let mut r = PcapNgReader::new(&buf[..]);
        assert!(matches!(
            r.next_packet(),
            Err(PcapError::BadBlockLength(44))
        ));
    }

    #[test]
    fn shb_trailing_length_mismatch_is_bad_block_length() {
        let mut buf = Vec::new();
        {
            let mut w = PcapNgWriter::new(&mut buf, LinkType::Radiotap, 0).unwrap();
            w.write_packet(1, &[0xAA; 8]).unwrap();
        }
        // The SHB is 28 bytes; its trailing length is the last four.
        buf[24..28].copy_from_slice(&32u32.to_le_bytes());
        let mut r = PcapNgReader::new(&buf[..]);
        assert!(matches!(
            r.next_packet(),
            Err(PcapError::BadBlockLength(32))
        ));
        // An absurd SHB length fails before any body is buffered.
        buf[4..8].copy_from_slice(&0xFFFF_FFF0u32.to_le_bytes());
        let mut r = PcapNgReader::new(&buf[..]);
        assert!(matches!(
            r.next_packet(),
            Err(PcapError::OversizedRecord(0xFFFF_FFF0))
        ));
    }

    #[test]
    fn second_section_resets_interfaces() {
        let mut buf = Vec::new();
        {
            let mut w = PcapNgWriter::new(&mut buf, LinkType::Ethernet, 0).unwrap();
            w.write_packet(1, &[1]).unwrap();
        }
        // Append a whole second section with a different link type.
        {
            let mut second = Vec::new();
            let mut w = PcapNgWriter::new(&mut second, LinkType::Radiotap, 0).unwrap();
            w.write_packet(2, &[2]).unwrap();
            buf.extend_from_slice(&second);
        }
        let mut r = PcapNgReader::new(&buf[..]);
        let a = r.next_packet().unwrap().unwrap();
        let b = r.next_packet().unwrap().unwrap();
        assert_eq!(a.link, LinkType::Ethernet);
        assert_eq!(b.link, LinkType::Radiotap);
        assert!(r.next_packet().unwrap().is_none());
    }
}
