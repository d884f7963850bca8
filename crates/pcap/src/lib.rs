//! # wifi-pcap
//!
//! A from-scratch implementation of the classic libpcap capture-file format,
//! sufficient to persist and re-read the sniffer traces of the congestion
//! study.
//!
//! Supports:
//!
//! * both byte orders (the magic number disambiguates),
//! * microsecond and nanosecond timestamp variants,
//! * snap-length truncation on write (the study used a 250-byte snaplen),
//! * streaming reads and writes over any [`std::io::Read`]/[`std::io::Write`].
//!
//! ```
//! use wifi_pcap::{LinkType, PcapReader, PcapWriter};
//!
//! let mut buf = Vec::new();
//! {
//!     let mut w = PcapWriter::new(&mut buf, LinkType::Radiotap, 250).unwrap();
//!     w.write_packet(1_000_000, &[0xB4, 0x00, 0x12, 0x34]).unwrap();
//! }
//! let mut r = PcapReader::new(&buf[..]).unwrap();
//! let pkt = r.next_packet().unwrap().unwrap();
//! assert_eq!(pkt.timestamp_us, 1_000_000);
//! assert_eq!(pkt.data, vec![0xB4, 0x00, 0x12, 0x34]);
//! ```

#![warn(missing_docs)]

pub mod chaos;
mod format;
pub mod lossy;
pub mod pcapng;
mod reader;
pub mod stream;
mod writer;

pub use format::{LinkType, PacketRef, PcapError, PcapPacket, MAGIC_BE, MAGIC_LE, MAGIC_NS_LE};
pub use lossy::{is_pcapng, IngestReport};
pub use pcapng::{NgPacket, NgPacketRef, PcapNgReader, PcapNgWriter};
pub use reader::PcapReader;
pub use stream::{ChunkedSource, FillStatus, LossyPcapNgStream, LossyPcapStream, Polled};
pub use writer::PcapWriter;

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path;

/// Reads every packet of a pcap file into memory.
pub fn read_file(path: &Path) -> Result<(LinkType, Vec<PcapPacket>), PcapError> {
    let file = File::open(path)?;
    let mut reader = PcapReader::new(BufReader::new(file))?;
    let link = reader.link_type();
    let mut packets = Vec::new();
    while let Some(pkt) = reader.next_packet()? {
        packets.push(pkt);
    }
    Ok((link, packets))
}

/// Writes packets (already in `(timestamp_us, bytes)` form) to a pcap file.
pub fn write_file<'a>(
    path: &Path,
    link: LinkType,
    snaplen: u32,
    packets: impl IntoIterator<Item = (u64, &'a [u8])>,
) -> Result<(), PcapError> {
    let file = File::create(path)?;
    let mut writer = PcapWriter::new(BufWriter::new(file), link, snaplen)?;
    for (ts, data) in packets {
        writer.write_packet(ts, data)?;
    }
    writer.flush()?;
    Ok(())
}
