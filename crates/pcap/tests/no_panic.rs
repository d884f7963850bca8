//! Fault-injection properties: no input — pure byte soup or a chaos-
//! corrupted valid capture — may panic a reader. Strict readers must fail
//! with structured errors; the lossy readers must stay total and account
//! for every recovery in their [`wifi_pcap::IngestReport`]. On *clean*
//! files the lossy readers must be byte-for-byte identical to strict.

use proptest::prelude::*;
use wifi_pcap::chaos::{corrupt_bytes, ChaosConfig, ChaosRng};
use wifi_pcap::pcapng::{NgPacket, PcapNgReader, PcapNgWriter};
use wifi_pcap::{
    IngestReport, LinkType, LossyPcapNgStream, LossyPcapStream, PcapError, PcapPacket, PcapReader,
    PcapWriter,
};

fn arb_packets() -> impl Strategy<Value = Vec<(u64, Vec<u8>)>> {
    proptest::collection::vec(
        (
            0u64..4_000_000_000_000u64,
            proptest::collection::vec(any::<u8>(), 0..300),
        ),
        0..24,
    )
}

fn classic_bytes(packets: &[(u64, Vec<u8>)]) -> Vec<u8> {
    let mut buf = Vec::new();
    {
        let mut w = PcapWriter::new(&mut buf, LinkType::Radiotap, 65535).unwrap();
        for (ts, data) in packets {
            w.write_packet(*ts, data).unwrap();
        }
    }
    buf
}

fn ng_bytes(packets: &[(u64, Vec<u8>)]) -> Vec<u8> {
    let mut buf = Vec::new();
    {
        let mut w = PcapNgWriter::new(&mut buf, LinkType::Radiotap, 65535).unwrap();
        for (ts, data) in packets {
            w.write_packet(*ts, data).unwrap();
        }
        w.flush().unwrap();
    }
    buf
}

/// A hostile mix: flips, truncation, garbage splices and length blasts all
/// enabled at once.
fn hostile() -> ChaosConfig {
    ChaosConfig {
        bit_flips_per_kb: 2.0,
        truncate: 0.3,
        garbage_insert: 0.7,
        length_blast: 0.7,
    }
}

/// Drains a lossy classic stream over `bytes`: link type, surviving
/// packets, and the final report.
fn lossy_classic(bytes: &[u8]) -> Result<(LinkType, Vec<PcapPacket>, IngestReport), PcapError> {
    let mut s = LossyPcapStream::new(bytes)?;
    let mut out = Vec::new();
    while let Some(p) = s.next_packet()? {
        out.push(p.to_owned());
    }
    Ok((s.link(), out, *s.report()))
}

/// Drains a lossy pcapng stream over `bytes`: surviving packets and the
/// final report.
fn lossy_ng(bytes: &[u8]) -> (Vec<NgPacket>, IngestReport) {
    let mut s = LossyPcapNgStream::new(bytes);
    let mut out = Vec::new();
    while let Some(p) = s.next_packet().expect("in-memory source cannot fail") {
        out.push(p.to_owned());
    }
    (out, *s.report())
}

fn drain_strict_classic(bytes: &[u8]) {
    if let Ok(r) = PcapReader::new(bytes) {
        for item in r.packets() {
            if item.is_err() {
                break; // structured error ends the stream; no panic allowed
            }
        }
    }
}

fn drain_strict_ng(bytes: &[u8]) {
    let mut r = PcapNgReader::new(bytes);
    while let Ok(Some(_)) = r.next_packet() {}
}

proptest! {
    #[test]
    fn byte_soup_never_panics_any_reader(
        bytes in proptest::collection::vec(any::<u8>(), 0..400),
    ) {
        drain_strict_classic(&bytes);
        drain_strict_ng(&bytes);
        let _ = lossy_classic(&bytes);
        let (_, report) = lossy_ng(&bytes);
        // A stream with no section header yields no records.
        if !bytes.windows(4).any(|w| w == [0x0A, 0x0D, 0x0D, 0x0A]) {
            prop_assert_eq!(report.records_total(), 0);
        }
    }

    #[test]
    fn chaos_corrupted_classic_never_panics(
        packets in arb_packets(),
        seed in any::<u64>(),
    ) {
        let mut bytes = classic_bytes(&packets);
        corrupt_bytes(&mut bytes, 0, &hostile(), &mut ChaosRng::new(seed));
        drain_strict_classic(&bytes);
        if let Ok((_, packets, report)) = lossy_classic(&bytes) {
            // Resyncs without recoveries (or vice versa) would mean the
            // report lies about what the reader did.
            prop_assert!(report.records_recovered == 0 || report.resyncs > 0);
            prop_assert_eq!(report.records_total() as usize, packets.len());
        }
    }

    #[test]
    fn chaos_corrupted_pcapng_never_panics(
        packets in arb_packets(),
        seed in any::<u64>(),
    ) {
        let mut bytes = ng_bytes(&packets);
        corrupt_bytes(&mut bytes, 0, &hostile(), &mut ChaosRng::new(seed));
        drain_strict_ng(&bytes);
        let (packets, report) = lossy_ng(&bytes);
        prop_assert_eq!(report.records_total() as usize, packets.len());
    }

    #[test]
    fn lossy_equals_strict_on_clean_classic(packets in arb_packets()) {
        let bytes = classic_bytes(&packets);
        let strict = PcapReader::new(&bytes[..])
            .unwrap()
            .packets()
            .collect::<Result<Vec<_>, _>>()
            .unwrap();
        let (link, packets, report) = lossy_classic(&bytes).unwrap();
        prop_assert!(report.is_clean(), "clean file: {:?}", report);
        prop_assert_eq!(link, LinkType::Radiotap);
        prop_assert_eq!(packets.len(), strict.len());
        for (a, b) in packets.iter().zip(&strict) {
            prop_assert_eq!(a.timestamp_us, b.timestamp_us);
            prop_assert_eq!(&a.data, &b.data);
            prop_assert_eq!(a.orig_len, b.orig_len);
        }
    }

    #[test]
    fn lossy_equals_strict_on_clean_pcapng(packets in arb_packets()) {
        let bytes = ng_bytes(&packets);
        let mut strict: Vec<NgPacket> = Vec::new();
        let mut r = PcapNgReader::new(&bytes[..]);
        while let Some(pkt) = r.next_packet().unwrap() {
            strict.push(pkt);
        }
        let (packets, report) = lossy_ng(&bytes);
        prop_assert!(report.is_clean(), "clean file: {:?}", report);
        prop_assert_eq!(packets.len(), strict.len());
        for (a, b) in packets.iter().zip(&strict) {
            prop_assert_eq!(a.link, b.link);
            prop_assert_eq!(a.packet.timestamp_us, b.packet.timestamp_us);
            prop_assert_eq!(&a.packet.data, &b.packet.data);
            prop_assert_eq!(a.packet.orig_len, b.packet.orig_len);
        }
    }
}
