//! The benchmark's own capture generator: per-sniffer radiotap pcaps of one
//! busy 802.11b channel, made from the seed alone.
//!
//! It is independent of the simulator on purpose: a change to the DCF model
//! must not move the `ingest` and `live` inputs. Its traffic figures come
//! from the study and from the repository's calibrated IETF-62 sessions,
//! each cited where it is set: the channel runs at the plenary utilization
//! mode, data air time splits over the four rates as the study reports,
//! sizes follow the sessions' IETF mix, about a tenth of data frames are
//! retransmissions, a small minority of clients use RTS/CTS, and three BSSs
//! beacon. Each sniffer hears the channel with its own loss rate (spanning
//! the study's unrecorded-frame range), signal offset and constant clock
//! skew (well inside the merge's dedup window), so the captures overlap
//! without being identical. Client traits and loss rates depend on indices
//! only, so the amount of work a seed produces varies little between seeds.

use ietf80211_congestion::trace::{CaptureError, CaptureWriter};
use std::path::PathBuf;
use wifi_frames::fc::FrameKind;
use wifi_frames::mac::MacAddr;
use wifi_frames::phy::{Channel, Rate};
use wifi_frames::record::FrameRecord;
use wifi_frames::timing::{cbt, data_airtime_us, delay, Micros};

/// Snap length of the generated captures, as in the study's traces.
pub const SNAPLEN: u32 = 250;
/// Mean channel utilization (busy-time share of each second) the generator
/// holds: the plenary mode of the study's utilization histogram, ≈86 %
/// (Fig 5c in PAPER.md), just past the 84 % congestion knee.
pub const UTILIZATION: f64 = 0.86;
/// Access points (one BSS each) on the channel: the venue model puts nine
/// APs round-robin on channels 1/6/11 (`ietf_workloads::scenario::ap_grid`).
const APS: u32 = 3;
/// Clients on the channel. A round number, not calibrated: client identity
/// only spreads addresses and sequence numbers.
const CLIENTS: u32 = 100;
/// Every 50th client (2 %) uses RTS/CTS for payloads above 400 bytes: the
/// sessions' RTS fraction and threshold (`SessionScale::rts_fraction`,
/// `RtsPolicy::Threshold(400)` in `ietf_workloads::scenario`).
const RTS_EVERY: u32 = 50;
const RTS_THRESHOLD: u32 = 400;
/// Share of data exchanges sent downlink: 91 %, from the sessions' traffic
/// draw (`draw_traffic`: 96 % of clients receive 4 frames per 0.25 sent,
/// 4 % uploaders receive 0.5 per 3 sent).
pub const DOWNLINK: f64 = 0.91;
/// Payload classes `(weight, smallest, largest)`, each drawn uniformly: the
/// sessions' IETF size mix (`SizeDist::ietf_mix` in `wifi_sim::traffic`).
const SIZE_MIX: [(f64, u32, u32); 4] = [
    (0.52, 12, 372),
    (0.08, 380, 772),
    (0.07, 780, 1172),
    (0.33, 1180, 1472),
];
/// Data air time per rate (1, 2, 5.5, 11 Mbps) in proportion: 1 Mbps
/// 0.43 s of a congested second (Fig 8 in PAPER.md: 0.43 s, rising to
/// 0.54 s), 11 Mbps half of that (Fig 9: ≈300 % of 1 Mbps's bytes in ≈50 %
/// of its air time), and 0.06 s each for the scarcely used 2 and 5.5 Mbps
/// (the repository's Fig 8 reproduction at the 86 % bin,
/// `results/fig8_9.txt`). Rates are drawn per frame so that data air time
/// splits in these proportions.
pub const RATE_AIRTIME: [f64; 4] = [0.43, 0.06, 0.06, 0.215];
/// Probability that a data attempt fails and is retried: retransmissions
/// are ≈10 % of data frames at the 86 % bin of the calibrated sessions
/// (`results/fig14.txt`: 54.7 retries/s; `results/fig10_13.txt`: ≈560 data
/// frames/s).
pub const P_RETRY: f64 = 0.10;
/// Attempts per frame before it is abandoned: 802.11's short retry limit.
const ATTEMPTS: u32 = 7;
/// Beacon interval: 100 TU, as the simulator's default configuration.
const BEACON_US: Micros = 102_400;
/// 802.11b slot time and initial contention window, for retries.
const SLOT_US: Micros = 20;
const CW_MIN: u64 = 32;

/// splitmix64: small, fast and fully determined by its seed.
#[derive(Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream keyed by `seed` and a stream label.
    pub fn new(seed: u64, stream: u64) -> SplitMix {
        let mut s = SplitMix(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407));
        s.next_u64();
        s
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// The index `i` with probability `weights[i] / Σ weights`.
    fn pick(&mut self, weights: &[f64]) -> usize {
        let mut x = self.unit() * weights.iter().sum::<f64>();
        for (i, &w) in weights.iter().enumerate() {
            if x < w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }
}

fn ap_mac(ap: u32) -> MacAddr {
    MacAddr::from_id(1 + ap)
}

fn client_mac(client: u32) -> MacAddr {
    MacAddr::from_id(1_000 + client)
}

fn channel() -> Channel {
    Channel::new(6).expect("channel 6 exists")
}

fn control(kind: FrameKind, end_us: Micros, dst: MacAddr, src: Option<MacAddr>) -> FrameRecord {
    FrameRecord {
        timestamp_us: end_us,
        kind,
        rate: Rate::R1,
        channel: channel(),
        dst,
        src,
        bssid: None,
        retry: false,
        seq: None,
        mac_bytes: if kind == FrameKind::Rts { 20 } else { 14 },
        payload_bytes: 0,
        signal_dbm: -55,
        duration_us: 0,
    }
}

/// The busy time the paper's metric charges a generated frame (Equations
/// 2–6; the program's `cbt_us` agrees on every kind generated here).
fn charge(r: &FrameRecord) -> Micros {
    match r.kind {
        FrameKind::Rts => cbt::rts(),
        FrameKind::Cts => cbt::cts(),
        FrameKind::Ack => cbt::ack(),
        FrameKind::Beacon => cbt::beacon(),
        _ => cbt::data(u64::from(r.payload_bytes), r.rate),
    }
}

/// Per-frame rate weights that split data air time as [`RATE_AIRTIME`]:
/// each rate's share divided by its mean frame air time (air time is linear
/// in size, so the mean size gives the mean air time).
fn rate_weights() -> [f64; 4] {
    let total: f64 = SIZE_MIX.iter().map(|c| c.0).sum();
    let mean_size: f64 = SIZE_MIX
        .iter()
        .map(|&(w, lo, hi)| w * f64::from(lo + hi) / 2.0)
        .sum::<f64>()
        / total;
    std::array::from_fn(|r| {
        RATE_AIRTIME[r] / data_airtime_us(mean_size.round() as u64, Rate::ALL[r]) as f64
    })
}

/// Calls `emit` with every frame on the channel in `[0, duration_us)`, in
/// time order (timestamps are frame ends, as in the captures).
pub fn channel_frames(seed: u64, duration_us: Micros, mut emit: impl FnMut(FrameRecord)) {
    let mut rng = SplitMix::new(seed, 1);
    let rate_w = rate_weights();
    let size_w = SIZE_MIX.map(|c| c.0);
    let mut seq = vec![0u16; CLIENTS as usize];
    let mut next_beacon: Vec<Micros> = (0..APS).map(|ap| 1_000 + ap as Micros * 34_133).collect();
    let mut beacon_seq = vec![0u16; APS as usize];
    let mut t: Micros = 0;
    // Busy time charged so far, as the paper's metric charges it (backoff
    // is idle). Before each contention the channel idles for a random gap
    // whose mean is the idle time still owed to hold `UTILIZATION`, so
    // utilization varies from second to second but not in the long run. The
    // gap stands for the winning backoff: with many stations contending,
    // the shortest backoff is what the channel waits.
    let mut busy: Micros = 0;
    let mut out = |r: FrameRecord, busy: &mut Micros| {
        *busy += charge(&r);
        emit(r);
    };
    while t < duration_us {
        let owed = (busy as f64 / UTILIZATION) - t as f64;
        if owed > 0.0 {
            t += (-owed * (1.0 - rng.unit()).ln()) as Micros;
        }
        t += delay::DIFS;
        // A due beacon wins the medium.
        let ap = (0..APS as usize)
            .min_by_key(|&a| next_beacon[a])
            .expect("APs exist");
        if next_beacon[ap] <= t {
            t += delay::BEACON;
            beacon_seq[ap] = (beacon_seq[ap] + 1) % 4096;
            let beacon = FrameRecord {
                timestamp_us: t,
                kind: FrameKind::Beacon,
                rate: Rate::R1,
                channel: channel(),
                dst: MacAddr::BROADCAST,
                src: Some(ap_mac(ap as u32)),
                bssid: Some(ap_mac(ap as u32)),
                retry: false,
                seq: Some(beacon_seq[ap]),
                mac_bytes: 90,
                payload_bytes: 0,
                signal_dbm: -50,
                duration_us: 0,
            };
            out(beacon, &mut busy);
            next_beacon[ap] += BEACON_US;
            continue;
        }
        let c = rng.below(CLIENTS as u64) as u32;
        let ap = ap_mac(c % APS);
        let me = client_mac(c);
        let (src, dst) = if rng.unit() < DOWNLINK {
            (ap, me)
        } else {
            (me, ap)
        };
        let (_, lo, hi) = SIZE_MIX[rng.pick(&size_w)];
        let payload = lo + rng.below(u64::from(hi - lo + 1)) as u32;
        let rate = Rate::ALL[rng.pick(&rate_w)];
        let s = seq[c as usize];
        seq[c as usize] = (s + 1) % 4096;
        if c.is_multiple_of(RTS_EVERY) && payload > RTS_THRESHOLD {
            t += delay::RTS;
            out(control(FrameKind::Rts, t, dst, Some(src)), &mut busy);
            t += delay::SIFS + delay::CTS;
            out(control(FrameKind::Cts, t, src, None), &mut busy);
            t += delay::SIFS;
        }
        // Failed attempts are retried after a doubled contention window,
        // up to the retry limit; an abandoned frame gets no ACK.
        let mut cw = CW_MIN;
        for attempt in 0..ATTEMPTS {
            if attempt > 0 {
                cw = (cw * 2).min(1024);
                t += delay::DIFS + SLOT_US * rng.below(cw);
            }
            t += data_airtime_us(u64::from(payload), rate);
            let data = FrameRecord {
                timestamp_us: t,
                kind: FrameKind::Data,
                rate,
                channel: channel(),
                dst,
                src: Some(src),
                bssid: Some(ap),
                retry: attempt > 0,
                seq: Some(s),
                mac_bytes: payload + 28,
                payload_bytes: payload,
                signal_dbm: -60,
                duration_us: (delay::SIFS + delay::ACK) as u16,
            };
            out(data, &mut busy);
            if rng.unit() >= P_RETRY {
                t += delay::SIFS + delay::ACK;
                out(control(FrameKind::Ack, t, src, None), &mut busy);
                break;
            }
        }
    }
}

/// How one sniffer hears the channel.
#[derive(Clone, Copy, Debug)]
struct View {
    loss: f64,
    skew_us: Micros,
    signal_offset: i8,
}

fn views(seed: u64, sniffers: usize) -> Vec<View> {
    let mut rng = SplitMix::new(seed, 2);
    (0..sniffers)
        .map(|k| View {
            // 5, 10, 15 or 20 % by index, spanning the study's
            // unrecorded-frame range in the plenary (5–20 %, Fig 4c in
            // PAPER.md); fixed per sniffer, so every seed offers the same
            // amount of work.
            loss: 0.05 + 0.05 * (k % 4) as f64,
            skew_us: rng.below(50),
            signal_offset: k as i8 * 3,
        })
        .collect()
}

/// Calls `emit(sniffer, record)` for every capture of every sniffer. Each
/// sniffer's records come in non-decreasing timestamp order.
pub fn sniffer_records(
    seed: u64,
    sniffers: usize,
    duration_us: Micros,
    mut emit: impl FnMut(usize, FrameRecord),
) {
    let views = views(seed, sniffers);
    let mut loss = SplitMix::new(seed, 3);
    channel_frames(seed, duration_us, |frame| {
        for (k, v) in views.iter().enumerate() {
            if loss.unit() < v.loss {
                continue;
            }
            let mut r = frame;
            r.timestamp_us += v.skew_us;
            r.signal_dbm -= v.signal_offset;
            emit(k, r);
        }
    });
}

/// Writes one capture per path (sniffer `k` to `paths[k]`) and returns the
/// records written per sniffer.
pub fn write_captures(
    seed: u64,
    duration_us: Micros,
    paths: &[PathBuf],
) -> Result<Vec<u64>, CaptureError> {
    let mut writers = paths
        .iter()
        .map(|p| CaptureWriter::create(p, SNAPLEN))
        .collect::<Result<Vec<_>, _>>()?;
    let mut failed = None;
    sniffer_records(seed, paths.len(), duration_us, |k, r| {
        if failed.is_none() {
            if let Err(e) = writers[k].write_record(&r) {
                failed = Some(e);
            }
        }
    });
    if let Some(e) = failed {
        return Err(e);
    }
    writers.into_iter().map(CaptureWriter::finish).collect()
}
