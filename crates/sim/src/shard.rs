//! RF-isolation sharding: partitioning a scenario into independent media.
//!
//! A venue-scale deployment (the multi-hall campus the paper's conference
//! would sit in) contains groups of stations that can never interact: their
//! pairwise path loss is below every interaction threshold. Such groups —
//! connected components of the pair-coupling graph restricted to one
//! channel — are *RF-isolation components*, and a simulator whose media are
//! components instead of whole channels produces bit-identical per-station
//! and per-sniffer results while letting components run on separate
//! threads.
//!
//! [`ShardSpec`] records a scenario build (the same adder calls
//! [`Simulator`] exposes), so the one description can be materialized as a
//! single unsharded simulator or as any grouping of component simulators:
//!
//! 1. [`ShardSpec::build_unsharded`] replays the ops into a per-channel
//!    simulator — exactly what calling the adders directly produces.
//! 2. [`ShardSpec::partition`] finds the components and packs them into at
//!    most `max_shards` shards (longest-processing-time by station count);
//!    [`ShardSpec::build_shard`] materializes one shard as a partitioned
//!    [`Simulator`] whose media are that shard's components. Finding them
//!    is near-linear in stations: only same-channel stations in adjacent
//!    cells of a grid whose side is at least the coupling range are
//!    checked for coupling, and each client's strongest AP is sought among
//!    its own channel's APs.
//!
//! ## Why results are identical (the determinism argument)
//!
//! * **Couplings never cross components.** The component edges are "path
//!   RSSI ≥ the effective coupling floor", and the simulator ignores every
//!   pair below the floor: no reception, no interferer registration, no
//!   NAV, no carrier sense (the floor is clamped under the CS and
//!   sensitivity thresholds), no sniffer accounting. A transmission's full
//!   effect set therefore lies inside its component.
//! * **Random streams are per-entity.** Every station draws from a
//!   counter-based stream keyed by its scenario-wide build index, and every
//!   sniffer from one keyed past the station space ([`crate::rng`]). A
//!   station's draw sequence depends only on the events it experiences,
//!   which are the same whether its component shares a simulator with
//!   others or not. Fade realizations are keyed by the same global ids.
//! * **Association picks cannot escape the component.** A joining client
//!   associates to the strongest-path-loss AP on its medium (first maximum
//!   in ascending build order). The planner adds a forced edge from each
//!   client to exactly that AP, so the client's component contains it, and
//!   a subset argmax that contains the global argmax *is* the global
//!   argmax.
//! * **Same-timestamp ordering is preserved within a component.** Shards
//!   add stations in ascending global build order, so the relative event
//!   sequence of any two same-component events matches the unsharded run;
//!   events in different components never affect common state, so their
//!   relative order is immaterial.
//!
//! Dynamic channel management migrates stations between channels at run
//! time, which a partitioned simulator cannot express; `partition` declines
//! (returns `None`) when it is enabled, as it does when some client's
//! channel has no AP anywhere (the client would rescan onto another
//! channel). Callers fall back to the unsharded build.
//!
//! ## One partitioner
//!
//! Component sharding is the only way a scenario is cut. A dense coupled
//! cell — one channel of the paper's 523-user plenary — is one component
//! and runs on one core; the plenary's three channels still run in
//! parallel. [`ShardSpec::partition_lockstep`] and its plan types remain
//! only as a planner the benchmark times; nothing executes their plans.

use crate::config::SimConfig;
use crate::geometry::Pos;
use crate::medium::OVERLAP_GUARD_US;
use crate::rate::RateAdaptation;
use crate::sim::{ClientConfig, Simulator};
use crate::sniffer::SnifferConfig;
use crate::station::RtsPolicy;
use crate::topology::{NodeSet, SensingTopology};
use std::collections::BTreeMap;
use wifi_frames::phy::Rate;
use wifi_frames::timing::Micros;

/// Default lockstep window width, µs (`min(cs_delay, OVERLAP_GUARD_US)`
/// under the default radio timing).
///
/// Kept only because the benchmark passes it to
/// [`ShardSpec::partition_lockstep`]; it goes once the benchmark drops its
/// `sim.shard.lockstep*` metrics.
pub const DEFAULT_LOCKSTEP_WINDOW_US: Micros = 10;

/// One recorded station-build operation.
#[derive(Clone, Debug)]
enum StationOp {
    Ap {
        pos: Pos,
        channel_idx: usize,
        ssid_len: u32,
        adaptation: RateAdaptation,
        rts_policy: RtsPolicy,
    },
    Client(ClientConfig),
}

impl StationOp {
    fn pos(&self) -> Pos {
        match self {
            StationOp::Ap { pos, .. } => *pos,
            StationOp::Client(cfg) => cfg.pos,
        }
    }

    fn channel_idx(&self) -> usize {
        match self {
            StationOp::Ap { channel_idx, .. } => *channel_idx,
            StationOp::Client(cfg) => cfg.channel_idx,
        }
    }

    fn is_ap(&self) -> bool {
        matches!(self, StationOp::Ap { .. })
    }
}

/// A recorded scenario build: configuration plus the adder calls, in order.
///
/// Station keys (RNG streams, fade links, MAC addresses) are the build
/// indices, so any materialization — unsharded or sharded — reproduces the
/// same per-entity identities.
///
/// ```
/// use wifi_sim::SimConfig;
/// use wifi_sim::geometry::Pos;
/// use wifi_sim::shard::ShardSpec;
///
/// let mut spec = ShardSpec::new(SimConfig::default());
/// spec.add_ap(Pos::new(0.0, 0.0), 0, 6);      // two cells, far beyond
/// spec.add_ap(Pos::new(10_000.0, 0.0), 0, 6); // the coupling range
///
/// let mut whole = spec.build_unsharded();
/// whole.run_until(1_000_000);
///
/// // The same build, partitioned: two RF-isolation components whose
/// // summed output reproduces the unsharded run bit for bit.
/// let plan = spec.partition(8).unwrap();
/// assert_eq!(plan.shards.len(), 2);
/// let events: u64 = plan
///     .shards
///     .iter()
///     .map(|shard| {
///         let mut sim = spec.build_shard(shard);
///         sim.run_until(1_000_000);
///         sim.events_processed()
///     })
///     .sum();
/// assert_eq!(events, whole.events_processed());
/// ```
pub struct ShardSpec {
    config: SimConfig,
    stations: Vec<StationOp>,
    sniffers: Vec<SnifferConfig>,
}

/// One shard of a partitioned scenario: a group of RF-isolation
/// components, each becoming one medium of one partitioned [`Simulator`].
#[derive(Clone, Debug)]
#[cfg_attr(test, derive(PartialEq, Eq))]
pub struct Shard {
    /// The channel index each medium (component) of this shard lives on.
    pub medium_channel: Vec<usize>,
    /// `(global station index, medium within shard)`, ascending by global
    /// index.
    stations: Vec<(usize, usize)>,
    /// `(global sniffer index, medium within shard)`.
    sniffers: Vec<(usize, usize)>,
}

impl Shard {
    /// How many stations are materialized into this shard.
    pub fn station_count(&self) -> usize {
        self.stations.len()
    }

    /// Stations materialized into this shard (global indices, ascending).
    /// The position in this iteration is the station's *local* node id in
    /// the shard's simulator — mobility drivers use this to route a global
    /// move to `(shard, local id)`.
    pub fn station_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.stations.iter().map(|&(gi, _)| gi)
    }

    /// Sniffers materialized into this shard, as
    /// `(global sniffer index, medium within shard)`.
    pub fn sniffer_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.sniffers.iter().map(|&(gi, _)| gi)
    }

    /// `(global station index, medium within shard)` pairs — mobility
    /// drivers check cut containment at *medium* granularity, since a
    /// shard's media are separate simulated worlds.
    pub fn station_media(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.stations.iter().copied()
    }

    /// `(global sniffer index, medium within shard)` pairs.
    pub fn sniffer_media(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.sniffers.iter().copied()
    }
}

/// The canonical cut signature of a scenario's coupling graph at one set of
/// positions: which entities interact, and which AP each client would join.
/// Two signatures compare equal exactly when the component/BSS cut is the
/// same, so a mobility driver detects *drift* — a move that changed the cut
/// — by recomputing the signature from the incrementally maintained
/// topology at an epoch boundary and comparing with the one its
/// [`ShardPlan`] was built under ([`ShardPlan::drifted`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CouplingSignature {
    /// Component label per entity — stations `0..n`, then sniffers at
    /// `n..n + s`. The label is the minimum entity index in the component
    /// (the union-find's lower-root-wins invariant), so labels are
    /// canonical regardless of edge order.
    pub labels: Vec<usize>,
    /// Each client's join-time argmax AP as `(client, ap)`, ascending by
    /// client. Tracked separately from `labels` because an argmax flip
    /// between two APs of the *same* component changes no label but does
    /// change the BSS cut.
    pub client_ap: Vec<(usize, usize)>,
}

impl CouplingSignature {
    /// A spanning set of co-shard constraint edges reproducing this
    /// signature's grouping: `(entity, label)` for every entity plus each
    /// client's argmax AP edge. A mobility driver accumulates these across
    /// drift events and re-partitions with
    /// [`ShardSpec::partition_with`] so the new plan is valid for every
    /// position history observed so far.
    pub fn constraint_edges(&self) -> Vec<(usize, usize)> {
        let mut edges: Vec<(usize, usize)> = self
            .labels
            .iter()
            .enumerate()
            .filter(|&(e, &l)| l != e)
            .map(|(e, &l)| (e, l))
            .collect();
        edges.extend(self.client_ap.iter().copied());
        edges
    }
}

/// The result of partitioning: shards covering every station and sniffer
/// exactly once.
pub struct ShardPlan {
    /// The shards, largest (by station count) first.
    pub shards: Vec<Shard>,
    /// RF-isolation components found before grouping (shards merge
    /// components; this is the parallelism ceiling).
    pub components: usize,
    /// The coupling/BSS cut this plan was computed under (constraint edges
    /// excluded — always the *natural* signature of the positions), for
    /// drift detection as stations move.
    pub signature: CouplingSignature,
}

impl ShardPlan {
    /// Has the coupling graph drifted away from the cut this plan was
    /// built under? `topo` is the mobility driver's incrementally
    /// maintained topology at the current positions; the spec supplies
    /// channels and roles. Cheap relative to a partition: the signature is
    /// recomputed from cached bitset rows and RSSI reads, no path-loss
    /// math. Callers key the check off
    /// [`SensingTopology::epoch`] — an unchanged epoch cannot
    /// have drifted.
    pub fn drifted(&self, spec: &ShardSpec, topo: &SensingTopology) -> bool {
        spec.coupling_signature(topo)
            .is_none_or(|sig| sig != self.signature)
    }
}

/// One shard of a [`LockstepPlan`]: the stations and sniffers it owns, and
/// which owned stations are audible across the cut.
///
/// Kept only because the benchmark times [`ShardSpec::partition_lockstep`];
/// it goes once the benchmark drops its `sim.shard.lockstep*` metrics.
#[derive(Clone, Debug)]
pub struct LockstepShard {
    /// Global indices of owned stations, ascending.
    owned: Vec<usize>,
    /// `owned_mask[gi]`: does this shard own global station `gi`?
    owned_mask: Vec<bool>,
    /// `exported[gi]`: is owned station `gi` inside some sibling's
    /// relevance closure (its transmissions crossing the cut)?
    exported: Vec<bool>,
    /// Global indices of owned sniffers, ascending.
    sniffers: Vec<usize>,
}

impl LockstepShard {
    /// Stations owned by this shard.
    pub fn station_count(&self) -> usize {
        self.owned.len()
    }

    /// Does this shard own global station `gi`?
    pub fn owns(&self, gi: usize) -> bool {
        self.owned_mask.get(gi).copied().unwrap_or(false)
    }

    /// Owned stations (global indices, ascending).
    pub fn owned_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.owned.iter().copied()
    }

    /// Owned sniffers (global indices, ascending).
    pub fn sniffer_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.sniffers.iter().copied()
    }

    /// How many owned stations are exported across the cut.
    pub fn exported_count(&self) -> usize {
        self.exported.iter().filter(|&&e| e).count()
    }
}

/// The result of lockstep partitioning: every station owned by exactly one
/// shard, every sniffer owned by exactly one shard, and a validated window.
///
/// Kept only because the benchmark times [`ShardSpec::partition_lockstep`];
/// it goes once the benchmark drops its `sim.shard.lockstep*` metrics.
pub struct LockstepPlan {
    /// The shards, largest (by owned-station count) first.
    pub shards: Vec<LockstepShard>,
    /// The validated lockstep window width, µs.
    pub window_us: Micros,
}

/// Union-find over scenario entities (stations, then sniffers).
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> UnionFind {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Deterministic: lower root wins, so component identity is
            // independent of edge processing order.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi] = lo;
        }
    }
}

/// Where the planner reads a scenario's geometry. Positions only bucket
/// candidates; the three predicates decide every edge.
trait Geometry {
    /// Position of station `i`.
    fn station_pos(&self, i: usize) -> Pos;
    /// Position of sniffer `si`.
    fn sniffer_pos(&self, si: usize) -> Pos;
    /// Does the path RSSI between stations `a` and `b` clear the floor?
    fn coupled(&self, a: usize, b: usize) -> bool;
    /// Path RSSI of station `tx` at station `rx`, dBm.
    fn rssi(&self, tx: usize, rx: usize) -> f64;
    /// Does station `st` reach sniffer `si` above the floor?
    fn sniffer_hears(&self, si: usize, st: usize) -> bool;
}

/// The recorded build positions, through direct path-loss math.
struct PathLoss<'a> {
    spec: &'a ShardSpec,
    floor: f64,
}

impl PathLoss<'_> {
    fn new(spec: &ShardSpec) -> PathLoss<'_> {
        let floor = spec.config.radio.effective_coupling_floor_dbm();
        PathLoss { spec, floor }
    }
}

impl Geometry for PathLoss<'_> {
    fn station_pos(&self, i: usize) -> Pos {
        self.spec.stations[i].pos()
    }

    fn sniffer_pos(&self, si: usize) -> Pos {
        self.spec.sniffers[si].pos
    }

    fn coupled(&self, a: usize, b: usize) -> bool {
        self.rssi(a, b) >= self.floor
    }

    fn rssi(&self, tx: usize, rx: usize) -> f64 {
        let radio = &self.spec.config.radio;
        radio.rssi_dbm(self.station_pos(tx), self.station_pos(rx))
    }

    fn sniffer_hears(&self, si: usize, st: usize) -> bool {
        let radio = &self.spec.config.radio;
        radio.rssi_dbm(self.station_pos(st), self.sniffer_pos(si)) >= self.floor
    }
}

/// A maintained topology's current positions and cached RSSI and coupling
/// bits (built under the spec's radio).
struct Cached<'a> {
    topo: &'a SensingTopology,
    floor: f64,
}

impl Cached<'_> {
    /// `None` when `topo` does not cover exactly `spec`'s population.
    fn covering<'a>(spec: &ShardSpec, topo: &'a SensingTopology) -> Option<Cached<'a>> {
        (topo.station_count() == spec.stations.len() && topo.sniffer_count() == spec.sniffers.len())
            .then(|| Cached {
                topo,
                floor: spec.config.radio.effective_coupling_floor_dbm(),
            })
    }
}

impl Geometry for Cached<'_> {
    fn station_pos(&self, i: usize) -> Pos {
        self.topo.position(i)
    }

    fn sniffer_pos(&self, si: usize) -> Pos {
        self.topo.sniffer_position(si)
    }

    fn coupled(&self, a: usize, b: usize) -> bool {
        self.topo.coupled(a, b)
    }

    fn rssi(&self, tx: usize, rx: usize) -> f64 {
        self.topo.rssi(tx, rx)
    }

    fn sniffer_hears(&self, si: usize, st: usize) -> bool {
        self.topo.sniffer_rssi(si, st) >= self.floor
    }
}

/// Candidate coupling pairs: stations bucketed by `(channel, cell)` on a
/// square grid whose side is at least the coupling range, so any two
/// coupled stations sit in the same or adjacent cells of one channel.
struct CouplingGrid {
    /// Cell side, m; `None` puts each channel in one cell.
    side: Option<f64>,
    /// Station indices per `(channel, cell)`, ascending.
    cells: BTreeMap<(usize, Cell), Vec<usize>>,
}

/// A grid cell, `(⌊x / side⌋, ⌊y / side⌋)`.
type Cell = (i64, i64);

impl CouplingGrid {
    /// Largest `|coordinate / side|` the grid buckets. Within it the
    /// rounding of `x / side` (< 2⁻²⁰) stays far inside the side's 0.1%
    /// margin; a point beyond it (or not finite) drops the grid.
    const MAX_CELL: f64 = (1u64 << 32) as f64;

    fn new(spec: &ShardSpec, geo: &impl Geometry) -> CouplingGrid {
        let radio = &spec.config.radio;
        let range = radio.range_at_dbm(radio.effective_coupling_floor_dbm());
        // The margin covers rounding in the path-loss math. Without a
        // positive exponent path loss does not grow with distance, so no
        // range bounds coupling.
        let side = (radio.pathloss_exp > 0.0 && range.is_finite() && range > 0.0)
            .then_some(range * 1.001)
            .filter(|&side| {
                let fits = |p: Pos| {
                    (p.x / side).abs() <= Self::MAX_CELL && (p.y / side).abs() <= Self::MAX_CELL
                };
                (0..spec.stations.len()).all(|i| fits(geo.station_pos(i)))
                    && (0..spec.sniffers.len()).all(|si| fits(geo.sniffer_pos(si)))
            });
        let mut grid = CouplingGrid {
            side,
            cells: BTreeMap::new(),
        };
        for (i, op) in spec.stations.iter().enumerate() {
            let cell = grid.cell(geo.station_pos(i));
            grid.cells
                .entry((op.channel_idx(), cell))
                .or_default()
                .push(i);
        }
        grid
    }

    fn cell(&self, pos: Pos) -> Cell {
        match self.side {
            Some(side) => ((pos.x / side).floor() as i64, (pos.y / side).floor() as i64),
            None => (0, 0),
        }
    }

    /// The station lists of `channel` in the 3×3 cells around `cell` (the
    /// channel's one cell without a grid): every station that can couple
    /// to a point in `cell`.
    fn near(&self, channel: usize, (cx, cy): Cell) -> impl Iterator<Item = &[usize]> + '_ {
        let r = i64::from(self.side.is_some());
        (-r..=r)
            .flat_map(move |dx| (-r..=r).map(move |dy| (cx + dx, cy + dy)))
            .filter_map(move |cell| self.cells.get(&(channel, cell)).map(Vec::as_slice))
    }
}

impl ShardSpec {
    /// A new, empty scenario description.
    pub fn new(config: SimConfig) -> ShardSpec {
        ShardSpec {
            config,
            stations: Vec::new(),
            sniffers: Vec::new(),
        }
    }

    /// The configuration this scenario was described against.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Records an access point (defaults mirror [`Simulator::add_ap`]).
    /// Returns its global station index.
    pub fn add_ap(&mut self, pos: Pos, channel_idx: usize, ssid_len: u32) -> usize {
        self.add_ap_with(
            pos,
            channel_idx,
            ssid_len,
            RateAdaptation::Arf(Rate::R11),
            RtsPolicy::Never,
        )
    }

    /// Records an access point with explicit adaptation and RTS policy.
    pub fn add_ap_with(
        &mut self,
        pos: Pos,
        channel_idx: usize,
        ssid_len: u32,
        adaptation: RateAdaptation,
        rts_policy: RtsPolicy,
    ) -> usize {
        assert!(
            channel_idx < self.config.channels.len(),
            "bad channel index"
        );
        self.stations.push(StationOp::Ap {
            pos,
            channel_idx,
            ssid_len,
            adaptation,
            rts_policy,
        });
        self.stations.len() - 1
    }

    /// Records a client. Returns its global station index.
    pub fn add_client(&mut self, cfg: ClientConfig) -> usize {
        assert!(
            cfg.channel_idx < self.config.channels.len(),
            "bad channel index"
        );
        self.stations.push(StationOp::Client(cfg));
        self.stations.len() - 1
    }

    /// Records a sniffer. Returns its global sniffer index.
    pub fn add_sniffer(&mut self, cfg: SnifferConfig) -> usize {
        assert!(
            cfg.channel_idx < self.config.channels.len(),
            "bad channel index"
        );
        self.sniffers.push(cfg);
        self.sniffers.len() - 1
    }

    /// Stations recorded so far.
    pub fn station_count(&self) -> usize {
        self.stations.len()
    }

    /// Sniffers recorded so far.
    pub fn sniffer_count(&self) -> usize {
        self.sniffers.len()
    }

    /// Materializes the whole scenario as one per-channel simulator —
    /// identical to having called the [`Simulator`] adders directly.
    pub fn build_unsharded(&self) -> Simulator {
        let mut sim = Simulator::new(self.config.clone());
        sim.reserve_stations(self.stations.len(), self.sniffers.len());
        for op in &self.stations {
            match op {
                StationOp::Ap {
                    pos,
                    channel_idx,
                    ssid_len,
                    adaptation,
                    rts_policy,
                } => {
                    sim.add_ap_with(*pos, *channel_idx, *ssid_len, *adaptation, *rts_policy);
                }
                StationOp::Client(cfg) => {
                    sim.add_client(cfg.clone());
                }
            }
        }
        for cfg in &self.sniffers {
            sim.add_sniffer(*cfg);
        }
        sim
    }

    /// Computes the natural coupling/BSS cut ([`CouplingSignature`]) of the
    /// recorded scenario at the *topology's current positions* — which may
    /// differ from the recorded build positions once a mobility driver has
    /// applied moves. Returns `None` when the topology does not cover the
    /// scenario, or when some client's channel has no AP (the scenario is
    /// unshardable, so there is no cut to compare). Reads only the cached
    /// matrix and bitsets; no path-loss math.
    pub fn coupling_signature(&self, topo: &SensingTopology) -> Option<CouplingSignature> {
        let cached = Cached::covering(self, topo)?;
        self.signature_impl(&cached).map(|(_, sig)| sig)
    }

    /// The shared coupling analysis behind [`ShardSpec::partition`],
    /// [`ShardSpec::partition_with`] and
    /// [`ShardSpec::coupling_signature`], generic over where the geometry
    /// is read from, so one caller can use direct path-loss math and
    /// another the incrementally maintained cache — both produce identical
    /// unions because the cached values *are* the same pure function's
    /// outputs. Returns the entity union-find plus the canonical signature,
    /// or `None` for an orphan client (whose join would rescan across
    /// channels, which partitioned media cannot express).
    ///
    /// Near-linear in stations: coupling candidates come from a
    /// [`CouplingGrid`], pairs already in one component skip the oracle,
    /// and each client's argmax scans only its own channel's APs.
    fn signature_impl(&self, geo: &impl Geometry) -> Option<(UnionFind, CouplingSignature)> {
        let n = self.stations.len();
        // Each channel's APs, ascending build order.
        let mut aps: Vec<Vec<usize>> = vec![Vec::new(); self.config.channels.len()];
        for (i, op) in self.stations.iter().enumerate() {
            if op.is_ap() {
                aps[op.channel_idx()].push(i);
            }
        }
        // Every client must have a co-channel AP somewhere, or the join
        // logic rescans onto another channel (a migration partitioned
        // media cannot express).
        if self
            .stations
            .iter()
            .any(|op| !op.is_ap() && aps[op.channel_idx()].is_empty())
        {
            return None;
        }
        let mut uf = UnionFind::new(n + self.sniffers.len());
        // Coupled same-channel pairs interact; everything below the floor
        // is ignored by the simulator entirely. Each candidate pair is
        // offered once, from its lower-indexed member's cell.
        let grid = CouplingGrid::new(self, geo);
        for (&(channel, cell), members) in &grid.cells {
            for &a in members {
                for near in grid.near(channel, cell) {
                    for &b in &near[near.partition_point(|&b| b <= a)..] {
                        if uf.find(a) != uf.find(b) && geo.coupled(a, b) {
                            uf.union(a, b);
                        }
                    }
                }
            }
        }
        // Forced edge: each client joins the strongest co-channel AP (first
        // maximum in build order — exactly the join-time argmax), wherever
        // it is; keep that AP in the client's component.
        let mut client_ap = Vec::new();
        for (c, op) in self.stations.iter().enumerate() {
            if op.is_ap() {
                continue;
            }
            let mut best: Option<(usize, f64)> = None;
            for &ap in &aps[op.channel_idx()] {
                let rssi = geo.rssi(ap, c);
                if best.is_none_or(|(_, b)| rssi > b) {
                    best = Some((ap, rssi));
                }
            }
            let (ap, _) = best.expect("checked above: every client channel has an AP");
            client_ap.push((c, ap));
            uf.union(c, ap);
        }
        // A sniffer hears (or counts a miss for) every co-channel station
        // whose path RSSI at the sniffer clears the floor; all of them must
        // share the sniffer's medium.
        for (si, cfg) in self.sniffers.iter().enumerate() {
            let cell = grid.cell(geo.sniffer_pos(si));
            for near in grid.near(cfg.channel_idx, cell) {
                for &i in near {
                    if uf.find(n + si) != uf.find(i) && geo.sniffer_hears(si, i) {
                        uf.union(n + si, i);
                    }
                }
            }
        }
        // Canonical labels: the union-find root is the component's minimum
        // member index (lower-root-wins), independent of edge order.
        let labels = (0..n + self.sniffers.len()).map(|e| uf.find(e)).collect();
        Some((uf, CouplingSignature { labels, client_ap }))
    }

    /// Partitions the scenario into at most `max_shards` shards of
    /// RF-isolation components, or `None` when the scenario cannot be
    /// sharded (dynamic channel management, or a client whose channel has
    /// no AP and would rescan across channels).
    pub fn partition(&self, max_shards: usize) -> Option<ShardPlan> {
        // Direct path-loss math: a one-shot partition has no maintained
        // topology to read, and materializing a throwaway O(N²) matrix
        // just for this pass would be a multi-hundred-MB transient at
        // venue scale.
        self.partition_impl(max_shards, &[], &PathLoss::new(self))
    }

    /// [`ShardSpec::partition`] against an incrementally maintained
    /// topology (current positions, not the recorded build positions),
    /// with extra `keep_together` co-shard constraint edges — entity
    /// indices, stations `0..n` then sniffers `n..n + s`. A mobility
    /// driver that detects drift ([`ShardPlan::drifted`]) re-partitions
    /// here with the constraint edges accumulated from every signature
    /// seen so far ([`CouplingSignature::constraint_edges`]), so the new
    /// plan is valid for the whole observed position history. The plan's
    /// stored signature excludes the constraints (it is always the natural
    /// cut of the positions, else the drift compare could never
    /// converge). Returns `None` when the topology does not cover the
    /// scenario or the scenario is unshardable.
    pub fn partition_with(
        &self,
        max_shards: usize,
        topo: &SensingTopology,
        keep_together: &[(usize, usize)],
    ) -> Option<ShardPlan> {
        self.partition_impl(max_shards, keep_together, &Cached::covering(self, topo)?)
    }

    fn partition_impl(
        &self,
        max_shards: usize,
        keep_together: &[(usize, usize)],
        geo: &impl Geometry,
    ) -> Option<ShardPlan> {
        if self.config.channel_mgmt.is_some() || max_shards == 0 {
            return None;
        }
        let (uf, signature) = self.signature_impl(geo)?;
        Some(self.pack(max_shards, keep_together, uf, signature))
    }

    /// Merges the `keep_together` edges into the coupling union-find, then
    /// packs its components into at most `max_shards` shards.
    fn pack(
        &self,
        max_shards: usize,
        keep_together: &[(usize, usize)],
        mut uf: UnionFind,
        signature: CouplingSignature,
    ) -> ShardPlan {
        let n = self.stations.len();
        // Constraint edges merge after the natural signature is taken, so
        // the stored signature always describes the positions alone.
        for &(a, b) in keep_together {
            uf.union(a, b);
        }
        // Collect components in first-seen order of their roots.
        let mut comp_of_root = vec![usize::MAX; n + self.sniffers.len()];
        let mut comp_id = |uf: &mut UnionFind, entity: usize, comps: &mut Vec<Component>| {
            let root = uf.find(entity);
            if comp_of_root[root] == usize::MAX {
                comp_of_root[root] = comps.len();
                comps.push(Component::default());
            }
            comp_of_root[root]
        };
        #[derive(Default)]
        struct Component {
            channel: Option<usize>,
            stations: Vec<usize>,
            sniffers: Vec<usize>,
        }
        let mut comps: Vec<Component> = Vec::new();
        for i in 0..n {
            let id = comp_id(&mut uf, i, &mut comps);
            comps[id].channel = Some(self.stations[i].channel_idx());
            comps[id].stations.push(i);
        }
        for (si, cfg) in self.sniffers.iter().enumerate() {
            let id = comp_id(&mut uf, n + si, &mut comps);
            // A sniffer coupled to nothing forms its own (silent) medium.
            comps[id].channel.get_or_insert(cfg.channel_idx);
            comps[id].sniffers.push(si);
        }
        let components = comps.len();
        // Longest-processing-time packing by station count into at most
        // `max_shards` bins (deterministic: stable sort, lowest bin wins
        // ties).
        let mut order: Vec<usize> = (0..comps.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(comps[i].stations.len()));
        let bins = max_shards.min(comps.len()).max(1);
        let mut loads = vec![0usize; bins];
        let mut assignment: Vec<Vec<usize>> = vec![Vec::new(); bins];
        for &ci in &order {
            let bin = (0..bins).min_by_key(|&b| loads[b]).unwrap();
            loads[bin] += comps[ci].stations.len();
            assignment[bin].push(ci);
        }
        let mut shards = Vec::new();
        for mut group in assignment {
            if group.is_empty() {
                continue;
            }
            // Media in ascending first-station order keeps shard layout
            // independent of the LPT visit order.
            group.sort_by_key(|&ci| comps[ci].stations.first().copied().unwrap_or(usize::MAX));
            let mut shard = Shard {
                medium_channel: Vec::new(),
                stations: Vec::new(),
                sniffers: Vec::new(),
            };
            for &ci in &group {
                let medium = shard.medium_channel.len();
                shard
                    .medium_channel
                    .push(comps[ci].channel.expect("component has a channel"));
                shard
                    .stations
                    .extend(comps[ci].stations.iter().map(|&gi| (gi, medium)));
                shard
                    .sniffers
                    .extend(comps[ci].sniffers.iter().map(|&si| (si, medium)));
            }
            // Ascending global order (components are internally ascending;
            // merge across them) so same-timestamp sequence order matches
            // the unsharded build.
            shard.stations.sort_by_key(|&(gi, _)| gi);
            shard.sniffers.sort_by_key(|&(si, _)| si);
            shards.push(shard);
        }
        shards.sort_by_key(|s| std::cmp::Reverse(s.stations.len()));
        ShardPlan {
            shards,
            components,
            signature,
        }
    }

    /// Materializes one shard as a partitioned simulator whose media are
    /// the shard's components.
    pub fn build_shard(&self, shard: &Shard) -> Simulator {
        let mut sim = Simulator::new_partitioned(self.config.clone(), shard.medium_channel.clone());
        sim.reserve_stations(shard.stations.len(), shard.sniffers.len());
        for &(gi, medium) in &shard.stations {
            match &self.stations[gi] {
                StationOp::Ap {
                    pos,
                    channel_idx,
                    ssid_len,
                    adaptation,
                    rts_policy,
                } => {
                    sim.add_ap_keyed(
                        *pos,
                        *channel_idx,
                        *ssid_len,
                        *adaptation,
                        *rts_policy,
                        gi as u64,
                        medium,
                    );
                }
                StationOp::Client(cfg) => {
                    sim.add_client_keyed(cfg.clone(), gi as u64, medium);
                }
            }
        }
        for &(si, medium) in &shard.sniffers {
            sim.add_sniffer_keyed(self.sniffers[si], si as u64, medium);
        }
        sim
    }

    /// Splits the scenario along BSS lines into at most `max_shards`
    /// owner sets (each client with its join-time argmax AP), with the
    /// two-hop export set of each, or `None` under dynamic channel
    /// management, an orphan client, `max_shards < 2`, an unsafe
    /// `window_us` (zero, or wider than `min(cs_delay, OVERLAP_GUARD_US)`),
    /// or a single BSS. Builds an O(N²) topology to do so.
    ///
    /// Kept only because the benchmark times it (`sim.shard.lockstep_plan_s`
    /// and `_peak_mb`); no executor runs its plans. It goes once the
    /// benchmark drops its `sim.shard.lockstep*` metrics.
    pub fn partition_lockstep(&self, max_shards: usize, window_us: Micros) -> Option<LockstepPlan> {
        let n = self.stations.len();
        if self.config.channel_mgmt.is_some() || max_shards < 2 || n == 0 {
            return None;
        }
        // The window must not outlive either influence-latency bound: a
        // transmission started in the first microsecond of a window must
        // not owe carrier sense (one cs_delay later) or retroactive
        // interferer registration (the overlap guard) to a sibling shard
        // before the boundary exchange can deliver it.
        if window_us == 0 || window_us > self.config.cs_delay_us.min(OVERLAP_GUARD_US) {
            return None;
        }
        let radio = &self.config.radio;
        let floor = radio.effective_coupling_floor_dbm();
        // Orphan clients rescan onto other channels, toward APs a sibling
        // shard may own; decline exactly as component sharding does.
        for op in &self.stations {
            if !op.is_ap()
                && !self
                    .stations
                    .iter()
                    .any(|o| o.is_ap() && o.channel_idx() == op.channel_idx())
            {
                return None;
            }
        }
        // BSS grouping: co-own each client with its join-time argmax AP
        // (strongest co-channel path, first maximum in build order).
        // Downlink MSDUs are enqueued at the AP from the client's own
        // traffic handler; only co-ownership keeps that enqueue
        // shard-local.
        let mut uf = UnionFind::new(n);
        for c in 0..n {
            if self.stations[c].is_ap() {
                continue;
            }
            let ch = self.stations[c].channel_idx();
            let mut best: Option<(usize, f64)> = None;
            for (i, op) in self.stations.iter().enumerate() {
                if op.is_ap() && op.channel_idx() == ch {
                    let rssi = radio.rssi_dbm(op.pos(), self.stations[c].pos());
                    if best.is_none_or(|(_, b)| rssi > b) {
                        best = Some((i, rssi));
                    }
                }
            }
            let (ap, _) = best.expect("checked above: every client channel has an AP");
            uf.union(c, ap);
        }
        // Collect BSS groups in first-seen root order.
        let mut root_ids: Vec<(usize, usize)> = Vec::new();
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for i in 0..n {
            let root = uf.find(i);
            let gid = match root_ids.iter().find(|&&(r, _)| r == root) {
                Some(&(_, g)) => g,
                None => {
                    root_ids.push((root, groups.len()));
                    groups.push(Vec::new());
                    groups.len() - 1
                }
            };
            groups[gid].push(i);
        }
        if groups.len() < 2 {
            return None; // one BSS: nothing to split
        }
        // Longest-processing-time packing by station count (deterministic:
        // stable sort, lowest bin wins ties), then ascending owned lists.
        let bins = max_shards.min(groups.len());
        let mut order: Vec<usize> = (0..groups.len()).collect();
        order.sort_by_key(|&g| std::cmp::Reverse(groups[g].len()));
        let mut loads = vec![0usize; bins];
        let mut assignment: Vec<Vec<usize>> = vec![Vec::new(); bins];
        for &g in &order {
            let bin = (0..bins).min_by_key(|&b| loads[b]).unwrap();
            loads[bin] += groups[g].len();
            assignment[bin].push(g);
        }
        let mut owned_lists: Vec<Vec<usize>> = assignment
            .into_iter()
            .filter(|grp| !grp.is_empty())
            .map(|grp| {
                let mut v: Vec<usize> = grp
                    .iter()
                    .flat_map(|&g| groups[g].iter().copied())
                    .collect();
                v.sort_unstable();
                v
            })
            .collect();
        if owned_lists.len() < 2 {
            return None;
        }
        owned_lists.sort_by_key(|v| (std::cmp::Reverse(v.len()), v.first().copied()));
        let k = owned_lists.len();
        // Sniffers: deterministic round-robin by global index. Each sniffer
        // is wholly owned by one shard, and the stations it can hear join
        // that shard's relevance closure below.
        let mut shard_sniffers: Vec<Vec<usize>> = vec![Vec::new(); k];
        for si in 0..self.sniffers.len() {
            shard_sniffers[si % k].push(si);
        }
        // Per-shard relevance closures over a throwaway full topology:
        // R_B = owned ∪ coupled-or-audible (S₁) ∪ neighbors(S₁).
        let station_pos: Vec<Pos> = self.stations.iter().map(|o| o.pos()).collect();
        let sniffer_pos: Vec<Pos> = self.sniffers.iter().map(|c| c.pos).collect();
        let mut topo = SensingTopology::default();
        topo.rebuild(&station_pos, &sniffer_pos, radio);
        let mut relevance: Vec<NodeSet> = Vec::with_capacity(k);
        for b in 0..k {
            let mut owned = NodeSet::new();
            for &gi in &owned_lists[b] {
                owned.insert(gi);
            }
            let mut audible = NodeSet::new();
            for &si in &shard_sniffers[b] {
                for gi in 0..n {
                    if topo.sniffer_rssi(si, gi) >= floor {
                        audible.insert(gi);
                    }
                }
            }
            let mut rel = NodeSet::new();
            topo.boundary_relevance(&owned, &audible, &mut rel);
            relevance.push(rel);
        }
        let shards = owned_lists
            .into_iter()
            .zip(shard_sniffers)
            .enumerate()
            .map(|(a, (owned, sniffers))| {
                let mut owned_mask = vec![false; n];
                let mut exported = vec![false; n];
                for &gi in &owned {
                    owned_mask[gi] = true;
                    exported[gi] = (0..k).any(|b| b != a && relevance[b].contains(gi));
                }
                LockstepShard {
                    owned,
                    owned_mask,
                    exported,
                    sniffers,
                }
            })
            .collect();
        Some(LockstepPlan { shards, window_us })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::radio::RadioConfig;
    use crate::sniffer::SnifferConfig;
    use crate::traffic::TrafficProfile;

    fn config(channels: Vec<u8>) -> SimConfig {
        SimConfig {
            channels: channels
                .into_iter()
                .map(|n| wifi_frames::phy::Channel::new(n).unwrap())
                .collect(),
            ..SimConfig::default()
        }
    }

    fn client(pos: Pos, channel_idx: usize) -> ClientConfig {
        ClientConfig {
            pos,
            channel_idx,
            rts_policy: RtsPolicy::Never,
            adaptation: RateAdaptation::Arf(Rate::R11),
            traffic: TrafficProfile::silent(),
            join_at_us: 0,
            leave_at_us: None,
            power_save_interval_us: None,
            frag_threshold: None,
        }
    }

    /// Two halls far beyond the coupling floor split into two components;
    /// one hall stays whole.
    #[test]
    fn partitions_far_halls() {
        let mut spec = ShardSpec::new(config(vec![1]));
        spec.add_ap(Pos::new(0.0, 0.0), 0, 4);
        spec.add_client(client(Pos::new(5.0, 0.0), 0));
        spec.add_ap(Pos::new(10_000.0, 0.0), 0, 4);
        spec.add_client(client(Pos::new(10_005.0, 0.0), 0));
        let plan = spec.partition(8).expect("shardable");
        assert_eq!(plan.components, 2);
        assert_eq!(plan.shards.len(), 2);
        let mut stations: Vec<Vec<usize>> = plan
            .shards
            .iter()
            .map(|s| s.stations.iter().map(|&(gi, _)| gi).collect())
            .collect();
        stations.sort();
        assert_eq!(stations, vec![vec![0, 1], vec![2, 3]]);
    }

    /// Stations within range form one component regardless of shard cap.
    #[test]
    fn near_stations_stay_together() {
        let mut spec = ShardSpec::new(config(vec![1]));
        spec.add_ap(Pos::new(0.0, 0.0), 0, 4);
        for i in 0..5 {
            spec.add_client(client(Pos::new(3.0 * i as f64, 4.0), 0));
        }
        let plan = spec.partition(8).expect("shardable");
        assert_eq!(plan.components, 1);
        assert_eq!(plan.shards.len(), 1);
        assert_eq!(plan.shards[0].station_count(), 6);
    }

    /// Different channels are independent even at the same position.
    #[test]
    fn channels_split_components() {
        let mut spec = ShardSpec::new(config(vec![1, 6]));
        spec.add_ap(Pos::new(0.0, 0.0), 0, 4);
        spec.add_client(client(Pos::new(1.0, 0.0), 0));
        spec.add_ap(Pos::new(0.0, 1.0), 1, 4);
        spec.add_client(client(Pos::new(1.0, 1.0), 1));
        let plan = spec.partition(8).expect("shardable");
        assert_eq!(plan.components, 2);
    }

    /// A client with no co-channel AP forces the unsharded fallback.
    #[test]
    fn orphan_client_declines() {
        let mut spec = ShardSpec::new(config(vec![1, 6]));
        spec.add_ap(Pos::new(0.0, 0.0), 0, 4);
        spec.add_client(client(Pos::new(1.0, 0.0), 1));
        assert!(spec.partition(8).is_none());
    }

    /// A sniffer between two otherwise-separate groups merges them.
    #[test]
    fn sniffer_bridges_components() {
        // Pick a separation where the groups are mutually below the floor
        // but a midpoint sniffer couples to both sides.
        let radio = RadioConfig::default();
        let floor = radio.effective_coupling_floor_dbm();
        let mut d = 10.0;
        while radio.rssi_dbm(Pos::new(0.0, 0.0), Pos::new(d, 0.0)) >= floor {
            d += 10.0;
        }
        assert!(
            radio.rssi_dbm(Pos::new(0.0, 0.0), Pos::new(d / 2.0, 0.0)) >= floor,
            "midpoint must stay coupled for this test to be meaningful"
        );
        let mut spec = ShardSpec::new(config(vec![1]));
        spec.add_ap(Pos::new(0.0, 0.0), 0, 4);
        spec.add_ap(Pos::new(d, 0.0), 0, 4);
        let plan = spec.partition(8).expect("shardable");
        assert_eq!(plan.components, 2, "groups start separate");
        spec.add_sniffer(SnifferConfig {
            pos: Pos::new(d / 2.0, 0.0),
            channel_idx: 0,
            ..SnifferConfig::default()
        });
        let plan = spec.partition(8).expect("shardable");
        assert_eq!(plan.components, 1, "sniffer couples to both sides");
    }

    /// LPT grouping respects the shard cap and covers every station once.
    #[test]
    fn grouping_covers_all_once() {
        let mut spec = ShardSpec::new(config(vec![1]));
        for h in 0..5 {
            let x = h as f64 * 10_000.0;
            spec.add_ap(Pos::new(x, 0.0), 0, 4);
            for i in 0..=h {
                spec.add_client(client(Pos::new(x + 2.0 * i as f64, 3.0), 0));
            }
        }
        let plan = spec.partition(2).expect("shardable");
        assert_eq!(plan.components, 5);
        assert_eq!(plan.shards.len(), 2);
        let mut seen: Vec<usize> = plan
            .shards
            .iter()
            .flat_map(|s| s.stations.iter().map(|&(gi, _)| gi))
            .collect();
        seen.sort();
        assert_eq!(seen, (0..spec.station_count()).collect::<Vec<_>>());
    }

    /// Channel management disables sharding.
    #[test]
    fn channel_mgmt_declines() {
        let mut cfg = config(vec![1, 6]);
        cfg.channel_mgmt = Some(crate::config::ChannelMgmt::default());
        let mut spec = ShardSpec::new(cfg);
        spec.add_ap(Pos::new(0.0, 0.0), 0, 4);
        assert!(spec.partition(8).is_none());
    }

    /// A dense two-BSS cell: one RF-isolation component (the ceiling of
    /// component sharding), but lockstep splits it along BSS lines, keeping
    /// each client with its join-time argmax AP.
    #[test]
    fn lockstep_splits_one_component() {
        let mut spec = ShardSpec::new(config(vec![1]));
        let ap0 = spec.add_ap(Pos::new(0.0, 0.0), 0, 4);
        let ap1 = spec.add_ap(Pos::new(40.0, 0.0), 0, 4);
        for i in 0..3 {
            spec.add_client(client(Pos::new(2.0 * i as f64, 1.0), 0));
            spec.add_client(client(Pos::new(40.0 + 2.0 * i as f64, 1.0), 0));
        }
        let comp = spec.partition(8).expect("shardable");
        assert_eq!(comp.components, 1, "everything is coupled: one component");
        let plan = spec
            .partition_lockstep(4, DEFAULT_LOCKSTEP_WINDOW_US)
            .expect("two BSS groups can lockstep");
        assert_eq!(plan.shards.len(), 2);
        assert_eq!(plan.window_us, DEFAULT_LOCKSTEP_WINDOW_US);
        // Coverage: every station owned exactly once.
        let mut seen: Vec<usize> = plan.shards.iter().flat_map(|s| s.owned_indices()).collect();
        seen.sort();
        assert_eq!(seen, (0..spec.station_count()).collect::<Vec<_>>());
        // BSS co-ownership: each client shares a shard with its argmax AP.
        let owner_of = |gi: usize| plan.shards.iter().position(|s| s.owns(gi)).unwrap();
        for (c, ap) in [
            (2usize, ap0),
            (3, ap1),
            (4, ap0),
            (5, ap1),
            (6, ap0),
            (7, ap1),
        ] {
            assert_eq!(owner_of(c), owner_of(ap), "client {c} rides with AP {ap}");
        }
        // Fully coupled cell: every owned station sits in the sibling's
        // relevance closure, so everything is exported.
        for s in &plan.shards {
            assert_eq!(s.exported_count(), s.station_count());
        }
    }

    /// Lockstep declines when the window is unsafe, when there is nothing
    /// to split, and under dynamic channel management.
    #[test]
    fn lockstep_declines() {
        let mut spec = ShardSpec::new(config(vec![1]));
        spec.add_ap(Pos::new(0.0, 0.0), 0, 4);
        spec.add_ap(Pos::new(40.0, 0.0), 0, 4);
        spec.add_client(client(Pos::new(1.0, 1.0), 0));
        spec.add_client(client(Pos::new(41.0, 1.0), 0));
        assert!(spec.partition_lockstep(4, 0).is_none(), "zero window");
        let too_wide = spec.config().cs_delay_us.min(OVERLAP_GUARD_US) + 1;
        assert!(
            spec.partition_lockstep(4, too_wide).is_none(),
            "window wider than the influence-latency bound"
        );
        assert!(spec.partition_lockstep(1, 10).is_none(), "one shard max");
        // One BSS: both clients argmax onto the same AP.
        let mut one = ShardSpec::new(config(vec![1]));
        one.add_ap(Pos::new(0.0, 0.0), 0, 4);
        one.add_client(client(Pos::new(1.0, 0.0), 0));
        one.add_client(client(Pos::new(2.0, 0.0), 0));
        assert!(one.partition_lockstep(4, 10).is_none(), "single BSS");
        let mut cfg = config(vec![1]);
        cfg.channel_mgmt = Some(crate::config::ChannelMgmt::default());
        let mut cm = ShardSpec::new(cfg);
        cm.add_ap(Pos::new(0.0, 0.0), 0, 4);
        cm.add_ap(Pos::new(40.0, 0.0), 0, 4);
        cm.add_client(client(Pos::new(1.0, 1.0), 0));
        cm.add_client(client(Pos::new(41.0, 1.0), 0));
        assert!(cm.partition_lockstep(4, 10).is_none(), "channel mgmt");
    }

    /// The all-pairs planner the bucketed one replaced: every same-channel
    /// pair and every station at every sniffer goes to the oracle, and each
    /// client scans all stations for its argmax AP.
    fn all_pairs_signature(
        spec: &ShardSpec,
        geo: &impl Geometry,
    ) -> Option<(UnionFind, CouplingSignature)> {
        let st = &spec.stations;
        let n = st.len();
        for op in st {
            if !op.is_ap()
                && !st
                    .iter()
                    .any(|o| o.is_ap() && o.channel_idx() == op.channel_idx())
            {
                return None;
            }
        }
        let mut uf = UnionFind::new(n + spec.sniffers.len());
        for a in 0..n {
            for b in (a + 1)..n {
                if st[a].channel_idx() == st[b].channel_idx() && geo.coupled(a, b) {
                    uf.union(a, b);
                }
            }
        }
        let mut client_ap = Vec::new();
        for c in (0..n).filter(|&c| !st[c].is_ap()) {
            let mut best: Option<(usize, f64)> = None;
            for (i, op) in st.iter().enumerate() {
                if op.is_ap() && op.channel_idx() == st[c].channel_idx() {
                    let rssi = geo.rssi(i, c);
                    if best.is_none_or(|(_, b)| rssi > b) {
                        best = Some((i, rssi));
                    }
                }
            }
            client_ap.push((c, best.unwrap().0));
            uf.union(c, best.unwrap().0);
        }
        for (si, cfg) in spec.sniffers.iter().enumerate() {
            for (i, op) in st.iter().enumerate() {
                if op.channel_idx() == cfg.channel_idx && geo.sniffer_hears(si, i) {
                    uf.union(n + si, i);
                }
            }
        }
        let labels = (0..n + spec.sniffers.len()).map(|e| uf.find(e)).collect();
        Some((uf, CouplingSignature { labels, client_ap }))
    }

    /// A plan's comparable parts.
    fn parts(plan: ShardPlan) -> (Vec<Shard>, usize, CouplingSignature) {
        (plan.shards, plan.components, plan.signature)
    }

    /// The oracle's plan: its union-find through the same packing.
    fn oracle_plan(
        spec: &ShardSpec,
        geo: &impl Geometry,
        max_shards: usize,
        keep_together: &[(usize, usize)],
    ) -> Option<(Vec<Shard>, usize, CouplingSignature)> {
        all_pairs_signature(spec, geo)
            .map(|(uf, sig)| parts(spec.pack(max_shards, keep_together, uf, sig)))
    }

    /// Radios for the oracle tests: the defaults, the campus radio, and
    /// three whose coupling no finite range bounds (or that couple
    /// nothing).
    fn test_radio(kind: usize) -> RadioConfig {
        let radio = RadioConfig::default();
        match kind {
            0 => radio,
            1 => RadioConfig {
                tx_power_dbm: 13.0,
                pathloss_exp: 3.5,
                cs_threshold_dbm: -92.0,
                ..radio
            },
            // Flat path loss: an infinite range, every pair coupled.
            2 => RadioConfig {
                pathloss_exp: 0.0,
                ..radio
            },
            // Path loss falling with distance: a finite "range" (10 m)
            // inside which nothing couples and beyond which all does.
            3 => RadioConfig {
                tx_power_dbm: -80.0,
                pathloss_exp: -1.0,
                ..radio
            },
            // Below the floor even at 1 m: nothing couples.
            _ => RadioConfig {
                tx_power_dbm: -100.0,
                ..radio
            },
        }
    }

    /// Origins from the centre of the plane to the edge of the grid (a
    /// cell index near 2³² under the default radio) and far past it.
    const ORIGINS: [(f64, f64); 6] = [
        (0.0, 0.0),
        (-5.0e5, 3.0e5),
        (1.0e9, -1.0e9),
        (-2.9e12, 2.9e12),
        (1.0e15, 0.0),
        (-1.0e18, 1.0e18),
    ];

    /// The range layouts are drawn at: the coupling range, or 100 m where
    /// that is not a usable distance.
    fn placement_range(radio: &RadioConfig) -> f64 {
        let range = radio.range_at_dbm(radio.effective_coupling_floor_dbm());
        if range.is_finite() && range > 1.0 {
            range
        } else {
            100.0
        }
    }

    /// splitmix64: the layout generator's random source.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }

        /// A point near `placed` (or around `origin` when empty): scattered
        /// over a few coupling ranges, or at exactly `range` from a placed
        /// point (or a hair inside or outside it), or on top of one.
        fn point(&mut self, origin: Pos, range: f64, placed: &[Pos]) -> Pos {
            if placed.is_empty() || self.below(3) == 0 {
                let (u, v) = (self.unit(), self.unit());
                return Pos::new(
                    origin.x + (u * 4.0 - 2.0) * range,
                    origin.y + (v * 4.0 - 2.0) * range,
                );
            }
            let from = placed[self.below(placed.len())];
            let hair = f64::EPSILON * 4.0;
            let d =
                range * [1.0, 1.0 - 1e-9, 1.0 + 1e-9, 1.0 - hair, 1.0 + hair, 0.0][self.below(6)];
            let (dx, dy) = match self.below(5) {
                0 => (d, 0.0),
                1 => (-d, 0.0),
                2 => (0.0, d),
                3 => (0.0, -d),
                _ => {
                    let a = self.unit() * std::f64::consts::TAU;
                    (d * a.cos(), d * a.sin())
                }
            };
            Pos::new(from.x + dx, from.y + dy)
        }

        /// [`Mix::point`] around `ORIGINS[origin]`, or around (0, 0) past
        /// the last origin. If `wild`, one point in four has a coordinate
        /// that is not finite.
        fn place(&mut self, origin: usize, range: f64, placed: &[Pos], wild: bool) -> Pos {
            let (x, y) = ORIGINS.get(origin).copied().unwrap_or_default();
            let mut pos = self.point(Pos::new(x, y), range, placed);
            if wild && self.below(4) == 0 {
                pos.x = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][self.below(3)];
            }
            pos
        }
    }

    /// A random multi-channel layout with sniffers. Unless `orphans`, the
    /// first station on each channel is an AP, so every client has one.
    /// `origin` indexes `ORIGINS`; one past it puts some stations, two
    /// past it some sniffers, at a coordinate that is not finite.
    fn layout(seed: u64, radio: RadioConfig, origin: usize, n: usize, orphans: bool) -> ShardSpec {
        let mut rng = Mix(seed);
        let channels = 1 + rng.below(3);
        let range = placement_range(&radio);
        let mut spec = ShardSpec::new(SimConfig {
            radio,
            ..config(vec![1, 6, 11][..channels].to_vec())
        });
        let mut placed = Vec::new();
        for i in 0..n {
            let pos = rng.place(origin, range, &placed, origin == ORIGINS.len());
            placed.push(pos);
            let channel = rng.below(channels);
            if (!orphans && i < channels) || rng.below(4) == 0 {
                spec.add_ap(pos, if orphans { channel } else { i % channels }, 4);
            } else {
                spec.add_client(client(pos, channel));
            }
        }
        for _ in 0..rng.below(4) {
            spec.add_sniffer(SnifferConfig {
                pos: rng.place(origin, range, &placed, origin == ORIGINS.len() + 1),
                channel_idx: rng.below(channels),
                ..SnifferConfig::default()
            });
        }
        spec
    }

    proptest::proptest! {
        /// The bucketed planner against the all-pairs oracle on the
        /// recorded positions: the same signature, components and shards.
        fn bucketed_plan_matches_all_pairs(
            seed in 0u64..u64::MAX,
            radio in 0usize..5,
            origin in 0usize..8,
            n in 1usize..48,
            orphans in 0usize..8,
            max_shards in 1usize..6,
        ) {
            let spec = layout(seed, test_radio(radio), origin, n, orphans == 0);
            let geo = PathLoss::new(&spec);
            proptest::prop_assert_eq!(
                spec.partition(max_shards).map(parts),
                oracle_plan(&spec, &geo, max_shards, &[])
            );
        }

        /// The topology-backed paths after random moves, with the build
        /// cut's constraint edges kept together as a mobility driver does.
        fn topology_plan_matches_all_pairs(
            seed in 0u64..u64::MAX,
            radio in 0usize..5,
            origin in 0usize..8,
            n in 1usize..40,
            moves in 0usize..12,
            max_shards in 1usize..6,
        ) {
            let radio = test_radio(radio);
            let spec = layout(seed, radio, origin, n, false);
            let mut topo = SensingTopology::default();
            let mut placed: Vec<Pos> = spec.stations.iter().map(StationOp::pos).collect();
            for &pos in &placed {
                topo.add_station(pos, &radio);
            }
            for cfg in &spec.sniffers {
                topo.add_sniffer(cfg.pos, &radio);
            }
            let keep = spec
                .partition(max_shards)
                .map(|plan| plan.signature.constraint_edges())
                .unwrap_or_default();
            let mut rng = Mix(!seed);
            for _ in 0..moves {
                let id = rng.below(n);
                let wild = origin == ORIGINS.len();
                placed[id] = rng.place(origin, placement_range(&radio), &placed, wild);
                topo.update_station(id, placed[id], &radio);
            }
            let geo = Cached::covering(&spec, &topo).unwrap();
            proptest::prop_assert_eq!(
                spec.coupling_signature(&topo),
                all_pairs_signature(&spec, &geo).map(|(_, sig)| sig)
            );
            proptest::prop_assert_eq!(
                spec.partition_with(max_shards, &topo, &keep).map(parts),
                oracle_plan(&spec, &geo, max_shards, &keep)
            );
        }
    }

    /// Rounding in the path-loss math couples pairs a few ulps past the
    /// computed range. Such a pair, placed so that it straddles a cell
    /// boundary, must still be found.
    #[test]
    fn pair_a_hair_past_the_range_couples() {
        for kind in 0..2 {
            let radio = test_radio(kind);
            let floor = radio.effective_coupling_floor_dbm();
            let coupled = |d: f64| radio.rssi_dbm(Pos::new(0.0, 0.0), Pos::new(d, 0.0)) >= floor;
            let mut d = radio.range_at_dbm(floor);
            let mut far = d;
            for _ in 0..64 {
                d = f64::from_bits(d.to_bits() + 1);
                if coupled(d) {
                    far = d;
                }
            }
            for x in [-1e-14, -far / 2.0, far * 3.0 - 1e-12, -far * 3.0 - 1e-12] {
                let mut spec = ShardSpec::new(SimConfig {
                    radio,
                    ..config(vec![1])
                });
                let (a, b) = (Pos::new(x, 0.0), Pos::new(x + far, 0.0));
                spec.add_ap(a, 0, 4);
                spec.add_ap(b, 0, 4);
                // Moving the pair off the origin may round `far` away.
                let want = if radio.rssi_dbm(a, b) >= floor { 1 } else { 2 };
                let plan = spec.partition(8).expect("shardable");
                assert_eq!(plan.components, want, "radio {kind}, x = {x}");
            }
            assert!(far > radio.range_at_dbm(floor), "radio {kind}");
        }
    }

    /// Counts the planner's oracle calls.
    struct Counting<'a> {
        inner: PathLoss<'a>,
        coupling: std::cell::Cell<usize>,
        rssi: std::cell::Cell<usize>,
    }

    impl Geometry for Counting<'_> {
        fn station_pos(&self, i: usize) -> Pos {
            self.inner.station_pos(i)
        }

        fn sniffer_pos(&self, si: usize) -> Pos {
            self.inner.sniffer_pos(si)
        }

        fn coupled(&self, a: usize, b: usize) -> bool {
            self.coupling.set(self.coupling.get() + 1);
            self.inner.coupled(a, b)
        }

        fn rssi(&self, tx: usize, rx: usize) -> f64 {
            self.rssi.set(self.rssi.get() + 1);
            self.inner.rssi(tx, rx)
        }

        fn sniffer_hears(&self, si: usize, st: usize) -> bool {
            self.coupling.set(self.coupling.get() + 1);
            self.inner.sniffer_hears(si, st)
        }
    }

    /// Planning a 13-hall, 20,000-station campus (the venue campus's
    /// geometry and radio) costs at most 2·N coupling-oracle calls, and
    /// each client asks only its own channel's APs. Counted calls, not
    /// time, so host load cannot move the bound; the all-pairs planner
    /// made ~N²/6 coupling calls and scanned N stations per client.
    #[test]
    fn planner_work_is_near_linear() {
        const HALLS: usize = 13;
        const STATIONS: usize = 20_000;
        let mut spec = ShardSpec::new(SimConfig {
            radio: test_radio(1),
            ..config(vec![1, 6, 11])
        });
        let hall_x = |h: usize| h as f64 * 1_000.0;
        for h in 0..HALLS {
            for ch in 0..3 {
                spec.add_ap(Pos::new(hall_x(h) + 16.0 * (1 + ch) as f64, 18.0), ch, 6);
            }
        }
        let mut rng = Mix(20_000);
        for i in 0..STATIONS - 3 * HALLS {
            let pos = Pos::new(hall_x(i % HALLS) + rng.unit() * 64.0, rng.unit() * 36.0);
            spec.add_client(client(pos, (i / HALLS) % 3));
        }
        for ch in 0..3 {
            spec.add_sniffer(SnifferConfig {
                pos: Pos::new(32.0, 21.6),
                channel_idx: ch,
                ..SnifferConfig::default()
            });
        }
        let geo = Counting {
            inner: PathLoss::new(&spec),
            coupling: Default::default(),
            rssi: Default::default(),
        };
        let (_, sig) = spec.signature_impl(&geo).expect("every channel has APs");
        let mut roots = sig.labels.clone();
        roots.sort_unstable();
        roots.dedup();
        assert_eq!(roots.len(), 3 * HALLS, "one component per (hall, channel)");
        let clients = STATIONS - 3 * HALLS;
        assert!(
            geo.coupling.get() <= 2 * STATIONS,
            "{} coupling-oracle calls for {STATIONS} stations",
            geo.coupling.get()
        );
        assert!(
            geo.rssi.get() <= clients * HALLS,
            "{} AP-RSSI calls for {clients} clients and {HALLS} APs per channel",
            geo.rssi.get()
        );
    }
}
