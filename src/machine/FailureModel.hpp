#pragma once

#include <cstdint>

namespace crocco::machine {

/// MTBF-based node-failure model with Daly's optimal checkpoint interval
/// (J. T. Daly, "A higher order estimate of the optimum checkpoint interval
/// for restart dumps", FGCS 2006). At the paper's 1024-node scale a
/// several-year per-node MTBF compounds into a system interrupt every day
/// or two, so long DMR campaigns must checkpoint; this model prices that
/// overhead so ScalingSimulator::iterationTime can report it.
struct FailureModel {
    /// Mean time between failures of ONE node, hours. Summit-class nodes
    /// (2 P9 + 6 V100 + NVLink + 2 NICs) land in the few-years range.
    double nodeMtbfHours = 40000.0;
    /// Aggregate parallel-filesystem bandwidth (Summit's Alpine GPFS:
    /// ~2.5 TB/s peak), the ceiling for full-machine checkpoint writes.
    double fsAggregateBandwidth = 2.5e12;
    /// Per-node injection limit into the filesystem, B/s; caps small runs.
    double fsPerNodeBandwidth = 12.5e9;
    /// Fixed cost of one failure beyond lost work: detect, requeue,
    /// relaunch, reload the checkpoint (seconds).
    double restartPenalty = 120.0;
    /// Per-node interconnect injection bandwidth, B/s (Summit dual EDR:
    /// ~23 GB/s usable) — the channel buddy mirroring and recovery
    /// redistribution use instead of the filesystem.
    double interconnectBandwidth = 23.0e9;
    /// Time from a rank dying to its peers raising the failure at their
    /// next exchange and agreeing on the shrink (ULFM detection + consensus),
    /// seconds.
    double detectionLatency = 5.0;
    /// Silent-data-corruption rate: upsets per GB of resident state per
    /// hour that flip bits without any machine-check (the ECC-escape rate,
    /// field-study order of magnitude for HBM2/GDDR at scale).
    double sdcRatePerGBHour = 1e-5;
    /// Per-node rate at which the FabGuard scan (CRC32 + conserved-sum
    /// digest, both memory-bound single-pass sweeps) reads state, B/s.
    double sdcScanBandwidth = 100.0e9;

    /// System MTBF in seconds: node failures are independent, so the
    /// machine-level rate scales with node count.
    double systemMtbf(int nodes) const;

    /// Time to write one checkpoint of `bytes` from `nodes` nodes (delta in
    /// Daly's notation).
    double checkpointWriteTime(std::int64_t bytes, int nodes) const;

    /// Daly's higher-order optimum checkpoint interval tau for write time
    /// `delta` and system MTBF `mtbf` (compute time between checkpoint
    /// starts, excluding the dump itself).
    static double dalyInterval(double delta, double mtbf);

    /// Time to mirror one buddy checkpoint of `bytes` across `nodes` nodes:
    /// every rank streams its share to its partner concurrently over the
    /// interconnect, so the time scales with the per-node share — unlike
    /// the disk dump, which the shared filesystem caps at scale.
    double buddyCheckpointTime(std::int64_t bytes, int nodes) const;

    /// Restore cost after one failure via disk: fixed restart penalty plus
    /// re-reading the checkpoint through the filesystem.
    double diskRestoreTime(std::int64_t bytes, int nodes) const;

    /// Restore cost after one failure via the buddy copy: detection +
    /// shrink consensus, then the dead rank's share streaming from its
    /// partner to the adopting ranks over the interconnect. No job
    /// relaunch, no filesystem.
    double buddyRestoreTime(std::int64_t bytes, int nodes) const;

    /// Fraction of wall-clock time lost to resilience when checkpointing
    /// every dalyInterval: dump time, plus expected rework and restart
    /// cost per failure. First-order model, clamped to [0, 0.99].
    double wasteFraction(double delta, double mtbf) const;

    /// Same model with an explicit per-failure restore cost — prices the
    /// disk-vs-buddy recovery comparison (the two schemes differ in both
    /// delta and the restore term).
    double wasteFraction(double delta, double mtbf, double restoreCost) const;

    /// Mean seconds between silent upsets anywhere in `residentBytes` of
    /// machine-resident state (rate scales with footprint and exposure).
    /// Infinity when the rate or the footprint is zero.
    double sdcMeanTimeBetween(std::int64_t residentBytes) const;

    /// One FabGuard sweep over the per-node share of `residentBytes`
    /// (every rank scans its own fabs concurrently).
    double sdcScanTime(std::int64_t residentBytes, int nodes) const;

    /// Fraction of wall-clock time the guard costs when a sweep runs every
    /// `interval` steps of `stepTime` seconds each.
    double sdcDetectionOverhead(std::int64_t residentBytes, int nodes,
                                double stepTime, int interval) const;

    /// Expected waste from silent upsets at a given detection latency:
    /// each upset loses on average half the latency of work plus
    /// `restoreCost` to repair. With the guard on, the latency is the
    /// verify interval and the repair is a fab restore; without it, the
    /// upset rides to the next checkpoint validation and costs a disk
    /// restore + replay. Clamped to [0, 0.99].
    double sdcWasteFraction(std::int64_t residentBytes, double detectionLatencySec,
                            double restoreCost) const;
};

} // namespace crocco::machine
