//! Post-implementation evaluation: run real MAC workloads on the
//! implemented macro, verify every output against the golden model, and
//! measure power/efficiency from the observed switching activity —
//! the "post-layout simulation" sign-off of the paper, plus the
//! measurement conditions of its evaluation section.
//!
//! The golden value of a channel is the exact dot product [`int_dot`]
//! (`syndcim_sim::golden` pins its bit-serial schedule model equal to
//! it). Each chunk resolves its ports once and reads every channel bus
//! once for all lanes; the checker only reads, so it adds no toggles.
//!
//! Every measurement drives the compiled bit-parallel `syndcim_engine`
//! backend: up to 512 measurement passes evaluate simultaneously (`u64`
//! lane words up to 64 lanes, the wider `[u64; N]` words beyond —
//! `EngineSim` picks the word per executor and runs it in the widest
//! vector-ISA frame the CPU has, honoring the `SYNDCIM_SIMD` pin).
//! Measurement drivers use the incremental (`drive_word_at`) stimulus
//! path, skipping input ports whose lane word is unchanged between
//! cycles. Activity converts to power on the macro's compiled power
//! program, built at `implement` from the shared lowering.
//!
//! `measure_int`, `measure_fp` and the power shmoo's activity share one
//! chunk runner. The preparation every pass starts from — bank-0 weight
//! preload, precision select and a two-cycle quiesce — broadcasts the
//! same value to every lane, so the runner performs it once, on a
//! 1-lane executor, and keeps that lane's image (`EngineSim::lane_image`).
//! The pass chunks are dealt round-robin to the worker threads; each
//! worker builds one executor, sized for its first chunk and shrunk
//! (`set_lanes`) for the ragged last one. Before every chunk it loads
//! the image into all lanes without counting toggles, and it keeps
//! accumulating toggles and lane-cycles across its chunks. Lanes never
//! interact, so the summed activity is bit-identical to preparing a
//! fresh executor per chunk. The first failing chunk, in pass order,
//! names the error.
//!
//! The workload drivers are generic over [`SimBackend`], so the
//! backend-agreement tests drive the reference `syndcim_sim::Simulator`
//! (and convert with the reference `PowerAnalyzer`) through the very
//! same stimulus and golden checks, pinning the measurements
//! bit-identical.

use syndcim_engine::EngineSim;
use syndcim_ir::{default_threads, parallel_map};
use syndcim_pdk::{CellLibrary, OperatingPoint};
use syndcim_power::{tops_per_mm2, tops_per_w, MacThroughput, PowerReport};
use syndcim_sim::golden::{fp_align, int_dot, twos_complement_bit};
use syndcim_sim::{FpValue, Precision, SimBackend};
use syndcim_telemetry as telemetry;

use crate::assemble::MacroNetlist;
use crate::error::CoreError;
use crate::flow::ImplementedMacro;

/// Maximum lanes one engine executor carries (the 512-lane word).
const MAX_LANES: usize = EngineSim::MAX_LANES;

/// Lane count for measurement chunks: 64-lane `u64` chunks while they
/// keep every worker thread busy, the 512-lane word once per-thread
/// batches saturate (one wide pass beats several narrow passes on one
/// core, but not narrow passes spread over idle cores). Every
/// `SYNDCIM_SIMD` backend carries the 512-lane word, so the size does
/// not depend on the pin.
pub(crate) fn chunk_lanes(passes: usize) -> usize {
    let threads = default_threads(passes.div_ceil(64));
    if passes <= 64 * threads {
        64
    } else {
        MAX_LANES
    }
}

/// Result of one measured workload.
#[derive(Debug, Clone)]
pub struct MacMeasurement {
    /// Channel outputs checked against the golden model.
    pub checked_outputs: usize,
    /// Power at the measurement frequency and corner.
    pub power: PowerReport,
    /// Throughput in TOPS at the measured precision.
    pub tops: f64,
    /// Energy efficiency in TOPS/W at the measured precision.
    pub tops_per_w: f64,
    /// Energy efficiency normalized to 1b×1b (the paper's Table II
    /// convention).
    pub tops_per_w_1b: f64,
    /// Area efficiency normalized to 1b×1b, in TOPS/mm².
    pub tops_per_mm2_1b: f64,
    /// Energy per MAC in femtojoules at the measured precision.
    pub energy_per_mac_fj: f64,
}

/// Switching activity accumulated by one or more backend instances:
/// per-net toggle totals plus the matching lane-cycle denominator.
#[derive(Debug, Clone)]
pub(crate) struct Activity {
    pub toggles: Vec<u64>,
    pub lane_cycles: u64,
    pub checked: usize,
}

impl Activity {
    /// No activity over a module of `net_count` nets.
    fn idle(net_count: usize) -> Activity {
        Activity { toggles: vec![0; net_count], lane_cycles: 0, checked: 0 }
    }

    fn merge(mut acc: Activity, other: &Activity) -> Activity {
        for (t, o) in acc.toggles.iter_mut().zip(&other.toggles) {
            *t += o;
        }
        acc.lane_cycles += other.lane_cycles;
        acc.checked += other.checked;
        acc
    }
}

/// Measure an integer MAC workload at `pa`-bit precision (activations
/// and weights both `pa` bits, `pa` a power of two ≤ the macro's
/// configured precision) on the compiled engine.
///
/// `passes` holds one activation vector (length `h`) per pass;
/// `weights[ch]` holds the `h` signed weights of output channel `ch`
/// (`ch < w / pa`). Weights are preloaded into bank 0.
///
/// Every channel output of every pass is compared against [`int_dot`]
/// of that pass and channel; power comes from the observed toggles. The
/// library goes unused: the macro carries its compiled programs.
///
/// ```
/// use syndcim_core::{implement, measure_int, DesignChoice, MacroSpec};
/// use syndcim_pdk::{CellLibrary, OperatingPoint};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let lib = CellLibrary::syn40();
/// let spec = MacroSpec {
///     h: 8, w: 8, mcr: 2,
///     int_precisions: vec![1, 2, 4], fp_precisions: vec![],
///     f_mac_mhz: 400.0, f_wu_mhz: 400.0, vdd_v: 0.9,
///     ppa: Default::default(),
/// };
/// let im = implement(&lib, &spec, &DesignChoice::default())?;
/// // Two INT4 channels (8 / pa), three passes of 8 activations each.
/// let weights = vec![vec![3, -2, 1, 0, -4, 5, 2, -1], vec![1; 8]];
/// let passes = vec![vec![1; 8], vec![-3; 8], vec![7, -8, 0, 2, 1, -1, 4, 3]];
/// let m = measure_int(&im, &lib, 4, &passes, &weights,
///                     OperatingPoint::at_voltage(0.9), 400.0)?;
/// assert_eq!(m.checked_outputs, 2 * 3); // every channel of every pass
/// assert!(m.power.total_uw() > 0.0 && m.tops_per_w > 0.0);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Returns [`CoreError::FunctionalMismatch`] if any output disagrees
/// with the golden model, [`CoreError::Precision`] for an unsupported
/// `pa`, [`CoreError::Dimension`] for mis-shaped vectors, and
/// [`CoreError::OperandRange`] for an activation or weight outside
/// `pa`-bit two's complement.
pub fn measure_int(
    im: &ImplementedMacro,
    _lib: &CellLibrary,
    pa: u32,
    passes: &[Vec<i64>],
    weights: &[Vec<i64>],
    op: OperatingPoint,
    f_mhz: f64,
) -> Result<MacMeasurement, CoreError> {
    let activity = int_activity(im, pa, passes, weights)?;
    let power = im.compiled.power.report(&activity.toggles, activity.lane_cycles.max(1), f_mhz, op);
    Ok(finish_measurement(im, power, activity.checked, pa, pa, f_mhz))
}

/// Run the INT workload on the engine and return its activity. The
/// engine executes the simulation program the macro has carried since
/// `implement` (compiled from the shared lowering) — no per-call
/// netlist walk.
///
/// # Errors
///
/// [`CoreError::Precision`] for an unsupported `pa`,
/// [`CoreError::Dimension`] for mis-shaped vectors,
/// [`CoreError::OperandRange`] for operands outside `pa` bits,
/// [`CoreError::FunctionalMismatch`] for golden-model disagreement —
/// the same contract as [`measure_int`].
pub(crate) fn int_activity(
    im: &ImplementedMacro,
    pa: u32,
    passes: &[Vec<i64>],
    weights: &[Vec<i64>],
) -> Result<Activity, CoreError> {
    let mac = &im.mac;
    if !pa.is_power_of_two() || pa > mac.w_bits {
        return Err(CoreError::Precision { pa, max: mac.w_bits });
    }
    check_shape(mac, mac.w / pa as usize, passes, weights, false)?;
    let range = -(1i64 << (pa - 1))..=(1i64 << (pa - 1)) - 1;
    for (what, vectors) in [("activation", passes), ("weight", weights)] {
        if let Some(&value) = vectors.iter().flatten().find(|v| !range.contains(v)) {
            return Err(CoreError::OperandRange { what, value, bits: pa });
        }
    }
    telemetry::span!("eval.int.engine");
    run_chunks(im, pa, weights, passes, |sim, chunk| {
        run_pass_lanes(sim, mac, pa, chunk);
        check_channels(sim, mac, pa, pa, chunk, weights)
    })
}

/// Check a MAC workload's shape: `channels` weight vectors, and `h`
/// entries in every weight and activation vector. `fp` names the
/// vectors of an FP workload in the error.
///
/// # Errors
///
/// [`CoreError::Dimension`] for the first check that fails, in that
/// order.
fn check_shape<T>(
    mac: &MacroNetlist,
    channels: usize,
    passes: &[Vec<T>],
    weights: &[Vec<T>],
    fp: bool,
) -> Result<(), CoreError> {
    let [vectors, weight_entries, activation_entries] = if fp {
        ["FP weight vectors", "FP weight vector entries", "FP activation vector entries"]
    } else {
        ["weight vectors", "weight vector entries", "activation vector entries"]
    };
    if weights.len() != channels {
        return Err(CoreError::Dimension { what: vectors, got: weights.len(), want: channels });
    }
    if let Some(w) = weights.iter().find(|w| w.len() != mac.h) {
        return Err(CoreError::Dimension { what: weight_entries, got: w.len(), want: mac.h });
    }
    if let Some(a) = passes.iter().find(|a| a.len() != mac.h) {
        return Err(CoreError::Dimension { what: activation_entries, got: a.len(), want: mac.h });
    }
    Ok(())
}

/// The chunk runner behind every engine measurement: split `passes`
/// into [`chunk_lanes`]-lane chunks, prepare one lane with [`setup`]
/// (`pw`-bit `weights` in bank 0) and run every chunk from that lane's
/// image, `run` driving and checking the chunk's passes and returning
/// the outputs it checked. Chunks go round-robin to
/// [`default_threads`] workers, one executor each, so the summed
/// activity is the same for any worker count.
///
/// # Errors
///
/// [`CoreError::Engine`] if an executor cannot be built, and the error
/// of the first chunk (in pass order) whose `run` fails.
fn run_chunks<T: Sync>(
    im: &ImplementedMacro,
    pw: u32,
    weights: &[Vec<i64>],
    passes: &[T],
    run: impl Fn(&mut EngineSim<'_>, &[T]) -> Result<usize, CoreError> + Sync,
) -> Result<Activity, CoreError> {
    let (mac, prog) = (&im.mac, &im.compiled.program);
    // Building the template also surfaces a bad SYNDCIM_SIMD as a typed
    // error before any worker thread starts.
    let image = {
        let mut template = EngineSim::try_new(prog, &mac.module, 1)?;
        setup(&mut template, mac, pw, weights);
        template.lane_image(0)?
    };
    let chunks: Vec<(usize, &[T])> = passes.chunks(chunk_lanes(passes.len())).enumerate().collect();
    // No pass, no worker: every group holds at least its lead chunk.
    let workers = default_threads(chunks.len()).min(chunks.len());
    let groups: Vec<Vec<(usize, &[T])>> =
        (0..workers).map(|w| chunks.iter().copied().skip(w).step_by(workers).collect()).collect();
    let results = parallel_map(groups, |_, group| -> Result<Activity, (usize, CoreError)> {
        let (first, lead) = group[0];
        let mut sim = EngineSim::try_new(prog, &mac.module, lead.len()).map_err(|e| (first, e.into()))?;
        let mut checked = 0;
        for (i, chunk) in group {
            let mut run_chunk = || -> Result<usize, CoreError> {
                sim.set_lanes(chunk.len())?;
                sim.load_image(&image)?;
                run(&mut sim, chunk)
            };
            checked += run_chunk().map_err(|e| (i, e))?;
        }
        Ok(Activity { toggles: sim.toggle_table().to_vec(), lane_cycles: sim.lane_cycles(), checked })
    });
    let mut acc = Activity::idle(mac.module.net_count());
    let mut errors = Vec::new();
    for r in results {
        match r {
            Ok(a) => acc = Activity::merge(acc, &a),
            Err(e) => errors.push(e),
        }
    }
    match errors.into_iter().min_by_key(|&(i, _)| i) {
        Some((_, e)) => Err(e),
        None => Ok(acc),
    }
}

/// Measure an FP MAC workload in the macro's configured FP format on
/// the compiled engine. FP activations go through the on-macro
/// alignment unit; FP weights are pre-aligned (as the paper's flow
/// stores them) and written as signed mantissas across
/// `next_power_of_two(man+2)` columns. The library goes unused: the
/// macro carries its compiled programs.
///
/// # Errors
///
/// Returns [`CoreError::FunctionalMismatch`] if the hardware disagrees
/// with [`syndcim_sim::golden::fp_dot`] semantics,
/// [`CoreError::MissingFpUnit`] if the macro was built without an FP
/// precision, and [`CoreError::Dimension`] for mis-shaped vectors.
pub fn measure_fp(
    im: &ImplementedMacro,
    _lib: &CellLibrary,
    passes: &[Vec<FpValue>],
    weights: &[Vec<FpValue>],
    op: OperatingPoint,
    f_mhz: f64,
) -> Result<MacMeasurement, CoreError> {
    let mac = &im.mac;
    let Some(fmt) = mac.fp else {
        return Err(CoreError::MissingFpUnit);
    };
    let pa = fmt.aligned_bits();
    let pw = pa.next_power_of_two().max(2);
    check_shape(mac, mac.w / pw as usize, passes, weights, true)?;

    // Pre-align weights per channel (offline, like the paper's flow).
    let aligned_w: Vec<Vec<i64>> = weights.iter().map(|wv| fp_align(wv, fmt).0).collect();

    let activity = run_chunks(im, pw, &aligned_w, passes, |sim, chunk| {
        // Feed the FP operands through the alignment unit (one cycle to
        // its output register).
        for r in 0..mac.h {
            let field = |f: fn(&FpValue) -> i64| chunk.iter().map(|acts| f(&acts[r])).collect::<Vec<i64>>();
            sim.drive_bus(&[sim.net_of(&format!("fp_s{r}"))], &field(|v| v.sign as i64));
            sim.drive_bus(&sim.bus(&format!("fp_e{r}"), fmt.exp_bits), &field(|v| v.exp_field as i64));
            sim.drive_bus(&sim.bus(&format!("fp_m{r}"), fmt.man_bits), &field(|v| v.man_field as i64));
        }
        sim.step();
        if mac.choice.align_pipelined {
            // Mid-tree and e_max register banks add two cycles.
            sim.step();
            sim.step();
        }
        // The on-macro alignment must match the golden model bit-exactly
        // (hw[r][lane] against aligned[lane][r]).
        let hw: Vec<Vec<i64>> = (0..mac.h).map(|r| sim.read_bus(&sim.bus(&format!("al{r}"), pa))).collect();
        let aligned: Vec<Vec<i64>> = chunk.iter().map(|acts| fp_align(acts, fmt).0).collect();
        for (lane, want) in aligned.iter().enumerate() {
            if let Some(r) = (0..mac.h).find(|&r| hw[r][lane] != want[r]) {
                return Err(CoreError::FunctionalMismatch {
                    channel: usize::MAX,
                    got: hw[r][lane],
                    want: want[r],
                });
            }
        }
        // Bit-serial MAC over the aligned mantissas.
        run_pass_lanes(sim, mac, pa, &aligned);
        check_channels(sim, mac, pa, pw, &aligned, &aligned_w)
    })?;

    let power = im.compiled.power.report(&activity.toggles, activity.lane_cycles.max(1), f_mhz, op);
    Ok(finish_measurement(im, power, activity.checked, pa, pw, f_mhz))
}

/// Result of a weight-update measurement over one or more independent
/// random write patterns.
#[derive(Debug, Clone)]
pub struct WeightUpdateMeasurement {
    /// Mean energy per written weight bit across patterns, in fJ.
    pub energy_per_bit_fj: f64,
    /// Population standard deviation of the per-pattern write energy
    /// per bit, in fJ (0 when a single pattern is measured).
    pub energy_per_bit_std_fj: f64,
    /// Independent random write patterns measured.
    pub patterns: usize,
    /// Write bandwidth at the measurement frequency, in Gb/s.
    pub bandwidth_gbps: f64,
    /// Bits written per pattern.
    pub bits_written: usize,
}

/// Independent write patterns [`measure_weight_update`] usually
/// drives — each occupies one engine lane.
pub const DEFAULT_WU_PATTERNS: usize = 8;

/// Measure the weight-update path on the compiled engine: stream random
/// weights into every (bank, row) through the real write port (BL
/// drivers + address decoder + bitcell capture) and account the
/// switching energy — the dimension-dependent driver cost the paper
/// attributes to WL/BL drivers, and the per-bitcell write cost that
/// differentiates the cell variants. `patterns` independent random data
/// patterns ([`DEFAULT_WU_PATTERNS`] unless a caller needs more) run
/// simultaneously, pattern `l` in engine lane `l`; per-lane toggle
/// accounting attributes the energy, and the result reports the mean
/// and spread of the per-bit write energy across the patterns. The
/// library goes unused: the macro carries its compiled programs.
///
/// # Errors
///
/// Returns [`CoreError::FunctionalMismatch`] if any bitcell fails to
/// capture its written value in any pattern, and
/// [`CoreError::PatternCount`] if `patterns` is zero or exceeds the
/// engine's lane capacity.
pub fn measure_weight_update(
    im: &ImplementedMacro,
    _lib: &CellLibrary,
    op: OperatingPoint,
    f_mhz: f64,
    seed: u64,
    patterns: usize,
) -> Result<WeightUpdateMeasurement, CoreError> {
    if !(1..=MAX_LANES).contains(&patterns) {
        return Err(CoreError::PatternCount { patterns, max: MAX_LANES });
    }
    let mac = &im.mac;
    let mut sim = EngineSim::try_new(&im.compiled.program, &mac.module, patterns)?;
    sim.enable_lane_toggles();
    configure_precision(&mut sim, mac, mac.w_bits);
    quiesce(&mut sim, mac);
    sim.reset_activity();
    let streams = (0..patterns).map(|l| pattern_seed(seed, l as u64) | 1).collect();
    let written = write_burst(&mut sim, mac, WriteData::PerLane(streams));
    check_written(&sim, mac, &written)?;
    let (mean, std) = write_energy(im, &sim, 0..patterns, op, f_mhz);
    Ok(WeightUpdateMeasurement {
        energy_per_bit_fj: mean,
        energy_per_bit_std_fj: std,
        patterns,
        bandwidth_gbps: mac.w as f64 * f_mhz * 1e6 / 1e9,
        bits_written: mac.w * mac.h * mac.mcr,
    })
}

/// Derive the xorshift stream of one write pattern. Pattern 0 keeps the
/// seed's original `seed | 1` stream so single-pattern measurements
/// reproduce historical numbers.
pub(crate) fn pattern_seed(seed: u64, pattern: u64) -> u64 {
    seed.wrapping_add(pattern.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// How a weight-update write burst draws the data bits of each lane
/// word, from xorshift stream states (`pattern_seed(..) | 1`).
pub(crate) enum WriteData {
    /// One stream per lane: lane `l` writes the bits of stream `l`.
    PerLane(Vec<u64>),
    /// One stream whose every bit goes to all lanes (and every bit of
    /// every lane word).
    Broadcast(u64),
}

impl WriteData {
    /// Draw one write bitline's lane words into `words`, appending each
    /// stream's bit to `written[stream]`.
    fn draw(&mut self, words: &mut [u64], written: &mut [Vec<bool>]) {
        match self {
            WriteData::PerLane(streams) => {
                let lane_words = streams.chunks_mut(64).zip(written.chunks_mut(64));
                for (word, (states, bits)) in words.iter_mut().zip(lane_words) {
                    *word = 0;
                    for (b, (state, bits)) in states.iter_mut().zip(bits).enumerate() {
                        let bit = next_bit(state);
                        bits.push(bit);
                        *word |= (bit as u64) << b;
                    }
                }
            }
            WriteData::Broadcast(state) => {
                let bit = next_bit(state);
                written[0].push(bit);
                words.fill(if bit { !0 } else { 0 });
            }
        }
    }
}

/// The write burst behind every weight-update measurement: `wr_en`
/// high, then one step per (bank, row) that drives the row and bank
/// address and one word per write bitline and lane word, the data drawn
/// from `data`; `wr_en` low again. Returns the bits each stream wrote,
/// `written[stream][(bank * h + row) * w + col]`.
pub(crate) fn write_burst<B: SimBackend + ?Sized>(
    sim: &mut B,
    mac: &MacroNetlist,
    mut data: WriteData,
) -> Vec<Vec<bool>> {
    let lanes = sim.lanes();
    let wbl = sim.bus("wbl", mac.w as u32);
    let wr_row = sim.bus("wr_row", mac.h.trailing_zeros());
    let wr_bank = sim.bus("wr_bank", mac.mcr.trailing_zeros());
    let streams = match &data {
        WriteData::PerLane(states) => states.len(),
        WriteData::Broadcast(_) => 1,
    };
    let mut written = vec![Vec::new(); streams];
    let mut words = vec![0u64; sim.words()];
    sim.set_all("wr_en", true);
    for bank in 0..mac.mcr {
        for row in 0..mac.h {
            sim.drive_bus(&wr_row, &vec![row as i64; lanes]);
            sim.drive_bus(&wr_bank, &vec![bank as i64; lanes]);
            for &net in &wbl {
                data.draw(&mut words, &mut written);
                for (wi, &word) in words.iter().enumerate() {
                    sim.drive_word_at(net, wi, word);
                }
            }
            sim.step();
        }
    }
    sim.set_all("wr_en", false);
    written
}

/// Check that every bitcell captured, in every lane, the bit that
/// lane's stream wrote (`written` from a one-stream-per-lane
/// [`write_burst`]).
///
/// # Errors
///
/// [`CoreError::FunctionalMismatch`] for the first bitcell, then lane,
/// that holds another value.
fn check_written<B: SimBackend + ?Sized>(
    sim: &B,
    mac: &MacroNetlist,
    written: &[Vec<bool>],
) -> Result<(), CoreError> {
    for bc in &mac.bitcells {
        let at = (bc.bank * mac.h + bc.row) * mac.w + bc.col;
        for (l, bits) in written.iter().enumerate() {
            let (got, want) = (sim.state_of_lane(bc.inst, l), bits[at]);
            if got != want {
                return Err(CoreError::FunctionalMismatch {
                    channel: bc.col,
                    got: got as i64,
                    want: want as i64,
                });
            }
        }
    }
    Ok(())
}

/// The reducer behind every weight-update measurement: the mean and
/// population standard deviation ((0, 0) for no lane) of the per-bit
/// write energy, in fJ, of each lane in `lanes` of an executor that ran
/// one [`write_burst`] with per-lane toggles enabled. A lane's energy
/// comes from its own toggles over its share of the lane-cycles, on the
/// macro's compiled power program.
pub(crate) fn write_energy(
    im: &ImplementedMacro,
    sim: &EngineSim<'_>,
    lanes: impl Iterator<Item = usize>,
    op: OperatingPoint,
    f_mhz: f64,
) -> (f64, f64) {
    let bits = im.mac.w * im.mac.h * im.mac.mcr;
    let cycles = sim.lane_cycles() / sim.lanes() as u64;
    let energies: Vec<f64> = lanes
        .map(|l| {
            let toggles = sim.lane_toggle_table(l).expect("per-lane toggles were enabled before the burst");
            let power = im.compiled.power.report(&toggles, cycles, f_mhz, op);
            power.energy_per_cycle_pj * 1000.0 * cycles as f64 / bits as f64
        })
        .collect();
    if energies.is_empty() {
        return (0.0, 0.0);
    }
    let mean = energies.iter().sum::<f64>() / energies.len() as f64;
    let var = energies.iter().map(|e| (e - mean) * (e - mean)).sum::<f64>() / energies.len() as f64;
    (mean, var.sqrt())
}

/// Tiny xorshift bit source (keeps `rand` out of the library API).
fn next_bit(state: &mut u64) -> bool {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state & 1 == 1
}

// ----------------------------------------------------------------------
// Backend-generic workload drivers.
// ----------------------------------------------------------------------

/// Preload `pw`-bit weights into bank 0, select precision `pw`, quiesce
/// and zero the activity counters.
fn setup<B: SimBackend>(sim: &mut B, mac: &MacroNetlist, pw: u32, weights: &[Vec<i64>]) {
    preload_weights(sim, mac, pw, weights);
    configure_precision(sim, mac, pw);
    quiesce(sim, mac);
    sim.reset_activity();
}

fn preload_weights<B: SimBackend>(sim: &mut B, mac: &MacroNetlist, pw: u32, weights: &[Vec<i64>]) {
    for bc in &mac.bitcells {
        if bc.bank != 0 {
            continue;
        }
        let ch = bc.col / pw as usize;
        let j = (bc.col % pw as usize) as u32;
        if ch < weights.len() {
            let bit = twos_complement_bit(weights[ch][bc.row], pw, j);
            sim.force_state_all(bc.inst, bit);
        }
    }
}

pub(crate) fn configure_precision<B: SimBackend + ?Sized>(sim: &mut B, mac: &MacroNetlist, pw: u32) {
    let level = pw.trailing_zeros() as usize;
    for k in 0..=(mac.w_bits.trailing_zeros() as usize) {
        sim.set_all(&format!("prec[{k}]"), k == level);
    }
    // Bank 0 selected; write interface idle.
    for k in 0..mac.mcr.trailing_zeros() as usize {
        sim.set_all(&format!("bank_sel[{k}]"), false);
    }
    sim.set_all("wr_en", false);
}

pub(crate) fn quiesce<B: SimBackend + ?Sized>(sim: &mut B, mac: &MacroNetlist) {
    for r in 0..mac.h {
        sim.set_all(&format!("act[{r}]"), false);
    }
    sim.set_all("neg", false);
    sim.set_all("clear", false);
    sim.step();
    sim.step();
}

/// Drive one bit-serial pass of `pa`-bit activations in every lane
/// simultaneously (lane `l` computes `lanes_acts[l]`, one value per
/// active lane), leaving the accumulators holding the completed pass.
/// Cycle `t < pa` drives row `r` with bit `t` of `lanes_acts[l][r]`
/// (LSB first), exact for operands in `pa`-bit range. Stimulus goes
/// through the incremental [`SimBackend::drive_word_at`] path, so input
/// ports whose lane word repeats between cycles are not re-driven —
/// bit-identical toggles, less driver overhead.
fn run_pass_lanes(
    sim: &mut (impl SimBackend + ?Sized),
    mac: &MacroNetlist,
    pa: u32,
    lanes_acts: &[Vec<i64>],
) {
    let depth = mac.mac_pipeline_depth as u32;
    let act = sim.bus("act", mac.h as u32);
    let clear_net = sim.net_of("clear");
    let neg_net = sim.net_of("neg");
    let words = sim.words();
    let total = pa + depth + u32::from(mac.choice.ofu_extra_pipe);
    let mut row_bits = vec![0i64; lanes_acts.len()];
    for cycle in 0..total {
        // Activation bits enter on cycles 0..pa.
        for r in 0..mac.h {
            for (bits, acts) in row_bits.iter_mut().zip(lanes_acts) {
                *bits = if cycle < pa { acts[r] >> cycle } else { 0 };
            }
            sim.drive_bus(&act[r..=r], &row_bits);
        }
        // S&A controls are aligned to the psum arrival (delayed by the
        // pipeline registers between tree and accumulator).
        for wi in 0..words {
            sim.drive_word_at(clear_net, wi, if cycle == depth { !0 } else { 0 });
            sim.drive_word_at(neg_net, wi, if cycle == pa - 1 + depth { !0 } else { 0 });
        }
        sim.step();
    }
    for wi in 0..words {
        sim.drive_word_at(neg_net, wi, 0);
    }
}

/// Golden-check every channel of every lane after a completed `pa`-bit
/// pass over weights fused across `pw` columns: lane `l`, channel `ch`
/// must read `int_dot(lanes_acts[l], weights[ch])`. Each channel bus is
/// resolved and read once. The S&A places results at a fixed offset for
/// the macro's full serial width, so shorter passes come out scaled by
/// `2^(act_bits − pa)`: the whole bus must read the golden value shifted
/// by that offset, low bits included, and a mismatch reports both bus
/// values. Returns the number of outputs checked.
fn check_channels(
    sim: &(impl SimBackend + ?Sized),
    mac: &MacroNetlist,
    pa: u32,
    pw: u32,
    lanes_acts: &[Vec<i64>],
    weights: &[Vec<i64>],
) -> Result<usize, CoreError> {
    let level = pw.trailing_zeros() as usize;
    let per_group = (mac.w_bits / pw) as usize;
    let width = mac.output_width(level) as u32;
    let scale_shift = mac.act_bits - pa;
    // raw[ch][lane]
    let raw: Vec<Vec<i64>> = (0..mac.w / pw as usize)
        .map(|ch| sim.read_bus(&sim.bus(&mac.output_port(ch / per_group, level, ch % per_group), width)))
        .collect();
    for (lane, acts) in lanes_acts.iter().enumerate() {
        for (ch, (ch_raw, w)) in raw.iter().zip(weights).enumerate() {
            let (got, want) = (ch_raw[lane], int_dot(acts, w) << scale_shift);
            if got != want {
                return Err(CoreError::FunctionalMismatch { channel: ch, got, want });
            }
        }
    }
    Ok(lanes_acts.len() * raw.len())
}

/// Throughput and efficiency figures of a measured `pa`×`pw` workload
/// at `f_mhz`, from its power report.
fn finish_measurement(
    im: &ImplementedMacro,
    power: PowerReport,
    checked_outputs: usize,
    pa: u32,
    pw: u32,
    f_mhz: f64,
) -> MacMeasurement {
    let mac = &im.mac;
    let tput = MacThroughput { h: mac.h, w: mac.w, act: Precision::Int(pa), weight: Precision::Int(pw) };
    let tops = tput.tops(f_mhz);
    let tops_1b = tput.tops_1b(f_mhz);
    let total_uw = power.total_uw();
    let macs_per_sec = tput.macs_per_pass() / tput.cycles_per_pass() * f_mhz * 1e6;
    let energy_per_mac_fj = total_uw * 1e-6 / macs_per_sec * 1e15;
    MacMeasurement {
        checked_outputs,
        power,
        tops,
        tops_per_w: tops_per_w(tops, total_uw),
        tops_per_w_1b: tops_per_w(tops_1b, total_uw),
        tops_per_mm2_1b: tops_per_mm2(tops_1b, im.placement.die_area_um2()),
        energy_per_mac_fj,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::DesignChoice;
    use crate::flow::implement;
    use crate::spec::MacroSpec;
    use syndcim_power::PowerAnalyzer;
    use syndcim_sim::vectors::{random_ints, seeded_rng, sparse_ints};
    use syndcim_sim::{FpFormat, Simulator};

    fn spec_int() -> MacroSpec {
        MacroSpec {
            h: 8,
            w: 8,
            mcr: 2,
            int_precisions: vec![1, 2, 4],
            fp_precisions: vec![],
            f_mac_mhz: 400.0,
            f_wu_mhz: 400.0,
            vdd_v: 0.9,
            ppa: Default::default(),
        }
    }

    /// A reference interpreter on the macro's own lowering.
    fn interpreter<'a>(im: &'a ImplementedMacro, lib: &'a CellLibrary) -> Simulator<'a> {
        Simulator::with_lowering(&im.mac.module, lib, &im.compiled.lowering)
    }

    /// The reference power analyzer on the macro's own lowering and
    /// extracted wire caps.
    fn reference_power<'a>(im: &'a ImplementedMacro, lib: &'a CellLibrary) -> PowerAnalyzer<'a> {
        PowerAnalyzer::from_lowering(&im.mac.module, lib, &im.compiled.lowering, &im.wires.cap_ff)
    }

    #[test]
    fn int4_and_int2_and_int1_all_verify() {
        let lib = CellLibrary::syn40();
        let im = implement(&lib, &spec_int(), &DesignChoice::default()).unwrap();
        let mut rng = seeded_rng(5);
        for pa in [4u32, 2, 1] {
            let channels = 8 / pa as usize;
            let weights: Vec<Vec<i64>> = (0..channels).map(|_| random_ints(&mut rng, 8, pa)).collect();
            let passes: Vec<Vec<i64>> = (0..4).map(|_| random_ints(&mut rng, 8, pa)).collect();
            let m = measure_int(&im, &lib, pa, &passes, &weights, OperatingPoint::at_voltage(0.9), 400.0)
                .unwrap_or_else(|e| panic!("INT{pa}: {e}"));
            assert_eq!(m.checked_outputs, channels * 4);
            assert!(m.power.total_uw() > 0.0);
            assert!(m.tops > 0.0 && m.tops_per_w_1b > 0.0);
        }
    }

    #[test]
    fn retimed_and_split_macros_also_verify() {
        let lib = CellLibrary::syn40();
        let mut rng = seeded_rng(7);
        for choice in [
            DesignChoice { tree_retimed: true, ..DesignChoice::default() },
            DesignChoice { column_split: 2, ..DesignChoice::default() },
            DesignChoice { pipe_tree_sa: false, ..DesignChoice::default() },
            DesignChoice { ofu_negate_retimed: true, ..DesignChoice::default() },
            DesignChoice { ofu_extra_pipe: true, ..DesignChoice::default() },
        ] {
            let im = implement(&lib, &spec_int(), &choice).unwrap();
            let weights: Vec<Vec<i64>> = (0..2).map(|_| random_ints(&mut rng, 8, 4)).collect();
            let passes: Vec<Vec<i64>> = (0..3).map(|_| random_ints(&mut rng, 8, 4)).collect();
            measure_int(&im, &lib, 4, &passes, &weights, OperatingPoint::at_voltage(0.9), 400.0)
                .unwrap_or_else(|e| panic!("{choice:?}: {e}"));
        }
    }

    #[test]
    fn engine_and_interpreter_backends_agree() {
        let lib = CellLibrary::syn40();
        let im = implement(&lib, &spec_int(), &DesignChoice::default()).unwrap();
        let mut rng = seeded_rng(23);
        let weights: Vec<Vec<i64>> = (0..2).map(|_| random_ints(&mut rng, 8, 4)).collect();
        let passes: Vec<Vec<i64>> = (0..5).map(|_| random_ints(&mut rng, 8, 4)).collect();
        let op = OperatingPoint::at_voltage(0.9);

        // The reference: one interpreter per pass, each an independent
        // vector sample from the quiesced state (the condition an engine
        // lane sees), driven and golden-checked by the same drivers.
        let per_pass: Vec<Result<Activity, CoreError>> = passes
            .iter()
            .map(|acts| {
                let mut sim = interpreter(&im, &lib);
                let acts = std::slice::from_ref(acts);
                setup(&mut sim, &im.mac, 4, &weights);
                run_pass_lanes(&mut sim, &im.mac, 4, acts);
                let checked = check_channels(&sim, &im.mac, 4, 4, acts, &weights)?;
                Ok(Activity { toggles: sim.toggle_table().to_vec(), lane_cycles: sim.lane_cycles(), checked })
            })
            .collect();
        let itp = per_pass.into_iter().collect::<Result<Vec<_>, _>>().unwrap();
        let itp = itp.iter().fold(Activity::idle(im.mac.module.net_count()), Activity::merge);

        // Bit-identical activity.
        let eng = int_activity(&im, 4, &passes, &weights).unwrap();
        assert_eq!(eng.checked, itp.checked);
        assert_eq!(eng.lane_cycles, itp.lane_cycles);
        assert_eq!(eng.toggles, itp.toggles, "per-net toggle counts must be bit-identical");

        // And the derived measurements therefore agree exactly, the
        // reference converting through the reference power analyzer.
        let m_eng = measure_int(&im, &lib, 4, &passes, &weights, op, 400.0).unwrap();
        let itp_power =
            reference_power(&im, &lib).from_activity(&itp.toggles, itp.lane_cycles.max(1), 400.0, op);
        let m_itp = finish_measurement(&im, itp_power, itp.checked, 4, 4, 400.0);
        assert_eq!(m_eng.checked_outputs, m_itp.checked_outputs);
        assert_eq!(m_eng.power.dynamic_uw, m_itp.power.dynamic_uw);
        assert_eq!(m_eng.energy_per_mac_fj, m_itp.energy_per_mac_fj);
    }

    /// The checker reads every lane of a ragged 300-lane chunk (the
    /// 512-lane word in the detected frame) and names the channel of a
    /// single corrupted output bit in the last lane.
    #[test]
    fn planted_output_bit_flip_is_a_functional_mismatch() {
        let lib = CellLibrary::syn40();
        let im = implement(&lib, &spec_int(), &DesignChoice::default()).unwrap();
        let mac = &im.mac;
        let mut rng = seeded_rng(31);
        let weights: Vec<Vec<i64>> = (0..2).map(|_| random_ints(&mut rng, 8, 4)).collect();
        let passes: Vec<Vec<i64>> = (0..300).map(|_| random_ints(&mut rng, 8, 4)).collect();
        let mut sim = EngineSim::try_new(&im.compiled.program, &mac.module, passes.len()).unwrap();
        setup(&mut sim, mac, 4, &weights);
        run_pass_lanes(&mut sim, mac, 4, &passes);
        assert_eq!(check_channels(&sim, mac, 4, 4, &passes, &weights).unwrap(), 600);

        // Flip the MSB of channel 1 (group 1 at the INT4 level) in lane
        // 299; the MSB keeps the serial-offset low bits clean.
        let bus = sim.bus(&mac.output_port(1, 2, 0), mac.output_width(2) as u32);
        let msb = *bus.last().unwrap();
        let (wi, bit) = (299 / 64, 299 % 64);
        let word = sim.peek_word_at(msb, wi);
        sim.poke_word_at(msb, wi, word ^ 1 << bit);
        assert!(matches!(
            check_channels(&sim, mac, 4, 4, &passes, &weights),
            Err(CoreError::FunctionalMismatch { channel: 1, .. })
        ));
    }

    /// An INT2 pass reads out at the serial offset of the macro's INT4
    /// width, so its result has two low bits that must read zero. A
    /// single flipped low bit (bit 0 of channel 1 in lane 69) is a
    /// mismatch in every build, reported as the two bus values.
    #[test]
    fn planted_low_bit_flip_is_a_functional_mismatch() {
        let lib = CellLibrary::syn40();
        let im = implement(&lib, &spec_int(), &DesignChoice::default()).unwrap();
        let mac = &im.mac;
        assert_eq!(mac.act_bits, 4, "INT2 results sit two bits above the bus LSB");
        let mut rng = seeded_rng(37);
        let weights: Vec<Vec<i64>> = (0..4).map(|_| random_ints(&mut rng, 8, 2)).collect();
        let passes: Vec<Vec<i64>> = (0..100).map(|_| random_ints(&mut rng, 8, 2)).collect();
        let mut sim = EngineSim::try_new(&im.compiled.program, &mac.module, passes.len()).unwrap();
        setup(&mut sim, mac, 2, &weights);
        run_pass_lanes(&mut sim, mac, 2, &passes);
        assert_eq!(check_channels(&sim, mac, 2, 2, &passes, &weights).unwrap(), 400);

        // Channel 1 at the INT2 level is index 1 of group 0.
        let lsb = sim.bus(&mac.output_port(0, 1, 1), mac.output_width(1) as u32)[0];
        let (wi, bit) = (69 / 64, 69 % 64);
        let word = sim.peek_word_at(lsb, wi);
        sim.poke_word_at(lsb, wi, word ^ 1 << bit);
        let err = check_channels(&sim, mac, 2, 2, &passes, &weights).unwrap_err();
        let want = int_dot(&passes[69], &weights[1]) << 2;
        assert_eq!(err, CoreError::FunctionalMismatch { channel: 1, got: want ^ 1, want });
    }

    /// The chunk runner is exact: 1,100 passes split 512/512/76, run
    /// from one prepared lane image on one executor per worker (on a
    /// 2-core host one worker shrinks its executor for the 76-lane
    /// chunk), add up to the same toggles, lane-cycles and checked
    /// outputs as a fresh executor prepared per chunk.
    #[test]
    fn prepared_image_chunks_equal_fresh_executors_per_chunk() {
        let lib = CellLibrary::syn40();
        let im = implement(&lib, &spec_int(), &DesignChoice::default()).unwrap();
        let mac = &im.mac;
        let mut rng = seeded_rng(41);
        let weights: Vec<Vec<i64>> = (0..2).map(|_| random_ints(&mut rng, 8, 4)).collect();
        let passes: Vec<Vec<i64>> = (0..1100).map(|_| random_ints(&mut rng, 8, 4)).collect();
        let lanes = chunk_lanes(passes.len());
        assert_eq!(passes.chunks(lanes).map(<[_]>::len).collect::<Vec<_>>(), [512, 512, 76]);

        let got = int_activity(&im, 4, &passes, &weights).unwrap();
        let mut want = Activity::idle(mac.module.net_count());
        for chunk in passes.chunks(lanes) {
            let mut sim = EngineSim::try_new(&im.compiled.program, &mac.module, chunk.len()).unwrap();
            setup(&mut sim, mac, 4, &weights);
            run_pass_lanes(&mut sim, mac, 4, chunk);
            let checked = check_channels(&sim, mac, 4, 4, chunk, &weights).unwrap();
            let chunk_activity =
                Activity { toggles: sim.toggle_table().to_vec(), lane_cycles: sim.lane_cycles(), checked };
            want = Activity::merge(want, &chunk_activity);
        }
        assert_eq!(got.checked, 2 * 1100);
        assert_eq!(got.checked, want.checked);
        assert_eq!(got.lane_cycles, want.lane_cycles);
        assert_eq!(got.toggles, want.toggles, "per-net toggle counts must be bit-identical");
    }

    /// The runner names the first failing chunk in pass order, whichever
    /// worker ran it. 2,600 passes make six chunks; on a 2-core host
    /// worker 0 runs chunks 0, 2 and 4 and worker 1 runs 1, 3 and 5, so
    /// failing from chunk 2 on puts the first failure in worker 0 and
    /// failing from chunk 3 on puts it in worker 1.
    #[test]
    fn chunk_errors_surface_in_pass_order() {
        let lib = CellLibrary::syn40();
        let im = implement(&lib, &spec_int(), &DesignChoice::default()).unwrap();
        let weights = vec![vec![1i64; 8]; 2];
        let passes: Vec<usize> = (0..2600).collect();
        assert_eq!(chunk_lanes(passes.len()), 512);
        for failing in [2, 3] {
            let err = run_chunks(&im, 4, &weights, &passes, |_, chunk| match chunk[0] / 512 {
                c if c >= failing => Err(CoreError::FunctionalMismatch { channel: c, got: 0, want: 0 }),
                _ => Ok(chunk.len()),
            })
            .unwrap_err();
            assert_eq!(err, CoreError::FunctionalMismatch { channel: failing, got: 0, want: 0 });
        }
    }

    /// An empty pass list measures nothing and is not an error: no chunk,
    /// no worker, zero checked outputs.
    #[test]
    fn empty_pass_lists_measure_nothing() {
        let lib = CellLibrary::syn40();
        let im = implement(&lib, &spec_int(), &DesignChoice::default()).unwrap();
        let weights = vec![vec![1i64; 8]; 2];
        let activity = int_activity(&im, 4, &[], &weights).unwrap();
        assert_eq!((activity.checked, activity.lane_cycles), (0, 0));
        assert!(activity.toggles.iter().all(|&t| t == 0));
        let m = measure_int(&im, &lib, 4, &[], &weights, OperatingPoint::at_voltage(0.9), 400.0).unwrap();
        assert_eq!(m.checked_outputs, 0);
        let shmoo = crate::shmoo::shmoo_with_power(&im, &lib, &[0.9], &[400.0], 4, &[], &weights).unwrap();
        assert_eq!(shmoo.power_uw.len(), 1);
    }

    /// Operands outside the requested precision are typed errors from
    /// both INT entry points, raised before any worker starts.
    #[test]
    fn out_of_range_operands_are_typed_errors() {
        let lib = CellLibrary::syn40();
        let im = implement(&lib, &spec_int(), &DesignChoice::default()).unwrap();
        let op = OperatingPoint::at_voltage(0.9);
        let ok = vec![vec![1i64; 8]; 2];
        let mut bad_act = vec![vec![1i64; 8]; 2];
        bad_act[1][3] = 9;
        let mut bad_w = ok.clone();
        bad_w[0][5] = 8;
        for (passes, weights, what, value) in [(&bad_act, &ok, "activation", 9), (&ok, &bad_w, "weight", 8)] {
            let want = CoreError::OperandRange { what, value, bits: 4 };
            assert_eq!(measure_int(&im, &lib, 4, passes, weights, op, 400.0).unwrap_err(), want);
            let shmoo = crate::shmoo::shmoo_with_power(&im, &lib, &[0.9], &[400.0], 4, passes, weights);
            assert_eq!(shmoo.unwrap_err(), want);
        }
        // The lower bound is checked too.
        let mut low = ok.clone();
        low[1][0] = -9;
        assert!(matches!(
            measure_int(&im, &lib, 4, &ok, &low, op, 400.0).unwrap_err(),
            CoreError::OperandRange { what: "weight", value: -9, bits: 4 }
        ));
    }

    #[test]
    fn sparsity_reduces_power() {
        let lib = CellLibrary::syn40();
        let im = implement(&lib, &spec_int(), &DesignChoice::default()).unwrap();
        let mut rng = seeded_rng(11);
        let dense_w: Vec<Vec<i64>> = (0..2).map(|_| random_ints(&mut rng, 8, 4)).collect();
        let dense_a: Vec<Vec<i64>> = (0..6).map(|_| random_ints(&mut rng, 8, 4)).collect();
        let sparse_w: Vec<Vec<i64>> = (0..2).map(|_| sparse_ints(&mut rng, 8, 4, 0.5)).collect();
        let sparse_a: Vec<Vec<i64>> =
            (0..6).map(|_| syndcim_sim::vectors::ints_with_bit_density(&mut rng, 8, 4, 0.125)).collect();
        let op = OperatingPoint::at_voltage(0.9);
        let dense = measure_int(&im, &lib, 4, &dense_a, &dense_w, op, 400.0).unwrap();
        let sparse = measure_int(&im, &lib, 4, &sparse_a, &sparse_w, op, 400.0).unwrap();
        assert!(
            sparse.power.dynamic_uw < dense.power.dynamic_uw * 0.8,
            "sparse {} vs dense {}",
            sparse.power.dynamic_uw,
            dense.power.dynamic_uw
        );
        assert!(sparse.tops_per_w_1b > dense.tops_per_w_1b);
    }

    #[test]
    fn fp4_macs_verify_through_alignment() {
        let lib = CellLibrary::syn40();
        let mut spec = spec_int();
        spec.fp_precisions = vec![FpFormat::FP4];
        let im = implement(&lib, &spec, &DesignChoice::default()).unwrap();
        let mut rng = seeded_rng(13);
        let channels = 8 / 4; // FP4 aligned = 3 bits → 4 columns
        let weights: Vec<Vec<FpValue>> =
            (0..channels).map(|_| syndcim_sim::vectors::random_fp(&mut rng, 8, FpFormat::FP4)).collect();
        let passes: Vec<Vec<FpValue>> =
            (0..3).map(|_| syndcim_sim::vectors::random_fp(&mut rng, 8, FpFormat::FP4)).collect();
        let m = measure_fp(&im, &lib, &passes, &weights, OperatingPoint::at_voltage(0.9), 400.0).unwrap();
        assert_eq!(m.checked_outputs, channels * 3);
    }

    #[test]
    fn weight_update_measurement_verifies_and_differentiates_cells() {
        use syndcim_subckt::BitcellKind;
        let lib = CellLibrary::syn40();
        let op = OperatingPoint::at_voltage(0.9);
        let mut per_cell = Vec::new();
        for bitcell in [BitcellKind::Sram6T2T, BitcellKind::Latch8T] {
            let im =
                implement(&lib, &spec_int(), &DesignChoice { bitcell, ..DesignChoice::default() }).unwrap();
            let m = measure_weight_update(&im, &lib, op, 400.0, 99, DEFAULT_WU_PATTERNS).unwrap();
            assert_eq!(m.bits_written, 8 * 8 * 2);
            assert_eq!(m.patterns, DEFAULT_WU_PATTERNS);
            assert!(m.energy_per_bit_fj > 0.0);
            // Independent random data per lane ⇒ the per-pattern write
            // energies spread, and the spread stays small relative to
            // the mean.
            assert!(m.energy_per_bit_std_fj > 0.0, "{m:?}");
            assert!(m.energy_per_bit_std_fj < m.energy_per_bit_fj, "{m:?}");
            per_cell.push(m.energy_per_bit_fj);
        }
        // The 8T latch writes cost more energy than the 6T+2T cell.
        assert!(per_cell[1] > per_cell[0] * 0.9, "{per_cell:?}");
    }

    /// Pattern `l` runs the same write burst on the engine's lane `l`
    /// and on its own interpreter: every lane captures its stream, the
    /// engine's per-lane toggle tables equal the interpreter's, and the
    /// compiled power program converts them to the reference analyzer's
    /// energy bit for bit, so the measurement's mean and spread are the
    /// reference's.
    #[test]
    fn weight_update_backends_are_bit_identical() {
        let lib = CellLibrary::syn40();
        let op = OperatingPoint::at_voltage(0.9);
        let im = implement(&lib, &spec_int(), &DesignChoice::default()).unwrap();
        let mac = &im.mac;
        let streams: Vec<u64> = (0..DEFAULT_WU_PATTERNS).map(|l| pattern_seed(1234, l as u64) | 1).collect();
        let mut eng = EngineSim::try_new(&im.compiled.program, &mac.module, streams.len()).unwrap();
        eng.enable_lane_toggles();
        configure_precision(&mut eng, mac, mac.w_bits);
        quiesce(&mut eng, mac);
        eng.reset_activity();
        let written = write_burst(&mut eng, mac, WriteData::PerLane(streams.clone()));
        check_written(&eng, mac, &written).unwrap();
        let cycles = eng.lane_cycles() / streams.len() as u64;

        let pa = reference_power(&im, &lib);
        for (l, &stream) in streams.iter().enumerate() {
            let mut itp = interpreter(&im, &lib);
            configure_precision(&mut itp, mac, mac.w_bits);
            quiesce(&mut itp, mac);
            itp.reset_activity();
            let itp_written = write_burst(&mut itp, mac, WriteData::PerLane(vec![stream]));
            assert_eq!(itp_written[0], written[l], "pattern {l} writes its own stream");
            check_written(&itp, mac, &itp_written).unwrap();
            assert_eq!(itp.lane_cycles(), cycles);
            let lane_toggles = eng.lane_toggle_table(l).unwrap();
            assert_eq!(
                lane_toggles,
                itp.toggle_table(),
                "pattern {l}: per-lane toggles must be bit-identical"
            );
            let fast = im.compiled.power.report(&lane_toggles, cycles, 400.0, op);
            let slow = pa.from_activity(itp.toggle_table(), cycles, 400.0, op);
            assert_eq!(fast.energy_per_cycle_pj, slow.energy_per_cycle_pj, "pattern {l}");
        }
        let m = measure_weight_update(&im, &lib, op, 400.0, 1234, DEFAULT_WU_PATTERNS).unwrap();
        let (mean, std) = write_energy(&im, &eng, 0..streams.len(), op, 400.0);
        assert_eq!((m.energy_per_bit_fj, m.energy_per_bit_std_fj), (mean, std));
        assert_eq!((m.patterns, m.bits_written), (DEFAULT_WU_PATTERNS, 8 * 8 * 2));
    }

    /// A wide-word pattern set (>64 lanes) still verifies every bitcell
    /// in every lane and keeps the mean near the narrow-word run.
    #[test]
    fn weight_update_spans_wide_words() {
        let lib = CellLibrary::syn40();
        let op = OperatingPoint::at_voltage(0.9);
        let im = implement(&lib, &spec_int(), &DesignChoice::default()).unwrap();
        let narrow = measure_weight_update(&im, &lib, op, 400.0, 7, 8).unwrap();
        let wide = measure_weight_update(&im, &lib, op, 400.0, 7, 72).unwrap();
        assert_eq!(wide.patterns, 72);
        // Pattern 0..8 share streams with the narrow run; the means are
        // estimates of the same distribution.
        let rel = (wide.energy_per_bit_fj - narrow.energy_per_bit_fj).abs() / narrow.energy_per_bit_fj;
        assert!(rel < 0.2, "narrow {} vs wide {}", narrow.energy_per_bit_fj, wide.energy_per_bit_fj);
    }
}
