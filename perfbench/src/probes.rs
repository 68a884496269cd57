//! Outside-only probes of the traced run. They run after the timed
//! stream, in their own spans, so they never enter request spans: kernel
//! timings, codec replays, re-compiles, and WAL/snapshot timings.

use std::path::Path;
use std::time::Instant;

use accqoc::{CachedPulse, PulseCache, ServeReport};
use accqoc_circuit::{parse_qasm, to_qasm, Circuit};
use accqoc_grape::{cost_and_gradient_into, GradientMethod, Workspace};
use accqoc_hw::ControlModel;
use accqoc_linalg::{eigh_into, kernels, EigH, EighWorkspace, Mat, ZERO};
use accqoc_server::{Call, Payload, Request, Response};
use criterion::{black_box, Sampler};

use crate::stats::{median, Metrics};

/// Samples behind each probe's median, each ~5 ms long.
const SAMPLES: usize = 7;

/// Times the GRAPE and linalg kernels at dim 4 (golden groups are 1–2
/// qubits wide): one spectral `cost_and_gradient_into` pass at `slices`
/// slices on `model` toward `target`, one Jacobi `eigh_into`, and one
/// blocked `matmul`.
pub fn kernels(model: &ControlModel, target: &Mat, slices: usize, metrics: &mut Metrics) {
    let n_ctrl = model.n_controls();
    let params: Vec<f64> = (0..n_ctrl * slices)
        .map(|i| 0.05 * ((i % 7) as f64 - 3.0))
        .collect();
    let sampler = Sampler::calibrated(SAMPLES);
    let mut ws = Workspace::new();
    let mut grad = Vec::new();
    let cost_ns = sampler
        .measure(|| {
            cost_and_gradient_into(
                model,
                target,
                &params,
                slices,
                GradientMethod::Spectral,
                &mut ws,
                &mut grad,
            )
        })
        .median_ns;

    let n = target.rows();
    let h = Mat::from_fn(n, n, |i, j| target[(i, j)] + target[(j, i)].conj());
    let mut eig = EigH {
        values: Vec::new(),
        vectors: Mat::zeros(0, 0),
    };
    let mut eig_ws = EighWorkspace::new();
    let eigh_ns = sampler
        .measure(|| eigh_into(black_box(&h), &mut eig, &mut eig_ws).expect("hermitian input"))
        .median_ns;

    // The sampler reports whole nanoseconds per call; timing blocks of
    // matmuls keeps the fraction of a ~40 ns kernel.
    const MATMULS: usize = 64;
    let mut out = vec![ZERO; n * n];
    let matmul_ns = sampler
        .measure(|| {
            for _ in 0..MATMULS {
                kernels::matmul(black_box(h.as_slice()), target.as_slice(), &mut out, n, n, n);
            }
            out[0]
        })
        .median_ns
        / MATMULS as f64;

    metrics.set("grape.cost_and_gradient_us", cost_ns / 1e3, "us");
    metrics.set("grape.cost_and_gradient_slices", slices as f64, "count");
    metrics.set("linalg.eigh_us_dim4", eigh_ns / 1e3, "us");
    metrics.set("linalg.matmul_ns_dim4", matmul_ns, "ns");
}

/// One request/reply pair of the run, with how many stream requests it
/// stands for.
pub struct Exchange {
    /// Stream requests this exchange represents.
    pub weight: f64,
    /// The program served.
    pub circuit: Circuit,
    /// Whether the request asked for pulses back.
    pub return_pulses: bool,
    /// The serve report of the reply.
    pub report: ServeReport,
    /// The pulses of the reply, when requested.
    pub pulses: Option<PulseCache>,
}

/// Server-side codec cost of one exchange, ns: request decode, QASM
/// parse and response encode.
pub struct CodecTimes {
    /// `Request::decode` + `parse_qasm`.
    pub request_side_ns: f64,
    /// `Response::encode`.
    pub response_encode_ns: f64,
}

/// Replays the codec on the run's requests and replies: request
/// encode/decode, QASM parse, response encode/decode and reply size,
/// weighted by how often each exchange occurred. Returns the
/// server-side share of each exchange for the attribution.
pub fn protocol(exchanges: &[Exchange], metrics: &mut Metrics) -> Vec<CodecTimes> {
    let sampler = Sampler::calibrated(SAMPLES);
    let mut out = Vec::new();
    let (mut w_total, mut enc, mut dec, mut parse, mut renc, mut rdec, mut bytes) =
        (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    for (id, x) in exchanges.iter().enumerate() {
        let id = id as u64 + 1;
        let request = || Request {
            id,
            call: Call::ServeProgram {
                qasm: to_qasm(&x.circuit),
                return_pulses: x.return_pulses,
                only_qubits: None,
            },
        };
        let line = request().encode();
        let qasm = to_qasm(&x.circuit);
        let response = Response {
            id,
            body: Ok(Payload::Serve {
                report: x.report.clone(),
                pulses: x.pulses.clone(),
                missing: Vec::new(),
            }),
        };
        let reply = response.encode();
        let t_enc = sampler.measure(|| request().encode()).median_ns;
        let t_dec = sampler
            .measure(|| Request::decode(black_box(&line)).expect("own frame decodes"))
            .median_ns;
        let t_parse = sampler
            .measure(|| parse_qasm(black_box(&qasm)).expect("own qasm parses"))
            .median_ns;
        let t_renc = sampler.measure(|| response.encode()).median_ns;
        let t_rdec = sampler
            .measure(|| Response::decode(black_box(&reply)).expect("own reply decodes"))
            .median_ns;
        w_total += x.weight;
        enc += x.weight * t_enc;
        dec += x.weight * t_dec;
        parse += x.weight * t_parse;
        renc += x.weight * t_renc;
        rdec += x.weight * t_rdec;
        bytes += x.weight * reply.len() as f64;
        out.push(CodecTimes {
            request_side_ns: t_dec + t_parse,
            response_encode_ns: t_renc,
        });
    }
    let per = |v: f64| if w_total > 0.0 { v / w_total } else { 0.0 };
    metrics.set("protocol.request_encode_us", per(enc) / 1e3, "us");
    metrics.set("protocol.request_decode_us", per(dec) / 1e3, "us");
    metrics.set("protocol.parse_qasm_us", per(parse) / 1e3, "us");
    metrics.set("protocol.response_encode_ms", per(renc) / 1e6, "ms");
    metrics.set("protocol.response_decode_ms", per(rdec) / 1e6, "ms");
    metrics.set("protocol.response_bytes", per(bytes), "bytes");
    out
}

/// Times the store layer on `dir`'s filesystem: one insert-sized
/// `WalWriter::append` (with its fsync), and a snapshot — the library's
/// `PulseCache::to_json` written with `write_atomic`.
pub fn store(dir: &Path, library: &PulseCache, metrics: &mut Metrics) {
    let probe_dir = dir.join("store-probe");
    let entry = median_entry(library);
    let payload = entry.to_json();
    let (mut wal, _) =
        accqoc_store::WalWriter::open(&probe_dir.join("probe.wal")).expect("probe WAL opens");
    let appends: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            wal.append(payload.as_bytes()).expect("probe WAL append");
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let snapshots: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let text = library.to_json();
            accqoc_store::write_atomic(&probe_dir.join("snapshot.json"), text.as_bytes())
                .expect("probe snapshot write");
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    metrics.set("store.wal_append_ms", median(&appends), "ms");
    metrics.set("store.snapshot_ms", median(&snapshots), "ms");
    std::fs::remove_dir_all(&probe_dir).ok();
}

/// A one-entry cache holding the library's median-sized pulse: the size
/// of one insert record.
fn median_entry(library: &PulseCache) -> PulseCache {
    let mut entries: Vec<(&accqoc_circuit::UnitaryKey, &CachedPulse)> = library.iter().collect();
    entries.sort_by_key(|(key, entry)| (entry.pulse.n_steps(), (*key).clone()));
    let mut one = PulseCache::new();
    if let Some((key, entry)) = entries.get(entries.len() / 2) {
        one.insert((*key).clone(), (*entry).clone());
    }
    one
}
