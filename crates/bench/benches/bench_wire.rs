//! The wire-protocol workloads. The headline numbers are whole
//! exchanges over real loopback TCP — v2 JSON lines vs v3 columnar
//! frames, plain and compressed — so this bench first runs
//! `experiments::wire_bench` and emits the machine-readable
//! `BENCH_wire.json`, then measures the v3 building blocks under
//! criterion: columnar grid encode/decode and the in-tree LZ4-style
//! compressor on a realistic KPI column.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;
use whatif_bench::experiments::{wire_bench, write_wire_bench_json, Scale};
use whatif_wire::{
    lz4, Compression, DriverColumn, FrameType, PerturbKind, ReplyBody, RequestBody,
    ScenarioGridRequest, WireReply, WireRequest,
};

/// The reply frame payload of one warm slider move over v3 opcode 1:
/// a ~300 B JSON `Sensitivity` reply.
fn slider_reply() -> Vec<u8> {
    let json = concat!(
        r#"{"id":4711,"result":{"Sensitivity":{"kpi_name":"Deal Closed?","#,
        r#""baseline_kpi":0.4413333333333333,"perturbed_kpi":0.43583333333333335,"#,
        r#""perturbations":{"perturbations":[{"driver":"Open Marketing Email","#,
        r#""kind":{"Percentage":-20.0}}],"clamp_non_negative":true}}},"#,
        r#""error":null,"cached":true,"trace_id":null}"#
    );
    WireReply {
        id: 4711,
        body: ReplyBody::Json(json.to_string()),
    }
    .encode()
}

/// A 10k-scenario columnar request over four drivers — the bench's
/// mid-size grid, built without a server.
fn sample_grid(n: usize) -> WireRequest {
    let drivers = ["Open Marketing Email", "Renewal", "Call", "Chat"];
    let columns = drivers
        .iter()
        .enumerate()
        .map(|(d, name)| DriverColumn {
            name: (*name).to_string(),
            kind: PerturbKind::Percentage,
            values: (0..n)
                .map(|i| {
                    if i % drivers.len() == d {
                        ((i * 37) % 151) as f64 - 50.0
                    } else {
                        f64::NAN
                    }
                })
                .collect(),
        })
        .collect();
    WireRequest {
        id: 1,
        body: RequestBody::Scenarios(ScenarioGridRequest {
            session: 1,
            n_scenarios: n as u32,
            record: false,
            n_threads: 0,
            names: Vec::new(),
            columns,
        }),
        deadline_ms: 0,
    }
}

fn bench_wire(c: &mut Criterion) {
    // Emit the report first: `cargo bench -p whatif-bench --bench
    // bench_wire` always leaves BENCH_wire.json behind.
    let report = wire_bench(Scale::Quick, 7);
    write_wire_bench_json("BENCH_wire.json", &report).expect("write BENCH_wire.json");
    for g in &report.grids {
        println!(
            "BENCH_wire.json: {} scenarios — v2 {:.1} ms / {} B, v3 plain {:.1} ms / {} B, \
             v3 lz4 {:.1} ms / {} B ({:.1}x wall, {:.1}x bytes)",
            g.n_scenarios,
            g.v2_json_ms,
            g.v2_json_bytes,
            g.v3_plain_ms,
            g.v3_plain_bytes,
            g.v3_lz4_ms,
            g.v3_lz4_bytes,
            g.wall_speedup,
            g.bytes_reduction,
        );
    }

    let mut group = c.benchmark_group("wire");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    const N: usize = 10_000;
    let request = sample_grid(N);
    let payload = request.encode();

    group.bench_function("grid_10k_encode", |b| b.iter(|| request.encode()));
    group.bench_function("grid_10k_decode", |b| {
        b.iter(|| WireRequest::decode(&payload).expect("round trip"))
    });
    group.bench_function("grid_10k_frame_plain", |b| {
        b.iter(|| {
            whatif_wire::frame::encode_frame(FrameType::Request, &payload, Compression::None)
                .expect("fits")
        })
    });
    group.bench_function("grid_10k_frame_lz4", |b| {
        b.iter(|| {
            whatif_wire::frame::encode_frame(FrameType::Request, &payload, Compression::Lz4Like)
                .expect("fits")
        })
    });

    // The slider's reply frame: small enough that compression setup,
    // not matching, dominates the LZ4 path.
    let reply = slider_reply();
    group.bench_function("slider_reply_frame_plain", |b| {
        b.iter(|| {
            whatif_wire::frame::encode_frame(FrameType::Reply, &reply, Compression::None)
                .expect("fits")
        })
    });
    group.bench_function("slider_reply_frame_lz4", |b| {
        b.iter(|| {
            whatif_wire::frame::encode_frame(FrameType::Reply, &reply, Compression::Lz4Like)
                .expect("fits")
        })
    });

    // A realistic KPI column: smooth probabilities quantized by a small
    // forest, i.e. few distinct values — the compressor's bread and
    // butter on the reply path.
    let kpi: Vec<u8> = (0..N)
        .flat_map(|i| (((i * 13) % 32) as f64 / 32.0).to_bits().to_le_bytes())
        .collect();
    let packed = lz4::compress(&kpi);
    println!(
        "kpi column 10k: {} B -> {} B ({:.1}x)",
        kpi.len(),
        packed.len(),
        kpi.len() as f64 / packed.len() as f64
    );
    group.bench_function("kpi_10k_compress", |b| b.iter(|| lz4::compress(&kpi)));
    group.bench_function("kpi_10k_decompress", |b| {
        b.iter(|| lz4::decompress(&packed, kpi.len()).expect("round trip"))
    });

    group.finish();
}

criterion_group!(benches, bench_wire);
criterion_main!(benches);
