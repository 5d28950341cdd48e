//! Micro-benchmarks of the XML/SCL substrate: parsing the EPIC SCD and SSD
//! and consolidating the paper-scale multi-substation model — the
//! "compilation front-end" cost of the SG-ML Processor.

use criterion::{criterion_group, criterion_main, Criterion};
use sgcr_models::{epic, multisub_bundle, MultiSubParams};
use sgcr_scl::{consolidate_ssd, parse_scl};
use sgcr_xml::Document;

fn bench_xml(c: &mut Criterion) {
    let ssd = epic::epic_ssd();
    let scd = epic::epic_scd();

    c.bench_function("xml_parse_epic_scd", |b| {
        b.iter(|| Document::parse(&scd).expect("well-formed"));
    });
    c.bench_function("scl_parse_epic_ssd", |b| {
        b.iter(|| parse_scl(&ssd).expect("valid SSD"));
    });
    c.bench_function("scl_parse_epic_scd", |b| {
        b.iter(|| parse_scl(&scd).expect("valid SCD"));
    });

    let bundle = multisub_bundle(&MultiSubParams::paper_profile());
    let ssds: Vec<_> = bundle
        .ssds
        .iter()
        .map(|t| parse_scl(t).expect("valid"))
        .collect();
    let seds: Vec<_> = bundle
        .seds
        .iter()
        .map(|t| parse_scl(t).expect("valid"))
        .collect();
    c.bench_function("scl_consolidate_5_substations", |b| {
        b.iter(|| consolidate_ssd(&ssds, &seds));
    });
}

criterion_group!(benches, bench_xml);
criterion_main!(benches);
