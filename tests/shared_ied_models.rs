//! Tenants of one compiled model share each IED's attribute tree and own its
//! leaf values: an MMS write on one tenant reads back there and nowhere
//! else, and both tenants still name the same items.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic

use sg_cyber_range::core::{CompiledModel, CyberRange, RangeBuilder};
use sg_cyber_range::iec61850::{DataValue, MmsPdu, MmsRequest, MmsResponse, MmsServer, ObjectRef};
use sg_cyber_range::models::{multisub_bundle, MultiSubParams};

const IED: &str = "S1IED1";
/// PTOC1's pickup setting: a set-point, so an MMS client may write it.
const ITEM: &str = "S1IED1LD0/PTOC1$SP$StrVal$setMag$f";

/// An MMS server over the data model of `IED` in `range`: the engine the
/// IED's own server app runs, on the same model.
fn server(range: &CyberRange) -> MmsServer {
    MmsServer::new(range.ieds[IED].model.clone())
}

fn request(server: &mut MmsServer, request: MmsRequest) -> MmsResponse {
    let pdu = MmsPdu::ConfirmedRequest {
        invoke_id: 1,
        request,
    };
    match server.handle(&pdu) {
        Some(MmsPdu::ConfirmedResponse { response, .. }) => response,
        other => panic!("no confirmed response: {other:?}"),
    }
}

fn read(server: &mut MmsServer) -> MmsResponse {
    request(
        server,
        MmsRequest::Read {
            items: vec![ITEM.to_string()],
        },
    )
}

/// Every name list the server answers: domains, the nodes of the IED's LD,
/// and all leaf items.
fn name_lists(server: &mut MmsServer) -> Vec<MmsResponse> {
    [(9, None), (0, Some(format!("{IED}LD0"))), (0, None)]
        .into_iter()
        .map(|(object_class, domain)| {
            request(
                server,
                MmsRequest::GetNameList {
                    object_class,
                    domain,
                },
            )
        })
        .collect()
}

#[test]
fn an_mms_write_on_one_tenant_is_not_seen_by_another() {
    let bundle = multisub_bundle(&MultiSubParams::paper_profile());
    let model = CompiledModel::shared(&bundle).expect("paper bundle must compile");
    let mut a = RangeBuilder::from_model(model.clone()).build().unwrap();
    let mut b = RangeBuilder::from_model(model).build().unwrap();
    let (mut server_a, mut server_b) = (server(&a), server(&b));
    assert!(ObjectRef::client_writable(ITEM));

    let initial = read(&mut server_b);
    let MmsResponse::Read { results } = &initial else {
        panic!("read reply: {initial:?}");
    };
    let written = DataValue::Float(9.25);
    assert!(
        matches!(results.as_slice(), [Ok(v)] if *v != written),
        "{initial:?}"
    );
    let reply = request(
        &mut server_a,
        MmsRequest::Write {
            items: vec![ITEM.to_string()],
            values: vec![written.clone()],
        },
    );
    assert_eq!(
        reply,
        MmsResponse::Write {
            results: vec![Ok(())]
        }
    );
    // Both tenants run on: the sample path leaves a set-point alone.
    a.step();
    b.step();

    assert_eq!(
        read(&mut server_a),
        MmsResponse::Read {
            results: vec![Ok(written)]
        }
    );
    assert_eq!(read(&mut server_b), initial);
    let names = name_lists(&mut server_a);
    assert!(
        matches!(&names[2], MmsResponse::GetNameList { identifiers, .. }
            if identifiers.iter().any(|id| id == ITEM)),
        "{names:?}"
    );
    assert_eq!(names, name_lists(&mut server_b));
}
