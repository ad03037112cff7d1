//! Integration test of the client-server layer over real TCP: the full
//! Figure 2 interaction sequence, CSV upload, and error handling.

use std::sync::Arc;
use whatif::core::model_backend::{ModelConfig, ModelKind};
use whatif::core::perturbation::{Perturbation, PerturbationSet};
use whatif::core::Session;
use whatif::datagen::deal_closing;
use whatif::server::{serve, serve_with_engine, Client, Engine, Request, Response, UseCase};

fn fast_config() -> ModelConfig {
    ModelConfig {
        n_trees: 16,
        max_depth: 8,
        ..ModelConfig::default()
    }
}

#[test]
fn figure2_walkthrough_over_tcp() {
    let (addr, handle) = serve("127.0.0.1:0").expect("bind");
    let mut client = Client::connect(addr).expect("connect");

    // (A) use cases.
    let Response::UseCases(cases) = client.call(&Request::ListUseCases).unwrap() else {
        panic!("expected use cases");
    };
    assert_eq!(cases.len(), 3);

    // Load deal closing.
    let Response::SessionCreated {
        session,
        n_rows,
        columns,
        suggested_kpi,
    } = client
        .call(&Request::LoadUseCase {
            use_case: UseCase::DealClosing,
            n_rows: Some(250),
            seed: Some(5),
        })
        .unwrap()
    else {
        panic!("expected session");
    };
    assert_eq!(n_rows, 250);
    assert_eq!(suggested_kpi.as_deref(), Some("Deal Closed?"));
    assert!(columns.iter().any(|c| c.dtype == "str"));

    // (B) table view.
    let Response::Table {
        rows, total_rows, ..
    } = client
        .call(&Request::TableView {
            session,
            max_rows: 10,
        })
        .unwrap()
    else {
        panic!("expected table");
    };
    assert_eq!(rows.len(), 10);
    assert_eq!(total_rows, 250);

    // (C) KPI; (D) drivers; train.
    assert!(matches!(
        client
            .call(&Request::SelectKpi {
                session,
                kpi: "Deal Closed?".into()
            })
            .unwrap(),
        Response::KpiSelected { .. }
    ));
    let Response::Drivers { selected } = client
        .call(&Request::SelectDrivers {
            session,
            drivers: None,
        })
        .unwrap()
    else {
        panic!("expected drivers");
    };
    assert_eq!(selected.len(), 12);
    assert!(matches!(
        client
            .call(&Request::Train {
                session,
                config: Some(fast_config())
            })
            .unwrap(),
        Response::Trained { .. }
    ));

    // (E) importance; (H) sensitivity; (I) goal inversion.
    let Response::Importance { importance, .. } = client
        .call(&Request::DriverImportanceView {
            session,
            verify: false,
        })
        .unwrap()
    else {
        panic!("expected importance");
    };
    assert_eq!(importance.driver_names.len(), 12);

    let Response::Sensitivity(sens) = client
        .call(&Request::SensitivityView {
            session,
            perturbations: vec![Perturbation::percentage("Open Marketing Email", 40.0)],
        })
        .unwrap()
    else {
        panic!("expected sensitivity");
    };
    assert_eq!(sens.kpi_name, "Deal Closed?");

    // Record the outcome, list scenarios.
    assert!(matches!(
        client
            .call(&Request::RecordScenario {
                session,
                name: "ome +40".into()
            })
            .unwrap(),
        Response::ScenarioRecorded { .. }
    ));
    let Response::Scenarios(scenarios) = client.call(&Request::ListScenarios { session }).unwrap()
    else {
        panic!("expected scenarios");
    };
    assert_eq!(scenarios.len(), 1);

    // Errors come back as Error responses, not hangs or disconnects.
    let err = client
        .call(&Request::SelectKpi {
            session: 9_999,
            kpi: "x".into(),
        })
        .unwrap();
    assert!(err.is_error());

    // Shut the server down cleanly.
    assert_eq!(
        client.call(&Request::Shutdown).unwrap(),
        Response::ShuttingDown
    );
    handle.join().expect("server thread exits");
}

#[test]
fn csv_upload_and_linear_flow_over_tcp() {
    let (addr, handle) = serve("127.0.0.1:0").expect("bind");
    let mut client = Client::connect(addr).expect("connect");

    let mut csv = String::from("spend,sales\n");
    for i in 0..40 {
        csv.push_str(&format!("{},{}\n", i % 8, 3 * (i % 8) + 2));
    }
    let Response::SessionCreated { session, .. } = client.call(&Request::LoadCsv { csv }).unwrap()
    else {
        panic!("expected session");
    };
    client
        .call(&Request::SelectKpi {
            session,
            kpi: "sales".into(),
        })
        .unwrap();
    let Response::Trained {
        kind, confidence, ..
    } = client
        .call(&Request::Train {
            session,
            config: None,
        })
        .unwrap()
    else {
        panic!("expected trained");
    };
    assert_eq!(kind, "linear");
    assert!(confidence > 0.99, "exact line: {confidence}");

    assert_eq!(
        client.call(&Request::CloseSession { session }).unwrap(),
        Response::SessionClosed
    );
    client.call(&Request::Shutdown).unwrap();
    handle.join().expect("server thread exits");
}

/// Every one-driver answer the server computes — a slider stop at each
/// of five positions for every driver, and a comparison sweep — equals
/// the KPI of the perturbed matrix scored densely on the served model,
/// bit for bit, for an exact forest and for GBDT. One-driver views take
/// the delta path (a leaf table plus walks of only the pairs the move
/// changes); a dense matrix never does, so this pins that path end to
/// end over TCP.
#[test]
fn served_one_driver_answers_equal_the_full_kernel() {
    const ROWS: usize = 300;
    const SEED: u64 = 11;
    const KPI: &str = "Deal Closed?";
    const STOPS: [f64; 5] = [-100.0, -50.0, 0.0, 10.0, 120.0];
    const SWEEP: [f64; 4] = [-40.0, -20.0, 20.0, 40.0];
    let one =
        |driver: &str, pct: f64| PerturbationSet::new(vec![Perturbation::percentage(driver, pct)]);
    let engine = Arc::new(Engine::new());
    let (addr, handle) = serve_with_engine("127.0.0.1:0", Arc::clone(&engine)).expect("bind");
    let mut client = Client::connect(addr).expect("connect");
    let configs = [
        ModelConfig {
            kind: ModelKind::RandomForest,
            n_trees: 24,
            max_depth: 12,
            ..ModelConfig::default()
        },
        ModelConfig {
            kind: ModelKind::Gbdt,
            n_trees: 40,
            ..ModelConfig::default()
        },
    ];
    for config in &configs {
        let Response::SessionCreated { session, .. } = client
            .call(&Request::LoadUseCase {
                use_case: UseCase::DealClosing,
                n_rows: Some(ROWS),
                seed: Some(SEED),
            })
            .unwrap()
        else {
            panic!("expected a session");
        };
        client
            .call(&Request::SelectKpi {
                session,
                kpi: KPI.into(),
            })
            .unwrap();
        let Response::Drivers { selected: drivers } = client
            .call(&Request::SelectDrivers {
                session,
                drivers: None,
            })
            .unwrap()
        else {
            panic!("expected drivers");
        };
        let trained = client
            .call(&Request::Train {
                session,
                config: Some(config.clone()),
            })
            .unwrap();
        assert!(matches!(trained, Response::Trained { .. }), "{trained:?}");

        let mut served: Vec<(PerturbationSet, f64)> = Vec::new();
        for driver in &drivers {
            for pct in STOPS {
                let Response::Sensitivity(s) = client
                    .call(&Request::SensitivityView {
                        session,
                        perturbations: one(driver, pct).perturbations,
                    })
                    .unwrap()
                else {
                    panic!("expected sensitivity");
                };
                served.push((one(driver, pct), s.perturbed_kpi));
            }
        }
        let Response::Comparison(curves) = client
            .call(&Request::ComparisonView {
                session,
                percentages: SWEEP.to_vec(),
            })
            .unwrap()
        else {
            panic!("expected a comparison");
        };
        assert_eq!(curves.len(), drivers.len());
        for curve in &curves {
            for (&pct, &kpi) in curve.percentages.iter().zip(&curve.kpi_values) {
                served.push((one(&curve.driver, pct), kpi));
            }
        }

        // The served model itself, through the engine's store.
        let replica = Session::new(deal_closing(ROWS, SEED).frame)
            .with_kpi(KPI)
            .unwrap();
        let (model, shared) = engine
            .model_store()
            .train_or_share(&replica, config)
            .unwrap();
        assert!(shared, "the store trained a second model");
        for (set, kpi) in &served {
            let dense = set
                .apply_to_matrix(model.matrix(), model.driver_names())
                .unwrap();
            let want = model.kpi_for_matrix(&dense).unwrap();
            assert_eq!(kpi.to_bits(), want.to_bits(), "{config:?} {set:?}");
        }
    }
    assert_eq!(
        client.call(&Request::Shutdown).unwrap(),
        Response::ShuttingDown
    );
    handle.join().expect("server thread exits");
}
