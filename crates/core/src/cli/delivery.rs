//! The sink routes a durable monitor delivers its reports to.

use super::args::SinkOptions;
use crate::durable::DeliverySetup;
use monilog_classify::SeverityRouter;
use monilog_stream::ConfigSnapshot;
use std::sync::Arc;

/// Translate `SinkOptions` into concrete routes: page-level reports go
/// to the page sink of `settings` (the choice a reload makes), ticket-level
/// to TCP when available, and everything else — plus anything unrouted —
/// to a local rotating file under the state directory. The severity router
/// and retry cap come from `settings` too, so the reports the journal
/// replay emits are delivered as the boot snapshot says.
pub(super) fn build_delivery(
    opts: &SinkOptions,
    settings: &ConfigSnapshot,
    state_dir: &std::path::Path,
) -> Result<DeliverySetup, String> {
    use monilog_model::DeliveryClass;
    use monilog_stream::sinks::{
        FileSink, FramedTcpSink, RouteSpec, WebhookSink, FILE_RETAIN, FILE_ROTATE_BYTES,
    };

    let page_route = route_name(settings.page_sink(&opts.names())?);
    let classes = move |route: &str, mut classes: Vec<DeliveryClass>| {
        if route == page_route {
            classes.push(DeliveryClass::Page);
        }
        classes
    };
    let mut specs = Vec::new();
    if let Some(url) = &opts.http {
        let sink = WebhookSink::from_url(url).map_err(|e| format!("--sink-http: {e}"))?;
        specs.push(RouteSpec {
            name: "webhook".into(),
            classes: classes("webhook", Vec::new()),
            sink: Box::new(sink),
        });
    }
    if let Some(addr) = &opts.tcp {
        specs.push(RouteSpec {
            name: "tcp".into(),
            classes: classes("tcp", vec![DeliveryClass::Ticket]),
            sink: Box::new(FramedTcpSink::new(addr.clone())),
        });
    }
    // The file route is always present and always last: it is the
    // fallback for any class no other route claims.
    let file_path = state_dir
        .join(crate::durable::DELIVERY_DIR)
        .join("reports.jsonl");
    let file_classes = classes("file", vec![DeliveryClass::Log]);

    let mut config = opts.delivery.clone();
    config.retry.max_backoff = std::time::Duration::from_millis(settings.sink_retry_max_ms);
    let mut setup = DeliverySetup::new(config, move |metrics| {
        let file_sink = FileSink::open(
            &file_path,
            FILE_ROTATE_BYTES,
            FILE_RETAIN,
            Arc::clone(metrics),
        )
        .map_err(|e| format!("open file sink: {e}"))?;
        specs.push(RouteSpec {
            name: "file".into(),
            classes: file_classes,
            sink: Box::new(file_sink),
        });
        Ok(specs)
    });
    setup.router = severity_router(settings);
    Ok(setup)
}

/// The delivery route of a sink `route-critical` names: the http sink's
/// route is `webhook`.
pub(super) fn route_name(sink: &str) -> &str {
    match sink {
        "http" => "webhook",
        other => other,
    }
}

/// The severity router `settings` asks for: pages at `page-at`, and the
/// ticket threshold never sits above it (a report can't be "page but not
/// ticket worthy").
pub(super) fn severity_router(settings: &ConfigSnapshot) -> SeverityRouter {
    let ticket_at = SeverityRouter::default().ticket_at;
    SeverityRouter {
        page_at: settings.page_at,
        ticket_at: ticket_at.min(settings.page_at),
    }
}
