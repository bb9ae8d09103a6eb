//! The `router` command.

use super::read_lines;
use monilog_model::SourceId;
use monilog_stream::durable::write_atomic;
use monilog_stream::RouterConfig;
use std::io::Write;
use std::path::Path;

/// The `router` command: serve the cluster wire protocol, wait for the
/// fleet, then feed the input files round-robin — one routed source per
/// file — and drain until every line is acked by a monitor. Node death
/// mid-run is absorbed here: unacked batches replay to whichever node
/// the dead node's sources rebalance onto.
pub(super) fn run_router(
    logfiles: &[String],
    state_dir: &Path,
    cfg: RouterConfig,
    expect_nodes: usize,
    out: &mut dyn Write,
) -> Result<(), String> {
    use monilog_stream::{Router, ROUTER_SOURCE_BASE};
    use std::time::Duration;

    monilog_stream::install_shutdown_handler();
    std::fs::create_dir_all(state_dir)
        .map_err(|e| format!("create {}: {e}", state_dir.display()))?;
    let files: Vec<Vec<String>> = logfiles
        .iter()
        .map(|p| read_lines(p))
        .collect::<Result<_, _>>()?;
    let router = Router::spawn(cfg).map_err(|e| e.to_string())?;
    let addr = router.local_addr();
    let _ = writeln!(out, "listening: cluster {addr}");
    let _ = out.flush();
    // Same discovery convention as the monitor's listeners: the bound
    // address (the port may have been 0) lands in <state-dir>/listen-addrs
    // where both the operator and a driving harness can read it.
    write_atomic(
        &state_dir.join("listen-addrs"),
        format!("cluster {addr}\n").as_bytes(),
    )
    .map_err(|e| format!("write listen-addrs: {e}"))?;
    router
        .wait_for_nodes(expect_nodes, Duration::from_secs(60))
        .map_err(|e| e.to_string())?;
    let _ = writeln!(out, "fleet: {expect_nodes} node(s) joined");
    let _ = out.flush();

    // Round-robin so every source makes steady progress: a node kill
    // lands mid-stream for all of them, not just the last file.
    let mut cursor = vec![0usize; files.len()];
    let mut remaining: usize = files.iter().map(Vec::len).sum();
    let mut interrupted = false;
    'route: while remaining > 0 {
        for (i, lines) in files.iter().enumerate() {
            if monilog_stream::shutdown_requested() {
                interrupted = true;
                break 'route;
            }
            if cursor[i] < lines.len() {
                let source = SourceId(ROUTER_SOURCE_BASE + i as u16);
                router
                    .route_line(source, lines[cursor[i]].as_bytes())
                    .map_err(|e| e.to_string())?;
                cursor[i] += 1;
                remaining -= 1;
            }
        }
    }
    let stats = if interrupted {
        let _ = writeln!(out, "interrupted: {remaining} lines not routed");
        router.stats()
    } else {
        router
            .finish(Duration::from_secs(60))
            .map_err(|e| e.to_string())?
    };
    router.shutdown();
    let _ = writeln!(
        out,
        "routed {} lines across {} sources: {} batches sent, {} acked, {} lines replayed",
        stats.lines_routed,
        files.len(),
        stats.batches_sent,
        stats.batches_acked,
        stats.lines_replayed
    );
    let _ = writeln!(
        out,
        "fleet: {} rebalances, {} rejoins; template epoch {} ({} templates)",
        stats.rebalances, stats.rejoins, stats.template_epoch, stats.template_count
    );
    for (node, connected, assigned) in &stats.nodes {
        let _ = writeln!(
            out,
            "  node {node}: {}, {assigned} sources assigned",
            if *connected {
                "connected"
            } else {
                "disconnected"
            }
        );
    }
    Ok(())
}
