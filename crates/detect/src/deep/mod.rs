//! Deep-learning detection approaches (Section III): DeepLog, LogAnomaly
//! and LogRobust, built on the `monilog-nn` substrate.

pub mod deeplog;
pub mod loganomaly;
pub mod logrobust;

/// Parsed corpora for the tape-vs-batched differential tests of the
/// sequence detectors.
#[cfg(test)]
pub(crate) mod testdata {
    use crate::api::{TrainSet, Window};
    use crate::window::{session_windows, tumbling_windows};
    use monilog_loggen::{
        CloudWorkload, CloudWorkloadConfig, GenLog, HdfsWorkload, HdfsWorkloadConfig,
        InstabilityConfig, InstabilityInjector,
    };
    use monilog_model::TemplateStore;
    use monilog_parse::{Drain, DrainConfig, OnlineParser};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// A training set over HDFS sessions plus tumbling multi-source cloud
    /// windows, probe windows that stress the inference path, and the
    /// parser's final template store (templates the training set never saw
    /// included). Probes: anomalous HDFS sessions, instability-evolved
    /// cloud windows, event-shuffled copies of both, windows shorter than
    /// `history` (all-PAD histories, early EOS), and ids no model
    /// vocabulary has (UNK).
    pub(crate) fn corpus(history: usize) -> (TrainSet, Vec<Window>, TemplateStore) {
        fn sessions(parser: &mut Drain, logs: &[GenLog]) -> Vec<Window> {
            let events = logs.iter().map(|log| {
                let id = parser.parse(&log.record.message).template.0;
                (log.truth.session.clone().expect("session"), id, Vec::new())
            });
            session_windows(events)
                .into_iter()
                .map(|(_, w)| w)
                .collect()
        }
        fn tumbling(parser: &mut Drain, logs: &[GenLog]) -> Vec<Window> {
            let ids: Vec<u32> = logs
                .iter()
                .map(|log| parser.parse(&log.record.message).template.0)
                .collect();
            tumbling_windows(&ids, &vec![Vec::new(); ids.len()], 24)
        }
        let hdfs = |n_sessions, rate, seed| {
            HdfsWorkload::new(HdfsWorkloadConfig {
                n_sessions,
                sequential_anomaly_rate: rate,
                quantitative_anomaly_rate: 0.0,
                seed,
                ..Default::default()
            })
            .generate()
        };
        let cloud = |walks_per_source, seed| {
            CloudWorkload::new(CloudWorkloadConfig {
                n_sources: 4,
                walks_per_source,
                json_tail: false,
                seed,
                ..CloudWorkloadConfig::default()
            })
            .generate()
        };

        let mut parser = Drain::new(DrainConfig::default());
        let mut train = sessions(&mut parser, &hdfs(60, 0.0, 41));
        train.extend(tumbling(&mut parser, &cloud(25, 43)));
        let train = TrainSet::unlabeled(train).with_templates(parser.store().clone());

        let mut probes = sessions(&mut parser, &hdfs(25, 0.3, 42));
        let evolved =
            InstabilityInjector::new(InstabilityConfig::all_kinds(0.2, 45)).apply(&cloud(6, 44));
        probes.extend(tumbling(&mut parser, &evolved));
        let mut rng = StdRng::seed_from_u64(46);
        let shuffled: Vec<Window> = probes
            .iter()
            .step_by(3)
            .map(|w| {
                let mut ids = w.sequence.clone();
                for i in (1..ids.len()).rev() {
                    ids.swap(i, rng.random_range(0..=i));
                }
                Window::from_ids(ids)
            })
            .collect();
        probes.extend(shuffled);
        let unseen = parser.store().len() as u32 + 7;
        for len in 1..history + 2 {
            let ids: Vec<u32> = (0..len as u32).map(|k| (k * 5 + len as u32) % 9).collect();
            probes.push(Window::from_ids(ids.clone()));
            probes.push(Window::from_ids(
                ids.iter().map(|&id| id + (id % 2) * unseen).collect(),
            ));
        }
        (train, probes, parser.store().clone())
    }
}
