//! The workloads: which corpus, how large, and what traffic it runs.

use relacc_datagen::{med_stream, rest_stream, StreamConfig, UpdateStream};
use relacc_engine::{BatchEngine, IncrementalEngine, RelationRepair};
use relacc_model::{MasterRelation, Value};
use relacc_resolve::{BlockingStrategy, ResolveConfig};

/// The corpus a workload repairs.
#[derive(Debug, Clone, Copy)]
pub enum Corpus {
    /// Medicine records with accuracy rules and a partial master relation
    /// that grows by scripted appends.
    Med,
    /// Restaurant listings with currency rules and no master data.
    Rest,
}

/// What a workload's timed phase runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Scripted operations committed back to back while one TCP subscriber
    /// drains the change feed on its own connection.
    Ingest,
    /// Rounds on one TCP connection, from the writer's thread: one commit,
    /// one `changes_since` from the previous round's generation, then
    /// `reads` point reads at the new generation.  No subscriber.
    Serve { reads: usize },
}

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub corpus: Corpus,
    /// Corpus scale handed to the generator.
    pub scale: f64,
    /// Seed of the update script when it is fixed; `None` scripts the
    /// updates from the run's `--seed`.
    pub script_seed: Option<u64>,
    pub mix: Mix,
}

/// Generator seed of every corpus.  The corpus stays fixed: the seed
/// repair's cost jumps by an order of magnitude between Med corpus seeds
/// (see the README), and every run sets up several times.
const CORPUS_SEED: u64 = 7;

/// Row batches scripted into every stream, far more than a run commits; a
/// run that used them all would stop early.
const SCRIPTED_BATCHES: usize = 1500;

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "med-ingest",
        corpus: Corpus::Med,
        scale: 0.05,
        // which entities' top-k searches a script touches sets Med's commit
        // tail: commit_ms_p90 moves by a third between script seeds
        script_seed: Some(7),
        mix: Mix::Ingest,
    },
    Workload {
        name: "rest-ingest",
        corpus: Corpus::Rest,
        scale: 0.2,
        script_seed: None,
        mix: Mix::Ingest,
    },
    Workload {
        name: "rest-serve",
        corpus: Corpus::Rest,
        scale: 0.2,
        script_seed: None,
        mix: Mix::Serve { reads: 256 },
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Generate the corpus and the stream scripted from the run's seed.
    pub fn stream(&self, seed: u64) -> UpdateStream {
        let config = StreamConfig {
            n_batches: SCRIPTED_BATCHES,
            inserts_per_batch: 4,
            deletes_per_batch: 2,
            master_appends_per_batch: 1,
            seed: self
                .script_seed
                .unwrap_or(seed)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ 0x5EED,
            ..StreamConfig::default()
        };
        match self.corpus {
            Corpus::Med => med_stream(self.scale, CORPUS_SEED, &config),
            Corpus::Rest => rest_stream(self.scale, CORPUS_SEED, &config),
        }
    }
}

/// Resolution settings: exact-key blocking on the entity key reconstructs
/// the generator's entities.
pub fn resolve_config(stream: &UpdateStream) -> ResolveConfig {
    ResolveConfig::on_attrs(stream.match_attrs.clone()).with_strategy(BlockingStrategy::ExactKey)
}

/// A batch engine over the stream's rules and the given masters.
fn batch_engine(
    stream: &UpdateStream,
    masters: Vec<MasterRelation>,
    threads: usize,
) -> BatchEngine {
    BatchEngine::new(
        stream.relation.schema().clone(),
        stream.rules.clone(),
        masters,
    )
    .expect("generated rules validate")
    .with_threads(threads)
}

/// Open the engine under test: one pool worker, then the seed repair.
pub fn open_engine(stream: &UpdateStream) -> IncrementalEngine {
    let engine = batch_engine(stream, stream.master.clone().into_iter().collect(), 1);
    IncrementalEngine::open(
        engine,
        stream.name.clone(),
        &stream.relation,
        resolve_config(stream),
    )
}

/// The seed master relation extended by every appended row.
pub fn current_master(stream: &UpdateStream, appended: &[Vec<Value>]) -> Option<MasterRelation> {
    let mut master = stream.master.clone()?;
    for row in appended {
        master
            .push_row(row.clone())
            .expect("scripted master rows conform");
    }
    Some(master)
}

/// A from-scratch repair of the engine's current relation under the
/// engine's own plan, as the repository's differential tests build it.  It
/// runs outside the timed phase, so it may use both cores.
pub fn reference_repair(engine: &IncrementalEngine, stream: &UpdateStream) -> RelationRepair {
    BatchEngine::from_plan(engine.engine().plan().clone())
        .with_threads(2)
        .repair_relation(&engine.relation().snapshot(), &resolve_config(stream))
}
