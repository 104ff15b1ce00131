//! `graph`: BFS plus connected components over a seeded interaction
//! graph, under each of `GraphAccess::{Naive, Tuned, Gather}`.
//!
//! The workload is irregular and read-only: gather-plan build and
//! execute plus the software-cache miss path dominate, and there is no
//! VM and no farm. The autotune pass that picks the `Tuned` cache is
//! set-up, as is the host BFS/CC reference.
//!
//! Scale ceiling: [`NODES`] = 8192 is the largest power of two at which
//! every access path fits the 256 KiB local store. At 12,000 and 16,384
//! nodes the gather path fails with `OutOfMemory` on `ls0`; at 100,000
//! nodes (on a machine whose main memory holds the graph) the naive and
//! gather paths both do.

use gamekit::graph::{run_bfs, run_components, GraphAccess, InteractionGraph};
use memspace::Addr;
use simcell::{Machine, MachineConfig};
use softcache::{autotune, TuneOptions};

use super::{drive_serial, Budget, Drive, Workload};
use crate::trace::Tracer;

/// Graph nodes.
pub const NODES: u32 = 8192;
/// Target average degree.
pub const DEGREE: u32 = 8;
/// BFS source node.
pub const SOURCE: u32 = 0;

/// What one traversal left behind.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Traversal {
    /// Accelerator cycles BFS + CC took.
    pub cycles: u64,
    /// Software-cache hits and misses during the traversal.
    pub cache: (u64, u64),
    /// Elements gathered and DMA descriptors their plans coalesced to.
    pub gather: (u64, u64),
    /// Memory hash after the traversal.
    pub memory_hash: u64,
    /// BFS levels read back from main memory.
    pub levels: Vec<u32>,
    /// Component labels read back from main memory.
    pub labels: Vec<u32>,
}

/// A machine holding the seeded graph and the output arrays.
pub struct GraphWorld {
    /// The machine.
    pub machine: Machine,
    /// The graph's CSR handle.
    pub graph: InteractionGraph,
    levels_out: Addr,
    labels_out: Addr,
}

impl GraphWorld {
    /// Generates a `nodes`-node graph from `seed`.
    ///
    /// # Errors
    ///
    /// Main memory too small for the graph.
    pub fn new(nodes: u32, seed: u64) -> Result<GraphWorld, String> {
        let mut machine = Machine::new(MachineConfig::small()).map_err(|e| e.to_string())?;
        let graph = InteractionGraph::generate(&mut machine, nodes, DEGREE, seed)
            .map_err(|e| e.to_string())?;
        let levels_out = machine
            .alloc_main_slice::<u32>(nodes)
            .map_err(|e| e.to_string())?;
        let labels_out = machine
            .alloc_main_slice::<u32>(nodes)
            .map_err(|e| e.to_string())?;
        Ok(GraphWorld {
            machine,
            graph,
            levels_out,
            labels_out,
        })
    }

    /// Runs BFS + CC under `access` and reads the results back.
    ///
    /// # Errors
    ///
    /// Simulator errors (e.g. local-store exhaustion), rendered.
    pub fn traverse(&mut self, access: &GraphAccess, tr: &mut Tracer) -> Result<Traversal, String> {
        let GraphWorld {
            machine,
            graph,
            levels_out,
            labels_out,
        } = self;
        machine.reset_stats();
        let span = match access {
            GraphAccess::Naive => "graph.naive",
            GraphAccess::Tuned(_) => "graph.tuned",
            GraphAccess::Gather => "graph.gather",
        };
        tr.span(span, 1, |_| {
            run_bfs(machine, graph, SOURCE, *levels_out, access)?;
            run_components(machine, graph, *labels_out, access)
        })
        .map_err(|e| format!("{} traversal failed: {e}", access.label()))?;
        let stats = *machine.stats();
        let nodes = graph.nodes();
        let levels = machine
            .host_read_slice::<u32>(*levels_out, nodes)
            .map_err(|e| e.to_string())?;
        let labels = machine
            .host_read_slice::<u32>(*labels_out, nodes)
            .map_err(|e| e.to_string())?;
        Ok(Traversal {
            cycles: stats.accel_busy_cycles,
            cache: (stats.cache_hits, stats.cache_misses),
            gather: (stats.gather_elems, stats.gather_descriptors),
            memory_hash: machine.memory_hash(),
            levels,
            labels,
        })
    }

    /// Autotunes a cache for the naive traversal's access trace, with
    /// reuse-distance pruning (the trace has no dominant stride), as
    /// E18 does.
    ///
    /// # Errors
    ///
    /// Traversal or tuner failures, rendered.
    pub fn tune(&mut self) -> Result<GraphAccess, String> {
        self.machine.access_trace_mut().set_enabled(true);
        let traced = self.traverse(&GraphAccess::Naive, &mut Tracer::off());
        self.machine.access_trace_mut().set_enabled(false);
        traced?;
        let opts = TuneOptions {
            reuse_prune: true,
            ..TuneOptions::default()
        };
        let report = autotune(self.machine.access_trace().records(), &opts)
            .map_err(|e| format!("autotune failed: {e}"))?;
        self.machine.access_trace_mut().clear();
        Ok(GraphAccess::Tuned(report.winner().choice))
    }
}

/// The set-up state.
pub struct GraphTraversal {
    world: GraphWorld,
    paths: [GraphAccess; 3],
    reference: Vec<Traversal>,
}

impl GraphTraversal {
    /// Generates the graph, computes the host BFS/CC reference,
    /// autotunes the cache, and runs every path once; each path's
    /// results must match the host reference and all three must leave
    /// one memory image.
    ///
    /// # Errors
    ///
    /// Any failure or mismatch, rendered.
    pub fn setup(seed: u64) -> Result<GraphTraversal, String> {
        let mut world = GraphWorld::new(NODES, seed)?;
        let host_levels = world
            .graph
            .host_bfs(&mut world.machine, SOURCE)
            .map_err(|e| e.to_string())?;
        let host_labels = world
            .graph
            .host_components(&mut world.machine)
            .map_err(|e| e.to_string())?;
        let tuned = world.tune()?;
        let paths = [GraphAccess::Naive, tuned, GraphAccess::Gather];
        let mut reference = Vec::new();
        for access in &paths {
            let t = world.traverse(access, &mut Tracer::off())?;
            if t.levels != host_levels || t.labels != host_labels {
                return Err(format!(
                    "{} traversal disagrees with the host BFS/CC",
                    access.label()
                ));
            }
            if reference
                .first()
                .is_some_and(|first: &Traversal| first.memory_hash != t.memory_hash)
            {
                return Err(format!(
                    "{} traversal left a different memory image",
                    access.label()
                ));
            }
            reference.push(t);
        }
        Ok(GraphTraversal {
            world,
            paths,
            reference,
        })
    }

    /// The reference traversal of each path, in `[naive, tuned, gather]`
    /// order.
    pub fn reference(&self) -> &[Traversal] {
        &self.reference
    }
}

impl Workload for GraphTraversal {
    fn drive(&mut self, budget: Budget, tr: &mut Tracer) -> Drive {
        let GraphTraversal {
            world,
            paths,
            reference,
        } = self;
        drive_serial(
            budget,
            tr,
            paths.len(),
            |i, tr| world.traverse(&paths[i], tr),
            |runs| {
                if runs != *reference {
                    return Err("a traversal differs from its reference".into());
                }
                Ok(runs.iter().map(|t| t.cycles).sum())
            },
        )
    }
}
