//! The elaborated design: flat signals and compiled processes.

use crate::compile::{compile_design, CompiledDesign};
use mage_logic::LogicVec;
use mage_verilog::ast::{BinaryOp, CaseKind, Edge, NetKind, UnaryOp};
use std::sync::{Arc, OnceLock};

/// Index of a signal in the elaborated design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SignalId(pub(crate) u32);

impl SignalId {
    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A flattened signal.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SignalDecl {
    /// Hierarchical name (`u0.carry`), top-level signals unprefixed.
    pub name: String,
    /// Width in bits.
    pub width: usize,
    /// Declared LSB index (`[7:4]` has `lsb_index = 4`); selects are
    /// rebased against it.
    pub lsb_index: i64,
    /// `wire` or `reg` flavor of the declaration.
    pub kind: NetKind,
}

/// Compiled expression. Identifiers are resolved to [`SignalId`]s and
/// parameters are folded to constants at elaboration.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CExpr {
    /// Constant value.
    Const(LogicVec),
    /// Whole-signal read.
    Sig(SignalId),
    /// Unary operation.
    Unary(UnaryOp, Box<CExpr>),
    /// Binary operation.
    Binary(BinaryOp, Box<CExpr>, Box<CExpr>),
    /// Conditional.
    Ternary(Box<CExpr>, Box<CExpr>, Box<CExpr>),
    /// Concatenation, MSB-first.
    Concat(Vec<CExpr>),
    /// Replication with an elaboration-time count.
    Repl(usize, Box<CExpr>),
    /// Dynamic bit select: `sig[index]`, where `index` is rebased so that
    /// `0` addresses the physical LSB.
    BitSel(SignalId, Box<CExpr>),
    /// Constant part select at a physical bit offset.
    PartSel(SignalId, i64, usize),
}

impl CExpr {
    /// Self-determined width in bits (simplified IEEE rules; see crate
    /// docs for deviations).
    pub fn width(&self, design: &Design) -> usize {
        match self {
            CExpr::Const(v) => v.width(),
            CExpr::Sig(id) => design.signals[id.index()].width,
            CExpr::Unary(op, e) => match op {
                UnaryOp::Not | UnaryOp::Neg | UnaryOp::Plus => e.width(design),
                _ => 1, // reductions and !
            },
            CExpr::Binary(op, l, r) => match op {
                BinaryOp::Add
                | BinaryOp::Sub
                | BinaryOp::Mul
                | BinaryOp::Div
                | BinaryOp::Mod
                | BinaryOp::And
                | BinaryOp::Or
                | BinaryOp::Xor
                | BinaryOp::Xnor => l.width(design).max(r.width(design)),
                BinaryOp::Shl | BinaryOp::Shr => l.width(design),
                _ => 1, // comparisons, logical
            },
            CExpr::Ternary(_, t, e) => t.width(design).max(e.width(design)),
            CExpr::Concat(parts) => parts.iter().map(|p| p.width(design)).sum(),
            CExpr::Repl(n, e) => n * e.width(design),
            CExpr::BitSel(..) => 1,
            CExpr::PartSel(_, _, w) => *w,
        }
    }
}

/// Compiled assignment target.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CLValue {
    /// Whole signal.
    Whole(SignalId),
    /// Dynamic single bit (index rebased to physical).
    BitSel(SignalId, CExpr),
    /// Constant part select at a physical offset.
    PartSel(SignalId, i64, usize),
    /// Concatenation of targets, MSB-first.
    Concat(Vec<CLValue>),
}

impl CLValue {
    /// Total width written by this target.
    pub fn width(&self, design: &Design) -> usize {
        match self {
            CLValue::Whole(id) => design.signals[id.index()].width,
            CLValue::BitSel(..) => 1,
            CLValue::PartSel(_, _, w) => *w,
            CLValue::Concat(parts) => parts.iter().map(|p| p.width(design)).sum(),
        }
    }
}

/// Compiled statement.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CStmt {
    /// Sequence.
    Block(Vec<CStmt>),
    /// Two-way branch.
    If(CExpr, Box<CStmt>, Option<Box<CStmt>>),
    /// Multi-way branch. Labels are compiled expressions (usually
    /// constants, but identifier labels are allowed).
    Case {
        /// `case` or `casez`.
        kind: CaseKind,
        /// Selector.
        sel: CExpr,
        /// `(labels, body)` arms in source order.
        arms: Vec<(Vec<CExpr>, CStmt)>,
        /// `default` body.
        default: Option<Box<CStmt>>,
    },
    /// Assignment; `nonblocking` selects NBA commit semantics.
    Assign {
        /// Target.
        lv: CLValue,
        /// Source.
        rhs: CExpr,
        /// `<=` vs `=`.
        nonblocking: bool,
    },
    /// No-op.
    Nop,
}

/// A compiled process.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Process {
    /// Combinational: re-evaluated whenever any read signal changes.
    Comb {
        /// Signals whose change triggers re-evaluation.
        reads: Vec<SignalId>,
        /// Signals the body can write (static over-approximation). The
        /// scheduler compares these before/after a run so that a process
        /// that reads what it writes (`count = count + in[i]` chains)
        /// settles when its *net* effect is stable.
        writes: Vec<SignalId>,
        /// Body.
        body: CStmt,
    },
    /// Edge-triggered.
    Seq {
        /// Triggering edges.
        edges: Vec<(Edge, SignalId)>,
        /// Body.
        body: CStmt,
    },
}

/// An elaborated, flattened design ready for simulation.
#[derive(Debug, Clone)]
pub struct Design {
    /// Name of the top module.
    pub top: String,
    /// All signals (top ports first, then internals, then sub-instances).
    pub signals: Vec<SignalDecl>,
    /// Top-level input ports in declaration order.
    pub inputs: Vec<SignalId>,
    /// Top-level output ports in declaration order.
    pub outputs: Vec<SignalId>,
    /// Compiled processes in elaboration order.
    pub processes: Vec<Process>,
    /// Name → id index backing [`Design::signal`] (testbenches poke and
    /// peek by name on every step; a linear scan here was a measurable
    /// slice of simulation wall-clock). FNV-hashed: keys are short
    /// identifiers, for which SipHash overhead is pure loss.
    name_index: std::collections::HashMap<String, u32, FnvBuild>,
    /// Per-edge trigger lists: `pos_triggers[s]` holds the sequential
    /// process indices sensitive to a *posedge* of signal `s`
    /// (`neg_triggers` likewise). Built once here so the event wheel
    /// dispatches an edge by indexing the matching list instead of
    /// scanning every sensitized process's full edge set per change.
    pos_triggers: Vec<Vec<u32>>,
    /// See [`Design::pos_triggers`].
    neg_triggers: Vec<Vec<u32>>,
    /// Lazily compiled bytecode, shared by every [`crate::Simulator`]
    /// instantiated over this design — grading re-runs the same design
    /// through hundreds of testbench executions, and recompiling the
    /// process bodies per run was pure loss.
    compiled: OnceLock<Arc<CompiledDesign>>,
    /// Per-process content-address tags, aligned with `processes`.
    /// Populated by elaboration; empty on hand-assembled designs (which
    /// then simply never serve as delta parents).
    units: Vec<crate::unit::UnitTag>,
}

/// Minimal FNV-1a `BuildHasher` for the short-string name index.
#[derive(Debug, Clone, Default)]
struct FnvBuild;

struct FnvHasher(u64);

impl std::hash::BuildHasher for FnvBuild {
    type Hasher = FnvHasher;
    fn build_hasher(&self) -> FnvHasher {
        FnvHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl std::hash::Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        // Continues the running FNV-1a state; `mage_logic::fnv1a` is the
        // one-shot form of the same hash.
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }
}

impl Design {
    /// Assemble a design, building the name lookup index and the
    /// per-edge trigger lists.
    pub fn new(
        top: String,
        signals: Vec<SignalDecl>,
        inputs: Vec<SignalId>,
        outputs: Vec<SignalId>,
        processes: Vec<Process>,
    ) -> Self {
        let name_index = signals
            .iter()
            .enumerate()
            .map(|(i, s)| (s.name.clone(), i as u32))
            .collect();
        // Edge-sensitivity metadata: one trigger list per (edge, signal),
        // deduped per process with a stamp so `@(posedge clk or posedge
        // clk)` enqueues once.
        let nsig = signals.len();
        let mut pos_triggers: Vec<Vec<u32>> = vec![Vec::new(); nsig];
        let mut neg_triggers: Vec<Vec<u32>> = vec![Vec::new(); nsig];
        let mut stamp: Vec<(usize, usize)> = vec![(usize::MAX, usize::MAX); nsig];
        for (i, p) in processes.iter().enumerate() {
            if let Process::Seq { edges, .. } = p {
                for &(e, s) in edges {
                    let (list, slot) = match e {
                        Edge::Pos => (&mut pos_triggers, &mut stamp[s.index()].0),
                        Edge::Neg => (&mut neg_triggers, &mut stamp[s.index()].1),
                    };
                    if *slot != i {
                        *slot = i;
                        list[s.index()].push(i as u32);
                    }
                }
            }
        }
        Design {
            top,
            signals,
            inputs,
            outputs,
            processes,
            name_index,
            pos_triggers,
            neg_triggers,
            compiled: OnceLock::new(),
            units: Vec::new(),
        }
    }

    /// Per-process [`crate::unit::UnitTag`]s, aligned with
    /// [`Design::processes`]; empty if the design was assembled without
    /// content addressing (hand-built designs).
    pub fn units(&self) -> &[crate::unit::UnitTag] {
        &self.units
    }

    /// Attach the content-address tags (elaboration only).
    pub(crate) fn set_units(&mut self, units: Vec<crate::unit::UnitTag>) {
        debug_assert!(units.is_empty() || units.len() == self.processes.len());
        self.units = units;
    }

    /// Pre-seed the compiled bytecode (delta elaboration assembles it
    /// eagerly from reused + rebuilt units). A lost race against a
    /// concurrent [`Design::compiled`] is harmless — both sides compile
    /// the same design — so the result is ignored.
    pub(crate) fn preseed_compiled(&self, compiled: Arc<CompiledDesign>) {
        let _ = self.compiled.set(compiled);
    }

    /// Sequential process indices triggered when `sig` makes an `edge`
    /// transition (IEEE-1364 classification of the LSB change).
    #[inline]
    pub fn triggers(&self, edge: Edge, sig: SignalId) -> &[u32] {
        match edge {
            Edge::Pos => &self.pos_triggers[sig.index()],
            Edge::Neg => &self.neg_triggers[sig.index()],
        }
    }

    /// The design's process bodies lowered to bytecode, compiled on
    /// first use and shared by every simulator over this design (and,
    /// through the serve-layer design cache, across jobs).
    pub fn compiled(&self) -> &Arc<CompiledDesign> {
        self.compiled.get_or_init(|| Arc::new(compile_design(self)))
    }

    /// Look up a signal id by (hierarchical) name.
    pub fn signal(&self, name: &str) -> Option<SignalId> {
        self.name_index.get(name).map(|&i| SignalId(i))
    }

    /// The declaration for `id`.
    pub fn decl(&self, id: SignalId) -> &SignalDecl {
        &self.signals[id.index()]
    }

    /// Width of signal `id`.
    pub fn width(&self, id: SignalId) -> usize {
        self.signals[id.index()].width
    }

    /// `(name, width)` pairs for the top-level inputs.
    pub fn input_ports(&self) -> Vec<(String, usize)> {
        self.inputs
            .iter()
            .map(|&id| (self.decl(id).name.clone(), self.width(id)))
            .collect()
    }

    /// `(name, width)` pairs for the top-level outputs.
    pub fn output_ports(&self) -> Vec<(String, usize)> {
        self.outputs
            .iter()
            .map(|&id| (self.decl(id).name.clone(), self.width(id)))
            .collect()
    }
}
