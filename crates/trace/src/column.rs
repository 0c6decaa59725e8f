//! Instruction-kind columns: the code of a task type, drawn once.
//!
//! All instances of a task type share a code seed and an instruction mix,
//! so they execute the same kind sequence (the same machine code) and
//! differ only in their addresses. A [`KindColumn`] draws that sequence
//! from the code RNG on demand and keeps the prefix drawn so far; every
//! [`SpecSource`] copies its kinds out of one. [`KindColumns`] maps
//! `(code_seed, mix)` to a shared column, so a simulation that runs many
//! instances of a type in detail draws the type's kinds once — as far as
//! its longest instance reaches — instead of once per instance.
//!
//! Sharing never changes a stream: a column's `i`-th kind is a pure
//! function of the code seed and the mix, whichever source drew it first.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::block::SpecSource;
use crate::inst::InstKind;
use crate::mix::InstructionMix;
use crate::spec::TraceSpec;
use taskpoint_stats::rng::Xoshiro256pp;

/// Process-wide count of instruction kinds drawn by [`KindColumn`]s.
///
/// A plain relaxed counter bumped once per column extension (not per
/// kind), so work-count tests can assert that instances of a type share
/// their kinds instead of drawing them again.
static KINDS_DRAWN: AtomicU64 = AtomicU64::new(0);

/// The kind sequence of one `(code_seed, mix)` pair: the code RNG plus the
/// prefix drawn from it so far, grown on demand.
#[derive(Debug)]
pub struct KindColumn {
    mix: InstructionMix,
    code_rng: Xoshiro256pp,
    kinds: Vec<InstKind>,
}

/// A column shared by the sources of one run reading it. A run reads its
/// streams on one thread, so the sharing needs no lock.
pub(crate) type SharedKindColumn = Rc<RefCell<KindColumn>>;

impl KindColumn {
    /// An empty column over the code of `spec`'s task type, ready to be
    /// shared by its sources.
    pub(crate) fn shared(spec: &TraceSpec) -> SharedKindColumn {
        Rc::new(RefCell::new(Self {
            mix: spec.mix().clone(),
            code_rng: Xoshiro256pp::seed_from_u64(spec.code_seed()),
            kinds: Vec::new(),
        }))
    }

    /// Total number of kinds all columns of this process have drawn so far
    /// (monotonic; never reset). Subtract two readings to count the kinds
    /// a region of code drew — see `tests/kind_columns.rs`.
    pub fn kinds_drawn() -> u64 {
        KINDS_DRAWN.load(Ordering::Relaxed)
    }

    /// Appends kinds `start..start + n` to `out`, drawing the column
    /// further first if it does not reach that far yet.
    pub(crate) fn copy_into(&mut self, start: usize, n: usize, out: &mut Vec<InstKind>) {
        let end = start + n;
        let missing = end.saturating_sub(self.kinds.len());
        if missing > 0 {
            let (mix, rng) = (&self.mix, &mut self.code_rng);
            self.kinds.extend((0..missing).map(|_| mix.sample(rng)));
            KINDS_DRAWN.fetch_add(missing as u64, Ordering::Relaxed);
        }
        out.extend_from_slice(&self.kinds[start..end]);
    }
}

/// The columns of one simulation run, keyed by `(code_seed, mix)`.
///
/// Columns are created when the first source of their type is asked for,
/// never up front, and live as long as the map: a trace provider owns one
/// map per run, so the kinds drawn for a run are dropped with it. A column
/// holds one byte per kind of the longest stream read from it, and no
/// column is dropped before the map: the map's memory grows with the
/// number of distinct `(code_seed, mix)` pairs read from it. A program
/// that gives every instance its own code seed shares nothing and keeps
/// the kinds of every stream read for the whole run.
#[derive(Default)]
pub struct KindColumns {
    columns: RefCell<BTreeMap<(u64, [u64; 11]), SharedKindColumn>>,
}

impl KindColumns {
    /// An empty map.
    pub const fn new() -> Self {
        Self { columns: RefCell::new(BTreeMap::new()) }
    }

    /// A fresh source over `spec`'s stream whose kinds come from the
    /// column of `spec`'s code seed and mix, created on first use. Yields
    /// exactly the stream of [`TraceSpec::source`].
    pub fn source(&self, spec: &TraceSpec) -> SpecSource {
        let key = (spec.code_seed(), spec.mix().cumulative_bits());
        let column = Rc::clone(
            self.columns.borrow_mut().entry(key).or_insert_with(|| KindColumn::shared(spec)),
        );
        spec.source_over(column)
    }

    /// Number of columns created so far.
    pub fn len(&self) -> usize {
        self.columns.borrow().len()
    }

    /// Whether no column has been created yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl fmt::Debug for KindColumns {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KindColumns").field("columns", &self.len()).finish()
    }
}
