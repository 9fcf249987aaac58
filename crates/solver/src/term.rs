//! Hash-consed bitvector terms.
//!
//! Terms are created through a [`TermPool`] which interns structurally equal
//! terms so that a [`TermId`] is a cheap, copyable handle and structural
//! equality is pointer equality. The pool also owns the symbolic-variable
//! table and the registry of *opaque functions* (checksums, MACs, digests):
//! functions that the solver treats as black boxes until all arguments are
//! concrete, at which point a registered Rust evaluator is invoked — this is
//! how Achilles models `CRC(msg)` and PBFT authenticators.

use std::collections::HashMap;
use std::fmt;

use crate::width::Width;

/// Handle to an interned term. Obtained from [`TermPool`] constructors.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub(crate) u32);

impl fmt::Debug for TermId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Handle to a symbolic variable.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) u32);

impl fmt::Debug for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl VarId {
    /// Raw index of this variable in its pool.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Handle to a registered opaque function.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FunId(pub(crate) u32);

impl fmt::Debug for FunId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// The operator of a term node.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Op {
    /// Bitvector constant (value truncated to the node width).
    Const(u64),
    /// Symbolic variable.
    Var(VarId),
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Two's-complement negation.
    Neg,
    /// Bitwise and.
    BitAnd,
    /// Bitwise or.
    BitOr,
    /// Bitwise xor.
    BitXor,
    /// Bitwise not.
    BitNot,
    /// Left shift by a constant embedded in the second argument.
    Shl,
    /// Logical right shift.
    Lshr,
    /// Zero-extension to the node width.
    ZExt,
    /// Sign-extension to the node width.
    SExt,
    /// Bit extraction: the node width lowest bits starting at bit `lo`.
    Extract {
        /// Lowest extracted bit of the argument.
        lo: u8,
    },
    /// Concatenation: first argument forms the high bits.
    Concat,
    /// Equality (boolean result).
    Eq,
    /// Unsigned less-than (boolean result).
    Ult,
    /// Unsigned less-or-equal (boolean result).
    Ule,
    /// Boolean negation.
    Not,
    /// Boolean conjunction.
    And,
    /// Boolean disjunction.
    Or,
    /// If-then-else: `args[0]` boolean, branches of node width.
    Ite,
    /// Application of an opaque function.
    Fun(FunId),
}

/// An interned term node: operator, arguments, and result width.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct TermData {
    /// Operator.
    pub op: Op,
    /// Argument term ids (empty for leaves).
    pub args: Vec<TermId>,
    /// Result width.
    pub width: Width,
}

/// Metadata about a symbolic variable.
#[derive(Clone, Debug)]
pub struct VarInfo {
    /// Human-readable name (e.g. `msg.address`); used in reports.
    pub name: String,
    /// Width of the variable.
    pub width: Width,
}

/// Concrete evaluator of an opaque function.
///
/// Stored behind an `Arc` so that pools can be cloned cheaply — parallel
/// exploration hands every worker a snapshot of the base pool.
pub type FunEval = std::sync::Arc<dyn Fn(&[u64]) -> u64 + Send + Sync>;

/// A registered opaque function: name plus a concrete Rust evaluator.
#[derive(Clone)]
pub struct FunInfo {
    /// Human-readable name (e.g. `crc16`).
    pub name: String,
    /// Result width of every application.
    pub width: Width,
    eval: FunEval,
}

impl fmt::Debug for FunInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FunInfo")
            .field("name", &self.name)
            .field("width", &self.width)
            .finish_non_exhaustive()
    }
}

/// Interner and factory for terms, variables and opaque functions.
///
/// All constructors perform light *local* simplification (constant folding,
/// identity elimination) so that trivially true/false conditions never reach
/// the search engine.
///
/// # Examples
///
/// ```
/// use achilles_solver::{TermPool, Width};
///
/// let mut pool = TermPool::new();
/// let x = pool.fresh_var("x", Width::W8);
/// let xv = pool.var(x);
/// let five = pool.constant(5, Width::W8);
/// let sum = pool.add(xv, five);
/// assert_eq!(pool.width(sum), Width::W8);
/// ```
#[derive(Clone, Debug, Default)]
pub struct TermPool {
    nodes: Vec<TermData>,
    /// Structural fingerprint per node (parallel to `nodes`): equal across
    /// pools for structurally equal terms, regardless of `TermId` numbering.
    fps: Vec<u128>,
    intern: HashMap<TermData, TermId>,
    vars: Vec<VarInfo>,
    /// Identity fingerprint per variable (parallel to `vars`).
    var_fps: Vec<u128>,
    /// Reverse map used when importing terms or models from another pool.
    var_fp_index: HashMap<u128, VarId>,
    funs: Vec<FunInfo>,
    /// Distinguishes *untagged* variables created after a [`TermPool::fork`]
    /// so independent workers never alias each other's ad-hoc variables.
    fp_nonce: u64,
    true_id: Option<TermId>,
    false_id: Option<TermId>,
}

/// 128-bit mixing for structural fingerprints (two decoupled 64-bit lanes of
/// splitmix-style avalanche; not cryptographic, collision odds are ~2^-64 per
/// pair even across millions of terms).
fn fp_mix(acc: u128, word: u64) -> u128 {
    const M_LO: u64 = 0xBF58_476D_1CE4_E5B9;
    const M_HI: u64 = 0x94D0_49BB_1331_11EB;
    let lo = (acc as u64) ^ word;
    let hi = ((acc >> 64) as u64) ^ word.rotate_left(32);
    let mut lo = lo.wrapping_mul(M_LO);
    lo ^= lo >> 29;
    let mut hi = hi.wrapping_mul(M_HI);
    hi ^= hi >> 31;
    ((hi as u128) << 64) | lo as u128
}

fn fp_mix128(acc: u128, word: u128) -> u128 {
    fp_mix(fp_mix(acc, word as u64), (word >> 64) as u64)
}

fn fp_str(acc: u128, s: &str) -> u128 {
    let mut h = fp_mix(acc, s.len() as u64);
    for chunk in s.as_bytes().chunks(8) {
        let mut w = [0u8; 8];
        w[..chunk.len()].copy_from_slice(chunk);
        h = fp_mix(h, u64::from_le_bytes(w));
    }
    h
}

impl TermPool {
    /// Creates an empty pool.
    pub fn new() -> TermPool {
        TermPool::default()
    }

    /// Number of interned terms.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the pool has no terms.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of variables created so far.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    fn mk(&mut self, data: TermData) -> TermId {
        if let Some(&id) = self.intern.get(&data) {
            return id;
        }
        let id = TermId(self.nodes.len() as u32);
        let fp = self.node_fp(&data);
        self.nodes.push(data.clone());
        self.fps.push(fp);
        self.intern.insert(data, id);
        id
    }

    /// Structural fingerprint of a node: a pure function of the operator, the
    /// operand fingerprints, and the width — stable across pools.
    fn node_fp(&self, data: &TermData) -> u128 {
        let mut h = fp_mix(0x5EED_FACE_u64 as u128, u64::from(data.width.bits()));
        h = match data.op {
            Op::Const(v) => fp_mix(fp_mix(h, 1), v),
            Op::Var(v) => fp_mix128(fp_mix(h, 2), self.var_fps[v.0 as usize]),
            Op::Add => fp_mix(h, 3),
            Op::Sub => fp_mix(h, 4),
            Op::Mul => fp_mix(h, 5),
            Op::Neg => fp_mix(h, 6),
            Op::BitAnd => fp_mix(h, 7),
            Op::BitOr => fp_mix(h, 8),
            Op::BitXor => fp_mix(h, 9),
            Op::BitNot => fp_mix(h, 10),
            Op::Shl => fp_mix(h, 11),
            Op::Lshr => fp_mix(h, 12),
            Op::ZExt => fp_mix(h, 13),
            Op::SExt => fp_mix(h, 14),
            Op::Extract { lo } => fp_mix(fp_mix(h, 15), u64::from(lo)),
            Op::Concat => fp_mix(h, 16),
            Op::Eq => fp_mix(h, 17),
            Op::Ult => fp_mix(h, 18),
            Op::Ule => fp_mix(h, 19),
            Op::Not => fp_mix(h, 20),
            Op::And => fp_mix(h, 21),
            Op::Or => fp_mix(h, 22),
            Op::Ite => fp_mix(h, 23),
            Op::Fun(f) => {
                let info = &self.funs[f.0 as usize];
                fp_str(fp_mix(fp_mix(h, 24), u64::from(f.0)), &info.name)
            }
        };
        for &a in &data.args {
            h = fp_mix128(h, self.fps[a.0 as usize]);
        }
        h
    }

    /// Structural fingerprint of a term.
    ///
    /// Two structurally equal terms have equal fingerprints even when they
    /// live in different pools (e.g. per-worker snapshots of a base pool), as
    /// long as their variables share identity fingerprints — which holds for
    /// variables created before a [`TermPool::fork`] and for tagged variables
    /// ([`TermPool::fresh_var_tagged`]) with equal tags.
    pub fn term_fp(&self, t: TermId) -> u128 {
        self.fps[t.0 as usize]
    }

    /// Identity fingerprint of a variable.
    pub fn var_fp(&self, v: VarId) -> u128 {
        self.var_fps[v.0 as usize]
    }

    /// Looks up a variable by identity fingerprint.
    pub fn var_by_fp(&self, fp: u128) -> Option<VarId> {
        self.var_fp_index.get(&fp).copied()
    }

    /// Snapshots this pool for an independent worker.
    ///
    /// The clone shares all existing `TermId`s/`VarId`s with the base pool.
    /// `nonce` must be unique per worker: it salts the fingerprints of
    /// *untagged* variables created after the fork so that ad-hoc variables
    /// from different workers can never alias in shared caches.
    pub fn fork(&self, nonce: u64) -> TermPool {
        let mut snapshot = self.clone();
        snapshot.fp_nonce = nonce;
        snapshot
    }

    /// Returns the node for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this pool.
    pub fn node(&self, id: TermId) -> &TermData {
        &self.nodes[id.0 as usize]
    }

    /// Width of a term.
    pub fn width(&self, id: TermId) -> Width {
        self.node(id).width
    }

    /// Returns `Some(value)` if the term is a constant.
    pub fn as_const(&self, id: TermId) -> Option<u64> {
        match self.node(id).op {
            Op::Const(v) => Some(v),
            _ => None,
        }
    }

    /// Returns `Some(var)` if the term is a bare variable.
    pub fn as_var(&self, id: TermId) -> Option<VarId> {
        match self.node(id).op {
            Op::Var(v) => Some(v),
            _ => None,
        }
    }

    /// Creates a fresh variable with the given name hint.
    ///
    /// The variable's identity fingerprint is derived from its creation index
    /// and the pool's fork nonce, so it is stable for variables created
    /// before a [`TermPool::fork`] and worker-unique afterwards. Variables
    /// that must keep a *shared* identity across independently forked pools
    /// should use [`TermPool::fresh_var_tagged`] instead.
    pub fn fresh_var(&mut self, name: &str, width: Width) -> VarId {
        let h = fp_mix(fp_mix(0xF8E5_u128, self.fp_nonce), self.vars.len() as u64);
        let fp = fp_str(fp_mix(h, u64::from(width.bits())), name);
        self.push_var(name, width, fp)
    }

    /// Creates a fresh variable whose identity fingerprint depends only on
    /// `tag` and `width`.
    ///
    /// This is the hook parallel exploration uses: re-executed programs
    /// intern their symbolic inputs by a deterministic key (call index, name,
    /// width), and passing a hash of that key as `tag` makes "the same"
    /// variable created independently in different worker pools carry the
    /// same fingerprint — which in turn makes structurally equal constraints
    /// shareable through the cross-worker solver cache.
    pub fn fresh_var_tagged(&mut self, name: &str, width: Width, tag: u64) -> VarId {
        let fp = fp_mix(
            fp_mix(fp_mix(0x7A66_u128, tag), u64::from(width.bits())),
            tag.rotate_left(17),
        );
        self.push_var(name, width, fp)
    }

    fn push_var(&mut self, name: &str, width: Width, fp: u128) -> VarId {
        let id = VarId(self.vars.len() as u32);
        self.vars.push(VarInfo {
            name: name.to_string(),
            width,
        });
        self.var_fps.push(fp);
        self.var_fp_index.entry(fp).or_insert(id);
        id
    }

    /// Metadata for a variable.
    pub fn var_info(&self, v: VarId) -> &VarInfo {
        &self.vars[v.0 as usize]
    }

    /// Registers an opaque function evaluated by `eval` once all arguments
    /// are concrete.
    pub fn register_fun(
        &mut self,
        name: &str,
        width: Width,
        eval: impl Fn(&[u64]) -> u64 + Send + Sync + 'static,
    ) -> FunId {
        let id = FunId(self.funs.len() as u32);
        self.funs.push(FunInfo {
            name: name.to_string(),
            width,
            eval: std::sync::Arc::new(eval),
        });
        id
    }

    /// Metadata for an opaque function.
    pub fn fun_info(&self, f: FunId) -> &FunInfo {
        &self.funs[f.0 as usize]
    }

    /// Evaluates a registered opaque function on concrete arguments.
    pub fn eval_fun(&self, f: FunId, args: &[u64]) -> u64 {
        let info = &self.funs[f.0 as usize];
        info.width.truncate((info.eval)(args))
    }

    // ------------------------------------------------------------------
    // Leaves
    // ------------------------------------------------------------------

    /// A bitvector constant, truncated to `width`.
    pub fn constant(&mut self, value: u64, width: Width) -> TermId {
        let value = width.truncate(value);
        self.mk(TermData {
            op: Op::Const(value),
            args: vec![],
            width,
        })
    }

    /// A signed constant, encoded two's complement at `width`.
    pub fn constant_signed(&mut self, value: i64, width: Width) -> TermId {
        self.constant(width.from_signed(value), width)
    }

    /// The boolean constant `true`.
    pub fn tt(&mut self) -> TermId {
        if let Some(id) = self.true_id {
            return id;
        }
        let id = self.constant(1, Width::BOOL);
        self.true_id = Some(id);
        id
    }

    /// The boolean constant `false`.
    pub fn ff(&mut self) -> TermId {
        if let Some(id) = self.false_id {
            return id;
        }
        let id = self.constant(0, Width::BOOL);
        self.false_id = Some(id);
        id
    }

    /// A boolean constant.
    pub fn boolean(&mut self, b: bool) -> TermId {
        if b {
            self.tt()
        } else {
            self.ff()
        }
    }

    /// The term for variable `v`.
    pub fn var(&mut self, v: VarId) -> TermId {
        let width = self.vars[v.0 as usize].width;
        self.mk(TermData {
            op: Op::Var(v),
            args: vec![],
            width,
        })
    }

    /// Creates a fresh variable and returns its term in one step.
    pub fn fresh(&mut self, name: &str, width: Width) -> TermId {
        let v = self.fresh_var(name, width);
        self.var(v)
    }

    // ------------------------------------------------------------------
    // Arithmetic
    // ------------------------------------------------------------------

    fn binop_width(&self, a: TermId, b: TermId, what: &str) -> Width {
        let (wa, wb) = (self.width(a), self.width(b));
        assert_eq!(wa, wb, "{what}: width mismatch {wa:?} vs {wb:?}");
        wa
    }

    /// Wrapping addition.
    pub fn add(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.binop_width(a, b, "add");
        match (self.as_const(a), self.as_const(b)) {
            (Some(x), Some(y)) => self.constant(x.wrapping_add(y), w),
            (Some(0), None) => b,
            (None, Some(0)) => a,
            _ => self.mk(TermData {
                op: Op::Add,
                args: vec![a, b],
                width: w,
            }),
        }
    }

    /// Wrapping subtraction.
    pub fn sub(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.binop_width(a, b, "sub");
        if a == b {
            return self.constant(0, w);
        }
        match (self.as_const(a), self.as_const(b)) {
            (Some(x), Some(y)) => self.constant(x.wrapping_sub(y), w),
            (None, Some(0)) => a,
            _ => self.mk(TermData {
                op: Op::Sub,
                args: vec![a, b],
                width: w,
            }),
        }
    }

    /// Wrapping multiplication.
    pub fn mul(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.binop_width(a, b, "mul");
        match (self.as_const(a), self.as_const(b)) {
            (Some(x), Some(y)) => self.constant(x.wrapping_mul(y), w),
            (Some(1), None) => b,
            (None, Some(1)) => a,
            (Some(0), None) | (None, Some(0)) => self.constant(0, w),
            _ => self.mk(TermData {
                op: Op::Mul,
                args: vec![a, b],
                width: w,
            }),
        }
    }

    /// Two's-complement negation.
    pub fn neg(&mut self, a: TermId) -> TermId {
        let w = self.width(a);
        match self.as_const(a) {
            Some(x) => self.constant(x.wrapping_neg(), w),
            None => self.mk(TermData {
                op: Op::Neg,
                args: vec![a],
                width: w,
            }),
        }
    }

    // ------------------------------------------------------------------
    // Bitwise
    // ------------------------------------------------------------------

    /// Bitwise and.
    pub fn bit_and(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.binop_width(a, b, "bit_and");
        match (self.as_const(a), self.as_const(b)) {
            (Some(x), Some(y)) => self.constant(x & y, w),
            _ => self.mk(TermData {
                op: Op::BitAnd,
                args: vec![a, b],
                width: w,
            }),
        }
    }

    /// Bitwise or.
    pub fn bit_or(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.binop_width(a, b, "bit_or");
        match (self.as_const(a), self.as_const(b)) {
            (Some(x), Some(y)) => self.constant(x | y, w),
            _ => self.mk(TermData {
                op: Op::BitOr,
                args: vec![a, b],
                width: w,
            }),
        }
    }

    /// Bitwise xor.
    pub fn bit_xor(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.binop_width(a, b, "bit_xor");
        match (self.as_const(a), self.as_const(b)) {
            (Some(x), Some(y)) => self.constant(x ^ y, w),
            _ => self.mk(TermData {
                op: Op::BitXor,
                args: vec![a, b],
                width: w,
            }),
        }
    }

    /// Bitwise not.
    pub fn bit_not(&mut self, a: TermId) -> TermId {
        let w = self.width(a);
        match self.as_const(a) {
            Some(x) => self.constant(!x, w),
            None => self.mk(TermData {
                op: Op::BitNot,
                args: vec![a],
                width: w,
            }),
        }
    }

    /// Left shift.
    pub fn shl(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.binop_width(a, b, "shl");
        match (self.as_const(a), self.as_const(b)) {
            (Some(x), Some(y)) => {
                let v = if y >= 64 { 0 } else { x << y };
                self.constant(v, w)
            }
            _ => self.mk(TermData {
                op: Op::Shl,
                args: vec![a, b],
                width: w,
            }),
        }
    }

    /// Logical right shift.
    pub fn lshr(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.binop_width(a, b, "lshr");
        match (self.as_const(a), self.as_const(b)) {
            (Some(x), Some(y)) => {
                let v = if y >= 64 { 0 } else { x >> y };
                self.constant(v, w)
            }
            _ => self.mk(TermData {
                op: Op::Lshr,
                args: vec![a, b],
                width: w,
            }),
        }
    }

    // ------------------------------------------------------------------
    // Width changes
    // ------------------------------------------------------------------

    /// Zero-extends to `width`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is narrower than the argument.
    pub fn zext(&mut self, a: TermId, width: Width) -> TermId {
        let wa = self.width(a);
        assert!(width >= wa, "zext must widen ({wa:?} -> {width:?})");
        if width == wa {
            return a;
        }
        match self.as_const(a) {
            Some(x) => self.constant(x, width),
            None => self.mk(TermData {
                op: Op::ZExt,
                args: vec![a],
                width,
            }),
        }
    }

    /// Sign-extends to `width`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is narrower than the argument.
    pub fn sext(&mut self, a: TermId, width: Width) -> TermId {
        let wa = self.width(a);
        assert!(width >= wa, "sext must widen ({wa:?} -> {width:?})");
        if width == wa {
            return a;
        }
        match self.as_const(a) {
            Some(x) => {
                let s = wa.to_signed(x);
                self.constant(width.from_signed(s), width)
            }
            None => self.mk(TermData {
                op: Op::SExt,
                args: vec![a],
                width,
            }),
        }
    }

    /// Extracts `width` bits starting at bit `lo`.
    ///
    /// # Panics
    ///
    /// Panics if `lo + width` exceeds the argument width.
    pub fn extract(&mut self, a: TermId, lo: u8, width: Width) -> TermId {
        let wa = self.width(a);
        assert!(
            u32::from(lo) + width.bits() <= wa.bits(),
            "extract [{lo}..{}] out of range for {wa:?}",
            u32::from(lo) + width.bits()
        );
        if lo == 0 && width == wa {
            return a;
        }
        match self.as_const(a) {
            Some(x) => self.constant(x >> lo, width),
            None => self.mk(TermData {
                op: Op::Extract { lo },
                args: vec![a],
                width,
            }),
        }
    }

    /// Concatenates `hi` (high bits) and `lo` (low bits).
    ///
    /// # Panics
    ///
    /// Panics if the combined width exceeds 64 bits.
    pub fn concat(&mut self, hi: TermId, lo: TermId) -> TermId {
        let (wh, wl) = (self.width(hi), self.width(lo));
        let bits = wh.bits() + wl.bits();
        assert!(bits <= 64, "concat width {bits} exceeds 64");
        let w = Width::new(bits as u8);
        match (self.as_const(hi), self.as_const(lo)) {
            (Some(h), Some(l)) => self.constant((h << wl.bits()) | l, w),
            _ => self.mk(TermData {
                op: Op::Concat,
                args: vec![hi, lo],
                width: w,
            }),
        }
    }

    // ------------------------------------------------------------------
    // Comparisons (boolean results)
    // ------------------------------------------------------------------

    /// Equality.
    pub fn eq(&mut self, a: TermId, b: TermId) -> TermId {
        self.binop_width(a, b, "eq");
        if a == b {
            return self.tt();
        }
        match (self.as_const(a), self.as_const(b)) {
            (Some(x), Some(y)) => self.boolean(x == y),
            _ => {
                // Canonical argument order improves interning hits.
                let (a, b) = if a <= b { (a, b) } else { (b, a) };
                self.mk(TermData {
                    op: Op::Eq,
                    args: vec![a, b],
                    width: Width::BOOL,
                })
            }
        }
    }

    /// Disequality (`not eq`).
    pub fn ne(&mut self, a: TermId, b: TermId) -> TermId {
        let e = self.eq(a, b);
        self.not(e)
    }

    /// Unsigned less-than.
    pub fn ult(&mut self, a: TermId, b: TermId) -> TermId {
        self.binop_width(a, b, "ult");
        if a == b {
            return self.ff();
        }
        match (self.as_const(a), self.as_const(b)) {
            (Some(x), Some(y)) => self.boolean(x < y),
            _ => self.mk(TermData {
                op: Op::Ult,
                args: vec![a, b],
                width: Width::BOOL,
            }),
        }
    }

    /// Unsigned less-or-equal.
    pub fn ule(&mut self, a: TermId, b: TermId) -> TermId {
        self.binop_width(a, b, "ule");
        if a == b {
            return self.tt();
        }
        match (self.as_const(a), self.as_const(b)) {
            (Some(x), Some(y)) => self.boolean(x <= y),
            _ => self.mk(TermData {
                op: Op::Ule,
                args: vec![a, b],
                width: Width::BOOL,
            }),
        }
    }

    /// Signed less-than, lowered to unsigned via the sign-bias trick:
    /// `a <s b  ⟺  (a + 2^(w-1)) mod 2^w  <u  (b + 2^(w-1)) mod 2^w`.
    ///
    /// The bias is expressed as a wrapping *addition* (equivalent to flipping
    /// the sign bit) so that the result stays in the affine fragment the
    /// propagator understands.
    pub fn slt(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.binop_width(a, b, "slt");
        let bias = self.constant(w.sign_bit(), w);
        let ab = self.add(a, bias);
        let bb = self.add(b, bias);
        self.ult(ab, bb)
    }

    /// Signed less-or-equal (sign-bias lowering, see [`TermPool::slt`]).
    pub fn sle(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.binop_width(a, b, "sle");
        let bias = self.constant(w.sign_bit(), w);
        let ab = self.add(a, bias);
        let bb = self.add(b, bias);
        self.ule(ab, bb)
    }

    /// Unsigned greater-than.
    pub fn ugt(&mut self, a: TermId, b: TermId) -> TermId {
        self.ult(b, a)
    }

    /// Unsigned greater-or-equal.
    pub fn uge(&mut self, a: TermId, b: TermId) -> TermId {
        self.ule(b, a)
    }

    /// Signed greater-than.
    pub fn sgt(&mut self, a: TermId, b: TermId) -> TermId {
        self.slt(b, a)
    }

    /// Signed greater-or-equal.
    pub fn sge(&mut self, a: TermId, b: TermId) -> TermId {
        self.sle(b, a)
    }

    // ------------------------------------------------------------------
    // Boolean connectives
    // ------------------------------------------------------------------

    fn assert_bool(&self, t: TermId, what: &str) {
        assert_eq!(
            self.width(t),
            Width::BOOL,
            "{what}: operand must be boolean"
        );
    }

    /// Boolean negation (double negations collapse).
    pub fn not(&mut self, a: TermId) -> TermId {
        self.assert_bool(a, "not");
        match self.node(a).op {
            Op::Const(v) => self.boolean(v == 0),
            Op::Not => self.node(a).args[0],
            _ => self.mk(TermData {
                op: Op::Not,
                args: vec![a],
                width: Width::BOOL,
            }),
        }
    }

    /// Boolean conjunction.
    pub fn and(&mut self, a: TermId, b: TermId) -> TermId {
        self.assert_bool(a, "and");
        self.assert_bool(b, "and");
        if a == b {
            return a;
        }
        match (self.as_const(a), self.as_const(b)) {
            (Some(0), _) | (_, Some(0)) => self.ff(),
            (Some(1), _) => b,
            (_, Some(1)) => a,
            _ => {
                let (a, b) = if a <= b { (a, b) } else { (b, a) };
                self.mk(TermData {
                    op: Op::And,
                    args: vec![a, b],
                    width: Width::BOOL,
                })
            }
        }
    }

    /// Boolean disjunction.
    pub fn or(&mut self, a: TermId, b: TermId) -> TermId {
        self.assert_bool(a, "or");
        self.assert_bool(b, "or");
        if a == b {
            return a;
        }
        match (self.as_const(a), self.as_const(b)) {
            (Some(1), _) | (_, Some(1)) => self.tt(),
            (Some(0), _) => b,
            (_, Some(0)) => a,
            _ => {
                let (a, b) = if a <= b { (a, b) } else { (b, a) };
                self.mk(TermData {
                    op: Op::Or,
                    args: vec![a, b],
                    width: Width::BOOL,
                })
            }
        }
    }

    /// Conjunction of many booleans (`true` when empty).
    pub fn and_all(&mut self, terms: impl IntoIterator<Item = TermId>) -> TermId {
        let mut acc = self.tt();
        for t in terms {
            acc = self.and(acc, t);
        }
        acc
    }

    /// Disjunction of many booleans (`false` when empty).
    pub fn or_all(&mut self, terms: impl IntoIterator<Item = TermId>) -> TermId {
        let mut acc = self.ff();
        for t in terms {
            acc = self.or(acc, t);
        }
        acc
    }

    /// If-then-else.
    pub fn ite(&mut self, cond: TermId, then: TermId, els: TermId) -> TermId {
        self.assert_bool(cond, "ite");
        let w = self.binop_width(then, els, "ite");
        if then == els {
            return then;
        }
        match self.as_const(cond) {
            Some(1) => then,
            Some(0) => els,
            _ => self.mk(TermData {
                op: Op::Ite,
                args: vec![cond, then, els],
                width: w,
            }),
        }
    }

    /// Application of an opaque function.
    pub fn apply(&mut self, f: FunId, args: Vec<TermId>) -> TermId {
        let width = self.funs[f.0 as usize].width;
        // Fold when every argument is already concrete.
        let concrete: Option<Vec<u64>> = args.iter().map(|&a| self.as_const(a)).collect();
        if let Some(vals) = concrete {
            let v = self.eval_fun(f, &vals);
            return self.constant(v, width);
        }
        self.mk(TermData {
            op: Op::Fun(f),
            args,
            width,
        })
    }

    // ------------------------------------------------------------------
    // Evaluation
    // ------------------------------------------------------------------

    /// Evaluates `t` under the variable assignment `lookup`.
    ///
    /// Returns `None` if any required variable is unassigned.
    pub fn eval_with(&self, t: TermId, lookup: &dyn Fn(VarId) -> Option<u64>) -> Option<u64> {
        let node = self.node(t);
        let w = node.width;
        let v = match node.op {
            Op::Const(v) => v,
            Op::Var(x) => lookup(x)?,
            Op::Add => {
                let (a, b) = self.eval2(node, lookup)?;
                a.wrapping_add(b)
            }
            Op::Sub => {
                let (a, b) = self.eval2(node, lookup)?;
                a.wrapping_sub(b)
            }
            Op::Mul => {
                let (a, b) = self.eval2(node, lookup)?;
                a.wrapping_mul(b)
            }
            Op::Neg => self.eval_with(node.args[0], lookup)?.wrapping_neg(),
            Op::BitAnd => {
                let (a, b) = self.eval2(node, lookup)?;
                a & b
            }
            Op::BitOr => {
                let (a, b) = self.eval2(node, lookup)?;
                a | b
            }
            Op::BitXor => {
                let (a, b) = self.eval2(node, lookup)?;
                a ^ b
            }
            Op::BitNot => !self.eval_with(node.args[0], lookup)?,
            Op::Shl => {
                let (a, b) = self.eval2(node, lookup)?;
                if b >= 64 {
                    0
                } else {
                    a << b
                }
            }
            Op::Lshr => {
                let (a, b) = self.eval2(node, lookup)?;
                if b >= 64 {
                    0
                } else {
                    a >> b
                }
            }
            Op::ZExt => self.eval_with(node.args[0], lookup)?,
            Op::SExt => {
                let inner = node.args[0];
                let wi = self.width(inner);
                let v = self.eval_with(inner, lookup)?;
                w.from_signed(wi.to_signed(v))
            }
            Op::Extract { lo } => self.eval_with(node.args[0], lookup)? >> lo,
            Op::Concat => {
                let hi = self.eval_with(node.args[0], lookup)?;
                let lo = self.eval_with(node.args[1], lookup)?;
                let wl = self.width(node.args[1]);
                (hi << wl.bits()) | lo
            }
            Op::Eq => {
                let (a, b) = self.eval2(node, lookup)?;
                u64::from(a == b)
            }
            Op::Ult => {
                let (a, b) = self.eval2(node, lookup)?;
                u64::from(a < b)
            }
            Op::Ule => {
                let (a, b) = self.eval2(node, lookup)?;
                u64::from(a <= b)
            }
            Op::Not => u64::from(self.eval_with(node.args[0], lookup)? == 0),
            Op::And => {
                let (a, b) = self.eval2(node, lookup)?;
                u64::from(a != 0 && b != 0)
            }
            Op::Or => {
                let (a, b) = self.eval2(node, lookup)?;
                u64::from(a != 0 || b != 0)
            }
            Op::Ite => {
                let c = self.eval_with(node.args[0], lookup)?;
                if c != 0 {
                    self.eval_with(node.args[1], lookup)?
                } else {
                    self.eval_with(node.args[2], lookup)?
                }
            }
            Op::Fun(f) => {
                let mut vals = Vec::with_capacity(node.args.len());
                for &a in &node.args {
                    vals.push(self.eval_with(a, lookup)?);
                }
                self.eval_fun(f, &vals)
            }
        };
        Some(w.truncate(v))
    }

    fn eval2(&self, node: &TermData, lookup: &dyn Fn(VarId) -> Option<u64>) -> Option<(u64, u64)> {
        let a = self.eval_with(node.args[0], lookup)?;
        let b = self.eval_with(node.args[1], lookup)?;
        Some((a, b))
    }

    /// Rewrites `t`, replacing every variable present in `map` with the
    /// mapped term (which must have the same width).
    ///
    /// Used by Achilles' `negate` operator to rename a client path
    /// predicate's variables to fresh existential copies.
    ///
    /// # Panics
    ///
    /// Panics if a mapped term's width differs from the variable's width.
    pub fn substitute(
        &mut self,
        t: TermId,
        map: &std::collections::HashMap<VarId, TermId>,
    ) -> TermId {
        let mut memo: std::collections::HashMap<TermId, TermId> = std::collections::HashMap::new();
        self.substitute_memo(t, map, &mut memo)
    }

    fn substitute_memo(
        &mut self,
        t: TermId,
        map: &std::collections::HashMap<VarId, TermId>,
        memo: &mut std::collections::HashMap<TermId, TermId>,
    ) -> TermId {
        if let Some(&r) = memo.get(&t) {
            return r;
        }
        let node = self.node(t).clone();
        let result = match node.op {
            Op::Const(_) => t,
            Op::Var(v) => match map.get(&v) {
                Some(&replacement) => {
                    assert_eq!(
                        self.width(replacement),
                        node.width,
                        "substitute: width mismatch for {:?}",
                        self.var_info(v).name
                    );
                    replacement
                }
                None => t,
            },
            _ => {
                let args: Vec<TermId> = node
                    .args
                    .iter()
                    .map(|&a| self.substitute_memo(a, map, memo))
                    .collect();
                if args == node.args {
                    t
                } else {
                    self.rebuild(&node.op, &args, node.width)
                }
            }
        };
        memo.insert(t, result);
        result
    }

    /// Rebuilds a node with new arguments, going through the simplifying
    /// constructors.
    fn rebuild(&mut self, op: &Op, args: &[TermId], width: Width) -> TermId {
        match *op {
            Op::Const(_) | Op::Var(_) => unreachable!("leaves handled by caller"),
            Op::Add => self.add(args[0], args[1]),
            Op::Sub => self.sub(args[0], args[1]),
            Op::Mul => self.mul(args[0], args[1]),
            Op::Neg => self.neg(args[0]),
            Op::BitAnd => self.bit_and(args[0], args[1]),
            Op::BitOr => self.bit_or(args[0], args[1]),
            Op::BitXor => self.bit_xor(args[0], args[1]),
            Op::BitNot => self.bit_not(args[0]),
            Op::Shl => self.shl(args[0], args[1]),
            Op::Lshr => self.lshr(args[0], args[1]),
            Op::ZExt => self.zext(args[0], width),
            Op::SExt => self.sext(args[0], width),
            Op::Extract { lo } => self.extract(args[0], lo, width),
            Op::Concat => self.concat(args[0], args[1]),
            Op::Eq => self.eq(args[0], args[1]),
            Op::Ult => self.ult(args[0], args[1]),
            Op::Ule => self.ule(args[0], args[1]),
            Op::Not => self.not(args[0]),
            Op::And => self.and(args[0], args[1]),
            Op::Or => self.or(args[0], args[1]),
            Op::Ite => self.ite(args[0], args[1], args[2]),
            Op::Fun(f) => self.apply(f, args.to_vec()),
        }
    }

    /// Collects the set of variables occurring in `t` into `out`
    /// (deduplicated, in first-occurrence order).
    pub fn collect_vars(&self, t: TermId, out: &mut Vec<VarId>) {
        let mut stack = vec![t];
        let mut seen_terms = std::collections::HashSet::new();
        while let Some(id) = stack.pop() {
            if !seen_terms.insert(id) {
                continue;
            }
            let node = self.node(id);
            if let Op::Var(v) = node.op {
                if !out.contains(&v) {
                    out.push(v);
                }
            }
            stack.extend(node.args.iter().copied());
        }
    }

    /// The set of variables occurring in `t`.
    pub fn vars_of(&self, t: TermId) -> Vec<VarId> {
        let mut out = Vec::new();
        self.collect_vars(t, &mut out);
        out
    }

    // ------------------------------------------------------------------
    // Cross-pool import
    // ------------------------------------------------------------------

    /// Re-interns a term from another pool into this one, returning the
    /// equivalent local id.
    ///
    /// Variables are matched by identity fingerprint; unknown variables are
    /// created locally with the source's name, width, and fingerprint, so
    /// repeated imports are stable. `memo` carries the translation across
    /// calls — pass the same map for all terms of one source pool.
    ///
    /// This is how parallel exploration merges worker results: each worker
    /// explores in a fork of the base pool, and completed path records are
    /// imported back into the base pool afterwards.
    pub fn import_term(
        &mut self,
        src: &TermPool,
        t: TermId,
        memo: &mut HashMap<TermId, TermId>,
    ) -> TermId {
        if let Some(&local) = memo.get(&t) {
            return local;
        }
        let node = src.node(t).clone();
        let local = match node.op {
            Op::Const(v) => self.constant(v, node.width),
            Op::Var(v) => {
                let fp = src.var_fp(v);
                let lv = match self.var_by_fp(fp) {
                    Some(lv) => lv,
                    None => {
                        let info = src.var_info(v);
                        self.push_var(&info.name, info.width, fp)
                    }
                };
                self.var(lv)
            }
            Op::Fun(f) => {
                let lf = self.import_fun(src, f);
                let args: Vec<TermId> = node
                    .args
                    .iter()
                    .map(|&a| self.import_term(src, a, memo))
                    .collect();
                self.apply(lf, args)
            }
            _ => {
                let args: Vec<TermId> = node
                    .args
                    .iter()
                    .map(|&a| self.import_term(src, a, memo))
                    .collect();
                self.rebuild(&node.op, &args, node.width)
            }
        };
        memo.insert(t, local);
        local
    }

    /// Maps a source-pool function id onto this pool.
    ///
    /// Workers fork from the base pool, so functions registered before the
    /// fork keep their index; a function this pool has never seen (registered
    /// by the worker after forking) is copied over.
    fn import_fun(&mut self, src: &TermPool, f: FunId) -> FunId {
        let info = src.fun_info(f);
        let idx = f.0 as usize;
        if let Some(local) = self.funs.get(idx) {
            if local.name == info.name && local.width == info.width {
                return f;
            }
        }
        if let Some(pos) = self
            .funs
            .iter()
            .position(|l| l.name == info.name && l.width == info.width)
        {
            return FunId(pos as u32);
        }
        let id = FunId(self.funs.len() as u32);
        self.funs.push(info.clone());
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_dedups() {
        let mut p = TermPool::new();
        let a = p.constant(3, Width::W8);
        let b = p.constant(3, Width::W8);
        assert_eq!(a, b);
        let c = p.constant(3, Width::W16);
        assert_ne!(a, c);
    }

    #[test]
    fn constant_folding() {
        let mut p = TermPool::new();
        let a = p.constant(200, Width::W8);
        let b = p.constant(100, Width::W8);
        let s = p.add(a, b);
        assert_eq!(p.as_const(s), Some(44)); // wraps at 8 bits
        let lt = p.ult(b, a);
        assert_eq!(lt, p.tt());
    }

    #[test]
    fn identity_simplifications() {
        let mut p = TermPool::new();
        let x = p.fresh("x", Width::W16);
        let zero = p.constant(0, Width::W16);
        let one = p.constant(1, Width::W16);
        assert_eq!(p.add(x, zero), x);
        assert_eq!(p.mul(x, one), x);
        assert_eq!(p.mul(x, zero), zero);
        assert_eq!(p.sub(x, x), zero);
        let nn = {
            let n1 = p.eq(x, one);
            let n2 = p.not(n1);
            p.not(n2)
        };
        let direct = p.eq(x, one);
        assert_eq!(nn, direct);
    }

    #[test]
    fn signed_comparison_lowering() {
        let mut p = TermPool::new();
        // -1 <s 0 at width 8.
        let m1 = p.constant_signed(-1, Width::W8);
        let z = p.constant(0, Width::W8);
        assert_eq!(p.slt(m1, z), p.tt());
        assert_eq!(p.slt(z, m1), p.ff());
        assert_eq!(p.sle(m1, m1), p.tt());
    }

    #[test]
    fn eval_arith_and_bool() {
        let mut p = TermPool::new();
        let xv = p.fresh_var("x", Width::W8);
        let x = p.var(xv);
        let c = p.constant(10, Width::W8);
        let sum = p.add(x, c);
        let hundred = p.constant(100, Width::W8);
        let cond = p.ult(sum, hundred);
        let lookup = |v: VarId| if v == xv { Some(5u64) } else { None };
        assert_eq!(p.eval_with(sum, &lookup), Some(15));
        assert_eq!(p.eval_with(cond, &lookup), Some(1));
        let unassigned = |_: VarId| None;
        assert_eq!(p.eval_with(sum, &unassigned), None);
    }

    #[test]
    fn eval_extract_concat() {
        let mut p = TermPool::new();
        let xv = p.fresh_var("x", Width::W16);
        let x = p.var(xv);
        let hi = p.extract(x, 8, Width::W8);
        let lo = p.extract(x, 0, Width::W8);
        let back = p.concat(hi, lo);
        let lookup = |v: VarId| if v == xv { Some(0xAB_CDu64) } else { None };
        assert_eq!(p.eval_with(hi, &lookup), Some(0xAB));
        assert_eq!(p.eval_with(lo, &lookup), Some(0xCD));
        assert_eq!(p.eval_with(back, &lookup), Some(0xABCD));
    }

    #[test]
    fn opaque_fun_folds_when_concrete() {
        let mut p = TermPool::new();
        let f = p.register_fun("sum8", Width::W8, |args| args.iter().sum());
        let a = p.constant(3, Width::W8);
        let b = p.constant(4, Width::W8);
        let app = p.apply(f, vec![a, b]);
        assert_eq!(p.as_const(app), Some(7));
        // Symbolic argument keeps it opaque.
        let x = p.fresh("x", Width::W8);
        let app2 = p.apply(f, vec![a, x]);
        assert_eq!(p.as_const(app2), None);
        let xv = p.as_var(x).unwrap();
        let lookup = |v: VarId| if v == xv { Some(10u64) } else { None };
        assert_eq!(p.eval_with(app2, &lookup), Some(13));
    }

    #[test]
    fn vars_of_collects_unique() {
        let mut p = TermPool::new();
        let x = p.fresh("x", Width::W8);
        let y = p.fresh("y", Width::W8);
        let s = p.add(x, y);
        let s2 = p.add(s, x);
        let vars = p.vars_of(s2);
        assert_eq!(vars.len(), 2);
    }

    #[test]
    fn substitute_renames_through_ops() {
        let mut p = TermPool::new();
        let xv = p.fresh_var("x", Width::W8);
        let x = p.var(xv);
        let c = p.constant(10, Width::W8);
        let sum = p.add(x, c);
        let cmp = p.ult(sum, c);
        let yv = p.fresh_var("y", Width::W8);
        let y = p.var(yv);
        let map: std::collections::HashMap<VarId, TermId> = [(xv, y)].into_iter().collect();
        let renamed = p.substitute(cmp, &map);
        let vars = p.vars_of(renamed);
        assert_eq!(vars, vec![yv]);
        // Untouched terms are returned as-is (same id).
        let unrelated = p.constant(5, Width::W8);
        assert_eq!(p.substitute(unrelated, &map), unrelated);
    }

    #[test]
    fn substitute_folds_constants() {
        let mut p = TermPool::new();
        let xv = p.fresh_var("x", Width::W8);
        let x = p.var(xv);
        let c = p.constant(1, Width::W8);
        let sum = p.add(x, c);
        let two = p.constant(2, Width::W8);
        let map: std::collections::HashMap<VarId, TermId> = [(xv, two)].into_iter().collect();
        let r = p.substitute(sum, &map);
        assert_eq!(p.as_const(r), Some(3));
    }

    #[test]
    fn sext_eval() {
        let mut p = TermPool::new();
        let xv = p.fresh_var("x", Width::W8);
        let x = p.var(xv);
        let wide = p.sext(x, Width::W16);
        let lookup = |v: VarId| if v == xv { Some(0xFFu64) } else { None };
        assert_eq!(p.eval_with(wide, &lookup), Some(0xFFFF));
    }
}
