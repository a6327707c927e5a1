// Package bv implements fixed-width bitvector terms and boolean formulas.
//
// Terms are the symbolic values that DIODE's instrumented executions record:
// every arithmetic operation the guest program performs on input-derived data
// becomes a Term, and every conditional branch on input-derived data becomes
// a Bool. Terms are immutable and hash-consed: structurally identical terms
// are represented by the same pointer, which makes memoized evaluation and
// bit-blasting cheap and makes equality a pointer comparison.
//
// Constructors apply the runtime simplifications described in §4.2 of the
// paper (constant folding, constant-chain coalescing such as
// Add(Add(x,1),1) → Add(x,2), and algebraic identities). Widths range from
// 1 to 64 bits and all arithmetic wraps modulo 2^w, faithfully modelling
// machine integers.
package bv

import "sync"

// MaxWidth is the largest supported bitvector width.
const MaxWidth = 64

// Kind identifies the operator at the root of a Term.
type Kind uint8

// Term kinds.
const (
	KConst   Kind = iota // literal constant
	KVar                 // free variable (an input byte or input field)
	KNot                 // bitwise complement
	KNeg                 // two's complement negation
	KAdd                 // wrapping addition
	KSub                 // wrapping subtraction
	KMul                 // wrapping multiplication
	KUDiv                // unsigned division (x/0 = all-ones, SMT-LIB semantics)
	KURem                // unsigned remainder (x%0 = x)
	KAnd                 // bitwise and
	KOr                  // bitwise or
	KXor                 // bitwise xor
	KShl                 // logical shift left; shifts ≥ width yield 0
	KLShr                // logical shift right; shifts ≥ width yield 0
	KAShr                // arithmetic shift right; shifts ≥ width yield sign fill
	KZExt                // zero extension to a wider width
	KSExt                // sign extension to a wider width
	KExtract             // bit-slice [Lo..Hi] (inclusive)
	KConcat              // concatenation: X is the high part, Y the low part
	KITE                 // if-then-else on a Bool condition
)

// Term is an immutable, hash-consed bitvector expression of width W.
// Do not construct Terms directly; use the constructor functions, which
// intern and simplify.
type Term struct {
	Kind Kind
	W    uint8  // result width in bits, 1..64
	Val  uint64 // KConst: the constant value (already masked to W bits)
	Name string // KVar: variable name (e.g. "/header/width" or "byte[7]")
	X, Y *Term  // operands (Y nil for unary ops, both nil for leaves)
	Hi   uint8  // KExtract: high bit index (inclusive)
	Lo   uint8  // KExtract: low bit index (inclusive)
	Cond *Bool  // KITE: condition

	id uint64 // canonical intern id, assigned once under the intern lock
}

// BoolKind identifies the operator at the root of a Bool.
type BoolKind uint8

// Bool kinds.
const (
	BConst BoolKind = iota // literal true/false
	BEq                    // bitvector equality
	BUlt                   // unsigned less-than
	BUle                   // unsigned less-or-equal
	BSlt                   // signed less-than
	BSle                   // signed less-or-equal
	BNot                   // negation
	BAnd                   // conjunction
	BOr                    // disjunction
)

// Bool is an immutable, hash-consed boolean formula over bitvector terms.
type Bool struct {
	Kind BoolKind
	BVal bool  // BConst
	X, Y *Term // comparison operands
	A, B *Bool // boolean operands

	id uint64 // canonical intern id, assigned once under the intern lock
}

// interning tables. Children are interned before parents, so identity of
// child pointers makes the key comparable and cheap.
type termKey struct {
	kind   Kind
	w      uint8
	hi, lo uint8
	val    uint64
	name   string
	x, y   *Term
	cond   *Bool
}

type boolKey struct {
	kind BoolKind
	bval bool
	x, y *Term
	a, b *Bool
}

var (
	internMu  sync.Mutex
	termTab          = make(map[termKey]*Term)
	boolTab          = make(map[boolKey]*Bool)
	nextTerm  uint64 = 1 // 0 is reserved so a zero id never aliases a term
	nextBool  uint64 = 3 // 1 and 2 belong to the boolean constants
	trueBool         = &Bool{Kind: BConst, BVal: true, id: 1}
	falseBool        = &Bool{Kind: BConst, BVal: false, id: 2}
)

func intern(t Term) *Term {
	k := termKey{t.Kind, t.W, t.Hi, t.Lo, t.Val, t.Name, t.X, t.Y, t.Cond}
	internMu.Lock()
	defer internMu.Unlock()
	if got, ok := termTab[k]; ok {
		return got
	}
	p := new(Term)
	*p = t
	p.id = nextTerm
	nextTerm++
	termTab[k] = p
	return p
}

func internBool(b Bool) *Bool {
	if b.Kind == BConst {
		if b.BVal {
			return trueBool
		}
		return falseBool
	}
	k := boolKey{b.Kind, b.BVal, b.X, b.Y, b.A, b.B}
	internMu.Lock()
	defer internMu.Unlock()
	if got, ok := boolTab[k]; ok {
		return got
	}
	p := new(Bool)
	*p = b
	p.id = nextBool
	nextBool++
	boolTab[k] = p
	return p
}

// Mask returns the w-bit mask (w in 1..64).
func Mask(w uint8) uint64 {
	return ^uint64(0) >> (64 - uint(w))
}

func checkWidth(w uint8) {
	if w < 1 || w > MaxWidth {
		panic("bv: width out of range")
	}
}

func checkSame(x, y *Term) {
	if x.W != y.W {
		panic("bv: operand width mismatch")
	}
}

// Const returns the w-bit constant v (masked to w bits).
func Const(w uint8, v uint64) *Term {
	checkWidth(w)
	return intern(Term{Kind: KConst, W: w, Val: v & Mask(w)})
}

// Var returns the w-bit free variable named name.
func Var(w uint8, name string) *Term {
	checkWidth(w)
	return intern(Term{Kind: KVar, W: w, Name: name})
}

// IsConst reports whether t is a constant, and its value if so.
func IsConst(t *Term) (uint64, bool) {
	if t.Kind == KConst {
		return t.Val, true
	}
	return 0, false
}

// Not returns the bitwise complement of x.
func Not(x *Term) *Term {
	if v, ok := IsConst(x); ok {
		return Const(x.W, ^v)
	}
	if x.Kind == KNot {
		return x.X // ~~x = x
	}
	return intern(Term{Kind: KNot, W: x.W, X: x})
}

// Neg returns the two's complement negation of x.
func Neg(x *Term) *Term {
	if v, ok := IsConst(x); ok {
		return Const(x.W, -v)
	}
	return intern(Term{Kind: KNeg, W: x.W, X: x})
}

// Add returns x + y (wrapping).
func Add(x, y *Term) *Term {
	checkSame(x, y)
	xv, xc := IsConst(x)
	yv, yc := IsConst(y)
	if xc && yc {
		return Const(x.W, xv+yv)
	}
	if xc { // canonicalize: constant on the right
		x, y = y, x
		xv, yv = yv, xv
		xc, yc = yc, xc
	}
	if yc && yv == 0 {
		return x
	}
	// Coalesce constant chains: Add(Add(t, c1), c2) → Add(t, c1+c2). This is
	// the paper's §4.2 runtime simplification example.
	if yc && x.Kind == KAdd {
		if cv, ok := IsConst(x.Y); ok {
			return Add(x.X, Const(x.W, cv+yv))
		}
	}
	return intern(Term{Kind: KAdd, W: x.W, X: x, Y: y})
}

// Sub returns x - y (wrapping).
func Sub(x, y *Term) *Term {
	checkSame(x, y)
	xv, xc := IsConst(x)
	yv, yc := IsConst(y)
	if xc && yc {
		return Const(x.W, xv-yv)
	}
	if yc && yv == 0 {
		return x
	}
	if x == y {
		return Const(x.W, 0)
	}
	return intern(Term{Kind: KSub, W: x.W, X: x, Y: y})
}

// Mul returns x * y (wrapping).
func Mul(x, y *Term) *Term {
	checkSame(x, y)
	xv, xc := IsConst(x)
	yv, yc := IsConst(y)
	if xc && yc {
		return Const(x.W, xv*yv)
	}
	if xc {
		x, y = y, x
		yv, yc = xv, xc
	}
	if yc {
		switch yv {
		case 0:
			return Const(x.W, 0)
		case 1:
			return x
		}
	}
	// NOTE: Mul(Mul(x,c1),c2) is deliberately NOT coalesced: collapsing
	// multiplication chains would erase intermediate nodes whose individual
	// wraparound the target constraint must capture (§4.3).
	return intern(Term{Kind: KMul, W: x.W, X: x, Y: y})
}

// UDiv returns x / y unsigned, with x/0 = all-ones (SMT-LIB semantics).
func UDiv(x, y *Term) *Term {
	checkSame(x, y)
	xv, xc := IsConst(x)
	yv, yc := IsConst(y)
	if xc && yc {
		if yv == 0 {
			return Const(x.W, Mask(x.W))
		}
		return Const(x.W, xv/yv)
	}
	if yc && yv == 1 {
		return x
	}
	return intern(Term{Kind: KUDiv, W: x.W, X: x, Y: y})
}

// URem returns x % y unsigned, with x%0 = x (SMT-LIB semantics).
func URem(x, y *Term) *Term {
	checkSame(x, y)
	xv, xc := IsConst(x)
	yv, yc := IsConst(y)
	if xc && yc {
		if yv == 0 {
			return Const(x.W, xv)
		}
		return Const(x.W, xv%yv)
	}
	if yc && yv == 1 {
		return Const(x.W, 0)
	}
	return intern(Term{Kind: KURem, W: x.W, X: x, Y: y})
}

// And returns the bitwise and of x and y.
func And(x, y *Term) *Term {
	checkSame(x, y)
	xv, xc := IsConst(x)
	yv, yc := IsConst(y)
	if xc && yc {
		return Const(x.W, xv&yv)
	}
	if xc {
		x, y = y, x
		yv, yc = xv, xc
	}
	if yc {
		switch yv {
		case 0:
			return Const(x.W, 0)
		case Mask(x.W):
			return x
		}
	}
	if x == y {
		return x
	}
	return intern(Term{Kind: KAnd, W: x.W, X: x, Y: y})
}

// Or returns the bitwise or of x and y.
func Or(x, y *Term) *Term {
	checkSame(x, y)
	xv, xc := IsConst(x)
	yv, yc := IsConst(y)
	if xc && yc {
		return Const(x.W, xv|yv)
	}
	if xc {
		x, y = y, x
		yv, yc = xv, xc
	}
	if yc {
		switch yv {
		case 0:
			return x
		case Mask(x.W):
			return Const(x.W, Mask(x.W))
		}
	}
	if x == y {
		return x
	}
	return intern(Term{Kind: KOr, W: x.W, X: x, Y: y})
}

// Xor returns the bitwise xor of x and y.
func Xor(x, y *Term) *Term {
	checkSame(x, y)
	xv, xc := IsConst(x)
	yv, yc := IsConst(y)
	if xc && yc {
		return Const(x.W, xv^yv)
	}
	if xc {
		x, y = y, x
		yv, yc = xv, xc
	}
	if yc && yv == 0 {
		return x
	}
	if x == y {
		return Const(x.W, 0)
	}
	return intern(Term{Kind: KXor, W: x.W, X: x, Y: y})
}

// shiftConst folds a shift by a constant amount.
func shiftConst(kind Kind, x *Term, s uint64) *Term {
	w := uint64(x.W)
	if v, ok := IsConst(x); ok {
		switch kind {
		case KShl:
			if s >= w {
				return Const(x.W, 0)
			}
			return Const(x.W, v<<s)
		case KLShr:
			if s >= w {
				return Const(x.W, 0)
			}
			return Const(x.W, v>>s)
		case KAShr:
			sv := signExtend(v, x.W)
			if s >= w {
				s = w - 1
			}
			return Const(x.W, uint64(int64(sv)>>s))
		}
	}
	if s == 0 {
		return x
	}
	if s >= w && kind != KAShr {
		return Const(x.W, 0)
	}
	return nil
}

// Shl returns x << y (logical; shifts ≥ width yield 0).
func Shl(x, y *Term) *Term {
	checkSame(x, y)
	if sv, ok := IsConst(y); ok {
		if t := shiftConst(KShl, x, sv); t != nil {
			return t
		}
	}
	return intern(Term{Kind: KShl, W: x.W, X: x, Y: y})
}

// LShr returns x >> y (logical; shifts ≥ width yield 0).
func LShr(x, y *Term) *Term {
	checkSame(x, y)
	if sv, ok := IsConst(y); ok {
		if t := shiftConst(KLShr, x, sv); t != nil {
			return t
		}
	}
	return intern(Term{Kind: KLShr, W: x.W, X: x, Y: y})
}

// AShr returns x >> y (arithmetic; shifts ≥ width yield sign fill).
func AShr(x, y *Term) *Term {
	checkSame(x, y)
	if sv, ok := IsConst(y); ok {
		if t := shiftConst(KAShr, x, sv); t != nil {
			return t
		}
	}
	return intern(Term{Kind: KAShr, W: x.W, X: x, Y: y})
}

// ZExt zero-extends x to width w (w ≥ x.W). Extending to the same width is
// the identity.
func ZExt(w uint8, x *Term) *Term {
	checkWidth(w)
	if w < x.W {
		panic("bv: ZExt to narrower width")
	}
	if w == x.W {
		return x
	}
	if v, ok := IsConst(x); ok {
		return Const(w, v)
	}
	if x.Kind == KZExt {
		return ZExt(w, x.X) // collapse nested extensions
	}
	return intern(Term{Kind: KZExt, W: w, X: x})
}

// SExt sign-extends x to width w (w ≥ x.W).
func SExt(w uint8, x *Term) *Term {
	checkWidth(w)
	if w < x.W {
		panic("bv: SExt to narrower width")
	}
	if w == x.W {
		return x
	}
	if v, ok := IsConst(x); ok {
		return Const(w, signExtend(v, x.W))
	}
	return intern(Term{Kind: KSExt, W: w, X: x})
}

// Extract returns bits hi..lo of x (inclusive), a term of width hi-lo+1.
func Extract(hi, lo uint8, x *Term) *Term {
	if hi < lo || hi >= x.W {
		panic("bv: Extract range out of bounds")
	}
	w := hi - lo + 1
	if w == x.W {
		return x
	}
	if v, ok := IsConst(x); ok {
		return Const(w, v>>lo)
	}
	if x.Kind == KExtract {
		return Extract(x.Lo+hi, x.Lo+lo, x.X) // collapse nested extracts
	}
	if x.Kind == KZExt && hi < x.X.W {
		return Extract(hi, lo, x.X) // extract stays inside the original bits
	}
	return intern(Term{Kind: KExtract, W: w, X: x, Hi: hi, Lo: lo})
}

// Trunc truncates x to its low w bits. Truncation is the paper's "Shrink".
func Trunc(w uint8, x *Term) *Term {
	if w > x.W {
		panic("bv: Trunc to wider width")
	}
	if w == x.W {
		return x
	}
	return Extract(w-1, 0, x)
}

// Concat concatenates hi (high bits) and lo (low bits).
func Concat(hi, lo *Term) *Term {
	if int(hi.W)+int(lo.W) > MaxWidth {
		panic("bv: Concat result too wide")
	}
	w := hi.W + lo.W
	hv, hc := IsConst(hi)
	lv, lc := IsConst(lo)
	if hc && lc {
		return Const(w, hv<<lo.W|lv)
	}
	if hc && hv == 0 {
		return ZExt(w, lo)
	}
	return intern(Term{Kind: KConcat, W: w, X: hi, Y: lo})
}

// ITE returns the term equal to t when cond holds and to f otherwise.
func ITE(cond *Bool, t, f *Term) *Term {
	checkSame(t, f)
	if cond.Kind == BConst {
		if cond.BVal {
			return t
		}
		return f
	}
	if t == f {
		return t
	}
	return intern(Term{Kind: KITE, W: t.W, X: t, Y: f, Cond: cond})
}

func signExtend(v uint64, w uint8) uint64 {
	if w == 64 {
		return v
	}
	sign := uint64(1) << (w - 1)
	v &= Mask(w)
	if v&sign != 0 {
		return v | ^Mask(w)
	}
	return v
}

// True and False return the boolean constants.
func True() *Bool  { return trueBool }
func False() *Bool { return falseBool }

// BoolConst returns the boolean constant b.
func BoolConst(b bool) *Bool {
	if b {
		return trueBool
	}
	return falseBool
}

// Eq returns the formula x = y.
func Eq(x, y *Term) *Bool {
	checkSame(x, y)
	if x == y {
		return trueBool
	}
	xv, xc := IsConst(x)
	yv, yc := IsConst(y)
	if xc && yc {
		return BoolConst(xv == yv)
	}
	if xc { // canonicalize constant on the right
		x, y = y, x
	}
	return internBool(Bool{Kind: BEq, X: x, Y: y})
}

// Ne returns the formula x ≠ y.
func Ne(x, y *Term) *Bool { return NotB(Eq(x, y)) }

// Ult returns the unsigned comparison x < y.
func Ult(x, y *Term) *Bool {
	checkSame(x, y)
	if x == y {
		return falseBool
	}
	xv, xc := IsConst(x)
	yv, yc := IsConst(y)
	if xc && yc {
		return BoolConst(xv < yv)
	}
	if yc && yv == 0 {
		return falseBool // nothing is below zero, unsigned
	}
	if xc && xv == Mask(x.W) {
		return falseBool // nothing is above all-ones
	}
	return internBool(Bool{Kind: BUlt, X: x, Y: y})
}

// Ule returns the unsigned comparison x ≤ y.
func Ule(x, y *Term) *Bool {
	checkSame(x, y)
	if x == y {
		return trueBool
	}
	xv, xc := IsConst(x)
	yv, yc := IsConst(y)
	if xc && yc {
		return BoolConst(xv <= yv)
	}
	if xc && xv == 0 {
		return trueBool
	}
	if yc && yv == Mask(x.W) {
		return trueBool
	}
	return internBool(Bool{Kind: BUle, X: x, Y: y})
}

// Ugt returns x > y unsigned.
func Ugt(x, y *Term) *Bool { return Ult(y, x) }

// Uge returns x ≥ y unsigned.
func Uge(x, y *Term) *Bool { return Ule(y, x) }

// Slt returns the signed comparison x < y.
func Slt(x, y *Term) *Bool {
	checkSame(x, y)
	if x == y {
		return falseBool
	}
	xv, xc := IsConst(x)
	yv, yc := IsConst(y)
	if xc && yc {
		return BoolConst(int64(signExtend(xv, x.W)) < int64(signExtend(yv, y.W)))
	}
	return internBool(Bool{Kind: BSlt, X: x, Y: y})
}

// Sle returns the signed comparison x ≤ y.
func Sle(x, y *Term) *Bool {
	checkSame(x, y)
	if x == y {
		return trueBool
	}
	xv, xc := IsConst(x)
	yv, yc := IsConst(y)
	if xc && yc {
		return BoolConst(int64(signExtend(xv, x.W)) <= int64(signExtend(yv, y.W)))
	}
	return internBool(Bool{Kind: BSle, X: x, Y: y})
}

// Sgt returns x > y signed.
func Sgt(x, y *Term) *Bool { return Slt(y, x) }

// Sge returns x ≥ y signed.
func Sge(x, y *Term) *Bool { return Sle(y, x) }

// NotB returns the negation of a.
func NotB(a *Bool) *Bool {
	if a.Kind == BConst {
		return BoolConst(!a.BVal)
	}
	if a.Kind == BNot {
		return a.A
	}
	return internBool(Bool{Kind: BNot, A: a})
}

// AndB returns the conjunction of a and b.
func AndB(a, b *Bool) *Bool {
	if a.Kind == BConst {
		if a.BVal {
			return b
		}
		return falseBool
	}
	if b.Kind == BConst {
		if b.BVal {
			return a
		}
		return falseBool
	}
	if a == b {
		return a
	}
	return internBool(Bool{Kind: BAnd, A: a, B: b})
}

// OrB returns the disjunction of a and b.
func OrB(a, b *Bool) *Bool {
	if a.Kind == BConst {
		if a.BVal {
			return trueBool
		}
		return b
	}
	if b.Kind == BConst {
		if b.BVal {
			return trueBool
		}
		return a
	}
	if a == b {
		return a
	}
	return internBool(Bool{Kind: BOr, A: a, B: b})
}

// OrAll folds a slice of formulas with OrB. An empty slice yields false.
func OrAll(bs []*Bool) *Bool {
	out := falseBool
	for _, b := range bs {
		out = OrB(out, b)
	}
	return out
}
