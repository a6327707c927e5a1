package bv

// OverflowCond implements the paper's overflow(B) function (§3.3, §4.3): it
// returns a formula that is true iff the evaluation of t wraps at some
// arithmetic step — at the root or in any subexpression. The formula is the
// disjunction of a per-node wraparound flag for every Add, Sub, Mul and Shl
// node in t.
//
// Per §4.3 this deliberately covers subexpression overflow: for
// ((width16×height16)×4)/bbp8 no input overflows the whole expression, but
// inputs exist that overflow the subexpression (width16×height16)×4, and the
// returned constraint captures them.
func OverflowCond(t *Term) *Bool {
	c := &overflowCollector{seen: make(map[*Term]bool)}
	c.visit(t)
	return OrAll(c.flags)
}

type overflowCollector struct {
	seen  map[*Term]bool
	flags []*Bool
}

func (c *overflowCollector) visit(t *Term) {
	if t == nil || c.seen[t] {
		return
	}
	c.seen[t] = true
	if t.X != nil {
		c.visit(t.X)
	}
	if t.Y != nil {
		c.visit(t.Y)
	}
	if t.Cond != nil {
		c.visitBool(t.Cond)
	}
	if f := nodeOverflow(t); f != nil && f != False() {
		c.flags = append(c.flags, f)
	}
}

func (c *overflowCollector) visitBool(b *Bool) {
	switch b.Kind {
	case BEq, BUlt, BUle, BSlt, BSle:
		c.visit(b.X)
		c.visit(b.Y)
	case BNot:
		c.visitBool(b.A)
	case BAnd, BOr:
		c.visitBool(b.A)
		c.visitBool(b.B)
	}
}

// nodeOverflow returns the wraparound flag for a single node, or nil when the
// node kind cannot wrap.
func nodeOverflow(t *Term) *Bool {
	switch t.Kind {
	case KAdd:
		// Unsigned add wraps iff the result is below either operand.
		return Ult(t, t.X)
	case KSub:
		// Unsigned sub wraps (borrows) iff the subtrahend exceeds the minuend.
		return Ult(t.X, t.Y)
	case KMul:
		return mulOverflow(t.X, t.Y)
	case KShl:
		return shlOverflow(t.X, t.Y)
	}
	return nil
}

func mulOverflow(x, y *Term) *Bool {
	w := x.W
	if int(w)*2 <= MaxWidth {
		// Compute the product at double width; overflow iff the high half is
		// non-zero.
		wide := Mul(ZExt(w*2, x), ZExt(w*2, y))
		hi := Extract(w*2-1, w, wide)
		return Ne(hi, Const(w, 0))
	}
	// Wide multiply does not fit in 64 bits: x*y wraps iff y≠0 and
	// x > (2^w - 1) / y.
	maxv := Const(w, Mask(w))
	return AndB(Ne(y, Const(w, 0)), Ugt(x, UDiv(maxv, y)))
}

func shlOverflow(x, y *Term) *Bool {
	w := x.W
	zero := Const(w, 0)
	wc := Const(w, uint64(w))
	// If y < w: bits shifted out are x >> (w - y); overflow iff non-zero.
	// If y ≥ w: the whole value is shifted out; overflow iff x ≠ 0.
	inRange := Ult(y, wc)
	lost := LShr(x, Sub(wc, y))
	return OrB(
		AndB(inRange, Ne(lost, zero)),
		AndB(NotB(inRange), Ne(x, zero)),
	)
}
