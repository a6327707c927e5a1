package absint

import (
	"errors"
	"fmt"
	"slices"
	"strconv"

	"diode/internal/lang"
)

// Analysis is the result of running the abstract interpreter over one
// program: per-point abstract values for the guarded pass (branch-condition
// meets applied at If/While guards) and the unguarded pass (plain joins of
// both branch arms), keyed by function name and node path. The unguarded
// pass proves the stronger property — a value that cannot wrap regardless
// of which guards held — which is what makes a fold to "unsatisfiable"
// sound for any seed path.
type Analysis struct {
	guarded, unguarded points
}

// points holds one pass's recorded values by function name.
type points map[string]*fnPoints

// fnPoints holds one function's recorded values: at maps a node path to
// its index in vals.
type fnPoints struct {
	at   map[string]int
	vals []Value
}

func (p points) value(fn, path string) (Value, bool) {
	fp := p[fn]
	if fp == nil {
		return Value{}, false
	}
	i, ok := fp.at[path]
	if !ok {
		return Value{}, false
	}
	v := fp.vals[i]
	return v, !v.Bot
}

// Analyze runs both fixpoints over the program (finalizing it first if
// needed) and returns the recorded per-point values. The analysis is
// deterministic: functions iterate in sorted-name order and every join is
// order-independent.
func Analyze(p *lang.Program) (*Analysis, error) {
	if err := p.Finalize(); err != nil {
		return nil, err
	}
	g, err := run(p, true)
	if err != nil {
		return nil, err
	}
	u, err := run(p, false)
	if err != nil {
		return nil, err
	}
	return &Analysis{guarded: g, unguarded: u}, nil
}

// ValueAt returns the guarded-pass abstract value recorded at a node path
// (the discover vocabulary: statement path extended with expression
// segments, e.g. "s3.size.a"). ok is false when no execution reaches the
// point — vacuously safe, since no concrete value ever exists there.
func (a *Analysis) ValueAt(fn, path string) (Value, bool) {
	return a.guarded.value(fn, path)
}

// ValueAtNoGuards is ValueAt for the unguarded pass, whose joins ignore
// branch conditions entirely.
func (a *Analysis) ValueAtNoGuards(fn, path string) (Value, bool) {
	return a.unguarded.value(fn, path)
}

const (
	// summaryWidenAfter bounds how many plain joins a parameter/return/
	// global summary absorbs before further growth widens to the extremes.
	summaryWidenAfter = 3
	// loopWidenAfter bounds the plain join iterations at a While head.
	loopWidenAfter = 2
	// maxRounds is a safety net; widening guarantees convergence well
	// below it.
	maxRounds = 1000
)

// maxLoopIters is the While counterpart of maxRounds. It is a variable
// only so a test can force a loop to diverge.
var maxLoopIters = 200

// interpreter holds one fixpoint computation: flow-sensitive local states,
// flow-insensitive summaries for globals, parameters and returns, and the
// recorded per-point values of the final pass.
type interpreter struct {
	p      *lang.Program
	refine bool // apply branch-guard meets (the guarded pass)
	names  []string

	globals []summary // by global slot: the join of all writes
	fns     map[string]*fnSummary
	changed bool

	// free holds state storage for reuse: function entries, If arms and
	// loop bodies take a state from it and give it back, so a warm pass
	// allocates none.
	free []*state

	// During the recording pass, path holds the current node's path
	// (statement segments, then expression segments) and cur the
	// function's recorded values; no other pass builds a path.
	recording bool
	path      []byte
	cur       *fnPoints
	points    points
}

// summary is a flow-insensitive value and the number of times it has
// changed; after summaryWidenAfter changes, growth widens.
type summary struct {
	v       Value
	changes int
}

// fnSummary holds one function's summaries.
type fnSummary struct {
	params  []summary // joined across call sites
	ret     summary   // joined return values
	reached bool
}

func newInterpreter(p *lang.Program, refine bool) *interpreter {
	z := &interpreter{
		p:       p,
		refine:  refine,
		globals: summaries(len(p.Globals())),
		fns:     make(map[string]*fnSummary, len(p.Funcs)),
		points:  make(points, len(p.Funcs)),
	}
	for n, f := range p.Funcs {
		z.names = append(z.names, n)
		z.fns[n] = &fnSummary{params: summaries(len(f.Params)), ret: summary{v: bottom()}}
	}
	z.fns["main"].reached = true
	sortStrings(z.names)
	return z
}

func run(p *lang.Program, refine bool) (points, error) {
	z := newInterpreter(p, refine)
	if err := z.fixpoint(); err != nil {
		return nil, err
	}
	// One more pass at the fixpoint records the per-point values.
	z.recording = true
	if err := z.pass(); err != nil {
		return nil, err
	}
	return z.points, nil
}

// fixpoint repeats passes until one changes no summary.
func (z *interpreter) fixpoint() error {
	for round := 0; ; round++ {
		if round > maxRounds {
			return fmt.Errorf("absint: fixpoint did not converge after %d rounds", maxRounds)
		}
		z.changed = false
		if err := z.pass(); err != nil {
			return err
		}
		if !z.changed {
			return nil
		}
	}
}

func summaries(n int) []summary {
	s := make([]summary, n)
	for i := range s {
		s[i].v = bottom()
	}
	return s
}

func (z *interpreter) pass() error {
	for _, n := range z.names {
		if z.fns[n].reached {
			if err := z.function(n); err != nil {
				return err
			}
		}
	}
	return nil
}

func (z *interpreter) function(name string) error {
	f := z.p.Funcs[name]
	if z.recording {
		z.cur = &fnPoints{at: make(map[string]int)}
		z.points[name] = z.cur
	}
	st := z.alloc()
	st.reset(len(f.Locals()))
	for i, p := range z.fns[name].params {
		st.vals[i], st.set[i] = p.v, true
	}
	err := z.block(f, f.Body, st)
	if err == nil && !st.bot {
		// Falling off the end of a procedure returns the zero 32-bit
		// value (interp's call fallthrough).
		z.join(&z.fns[name].ret, Const(32, 0))
	}
	z.give(st)
	return err
}

// state is the abstract store of one function activation: local variables
// by frame slot and a reachability flag. A slot never assigned on any path
// holds Bot with set false: a concrete read there kills the run.
type state struct {
	vals []Value
	set  []bool
	bot  bool
}

// alloc returns a state from the free list, or a new one; its contents
// are stale until reset or copyFrom.
func (z *interpreter) alloc() *state {
	n := len(z.free)
	if n == 0 {
		return new(state)
	}
	s := z.free[n-1]
	z.free = z.free[:n-1]
	return s
}

// give returns s's storage to the free list; s must not be used after.
func (z *interpreter) give(s *state) { z.free = append(z.free, s) }

// reset makes s the entry state of a function with n slots: reachable,
// every slot unassigned.
func (s *state) reset(n int) {
	s.vals = slices.Grow(s.vals[:0], n)[:n]
	s.set = slices.Grow(s.set[:0], n)[:n]
	for i := range s.vals {
		s.vals[i], s.set[i] = bottom(), false
	}
	s.bot = false
}

func (s *state) copyFrom(src *state) {
	s.vals = append(s.vals[:0], src.vals...)
	s.set = append(s.set[:0], src.set...)
	s.bot = src.bot
}

// joinInto sets b to the join of a and b.
func joinInto(a, b *state) {
	if a.bot {
		return
	}
	if b.bot {
		b.copyFrom(a)
		return
	}
	for i, ok := range b.set {
		if ok {
			b.vals[i] = Join(a.vals[i], b.vals[i])
		} else {
			b.vals[i], b.set[i] = a.vals[i], a.set[i]
		}
	}
}

// widenInto sets next to the widening of old by next: slots both assigned
// widen, next's others stay, and a slot only old assigned drops out.
func widenInto(old, next *state) {
	if old.bot || next.bot {
		joinInto(old, next)
		return
	}
	for i, ok := range next.set {
		if ok && old.set[i] {
			next.vals[i] = Widen(old.vals[i], next.vals[i])
		}
	}
}

func statesEqual(a, b *state) bool {
	if a.bot || b.bot {
		return a.bot == b.bot
	}
	return slices.Equal(a.set, b.set) && slices.Equal(a.vals, b.vals)
}

func (z *interpreter) getVar(f *lang.Func, st *state, name string) Value {
	slot, global := f.Slot(name)
	if global {
		return z.globals[slot].v // Bot if never written anywhere
	}
	return st.vals[slot]
}

func (z *interpreter) setVar(f *lang.Func, st *state, name string, v Value) {
	slot, global := f.Slot(name)
	if global {
		// Globals are flow-insensitive: one program-wide join of every
		// write, so cross-procedure flows need no in/out plumbing.
		z.join(&z.globals[slot], v)
		return
	}
	st.vals[slot], st.set[slot] = v, true
}

// join joins v into s, switching to widening once s has changed
// summaryWidenAfter times, and flags the fixpoint.
func (z *interpreter) join(s *summary, v Value) {
	next := Join(s.v, v)
	if s.changes >= summaryWidenAfter {
		next = Widen(s.v, v)
	}
	if next == s.v {
		return
	}
	s.v = next
	s.changes++
	z.changed = true
}

// loopError reports a While that did not converge. Its path is built
// only on this failure, one segment per enclosing block as the error
// propagates out (see under).
type loopError struct{ fn, path string }

func (e *loopError) Error() string {
	return fmt.Sprintf("absint: loop %s.%s did not converge", e.fn, e.path)
}

// under prefixes a loopError's path with the segment naming the node that
// encloses it; any other error passes through.
func under(err error, seg string) error {
	var e *loopError
	if errors.As(err, &e) {
		if e.path == "" {
			e.path = seg
		} else {
			e.path = seg + "." + e.path
		}
	}
	return err
}

// push appends one segment to the recording path and returns the length
// that restores it.
func (z *interpreter) push(seg string) int {
	n := len(z.path)
	if n > 0 {
		z.path = append(z.path, '.')
	}
	z.path = append(z.path, seg...)
	return n
}

// record joins v into the value recorded at the current path, allocating
// the path's key only the first time the point is recorded.
func (z *interpreter) record(v Value) {
	pts := z.cur
	if i, ok := pts.at[string(z.path)]; ok {
		pts.vals[i] = Join(pts.vals[i], v)
		return
	}
	pts.at[string(z.path)] = len(pts.vals)
	pts.vals = append(pts.vals, v)
}

func (z *interpreter) block(f *lang.Func, b lang.Block, st *state) error {
	for i, s := range b {
		if st.bot {
			return nil
		}
		n := len(z.path)
		if z.recording {
			z.push("s")
			z.path = strconv.AppendInt(z.path, int64(i), 10)
		}
		err := z.stmt(f, s, st)
		z.path = z.path[:n]
		if err != nil {
			return under(err, "s"+strconv.Itoa(i))
		}
	}
	return nil
}

// nested runs a nested block (an If arm or a loop body) at path segment
// seg below the current statement.
func (z *interpreter) nested(f *lang.Func, b lang.Block, st *state, seg string) error {
	n := len(z.path)
	if z.recording {
		z.push(seg)
	}
	err := z.block(f, b, st)
	z.path = z.path[:n]
	if err != nil {
		return under(err, seg)
	}
	return nil
}

func (z *interpreter) stmt(f *lang.Func, s lang.Stmt, st *state) error {
	rec := z.recording
	switch x := s.(type) {
	case lang.Assign:
		z.setVar(f, st, x.Var, z.sub(f, st, x.E, "e", rec))
	case lang.Alloc:
		z.sub(f, st, x.Size, "size", rec)
		// The allocated pointer is an arbitrary unwrapped 64-bit address.
		z.setVar(f, st, x.Var, Value{W: 64, Hi: ^uint64(0)})
	case lang.Store:
		z.sub(f, st, x.Ptr, "ptr", rec)
		z.sub(f, st, x.Off, "off", rec)
		z.sub(f, st, x.Val, "val", rec)
	case lang.If:
		z.subBool(f, st, x.Cond, "cond", rec)
		// The else arm runs on st itself; the then arm on a copy.
		then := z.alloc()
		then.copyFrom(st)
		if z.refine {
			z.refineBool(f, then, x.Cond, true)
			z.refineBool(f, st, x.Cond, false)
		}
		err := z.nested(f, x.Then, then, "then")
		if err == nil {
			err = z.nested(f, x.Else, st, "else")
		}
		joinInto(then, st)
		z.give(then)
		return err
	case lang.While:
		return z.while(f, x, st)
	case lang.ExprStmt:
		z.sub(f, st, x.E, "e", rec)
	case lang.Return:
		if x.E != nil {
			z.join(&z.fns[f.Name].ret, z.sub(f, st, x.E, "ret", rec))
		} else {
			// A bare return yields the caller's zero 32-bit value.
			z.join(&z.fns[f.Name].ret, Const(32, 0))
		}
		st.bot = true
	case lang.AbortStmt:
		// The run terminates: no state flows past an abort.
		st.bot = true
	}
	return nil
}

// while iterates the loop body to a local fixpoint: plain joins at the head
// for the first loopWidenAfter rounds, widening after. st is the head
// state throughout; the exit state is the head invariant, met with the
// negated condition in the guarded pass.
func (z *interpreter) while(f *lang.Func, x lang.While, st *state) error {
	body := z.alloc()
	defer z.give(body)
	for iter := 0; ; iter++ {
		if iter > maxLoopIters {
			return &loopError{fn: f.Name}
		}
		z.subBool(f, st, x.Cond, "cond", z.recording)
		body.copyFrom(st)
		if z.refine {
			z.refineBool(f, body, x.Cond, true)
		}
		if err := z.nested(f, x.Body, body, "body"); err != nil {
			return err
		}
		// body becomes the next head: the join of head and body, widened
		// by the head after loopWidenAfter rounds.
		joinInto(st, body)
		if iter >= loopWidenAfter {
			widenInto(st, body)
		}
		if statesEqual(st, body) {
			break
		}
		// The head moves: st takes body's storage, and the old head's
		// storage holds the next iteration's body.
		*st, *body = *body, *st
	}
	if z.refine {
		z.refineBool(f, st, x.Cond, false)
	}
	return nil
}

// sub evaluates e at path segment seg below the current node, recording
// when rec is set (which implies the recording pass).
func (z *interpreter) sub(f *lang.Func, st *state, e lang.Expr, seg string, rec bool) Value {
	if !rec {
		return z.eval(f, st, e, false)
	}
	n := z.push(seg)
	v := z.eval(f, st, e, true)
	z.path = z.path[:n]
	return v
}

// subBool is sub for a boolean expression.
func (z *interpreter) subBool(f *lang.Func, st *state, b lang.BoolExpr, seg string, rec bool) {
	if !rec {
		z.evalBool(f, st, b, false)
		return
	}
	n := z.push(seg)
	z.evalBool(f, st, b, true)
	z.path = z.path[:n]
}

// eval computes the abstract value of an expression, joining call arguments
// into callee summaries as a side effect, and when rec is set records the
// value at the current path, the point's discover-vocabulary path.
func (z *interpreter) eval(f *lang.Func, st *state, e lang.Expr, rec bool) Value {
	var v Value
	switch x := e.(type) {
	case lang.Lit:
		v = Const(x.W, x.V)
	case lang.VarRef:
		v = z.getVar(f, st, x.Name)
	case lang.Bin:
		a := z.sub(f, st, x.A, "a", rec)
		b := z.sub(f, st, x.B, "b", rec)
		v = binOp(x.Op, a, b)
	case lang.Un:
		v = unOp(x.Neg, z.sub(f, st, x.A, "a", rec))
	case lang.Cvt:
		v = cvt(x.W, x.Signed, z.sub(f, st, x.A, "a", rec))
	case lang.InByte:
		z.sub(f, st, x.Idx, "idx", rec)
		// In- and out-of-range reads both yield a plain unwrapped byte.
		v = Range(8, 0, 255)
	case lang.InLen:
		v = Range(32, 0, Mask(32))
	case lang.LoadExpr:
		z.sub(f, st, x.Ptr, "ptr", rec)
		z.sub(f, st, x.Off, "off", rec)
		// Stored cells keep their width and wrapped flag verbatim.
		v = anyTop()
	case lang.CallExpr:
		callee := z.fns[x.Fn]
		for i, arg := range x.Args {
			av := z.sub(f, st, arg, strconv.Itoa(i), rec)
			if !st.bot {
				z.join(&callee.params[i], av)
			}
		}
		if !st.bot && !callee.reached {
			callee.reached = true
			z.changed = true
		}
		// Bot while no return is summarized yet (or the callee never
		// returns): the continuation is unreachable until one appears.
		v = callee.ret.v
	}
	if rec && !st.bot {
		z.record(v)
	}
	return v
}

// evalBool walks a boolean expression for its recording and call side
// effects, mirroring discover's emitBool path vocabulary.
func (z *interpreter) evalBool(f *lang.Func, st *state, b lang.BoolExpr, rec bool) {
	switch x := b.(type) {
	case lang.Cmp:
		z.sub(f, st, x.A, "a", rec)
		z.sub(f, st, x.B, "b", rec)
	case lang.NotE:
		z.subBool(f, st, x.A, "a", rec)
	case lang.AndE:
		z.subBool(f, st, x.A, "a", rec)
		z.subBool(f, st, x.B, "b", rec)
	case lang.OrE:
		z.subBool(f, st, x.A, "a", rec)
		z.subBool(f, st, x.B, "b", rec)
	}
}
