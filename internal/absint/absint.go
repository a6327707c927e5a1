package absint

import (
	"fmt"
	"slices"

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
	guarded, unguarded map[point]Value
}

// point is a recorded position: a function and a node path in it.
type point struct{ fn, path string }

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
	v, ok := a.guarded[point{fn, path}]
	return v, ok && !v.Bot
}

// ValueAtNoGuards is ValueAt for the unguarded pass, whose joins ignore
// branch conditions entirely.
func (a *Analysis) ValueAtNoGuards(fn, path string) (Value, bool) {
	v, ok := a.unguarded[point{fn, path}]
	return v, ok && !v.Bot
}

const (
	// summaryWidenAfter bounds how many plain joins a parameter/return/
	// global summary absorbs before further growth widens to the extremes.
	summaryWidenAfter = 3
	// loopWidenAfter bounds the plain join iterations at a While head.
	loopWidenAfter = 2
	// maxLoopIters and maxRounds are safety nets; widening guarantees
	// convergence well below them.
	maxLoopIters = 200
	maxRounds    = 1000
)

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

	recording bool
	points    map[point]Value
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

func run(p *lang.Program, refine bool) (map[point]Value, error) {
	z := &interpreter{
		p:       p,
		refine:  refine,
		globals: summaries(len(p.Globals())),
		fns:     make(map[string]*fnSummary, len(p.Funcs)),
		points:  make(map[point]Value),
	}
	for n, f := range p.Funcs {
		z.names = append(z.names, n)
		z.fns[n] = &fnSummary{params: summaries(len(f.Params)), ret: summary{v: bottom()}}
	}
	z.fns["main"].reached = true
	sortStrings(z.names)
	for round := 0; ; round++ {
		if round > maxRounds {
			return nil, fmt.Errorf("absint: fixpoint did not converge after %d rounds", maxRounds)
		}
		z.changed = false
		if err := z.pass(); err != nil {
			return nil, err
		}
		if !z.changed {
			break
		}
	}
	// One more pass at the fixpoint records the per-point values.
	z.recording = true
	if err := z.pass(); err != nil {
		return nil, err
	}
	return z.points, nil
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
	n := len(f.Locals())
	st := &state{vals: make([]Value, n), set: make([]bool, n)}
	for i := range st.vals {
		st.vals[i] = bottom()
	}
	for i, p := range z.fns[name].params {
		st.vals[i], st.set[i] = p.v, true
	}
	if err := z.block(f, f.Body, st, ""); err != nil {
		return err
	}
	if !st.bot {
		// Falling off the end of a procedure returns the zero 32-bit
		// value (interp's call fallthrough).
		z.join(&z.fns[name].ret, Const(32, 0))
	}
	return nil
}

// state is the abstract store of one function activation: local variables
// by frame slot and a reachability flag. A slot never assigned on any path
// holds Bot with set false: a concrete read there kills the run.
type state struct {
	vals []Value
	set  []bool
	bot  bool
}

func (s *state) clone() *state {
	return &state{vals: slices.Clone(s.vals), set: slices.Clone(s.set), bot: s.bot}
}

func joinStates(a, b *state) *state {
	if a.bot {
		return b.clone()
	}
	if b.bot {
		return a.clone()
	}
	out := a.clone()
	for i, ok := range b.set {
		if ok {
			out.vals[i] = Join(out.vals[i], b.vals[i])
			out.set[i] = true
		}
	}
	return out
}

// widenStates widens the slots both states assigned and keeps next's
// others; a slot only old assigned drops out.
func widenStates(old, next *state) *state {
	if old.bot || next.bot {
		return joinStates(old, next)
	}
	out := next.clone()
	for i, ok := range out.set {
		if ok && old.set[i] {
			out.vals[i] = Widen(old.vals[i], out.vals[i])
		}
	}
	return out
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

func joinPath(prefix, seg string) string {
	if prefix == "" {
		return seg
	}
	return prefix + "." + seg
}

func (z *interpreter) block(f *lang.Func, b lang.Block, st *state, prefix string) error {
	for i, s := range b {
		if st.bot {
			return nil
		}
		if err := z.stmt(f, s, st, joinPath(prefix, fmt.Sprintf("s%d", i))); err != nil {
			return err
		}
	}
	return nil
}

func (z *interpreter) stmt(f *lang.Func, s lang.Stmt, st *state, path string) error {
	switch x := s.(type) {
	case lang.Assign:
		z.setVar(f, st, x.Var, z.eval(f, st, x.E, path, "e", true))
	case lang.Alloc:
		z.eval(f, st, x.Size, path, "size", true)
		// The allocated pointer is an arbitrary unwrapped 64-bit address.
		z.setVar(f, st, x.Var, Value{W: 64, Hi: ^uint64(0)})
	case lang.Store:
		z.eval(f, st, x.Ptr, path, "ptr", true)
		z.eval(f, st, x.Off, path, "off", true)
		z.eval(f, st, x.Val, path, "val", true)
	case lang.If:
		z.evalBool(f, st, x.Cond, path, "cond", true)
		thenSt, elseSt := st.clone(), st.clone()
		if z.refine {
			z.refineBool(f, thenSt, x.Cond, true)
			z.refineBool(f, elseSt, x.Cond, false)
		}
		if err := z.block(f, x.Then, thenSt, path+".then"); err != nil {
			return err
		}
		if err := z.block(f, x.Else, elseSt, path+".else"); err != nil {
			return err
		}
		*st = *joinStates(thenSt, elseSt)
	case lang.While:
		return z.while(f, x, st, path)
	case lang.ExprStmt:
		z.eval(f, st, x.E, path, "e", true)
	case lang.Return:
		if x.E != nil {
			z.join(&z.fns[f.Name].ret, z.eval(f, st, x.E, path, "ret", true))
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
// for the first loopWidenAfter rounds, widening after. The exit state is
// the head invariant, met with the negated condition in the guarded pass.
func (z *interpreter) while(f *lang.Func, x lang.While, st *state, path string) error {
	head := st.clone()
	for iter := 0; ; iter++ {
		if iter > maxLoopIters {
			return fmt.Errorf("absint: loop %s.%s did not converge", f.Name, path)
		}
		z.evalBool(f, head, x.Cond, path, "cond", true)
		body := head.clone()
		if z.refine {
			z.refineBool(f, body, x.Cond, true)
		}
		if err := z.block(f, x.Body, body, path+".body"); err != nil {
			return err
		}
		next := joinStates(head, body)
		if iter >= loopWidenAfter {
			next = widenStates(head, next)
		}
		if statesEqual(head, next) {
			break
		}
		head = next
	}
	*st = *head
	if z.refine {
		z.refineBool(f, st, x.Cond, false)
	}
	return nil
}

// eval computes the abstract value of an expression, joining call arguments
// into callee summaries as a side effect, and records the value at the
// point's discover-vocabulary path during the recording pass.
func (z *interpreter) eval(f *lang.Func, st *state, e lang.Expr, sp, ep string, rec bool) Value {
	var v Value
	switch x := e.(type) {
	case lang.Lit:
		v = Const(x.W, x.V)
	case lang.VarRef:
		v = z.getVar(f, st, x.Name)
	case lang.Bin:
		a := z.eval(f, st, x.A, sp, ep+".a", rec)
		b := z.eval(f, st, x.B, sp, ep+".b", rec)
		v = binOp(x.Op, a, b)
	case lang.Un:
		v = unOp(x.Neg, z.eval(f, st, x.A, sp, ep+".a", rec))
	case lang.Cvt:
		v = cvt(x.W, x.Signed, z.eval(f, st, x.A, sp, ep+".a", rec))
	case lang.InByte:
		z.eval(f, st, x.Idx, sp, ep+".idx", rec)
		// In- and out-of-range reads both yield a plain unwrapped byte.
		v = Range(8, 0, 255)
	case lang.InLen:
		v = Range(32, 0, Mask(32))
	case lang.LoadExpr:
		z.eval(f, st, x.Ptr, sp, ep+".ptr", rec)
		z.eval(f, st, x.Off, sp, ep+".off", rec)
		// Stored cells keep their width and wrapped flag verbatim.
		v = anyTop()
	case lang.CallExpr:
		callee := z.fns[x.Fn]
		for i, arg := range x.Args {
			av := z.eval(f, st, arg, sp, fmt.Sprintf("%s.%d", ep, i), rec)
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
	if z.recording && rec && !st.bot {
		k := point{f.Name, sp + "." + ep}
		if old, ok := z.points[k]; ok {
			z.points[k] = Join(old, v)
		} else {
			z.points[k] = v
		}
	}
	return v
}

// evalBool walks a boolean expression for its recording and call side
// effects, mirroring discover's emitBool path vocabulary.
func (z *interpreter) evalBool(f *lang.Func, st *state, b lang.BoolExpr, sp, ep string, rec bool) {
	switch x := b.(type) {
	case lang.Cmp:
		z.eval(f, st, x.A, sp, ep+".a", rec)
		z.eval(f, st, x.B, sp, ep+".b", rec)
	case lang.NotE:
		z.evalBool(f, st, x.A, sp, ep+".a", rec)
	case lang.AndE:
		z.evalBool(f, st, x.A, sp, ep+".a", rec)
		z.evalBool(f, st, x.B, sp, ep+".b", rec)
	case lang.OrE:
		z.evalBool(f, st, x.A, sp, ep+".a", rec)
		z.evalBool(f, st, x.B, sp, ep+".b", rec)
	}
}
