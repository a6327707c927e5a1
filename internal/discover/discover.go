// Package discover implements static overflow-site discovery: a pass over
// the finalized lang AST that finds every allocation whose size is
// attacker-influenced and every arithmetic expression (add/sub/mul) whose
// operands are tainted and whose result flows into an allocation size or a
// memory index. This replaces hand-enumerated site lists — any guest
// program becomes huntable with zero annotation.
//
// The pass runs two flow-insensitive boolean fixpoints over the program:
//
//   - a forward taint lattice seeded from In(...) reads, propagated through
//     assignments, arithmetic, memory (one may-tainted bit), and procedure
//     calls (argument→parameter and return summaries);
//   - a backward sink analysis marking the variables, returns and memory
//     cells whose values flow into an Alloc size or a memory index
//     (Store/Load offsets and input-byte indices).
//
// Static taint over-approximates the interpreter's dynamic taint, so the
// discovered alloc-kind sites are always a superset of the sites a dynamic
// taint run can surface. Enumeration follows Program.WalkStmts order, so
// the output is deterministic for a given program.
package discover

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"diode/internal/lang"
)

// Version identifies the discovery algorithm revision. It participates in
// dispatch job keys so results cached under an older discovery pass miss
// cleanly instead of aliasing when the site vocabulary changes.
const Version = "1"

// Kind classifies a discovered site.
type Kind string

// Site kinds.
const (
	// KindAlloc is an allocation statement with a tainted size — the
	// paper's target-site class; these are hunted dynamically.
	KindAlloc Kind = "alloc"
	// KindArith is a tainted add/sub/mul whose result flows into an
	// allocation size or memory index; listed and reported, giving the
	// full overflow surface beyond the allocation statements themselves.
	KindArith Kind = "arith"
)

// Triage is the static value-range verdict for a site, computed by the
// absint pass (empty when the site has not been triaged).
type Triage string

// Triage verdicts.
const (
	// TriageSafe marks a site the abstract interpreter proved can never
	// carry the wrapped flag: the hunt's overflow constraint is
	// unsatisfiable on every path, so the dynamic hunt is skipped.
	TriageSafe Triage = "safe"
	// TriageMustOverflow marks a site whose value wraps on every execution
	// that reaches it — the seed input itself already triggers it.
	TriageMustOverflow Triage = "must-overflow"
	// TriageUnknown marks a site the static pass could not decide; it is
	// hunted dynamically as before.
	TriageUnknown Triage = "unknown"
)

// Bounds is the statically derived unsigned interval of a site's value
// (the Alloc size or the arith node's result), from the guard-refined pass.
type Bounds struct {
	W  lang.Width `json:"w"`
	Lo uint64     `json:"lo"`
	Hi uint64     `json:"hi"`
}

// Site is a discovered overflow site: a structured record replacing the
// bare site-name string that Alloc statements used to carry.
type Site struct {
	// Name uniquely identifies the site within its program. Alloc-kind
	// sites keep the Alloc's site name (hand-assigned or synthesized by
	// Finalize); arith-kind sites are named from their stable node path.
	Name string `json:"name"`
	Kind Kind   `json:"kind"`
	// Func is the enclosing function.
	Func string `json:"func"`
	// Path is the stable node path: the statement path from Finalize,
	// extended with expression-position segments for arith sites.
	Path string `json:"path"`
	// Expr is the rendered source expression (lang.ExprString).
	Expr string `json:"expr"`
	// Taint lists the direct taint sources of the expression's value:
	// "in" for input bytes, tainted variable names, "mem" for tainted
	// loads, and "fn()" for calls with tainted returns. Sorted.
	Taint []string `json:"taint,omitempty"`
	// Triage is the static verdict from the absint pass; empty on sites
	// that have not been triaged (plain Sites output).
	Triage Triage `json:"triage,omitempty"`
	// SafeNoGuards reports that the unguarded pass alone (no branch
	// condition meets) already proves the site safe — the strongest form,
	// independent of which guards the seed path takes.
	SafeNoGuards bool `json:"safeNoGuards,omitempty"`
	// Bounds is the statically derived value interval at the site, when
	// the guarded pass reaches it.
	Bounds *Bounds `json:"bounds,omitempty"`
}

// Sites runs the discovery pass and returns every discovered site in
// deterministic program-traversal order. The program is finalized if it
// has not been already.
func Sites(p *lang.Program) ([]Site, error) {
	if err := p.Finalize(); err != nil {
		return nil, err
	}
	a := newAnalysis(p)
	a.solve()
	return a.enumerate(), nil
}

// Format renders sites as a tab-aligned listing (one row per site:
// name, kind, function, taint sources, expression). The output is pure —
// no timestamps or counters — so it is safe to diff against golden files.
func Format(sites []Site) string {
	var buf strings.Builder
	tw := tabwriter.NewWriter(&buf, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "SITE\tKIND\tFUNC\tTAINT\tEXPR")
	for _, s := range sites {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\n",
			s.Name, s.Kind, s.Func, strings.Join(s.Taint, ","), s.Expr)
	}
	tw.Flush()
	return buf.String()
}

// FormatTriage renders triaged sites as a tab-aligned listing (one row per
// site: name, kind, triage verdict, static bounds, expression). Like
// Format, the output is pure and safe to diff against golden files.
func FormatTriage(sites []Site) string {
	var buf strings.Builder
	tw := tabwriter.NewWriter(&buf, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "SITE\tKIND\tTRIAGE\tBOUNDS\tEXPR")
	for _, s := range sites {
		triage := string(s.Triage)
		if s.Triage == TriageSafe && s.SafeNoGuards {
			triage += "*" // proved without branch-guard refinement
		}
		bounds := "-"
		if s.Bounds != nil {
			bounds = fmt.Sprintf("u%d:[%d,%d]", s.Bounds.W, s.Bounds.Lo, s.Bounds.Hi)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\n", s.Name, s.Kind, triage, bounds, s.Expr)
	}
	tw.Flush()
	return buf.String()
}

// analysis holds the two fixpoint lattices. All facts are monotone
// booleans, so each pass only ever flips false→true and the fixpoints
// terminate.
type analysis struct {
	p *lang.Program

	globals facts            // by global slot
	locals  map[string]facts // func -> facts by frame slot

	// Forward taint: is this value attacker-influenced?
	returns    map[string]bool // func -> return tainted
	memTainted bool            // any store of a tainted value

	// Backward sinks: does this value flow into an alloc size or a
	// memory index?
	sinkReturns map[string]bool
	memSink     bool // some load feeds a sink, so stored values do too

	changed bool
}

// facts are the taint and sink bits of a set of variable slots.
type facts struct {
	tainted, sink []bool
}

func newFacts(n int) facts {
	return facts{tainted: make([]bool, n), sink: make([]bool, n)}
}

func newAnalysis(p *lang.Program) *analysis {
	a := &analysis{
		p:           p,
		globals:     newFacts(len(p.Globals())),
		locals:      make(map[string]facts, len(p.Funcs)),
		returns:     make(map[string]bool),
		sinkReturns: make(map[string]bool),
	}
	for name, f := range p.Funcs {
		a.locals[name] = newFacts(len(f.Locals()))
	}
	return a
}

func (a *analysis) solve() {
	for {
		a.changed = false
		a.taintPass()
		if !a.changed {
			break
		}
	}
	for {
		a.changed = false
		a.sinkPass()
		if !a.changed {
			break
		}
	}
}

// slot returns the facts holding the variable name read or written in f,
// and its index there.
func (a *analysis) slot(f *lang.Func, name string) (facts, int) {
	i, global := f.Slot(name)
	if global {
		return a.globals, i
	}
	return a.locals[f.Name], i
}

func (a *analysis) tainted(f *lang.Func, name string) bool {
	fs, i := a.slot(f, name)
	return fs.tainted[i]
}

func (a *analysis) sinkVar(f *lang.Func, name string) bool {
	fs, i := a.slot(f, name)
	return fs.sink[i]
}

func (a *analysis) set(m map[string]bool, key string) {
	if !m[key] {
		m[key] = true
		a.changed = true
	}
}

func (a *analysis) setBit(b *bool) {
	if !*b {
		*b = true
		a.changed = true
	}
}

// --- forward taint ---

// eval returns whether e's value is tainted, and as a side effect
// propagates tainted arguments into callee parameters. At fixpoint the
// side effects are no-ops, so eval doubles as the pure taint query during
// enumeration.
func (a *analysis) eval(f *lang.Func, e lang.Expr) bool {
	switch x := e.(type) {
	case lang.VarRef:
		return a.tainted(f, x.Name)
	case lang.Bin:
		ta := a.eval(f, x.A)
		tb := a.eval(f, x.B)
		return ta || tb
	case lang.Un:
		return a.eval(f, x.A)
	case lang.Cvt:
		return a.eval(f, x.A)
	case lang.InByte:
		a.eval(f, x.Idx)
		return true
	case lang.LoadExpr:
		a.eval(f, x.Ptr)
		a.eval(f, x.Off)
		return a.memTainted
	case lang.CallExpr:
		for i, arg := range x.Args {
			// Argument i binds the callee's frame slot i.
			if a.eval(f, arg) {
				a.setBit(&a.locals[x.Fn].tainted[i])
			}
		}
		return a.returns[x.Fn]
	}
	return false // Lit, InLen
}

func (a *analysis) evalBool(f *lang.Func, b lang.BoolExpr) {
	switch x := b.(type) {
	case lang.Cmp:
		a.eval(f, x.A)
		a.eval(f, x.B)
	case lang.NotE:
		a.evalBool(f, x.A)
	case lang.AndE:
		a.evalBool(f, x.A)
		a.evalBool(f, x.B)
	case lang.OrE:
		a.evalBool(f, x.A)
		a.evalBool(f, x.B)
	}
}

func (a *analysis) taintPass() {
	a.p.WalkStmts(func(f *lang.Func, _ string, s lang.Stmt) {
		switch x := s.(type) {
		case lang.Assign:
			if a.eval(f, x.E) {
				fs, i := a.slot(f, x.Var)
				a.setBit(&fs.tainted[i])
			}
		case lang.Alloc:
			// The allocated pointer is untainted; only the size matters.
			a.eval(f, x.Size)
		case lang.Store:
			a.eval(f, x.Ptr)
			a.eval(f, x.Off)
			if a.eval(f, x.Val) {
				a.setBit(&a.memTainted)
			}
		case lang.If:
			a.evalBool(f, x.Cond)
		case lang.While:
			a.evalBool(f, x.Cond)
		case lang.ExprStmt:
			a.eval(f, x.E)
		case lang.Return:
			if x.E != nil && a.eval(f, x.E) {
				a.set(a.returns, f.Name)
			}
		}
	})
}

// --- backward sinks ---

// scan records which variables/returns/memory feed a sink context. sink
// is true when e's value flows into an allocation size or memory index.
func (a *analysis) scan(f *lang.Func, e lang.Expr, sink bool) {
	switch x := e.(type) {
	case lang.VarRef:
		if sink {
			fs, i := a.slot(f, x.Name)
			a.setBit(&fs.sink[i])
		}
	case lang.Bin:
		a.scan(f, x.A, sink)
		a.scan(f, x.B, sink)
	case lang.Un:
		a.scan(f, x.A, sink)
	case lang.Cvt:
		a.scan(f, x.A, sink)
	case lang.InByte:
		// The input-byte index is itself a memory index.
		a.scan(f, x.Idx, true)
	case lang.LoadExpr:
		if sink {
			a.setBit(&a.memSink)
		}
		a.scan(f, x.Ptr, false)
		a.scan(f, x.Off, true)
	case lang.CallExpr:
		if sink {
			a.set(a.sinkReturns, x.Fn)
		}
		for i, arg := range x.Args {
			a.scan(f, arg, a.locals[x.Fn].sink[i])
		}
	}
}

func (a *analysis) scanBool(f *lang.Func, b lang.BoolExpr) {
	switch x := b.(type) {
	case lang.Cmp:
		a.scan(f, x.A, false)
		a.scan(f, x.B, false)
	case lang.NotE:
		a.scanBool(f, x.A)
	case lang.AndE:
		a.scanBool(f, x.A)
		a.scanBool(f, x.B)
	case lang.OrE:
		a.scanBool(f, x.A)
		a.scanBool(f, x.B)
	}
}

func (a *analysis) sinkPass() {
	a.p.WalkStmts(func(f *lang.Func, _ string, s lang.Stmt) {
		switch x := s.(type) {
		case lang.Assign:
			a.scan(f, x.E, a.sinkVar(f, x.Var))
		case lang.Alloc:
			a.scan(f, x.Size, true)
		case lang.Store:
			a.scan(f, x.Ptr, false)
			a.scan(f, x.Off, true)
			a.scan(f, x.Val, a.memSink)
		case lang.If:
			a.scanBool(f, x.Cond)
		case lang.While:
			a.scanBool(f, x.Cond)
		case lang.ExprStmt:
			a.scan(f, x.E, false)
		case lang.Return:
			if x.E != nil {
				a.scan(f, x.E, a.sinkReturns[f.Name])
			}
		}
	})
}

// --- enumeration ---

// labels collects the direct taint sources of e's value into set.
// Positions that do not flow into the value (load/input indices, call
// arguments) are excluded — they have their own sites.
func (a *analysis) labels(f *lang.Func, e lang.Expr, set map[string]bool) {
	switch x := e.(type) {
	case lang.VarRef:
		if a.tainted(f, x.Name) {
			set[x.Name] = true
		}
	case lang.Bin:
		a.labels(f, x.A, set)
		a.labels(f, x.B, set)
	case lang.Un:
		a.labels(f, x.A, set)
	case lang.Cvt:
		a.labels(f, x.A, set)
	case lang.InByte:
		set["in"] = true
	case lang.LoadExpr:
		if a.memTainted {
			set["mem"] = true
		}
	case lang.CallExpr:
		if a.returns[x.Fn] {
			set[x.Fn+"()"] = true
		}
	}
}

func (a *analysis) labelList(f *lang.Func, e lang.Expr) []string {
	set := make(map[string]bool)
	a.labels(f, e, set)
	if len(set) == 0 {
		return nil
	}
	out := make([]string, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sortStrings(out)
	return out
}

func isArith(op lang.BinOp) bool {
	return op == lang.OpAdd || op == lang.OpSub || op == lang.OpMul
}

// enumerate walks the program once more in deterministic order, emitting
// an alloc Site per statically-tainted allocation and an arith Site per
// tainted add/sub/mul in a sink position (including nested ones).
func (a *analysis) enumerate() []Site {
	var out []Site
	a.p.WalkStmts(func(f *lang.Func, path string, s lang.Stmt) {
		switch x := s.(type) {
		case lang.Assign:
			a.emit(f, path, "e", x.E, a.sinkVar(f, x.Var), &out)
		case lang.Alloc:
			if a.eval(f, x.Size) {
				out = append(out, Site{
					Name:  x.Site,
					Kind:  KindAlloc,
					Func:  f.Name,
					Path:  path,
					Expr:  lang.ExprString(x.Size),
					Taint: a.labelList(f, x.Size),
				})
			}
			a.emit(f, path, "size", x.Size, true, &out)
		case lang.Store:
			a.emit(f, path, "ptr", x.Ptr, false, &out)
			a.emit(f, path, "off", x.Off, true, &out)
			a.emit(f, path, "val", x.Val, a.memSink, &out)
		case lang.If:
			a.emitBool(f, path, "cond", x.Cond, &out)
		case lang.While:
			a.emitBool(f, path, "cond", x.Cond, &out)
		case lang.ExprStmt:
			a.emit(f, path, "e", x.E, false, &out)
		case lang.Return:
			if x.E != nil {
				a.emit(f, path, "ret", x.E, a.sinkReturns[f.Name], &out)
			}
		}
	})
	return out
}

// emit descends into e, tracking the sink context exactly as scan does,
// and appends an arith Site for every tainted add/sub/mul in sink
// position. exprPath names e's position within its statement.
func (a *analysis) emit(f *lang.Func, stmtPath, exprPath string, e lang.Expr, sink bool, out *[]Site) {
	switch x := e.(type) {
	case lang.Bin:
		if sink && isArith(x.Op) && a.eval(f, e) {
			*out = append(*out, Site{
				Name:  fmt.Sprintf("%s:%s#%s.%s@%s", a.p.Name, f.Name, stmtPath, exprPath, x.Op),
				Kind:  KindArith,
				Func:  f.Name,
				Path:  stmtPath + "." + exprPath,
				Expr:  lang.ExprString(e),
				Taint: a.labelList(f, e),
			})
		}
		a.emit(f, stmtPath, exprPath+".a", x.A, sink, out)
		a.emit(f, stmtPath, exprPath+".b", x.B, sink, out)
	case lang.Un:
		a.emit(f, stmtPath, exprPath+".a", x.A, sink, out)
	case lang.Cvt:
		a.emit(f, stmtPath, exprPath+".a", x.A, sink, out)
	case lang.InByte:
		a.emit(f, stmtPath, exprPath+".idx", x.Idx, true, out)
	case lang.LoadExpr:
		a.emit(f, stmtPath, exprPath+".ptr", x.Ptr, false, out)
		a.emit(f, stmtPath, exprPath+".off", x.Off, true, out)
	case lang.CallExpr:
		for i, arg := range x.Args {
			a.emit(f, stmtPath, fmt.Sprintf("%s.%d", exprPath, i), arg,
				a.locals[x.Fn].sink[i], out)
		}
	}
}

func (a *analysis) emitBool(f *lang.Func, stmtPath, exprPath string, b lang.BoolExpr, out *[]Site) {
	switch x := b.(type) {
	case lang.Cmp:
		a.emit(f, stmtPath, exprPath+".a", x.A, false, out)
		a.emit(f, stmtPath, exprPath+".b", x.B, false, out)
	case lang.NotE:
		a.emitBool(f, stmtPath, exprPath+".a", x.A, out)
	case lang.AndE:
		a.emitBool(f, stmtPath, exprPath+".a", x.A, out)
		a.emitBool(f, stmtPath, exprPath+".b", x.B, out)
	case lang.OrE:
		a.emitBool(f, stmtPath, exprPath+".a", x.A, out)
		a.emitBool(f, stmtPath, exprPath+".b", x.B, out)
	}
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
