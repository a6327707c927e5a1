// Package lang defines the core imperative language of the paper's Figure 3:
// arithmetic and boolean expressions over fixed-width machine integers,
// assignments, dynamic memory allocation, memory reads and writes,
// conditionals, loops and sequences. It extends the figure with the features
// the real benchmark applications need — procedures with parameters and
// return values, input-byte access (the InpVar class of variables), warning
// and abort statements (png_warning / png_error analogues) — so that the
// five guest applications can be re-authored faithfully.
//
// Programs built from this AST run on the concrete+symbolic interpreter in
// package interp, which implements the paper's Figures 4–6 semantics.
package lang

import (
	"fmt"
	"strings"
)

// Width is an operand width in bits: 8, 16, 32 or 64.
type Width = uint8

// Expr is an arithmetic expression (Aexp in Figure 3, extended).
type Expr interface{ isExpr() }

// BoolExpr is a boolean expression (Bexp in Figure 3).
type BoolExpr interface{ isBool() }

// Stmt is a statement (Stmt in Figure 3, extended).
type Stmt interface{ isStmt() }

// Block is a statement sequence (Seq in Figure 3).
type Block []Stmt

// BinOp enumerates binary arithmetic operators.
type BinOp uint8

// Binary operators.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpUDiv
	OpURem
	OpAnd
	OpOr
	OpXor
	OpShl
	OpLShr
	OpAShr
)

var binOpNames = [...]string{"add", "sub", "mul", "udiv", "urem", "and", "or", "xor", "shl", "lshr", "ashr"}

func (op BinOp) String() string { return binOpNames[op] }

// CmpOp enumerates comparison operators.
type CmpOp uint8

// Comparison operators.
const (
	CmpEq CmpOp = iota
	CmpNe
	CmpUlt
	CmpUle
	CmpUgt
	CmpUge
	CmpSlt
	CmpSle
	CmpSgt
	CmpSge
)

var cmpOpNames = [...]string{"==", "!=", "<u", "<=u", ">u", ">=u", "<s", "<=s", ">s", ">=s"}

func (op CmpOp) String() string { return cmpOpNames[op] }

// --- expressions ---

// Lit is an integer literal of explicit width.
type Lit struct {
	W Width
	V uint64
}

// VarRef reads a program variable.
type VarRef struct{ Name string }

// Bin applies a binary operator; both operands must have the same width.
type Bin struct {
	Op   BinOp
	A, B Expr
}

// Un applies a unary operator (bitwise not or two's complement negation).
type Un struct {
	Neg bool // true: negation, false: bitwise not
	A   Expr
}

// Cvt converts the operand to width W by zero-extension, sign-extension or
// truncation, depending on the operand's width and the Signed flag.
type Cvt struct {
	W      Width
	Signed bool // sign-extend on widening
	A      Expr
}

// InByte reads the input byte at the given offset. This is the language's
// InpVar access: the result is tainted with the byte's label and, in
// symbolic mode, carries the input-byte variable.
type InByte struct{ Idx Expr }

// InLen evaluates to the input length as an untainted 32-bit value.
type InLen struct{}

// LoadExpr reads memory: block pointed to by Ptr, at offset Off (in cells).
type LoadExpr struct{ Ptr, Off Expr }

// CallExpr invokes a procedure and yields its return value.
type CallExpr struct {
	Fn   string
	Args []Expr
}

func (Lit) isExpr()      {}
func (VarRef) isExpr()   {}
func (Bin) isExpr()      {}
func (Un) isExpr()       {}
func (Cvt) isExpr()      {}
func (InByte) isExpr()   {}
func (InLen) isExpr()    {}
func (LoadExpr) isExpr() {}
func (CallExpr) isExpr() {}

// --- boolean expressions ---

// BoolLit is the constant true or false.
type BoolLit struct{ V bool }

// Cmp compares two arithmetic expressions of equal width.
type Cmp struct {
	Op   CmpOp
	A, B Expr
}

// NotE negates a boolean expression.
type NotE struct{ A BoolExpr }

// AndE is conjunction. Both operands are always evaluated (no short
// circuit), so the recorded symbolic branch condition covers the whole
// expression; guard memory accesses with nested ifs, not with AndE.
type AndE struct{ A, B BoolExpr }

// OrE is disjunction. Both operands are always evaluated.
type OrE struct{ A, B BoolExpr }

func (BoolLit) isBool() {}
func (Cmp) isBool()     {}
func (NotE) isBool()    {}
func (AndE) isBool()    {}
func (OrE) isBool()     {}

// --- statements ---

// Assign sets a variable: x = A.
type Assign struct {
	Var string
	E   Expr
}

// Alloc allocates a memory block of Size cells: x = alloc(A). Site is the
// allocation-site name used in reports (e.g. "png.c@203"); it must be unique
// within a program. When empty, Finalize synthesizes a deterministic name
// from the statement's node path, so unannotated guest programs remain
// huntable.
type Alloc struct {
	Var  string
	Site string
	Size Expr
}

// Store writes memory: Ptr[Off] = Val (cell granularity).
type Store struct{ Ptr, Off, Val Expr }

// If is a conditional. Label identifies the branch for path recording; when
// empty, Program.Finalize assigns one.
type If struct {
	Label string
	Cond  BoolExpr
	Then  Block
	Else  Block
}

// While is a loop. Label identifies the loop-head branch.
type While struct {
	Label string
	Cond  BoolExpr
	Body  Block
}

// ExprStmt evaluates an expression for its side effects (procedure calls).
type ExprStmt struct{ E Expr }

// Return leaves the current procedure; E may be nil for no value.
type Return struct{ E Expr }

// AbortStmt terminates processing with an error message — the analogue of
// png_error / exit(1): the input is rejected, no memory error occurs.
type AbortStmt struct{ Msg string }

// WarnStmt emits a warning message and continues — the analogue of
// png_warning.
type WarnStmt struct{ Msg string }

func (Assign) isStmt()    {}
func (Alloc) isStmt()     {}
func (Store) isStmt()     {}
func (If) isStmt()        {}
func (While) isStmt()     {}
func (ExprStmt) isStmt()  {}
func (Return) isStmt()    {}
func (AbortStmt) isStmt() {}
func (WarnStmt) isStmt()  {}

// Func is a procedure: call-by-value parameters and an optional return value.
type Func struct {
	Name   string
	Params []string
	Body   Block

	slots  map[string]int // variable name → frame slot, or global slot for IsGlobal names
	locals []string       // frame slot → variable name
}

// Program is a set of procedures with a distinguished entry point "main".
type Program struct {
	Name  string
	Funcs map[string]*Func

	finalized   bool
	sites       map[string]bool
	globals     []string       // global slot → variable name
	globalSlots map[string]int // variable name → global slot
}

// IsGlobal reports whether a variable name denotes a program-wide global:
// every name beginning with "g_" (the guest applications' file-scope
// state). Any other name is local to its procedure's frame.
func IsGlobal(name string) bool { return strings.HasPrefix(name, "g_") }

// Slot returns the storage slot Finalize resolved for a variable named in
// f: an index into Program.Globals when global is true, else a frame slot
// (an index into f.Locals). A parameter binds frame slot i for its
// position i even when its name is global; a reference to that name
// elsewhere in the body reads the global. Slot panics on a name f never
// mentions, which includes every name before Finalize.
func (f *Func) Slot(name string) (slot int, global bool) {
	slot, ok := f.slots[name]
	if !ok {
		panic(fmt.Sprintf("lang: %s has no variable %q (program not finalized?)", f.Name, name))
	}
	return slot, IsGlobal(name)
}

// Locals returns f's frame slots' variable names: the parameters first, in
// order, then every other non-global name in order of first occurrence
// (an assignment's target before its right-hand side). The slice is
// shared and must not be modified.
func (f *Func) Locals() []string { return f.locals }

// Globals returns the program's global variable names by global slot, in
// order of first occurrence (functions sorted by name). The slice is
// shared and must not be modified.
func (p *Program) Globals() []string { return p.globals }

// NewProgram returns an empty program with the given name.
func NewProgram(name string) *Program {
	return &Program{Name: name, Funcs: make(map[string]*Func)}
}

// AddFunc registers a procedure.
func (p *Program) AddFunc(f *Func) {
	if _, dup := p.Funcs[f.Name]; dup {
		panic("lang: duplicate function " + f.Name)
	}
	p.Funcs[f.Name] = f
}

// Finalize assigns labels to unlabeled branches and site names to unnamed
// allocations (deterministically, by traversal order), assigns every
// statement a stable node path, validates call targets, checks
// allocation-site uniqueness and resolves every variable to its slot (see
// Func.Slot). It must be called once before execution; later calls are
// no-ops.
func (p *Program) Finalize() error {
	if p.finalized {
		return nil
	}
	if _, ok := p.Funcs["main"]; !ok {
		return fmt.Errorf("lang: program %s has no main", p.Name)
	}
	p.sites = make(map[string]bool)
	p.globals = nil
	p.globalSlots = make(map[string]int)
	names := make([]string, 0, len(p.Funcs))
	for n := range p.Funcs {
		names = append(names, n)
	}
	sortStrings(names)
	for _, n := range names {
		f := p.Funcs[n]
		f.slots = make(map[string]int)
		f.locals = append([]string(nil), f.Params...)
		for i, name := range f.Params {
			if !IsGlobal(name) {
				f.slots[name] = i
			}
		}
		ctr := 0
		if err := p.walkBlock(f, f.Body, &ctr, ""); err != nil {
			return err
		}
	}
	p.finalized = true
	return nil
}

// resolve gives name its slot in f at its first occurrence there.
func (p *Program) resolve(f *Func, name string) {
	if _, ok := f.slots[name]; ok {
		return
	}
	if !IsGlobal(name) {
		f.slots[name] = len(f.locals)
		f.locals = append(f.locals, name)
		return
	}
	g, ok := p.globalSlots[name]
	if !ok {
		g = len(p.globals)
		p.globalSlots[name] = g
		p.globals = append(p.globals, name)
	}
	f.slots[name] = g
}

// WalkStmts visits every statement of every function in deterministic
// order: functions sorted by name, then statements in traversal order —
// the same order Finalize uses to assign labels and node paths. visit
// receives the enclosing function, the statement's stable node path, and
// the statement itself. The traversal is read-only; visitors must not
// mutate the AST.
func (p *Program) WalkStmts(visit func(f *Func, path string, s Stmt)) {
	names := make([]string, 0, len(p.Funcs))
	for n := range p.Funcs {
		names = append(names, n)
	}
	sortStrings(names)
	for _, n := range names {
		f := p.Funcs[n]
		walkBlockRO(f, f.Body, "", visit)
	}
}

func walkBlockRO(f *Func, b Block, prefix string, visit func(*Func, string, Stmt)) {
	for i, s := range b {
		path := joinPath(prefix, fmt.Sprintf("s%d", i))
		visit(f, path, s)
		switch x := s.(type) {
		case If:
			walkBlockRO(f, x.Then, path+".then", visit)
			walkBlockRO(f, x.Else, path+".else", visit)
		case While:
			walkBlockRO(f, x.Body, path+".body", visit)
		}
	}
}

func joinPath(prefix, seg string) string {
	if prefix == "" {
		return seg
	}
	return prefix + "." + seg
}

func (p *Program) walkBlock(f *Func, b Block, ctr *int, prefix string) error {
	for i := range b {
		if err := p.walkStmt(f, &b[i], ctr, joinPath(prefix, fmt.Sprintf("s%d", i))); err != nil {
			return err
		}
	}
	return nil
}

func (p *Program) walkStmt(f *Func, sp *Stmt, ctr *int, path string) error {
	switch s := (*sp).(type) {
	case If:
		if s.Label == "" {
			s.Label = fmt.Sprintf("%s:%s#%d", p.Name, f.Name, *ctr)
		}
		*ctr++
		if err := p.checkBool(f, s.Cond); err != nil {
			return err
		}
		if err := p.walkBlock(f, s.Then, ctr, path+".then"); err != nil {
			return err
		}
		if err := p.walkBlock(f, s.Else, ctr, path+".else"); err != nil {
			return err
		}
		*sp = s
	case While:
		if s.Label == "" {
			s.Label = fmt.Sprintf("%s:%s#%d", p.Name, f.Name, *ctr)
		}
		*ctr++
		if err := p.checkBool(f, s.Cond); err != nil {
			return err
		}
		if err := p.walkBlock(f, s.Body, ctr, path+".body"); err != nil {
			return err
		}
		*sp = s
	case Alloc:
		if s.Site == "" {
			// Zero-annotation guests: synthesize a deterministic name from
			// the statement's stable node path.
			s.Site = fmt.Sprintf("%s:%s#%s", p.Name, f.Name, path)
		}
		if p.sites[s.Site] {
			return fmt.Errorf("lang: duplicate allocation site %q", s.Site)
		}
		p.sites[s.Site] = true
		*sp = s
		p.resolve(f, s.Var)
		return p.checkExpr(f, s.Size)
	case Assign:
		p.resolve(f, s.Var)
		return p.checkExpr(f, s.E)
	case Store:
		for _, e := range []Expr{s.Ptr, s.Off, s.Val} {
			if err := p.checkExpr(f, e); err != nil {
				return err
			}
		}
	case ExprStmt:
		return p.checkExpr(f, s.E)
	case Return:
		if s.E != nil {
			return p.checkExpr(f, s.E)
		}
	}
	return nil
}

// checkExpr validates the calls in e and resolves the variables it reads.
func (p *Program) checkExpr(f *Func, e Expr) error {
	switch x := e.(type) {
	case VarRef:
		p.resolve(f, x.Name)
	case CallExpr:
		callee, ok := p.Funcs[x.Fn]
		if !ok {
			return fmt.Errorf("lang: %s calls undefined function %q", f.Name, x.Fn)
		}
		if len(callee.Params) != len(x.Args) {
			return fmt.Errorf("lang: %s calls %q with %d args, want %d",
				f.Name, x.Fn, len(x.Args), len(callee.Params))
		}
		for _, a := range x.Args {
			if err := p.checkExpr(f, a); err != nil {
				return err
			}
		}
	case Bin:
		if err := p.checkExpr(f, x.A); err != nil {
			return err
		}
		return p.checkExpr(f, x.B)
	case Un:
		return p.checkExpr(f, x.A)
	case Cvt:
		return p.checkExpr(f, x.A)
	case InByte:
		return p.checkExpr(f, x.Idx)
	case LoadExpr:
		if err := p.checkExpr(f, x.Ptr); err != nil {
			return err
		}
		return p.checkExpr(f, x.Off)
	}
	return nil
}

func (p *Program) checkBool(f *Func, b BoolExpr) error {
	switch x := b.(type) {
	case Cmp:
		if err := p.checkExpr(f, x.A); err != nil {
			return err
		}
		return p.checkExpr(f, x.B)
	case NotE:
		return p.checkBool(f, x.A)
	case AndE:
		if err := p.checkBool(f, x.A); err != nil {
			return err
		}
		return p.checkBool(f, x.B)
	case OrE:
		if err := p.checkBool(f, x.A); err != nil {
			return err
		}
		return p.checkBool(f, x.B)
	}
	return nil
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
